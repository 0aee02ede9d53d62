import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cohlab import cli, experiments
from cohlab.analytics import (
    MIN_DIM_FOR_NONTRIVIAL_SUBSPACE,
    levy_bound_cr,
    levy_bound_purity,
    levy_bound_trdist,
    lipschitz_cr,
    subspace_dimension,
)
from cohlab.cli import main
from cohlab.streams import STREAM_VERSION


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    envelope = json.loads(out)
    assert envelope["schema_version"] == "2"
    assert envelope["stream_version"] == STREAM_VERSION
    assert "stream_version" not in envelope["payload"]
    assert "timestamp_utc" in envelope
    return envelope


def subspace_frame_bytes(dim, eps_frac):
    return 16 * dim * subspace_dimension(dim, eps_frac * math.log(dim)).s


def least_subspace_dim_past_cap(eps_frac):
    # the frame grows with d at fixed eps_frac: bisect on 16 d s > MAX_ALLOC_BYTES
    lo, hi = MIN_DIM_FOR_NONTRIVIAL_SUBSPACE, 10**9
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if subspace_frame_bytes(mid, eps_frac) > experiments.MAX_ALLOC_BYTES:
            hi = mid
        else:
            lo = mid
    return hi


# every command that writes a JSON envelope (verify prints text only)
ENVELOPE_COMMANDS = {
    "expect": ["expect", "--dim", "20"],
    "concentrate": ["concentrate", "--measure", "cr", "--dim", "5", "--trials", "50"],
    "subspace": ["subspace", "--dim", "34000", "--eps-frac", "0.99", "--states", "4"],
    "bounds": ["bounds", "--dim", "100", "--eps", "0.5"],
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_COMMANDS))
def test_envelope_carries_stream_version(capsys, command):
    env = run_json(capsys, ENVELOPE_COMMANDS[command])
    assert env["command"] == command
    assert env["stream_version"] == "10"
    assert set(env) == {"schema_version", "stream_version", "command", "timestamp_utc", "payload"}


class TestExpect:
    def test_d20_values(self, capsys):
        env = run_json(capsys, ["expect", "--dim", "20"])
        payload = env["payload"]
        assert env["command"] == "expect"
        assert abs(payload["expected_cr"] - 2.597739657143682) < 1e-12
        assert abs(payload["expected_cr_scaled"] - 0.8671468008260464) < 1e-12
        assert payload["unit"] == "nats"

    def test_d2_values(self, capsys):
        payload = run_json(capsys, ["expect", "--dim", "2"])["payload"]
        assert payload["expected_cr"] == 0.5
        assert abs(payload["expected_trace_distance"] - 0.5) < 1e-15

    def test_d100_purity(self, capsys):
        payload = run_json(capsys, ["expect", "--dim", "100"])["payload"]
        assert abs(payload["expected_classical_purity"] - 2.0 / 101.0) < 1e-15

    def test_dim_whose_cube_is_past_the_float_range(self, capsys):
        # every entry is finite at d = 10^200, the l1 mean and bound too
        code, out, _ = run_cli(capsys, ["expect", "--dim", str(10**200)])
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["expected_l1"] == pytest.approx(1e200 * math.pi / 4, rel=1e-15)
        assert payload["typical_l1_upper"] == pytest.approx(1e200, rel=1e-15)
        assert all(math.isfinite(v) for v in payload.values() if not isinstance(v, str))

    def test_invalid_dim_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["expect", "--dim", "1"])
        assert code == 2
        assert "dim" in err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, ["expect", "--dim", "20", "--format", "text"])
        assert code == 0
        assert "expected_cr" in out

    def test_bits_conversion(self, capsys):
        nats = run_json(capsys, ["expect", "--dim", "16"])["payload"]
        bits = run_json(capsys, ["expect", "--dim", "16", "--bits"])["payload"]
        assert bits["unit"] == "bits"
        assert abs(bits["expected_cr"] - nats["expected_cr"] / math.log(2)) < 1e-12
        assert abs(bits["log_dim"] - 4.0) < 1e-12
        # dimensionless entries are untouched
        assert bits["expected_cr_scaled"] == nats["expected_cr_scaled"]
        assert bits["expected_classical_purity"] == nats["expected_classical_purity"]


class TestConcentrate:
    ARGS = [
        "concentrate", "--measure", "cr", "--dim", "10", "--trials", "2000",
        "--seed", "5", "--eps", "0.2,0.5", "--bins", "12",
    ]

    def test_json_payload_shape(self, capsys):
        env = run_json(capsys, self.ARGS)
        payload = env["payload"]
        assert payload["config"]["dim"] == 10
        assert payload["config"]["measure_kind"] == "cr"
        assert len(payload["histogram"]) == 12
        assert sum(row[2] for row in payload["histogram"]) == 2000
        assert len(payload["tails"]) == 2

    def test_payload_identical_across_threads(self, capsys, chunk_workers):
        # 10000 trials at d = 10 are 3 chunks of at most 4096 (the last --trials wins)
        args = self.ARGS + ["--trials", "10000"]
        pools = chunk_workers(1)
        one = run_json(capsys, args)["payload"]
        chunk_workers(4)
        four = run_json(capsys, args)["payload"]
        assert pools == [3]
        assert json.dumps(one, sort_keys=True) == json.dumps(four, sort_keys=True)

    def test_json_text_equals_the_asdict_route(self, capsys):
        code, out, err = run_cli(capsys, self.ARGS)
        assert code == 0, err
        report = experiments.run_concentration(
            dim=10, trials=2000, master_seed=5, epsilons=(0.2, 0.5), histogram_bins=12
        )
        expected = cli._dump_json(cli._envelope("concentrate", dataclasses.asdict(report)))

        def timestamp_aside(text):
            return [line for line in text.splitlines() if '"timestamp_utc"' not in line]

        assert timestamp_aside(out) == timestamp_aside(expected)

    def test_csv_matches_json_histogram(self, capsys):
        env = run_json(capsys, self.ARGS)
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        rows = [line.split(",") for line in lines[1:]]
        json_hist = env["payload"]["histogram"]
        assert len(rows) == len(json_hist)
        for row, ref in zip(rows, json_hist):
            assert float(row[0]) == ref[0]
            assert float(row[1]) == ref[1]
            assert int(row[2]) == ref[2]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, self.ARGS + ["--out", str(target)])
        assert code == 0
        assert out == ""
        envelope = json.loads(target.read_text())
        assert envelope["payload"]["config"]["trials"] == 2000

    def test_bad_measure_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["concentrate", "--measure", "entropy", "--dim", "4", "--trials", "10"])
        assert exc.value.code == 2


class TestSubspace:
    def test_vacuous_exits_4_with_note(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["subspace", "--dim", "1000", "--eps-frac", "0.5", "--states", "10"],
        )
        assert code == 4
        assert str(MIN_DIM_FOR_NONTRIVIAL_SUBSPACE) in err

    def test_bad_frac_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["subspace", "--dim", "1000", "--eps-frac", "1.5", "--states", "10"],
        )
        assert code == 2

    @pytest.mark.parametrize("dim", ["0", "-5"])
    def test_nonpositive_dim_exits_2(self, capsys, dim):
        code, out, err = run_cli(
            capsys, ["subspace", "--dim", dim, "--eps-frac", "0.5", "--states", "10"]
        )
        assert code == 2
        assert out == ""
        assert "dimension must be >= 1" in err

    def test_smoke_run(self, capsys):
        env = run_json(
            capsys,
            ["subspace", "--dim", "34000", "--eps-frac", "0.999", "--states", "50", "--seed", "3"],
        )
        payload = env["payload"]
        assert payload["sub_dim"] == 2
        assert payload["violations"] == 0
        assert payload["eps_frac"] == 0.999
        assert payload["n_states"] == 50

    def test_text_format(self, capsys):
        argv = ["subspace", "--dim", "34000", "--eps-frac", "0.999", "--states", "50", "--seed", "3"]
        min_cr = run_json(capsys, argv)["payload"]["min_observed_cr"]
        code, out, _ = run_cli(capsys, argv + ["--format", "text"])
        assert code == 0
        # the payload's keys in sorted order, floats to 10 significant digits
        assert out.splitlines() == [
            "dim              34000",
            "eps              10.42368169",
            "eps_frac         0.999",
            "master_seed      3",
            f"min_observed_cr  {min_cr:.10g}",
            "n_states         50",
            "small_d_warning  False",
            "sub_dim          2",
            "threshold        -0.4123355135",
            "violations       0",
        ]


class TestBounds:
    def test_theorem1_frozen_value(self, capsys):
        payload = run_json(
            capsys,
            ["bounds", "--dim", "10000000", "--eps", "0.5", "--theorem", "1"],
        )["payload"]
        (entry,) = payload["bounds"]
        assert entry["theorem"] == "1"
        assert abs(entry["raw"] - 7.9e-6) < 1e-7
        assert entry["effective"] == entry["raw"]

    def test_vacuous_bound_effective_one(self, capsys):
        payload = run_json(
            capsys, ["bounds", "--dim", "1000", "--eps", "1", "--theorem", "1"]
        )["payload"]
        (entry,) = payload["bounds"]
        assert abs(entry["raw"] - 1.9465) < 1e-3
        assert entry["effective"] == 1.0

    def test_theorem1_small_dim_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--dim", "2", "--eps", "0.5", "--theorem", "1"])
        assert code == 2

    def test_default_lists_applicable_theorems(self, capsys):
        payload = run_json(capsys, ["bounds", "--dim", "100", "--eps", "0.05"])["payload"]
        expected = [
            ("1", levy_bound_cr(100, 0.05), lipschitz_cr(100)),
            ("3", levy_bound_purity(100, 0.05), 2.0),
            ("4", levy_bound_trdist(100, 0.05), 2.0),
        ]
        assert payload["bounds"] == [
            {
                "theorem": theorem, "dim": 100, "eps": 0.05, "eta": eta,
                "raw": bound.raw, "effective": bound.effective, "log_raw": bound.log_raw,
            }
            for theorem, bound, eta in expected
        ]
        three = payload["bounds"][1]
        four = payload["bounds"][2]
        assert three["raw"] == four["raw"]

    def test_generic_requires_eta(self, capsys):
        code, _, err = run_cli(
            capsys, ["bounds", "--dim", "100", "--eps", "0.05", "--theorem", "generic"]
        )
        assert code == 2
        assert "--eta" in err

    @pytest.mark.parametrize("theorem", ["1", "3", "4"])
    def test_eta_with_numbered_theorem_exits_2(self, capsys, monkeypatch, theorem):
        # a numbered theorem has its own Lipschitz constant, so --eta would be
        # dropped; it is refused before any bound is evaluated
        def unreachable(*args):
            raise AssertionError("bound evaluated")

        for name in ("levy_bound_cr", "levy_bound_purity", "levy_bound_trdist", "levy_generic"):
            monkeypatch.setattr(cli.analytics, name, unreachable)
        code, out, err = run_cli(
            capsys, ["bounds", "--dim", "100", "--eps", "0.05", "--theorem", theorem, "--eta", "2"]
        )
        assert code == 2
        assert out == ""
        assert "--eta" in err

    def test_generic_with_eta(self, capsys):
        payload = run_json(
            capsys,
            ["bounds", "--dim", "100", "--eps", "0.05", "--eta", "2", "--theorem", "generic"],
        )["payload"]
        (entry,) = payload["bounds"]
        assert entry["theorem"] == "generic"
        # k + 1 = 2d with eta = 2 reproduces the theorem-3 form
        ref = run_json(
            capsys, ["bounds", "--dim", "100", "--eps", "0.05", "--theorem", "3"]
        )["payload"]["bounds"][0]
        assert entry["log_raw"] == ref["log_raw"]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bounds", "--dim", "100", "--eps", "0.05", "--format", "text"]
        )
        assert code == 0
        assert out.splitlines() == [
            "theorem       1: raw 1.999970e+00  effective 1.000000e+00  log_raw 0.693132",
            "theorem       3: raw 1.998708e+00  effective 1.000000e+00  log_raw 0.692501",
            "theorem       4: raw 1.998708e+00  effective 1.000000e+00  log_raw 0.692501",
        ]


class TestVerify:
    def test_inequalities_suite_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "inequalities", "--seed", "1"])
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        from cohlab import cli
        from cohlab.experiments import CheckResult

        monkeypatch.setitem(
            cli._SUITES, "integral", lambda seed: [CheckResult("forced", False, "x")]
        )
        code, out, _ = run_cli(capsys, ["verify", "--suite", "integral"])
        assert code == 1
        assert "[FAIL] forced" in out

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        from cohlab import cli

        def boom(seed):
            raise FloatingPointError("synthetic overflow")

        monkeypatch.setitem(cli._SUITES, "integral", boom)
        code, _, err = run_cli(capsys, ["verify", "--suite", "integral"])
        assert code == 3
        assert "numeric failure" in err


def test_payload_roundtrips_losslessly(capsys):
    argv = [
        "concentrate", "--measure", "trdist", "--dim", "6", "--trials", "500",
        "--seed", "2", "--eps", "0.1",
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["payload"]
    assert json.loads(json.dumps(payload)) == payload


class TestBoundaryExitCodes:
    @pytest.mark.parametrize("eps", ["nan", "inf", "0.1,nan", "0.1,inf"])
    def test_concentrate_non_finite_eps_exits_2(self, capsys, eps):
        code, out, err = run_cli(
            capsys,
            ["concentrate", "--measure", "cr", "--dim", "10", "--trials", "20", "--eps", eps],
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_concentrate_duplicate_eps_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["concentrate", "--measure", "cr", "--dim", "10", "--trials", "20", "--eps", "0.1,0.1"],
        )
        assert code == 2
        assert out == ""
        assert "distinct" in err

    @pytest.mark.parametrize("theorem", ["1", "3", "4"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_bounds_non_finite_eps_exits_2(self, capsys, theorem, eps):
        code, out, err = run_cli(
            capsys, ["bounds", "--dim", "10", "--eps", eps, "--theorem", theorem]
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("eps, eta", [("nan", "2"), ("0.5", "nan"), ("0.5", "inf")])
    def test_generic_bound_non_finite_exits_2(self, capsys, eps, eta):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--dim", "10", "--eps", eps, "--eta", eta, "--theorem", "generic"],
        )
        assert code == 2
        assert out == ""

    def test_underflowing_tail_bound_reports_zero(self, capsys):
        # the bound whose log is -inf is 0, and concentrate reports only raw and effective
        tails = run_json(
            capsys,
            ["concentrate", "--measure", "cr", "--dim", "10", "--trials", "20", "--eps", "1e200"],
        )["payload"]["tails"]
        assert tails == [[1e200, 0.0, 0.0, 0.0]]

    def test_overflowing_log_bound_exits_3(self, capsys):
        # eps^2 overflows, so log_raw would be -Infinity: not strict JSON
        code, out, err = run_cli(capsys, ["bounds", "--dim", "10", "--eps", "1e200"])
        assert code == 3
        assert out == ""
        assert "numeric failure" in err

    def test_theorem_3_overflows_where_the_generic_bound_does(self, capsys):
        # theorem 3 is the generic bound at k + 1 = 2d, so 2 d eps^2 overflows
        # here although d eps^2 = 9e307 does not
        code, out, err = run_cli(
            capsys, ["bounds", "--dim", "1000", "--eps", "3e152", "--theorem", "3"]
        )
        assert code == 3
        assert out == ""
        assert "numeric failure" in err

    def test_unwritable_out_exits_5(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, _, err = run_cli(capsys, ["expect", "--dim", "10", "--out", str(target)])
        assert code == 5
        assert "I/O failure" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv",
        [["expect", "--dim", "10"], ["verify", "--suite", "integral"]],
        ids=["expect", "verify"],
    )
    def test_closed_stdout_exits_0_silently(self, argv):
        # like `cohlab ... | head -c 1`: the reader closes before anything is written
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cohlab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert err == b""

    def test_memory_error_exits_6(self, capsys, monkeypatch):
        from cohlab import experiments

        def exhausted(*args, **kwargs):
            raise MemoryError("synthetic allocation failure")

        monkeypatch.setattr(experiments, "run_concentration", exhausted)
        code, out, err = run_cli(
            capsys, ["concentrate", "--measure", "cr", "--dim", "10", "--trials", "20"]
        )
        assert code == 6
        assert out == ""
        assert "out of memory" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["concentrate", "--measure", "cr", "--dim", str(10**30), "--trials", "1"],
            ["subspace", "--dim", str(10**30), "--eps-frac", "0.5", "--states", "1"],
            # one state of 16 d bytes just past the cap
            ["concentrate", "--measure", "cr", "--dim", str(experiments.MAX_ALLOC_BYTES // 16 + 1), "--trials", "1"],
            # the least d whose subspace frame of 16 d s bytes is past the cap
            ["subspace", "--dim", str(least_subspace_dim_past_cap(0.5)), "--eps-frac", "0.5", "--states", "1"],
            # s = 4: a frame of 640 MB, inside the cap, but a quadratic-form
            # projection frame of 8 d s^2 bytes (1.28 GB) past it
            ["subspace", "--dim", str(10**7), "--eps-frac", "0.14", "--states", "1"],
            # s = 4: the least d whose quadratic-form projection frame, with
            # one row block of the frame and the temporaries of one block of
            # it, is past the cap (8 d s^2 = 1.072 GB)
            ["subspace", "--dim", "8376321", "--eps-frac", "0.15", "--states", "1"],
            # d past the float range: s is still an exact integer, and its
            # frame is past the cap
            ["subspace", "--dim", str(2 * 10**308), "--eps-frac", "0.9", "--states", "2"],
            # a histogram payload of about 650 bytes per bin
            ["concentrate", "--measure", "cr", "--dim", "1000", "--trials", "5", "--bins", str(10**9)],
            # 8 bytes per trial value; the chunk bounds alone would be 3.8e9 tuples
            ["concentrate", "--measure", "cr", "--dim", "1000", "--trials", str(10**12)],
        ],
        ids=[
            "concentrate-1e30",
            "subspace-1e30",
            "concentrate-past-cap",
            "subspace-past-cap",
            "subspace-projection-past-cap",
            "subspace-frame-and-projection-past-cap",
            "subspace-2e308",
            "concentrate-1e9-bins",
            "concentrate-1e12-trials",
        ],
    )
    def test_oversize_request_exits_6_before_allocating(self, capsys, monkeypatch, argv):
        def allocate(*args):
            raise AssertionError("a refused request reached the sampler")

        monkeypatch.setattr(experiments, "haar_prob_rows", allocate)
        monkeypatch.setattr(experiments, "_subspace_row_blocks", allocate)
        code, out, err = run_cli(capsys, argv)
        assert code == 6
        assert out == ""
        assert f"over the cap of {experiments.MAX_ALLOC_BYTES} bytes" in err

    def test_sizes_just_inside_the_cap_pass_the_check(self):
        # arithmetic only: these sizes would allocate about 1 GiB if run
        experiments._check_alloc(16 * (experiments.MAX_ALLOC_BYTES // 16), "one state")
        d = least_subspace_dim_past_cap(0.5) - 1
        experiments._check_alloc(subspace_frame_bytes(d, 0.5), "a subspace frame")
        bins = experiments.MAX_ALLOC_BYTES // experiments._HISTOGRAM_BIN_BYTES
        experiments._check_alloc(experiments._HISTOGRAM_BIN_BYTES * bins, "a histogram")
        experiments._check_alloc(8 * (experiments.MAX_ALLOC_BYTES // 8), "trial values")

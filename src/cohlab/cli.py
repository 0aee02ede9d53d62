"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
failure, 4 vacuous guarantee, 5 I/O failure (e.g. an unwritable
``--out``), 6 out of memory.  Reports are wrapped in a strict JSON envelope
(no NaN or Infinity) that carries the schema version and the stream
contract version next to the payload; histogram CSV uses
``bin_low,bin_high,count`` rows.  Values are in nats unless stated
otherwise.  The campaigns' chunk and block shapes and their threading are
those of :mod:`cohlab.experiments`; the payload bytes do not depend on the
thread count.  A reader that closes stdout early (``| head``) is no I/O
failure: the unread output is dropped and the command's exit code stands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

from . import analytics, experiments
from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidEpsilonError,
    UnsupportedDimensionError,
    VacuousGuaranteeError,
)
from .streams import STREAM_VERSION

SCHEMA_VERSION = "1"


def _envelope(command: str, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "stream_version": STREAM_VERSION,
        "command": command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "payload": payload,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader of stdout has gone; point stdout at devnull so that the
        # flush at exit, with the unread rest still buffered, stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _output(args: argparse.Namespace, payload, text) -> int:
    """Emit the dict ``payload()`` in the envelope of ``args.command`` under
    ``--format json``, else the string ``text()``; exit code 0.  Only the one
    emitted is built: the dict of a report with 1e6 histogram bins took about
    5 s of a CSV run's 8 s on a 2-CPU Xeon."""
    if args.format == "json":
        _emit(_dump_json(_envelope(args.command, payload())), args.out)
    else:
        _emit(text(), args.out)
    return 0


def _parse_eps_list(raw: str | None) -> tuple[float, ...]:
    if not raw:
        return ()
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise InvalidArgumentError(f"could not parse epsilon list {raw!r}") from exc
    return tuple(sorted(values))


def _text_table(rows: list[tuple[str, object]]) -> str:
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        if isinstance(value, float):
            lines.append(f"{name:<{width}}  {value:.10g}")
        else:
            lines.append(f"{name:<{width}}  {value}")
    return "\n".join(lines)


def cmd_expect(args: argparse.Namespace) -> int:
    d = args.dim
    if d < 2:
        raise InvalidDimensionError(f"expect needs dim >= 2, got {d}")
    log_d = math.log(d)
    ecr = analytics.expected_cr(d)
    unit = "bits" if args.bits else "nats"
    scale = math.log(2.0) if args.bits else 1.0
    payload = {
        "dim": d,
        "unit": unit,
        "log_dim": log_d / scale,
        "expected_cr": ecr / scale,
        "expected_cr_scaled": ecr / log_d,
        "expected_classical_purity": analytics.expected_classical_purity(d),
        "expected_trace_distance": analytics.expected_trace_distance(d),
        "trace_distance_limit": 2.0 / math.e,
        "typical_l1_upper": analytics.typical_l1_upper(d),
        "l1_trivial_bound": float(d - 1),
        "fannes_asymptote": analytics.fannes_asymptote(),
    }
    return _output(args, lambda: payload, lambda: _text_table(sorted(payload.items())))


def cmd_concentrate(args: argparse.Namespace) -> int:
    config = experiments.ExperimentConfig(
        dim=args.dim,
        trials=args.trials,
        master_seed=args.seed,
        epsilons=_parse_eps_list(args.eps),
        histogram_bins=args.bins,
        measure_kind=args.measure,
    )
    report = experiments.run_concentration(config)
    for eps, freq, eff in report.tail_bound_flags():
        print(
            f"warning: tail frequency {freq:.6g} exceeds Levy bound {eff:.6g} "
            f"at eps={eps:.6g}",
            file=sys.stderr,
        )

    def csv() -> str:
        lines = ["bin_low,bin_high,count"]
        lines += [f"{lo!r},{hi!r},{count}" for lo, hi, count in report.histogram]
        return "\n".join(lines)

    # the report's fields as they are, with only the config made a dict: the
    # same JSON text as asdict(report), without a deep copy of the histogram
    return _output(args, lambda: {**vars(report), "config": asdict(report.config)}, csv)


def cmd_subspace(args: argparse.Namespace) -> int:
    if args.dim < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {args.dim}")
    if not 0.0 < args.eps_frac < 1.0:
        raise InvalidEpsilonError(f"--eps-frac must lie in (0, 1), got {args.eps_frac}")
    eps = args.eps_frac * math.log(args.dim)
    report = experiments.run_subspace_floor(args.dim, eps, args.states, args.seed)
    payload = asdict(report)
    payload["eps_frac"] = args.eps_frac
    return _output(args, lambda: payload, lambda: _text_table(sorted(payload.items())))


# the paper's Levy theorems, by number, with the measure each bounds
_THEOREMS = {m.theorem: m for m in experiments._MEASURES.values() if m.theorem is not None}


def cmd_bounds(args: argparse.Namespace) -> int:
    d, eps, wanted = args.dim, args.eps, args.theorem
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    entries = []

    def add(theorem: str, bound: analytics.BoundValue, eta: float) -> None:
        entries.append({"theorem": theorem, "dim": d, "eps": eps, "eta": eta, **asdict(bound)})

    for theorem, m in _THEOREMS.items():
        if wanted not in (None, theorem):
            continue
        if d < m.bound_min_dim:
            # unless asked for by number, a theorem that does not hold at d is left out
            if wanted == theorem:
                raise UnsupportedDimensionError(f"theorem {theorem} needs dim >= {m.bound_min_dim}")
            continue
        add(theorem, getattr(analytics, m.bound)(d, eps), getattr(analytics, m.lipschitz)(d))
    if wanted == "generic" or (wanted is None and args.eta is not None):
        if args.eta is None:
            raise InvalidArgumentError("--theorem generic requires --eta")
        add("generic", analytics.levy_generic(2 * d - 1, eps, args.eta), args.eta)

    def text() -> str:
        lines = []
        for e in entries:
            lines.append(
                f"theorem {e['theorem']:>7}: raw {e['raw']:.6e}  "
                f"effective {e['effective']:.6e}  log_raw {e['log_raw']:.6f}"
            )
        return "\n".join(lines)

    return _output(args, lambda: {"bounds": entries}, text)


_SUITES = {
    "integral": lambda seed: experiments.verify_integral(),
    "matrix": experiments.verify_matrix,
    "inequalities": experiments.verify_inequalities,
    "moments": experiments.verify_moments,
}


def cmd_verify(args: argparse.Namespace) -> int:
    results = _SUITES[args.suite](args.seed)
    lines = [
        f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}"
        for res in results
    ]
    failed = sum(1 for res in results if not res.passed)
    lines.append(f"suite {args.suite}: {len(results) - failed}/{len(results)} checks passed")
    _emit("\n".join(lines), None)
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohlab",
        description="Coherence typicality of Haar-random pure states: "
        "closed forms, bounds, and reproducible Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expect = sub.add_parser("expect", help="analytic table of closed forms for one dimension")
    p_expect.add_argument("--dim", type=int, required=True)
    p_expect.add_argument("--format", choices=("json", "text"), default="json")
    p_expect.add_argument("--bits", action="store_true", help="display entropies in bits (display only)")
    p_expect.add_argument("--out", default=None, help="write output to a file instead of stdout")
    p_expect.set_defaults(func=cmd_expect)

    p_conc = sub.add_parser("concentrate", help="run a concentration campaign")
    p_conc.add_argument("--measure", choices=experiments.MEASURE_KINDS, required=True)
    p_conc.add_argument("--dim", type=int, required=True)
    p_conc.add_argument("--trials", type=int, required=True)
    p_conc.add_argument("--seed", type=int, default=0)
    p_conc.add_argument("--eps", default=None, help="comma-separated deviations for tail frequencies")
    p_conc.add_argument("--bins", type=int, default=50)
    p_conc.add_argument("--format", choices=("json", "csv"), default="json")
    p_conc.add_argument("--out", default=None)
    p_conc.set_defaults(func=cmd_concentrate)

    p_sub = sub.add_parser("subspace", help="sampled check of the coherent-subspace floor")
    p_sub.add_argument("--dim", type=int, required=True)
    p_sub.add_argument("--eps-frac", type=float, required=True, help="eps as a fraction of ln d, in (0, 1)")
    p_sub.add_argument("--states", type=int, required=True)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--format", choices=("json", "text"), default="json")
    p_sub.add_argument("--out", default=None)
    p_sub.set_defaults(func=cmd_subspace)

    p_bounds = sub.add_parser("bounds", help="evaluate concentration bounds")
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.add_argument("--eps", type=float, required=True)
    p_bounds.add_argument("--eta", type=float, default=None, help="Lipschitz constant for the generic bound")
    p_bounds.add_argument("--theorem", choices=(*_THEOREMS, "generic"), default=None)
    p_bounds.add_argument("--format", choices=("json", "text"), default="json")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VacuousGuaranteeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (
        InvalidDimensionError,
        UnsupportedDimensionError,
        InvalidEpsilonError,
        InvalidArgumentError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())

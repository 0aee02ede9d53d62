"""A fresh interpreter runs the CLI without loading scipy, the subspace
frame's Cholesky QR included; only the quadrature cross-check of the mean
imports it.  Nor does it load fractions, which only a subspace dimension
past the float range needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import contextlib, io, json, sys
import cohlab, cohlab.cli
argvs = (
    ["expect", "--dim", "10"],
    ["bounds", "--dim", "10", "--eps", "0.5"],
    ["concentrate", "--measure", "cr", "--dim", "10", "--trials", "50"],
    ["subspace", "--dim", "34000", "--eps-frac", "0.99", "--states", "10"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cohlab.cli.main(argv) for argv in argvs]
scipy_after_cli = "scipy" in sys.modules
fractions_after_cli = "fractions" in sys.modules
from cohlab import analytics
print(json.dumps({
    "file": cohlab.__file__,
    "codes": codes,
    "scipy_after_cli": scipy_after_cli,
    "fractions_after_cli": fractions_after_cli,
    "quadrature": analytics.expected_cr_via_quadrature(5),
    "closed_form": analytics.expected_cr(5),
}))
"""


def test_cli_runs_without_scipy_until_the_quadrature_route():
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert SRC in Path(result["file"]).resolve().parents
    assert result["codes"] == [0, 0, 0, 0]
    assert not result["scipy_after_cli"], "importing or running cohlab.cli loaded scipy"
    assert not result["fractions_after_cli"], "importing or running cohlab.cli loaded fractions"
    assert abs(result["quadrature"] - result["closed_form"]) <= 1e-6

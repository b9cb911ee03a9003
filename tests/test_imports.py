"""Import hygiene: only `calibrate` may load scipy, and only it and the
bit-exact functional path, from building its first `QuantizedVector` on, may
load numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cvusim

SRC = Path(cvusim.__file__).resolve().parent.parent

_CHILD = """
import contextlib, io, json, sys

import cvusim
from cvusim import cli, cost

commands = (
    ["dse"],
    ["simulate", "--network", "convnet", "--style", "vector", "--memory", "hbm2"],
    ["compare", "--network", "convnet", "--config", "conventional:ddr4", "--config", "vector:hbm2"],
)
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = sorted(m for m in sys.modules if m.startswith(("numpy", "scipy")))
params, residuals = cost.calibrate(cost.DEFAULT_ANCHORS)
print(json.dumps({"codes": codes, "loaded": loaded, "calibrated": type(params).__name__, "residuals": len(residuals)}))
"""


_FUNCTIONAL_CHILD = """
import json, sys

import cvusim
from cvusim import arch, cost, cvu
from cvusim.bitslice import QuantizedVector

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules if m.startswith(("numpy", "scipy"))})

cvu.plan_composition(4, 2, cvu.CvuConfig())
planned = loaded()
x, w = QuantizedVector((3, 5), 4), QuantizedVector((-1, 1), 2, signed=True)
constructed = loaded()
acc = arch.build_array(arch.Style.VECTOR, cost.default_params())
value = arch.functional_dot(x, w, acc)
print(json.dumps({"planned": planned, "constructed": constructed, "computed": loaded(), "value": value}))
"""


def _child(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_commands_load_neither_numpy_nor_scipy_and_calibrate_still_works():
    result = _child(_CHILD)
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["calibrated"] == "CostParams"
    assert result["residuals"] == 8  # power and area at each of the four default anchors


def test_planning_loads_no_numpy_and_the_functional_path_no_scipy():
    result = _child(_FUNCTIONAL_CHILD)
    assert result["planned"] == []
    assert result["constructed"] == result["computed"] == ["numpy"]
    assert result["value"] == 2

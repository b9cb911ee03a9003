"""Import hygiene: only `calibrate` may load numpy or scipy."""

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
params = cost.calibrate(cost.DEFAULT_ANCHORS)
print(json.dumps({"codes": codes, "loaded": loaded, "calibrated": type(params).__name__}))
"""


def test_cli_commands_load_neither_numpy_nor_scipy_and_calibrate_still_works():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["calibrated"] == "CostParams"

"""Import hygiene: nothing loads scipy, and only `calibrate` and the bit-exact
functional path, from building its first `QuantizedVector` on, may load numpy;
the only runtime dependency is numpy, and `calibrate` fits without scipy
installed.  Neither importing the package nor a CLI command loads `dataclasses`
or `inspect`, and even without `site`, `import cvusim.cli` loads no `typing`:
each would add to every cold start."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvusim

SRC = Path(cvusim.__file__).resolve().parent.parent

_CHILD = """
import contextlib, io, json, sys

SLOW = {"dataclasses", "inspect"}
started = set(sys.modules)
import cvusim

package = sorted(SLOW & (set(sys.modules) - started))
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
by_commands = sorted(SLOW & (set(sys.modules) - started))
params, residuals = cost.calibrate(cost.DEFAULT_ANCHORS)
print(json.dumps({"codes": codes, "loaded": loaded, "package": package, "commands": by_commands,
                  "calibrated": type(params).__name__, "residuals": len(residuals),
                  "scipy_after_calibrate": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

# calibrate with every import of scipy failing, as if it were not installed
_NO_SCIPY_CHILD = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
from cvusim import cost

params, residuals = cost.calibrate(cost.DEFAULT_ANCHORS)
print(json.dumps({"params": params._asdict(), "shipped": cost.default_params()._asdict(), "residuals": len(residuals)}))
"""

_NO_SITE_CLI_CHILD = """
import json, sys
import cvusim.cli
print(json.dumps({"typing": "typing" in sys.modules}))
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


@functools.lru_cache(maxsize=None)  # each child runs once; its result is only read
def _child(code: str, *flags: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_commands_load_neither_numpy_nor_scipy_and_calibrate_still_works():
    result = _child(_CHILD)
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["calibrated"] == "CostParams"
    assert result["residuals"] == 8  # power and area at each of the four default anchors
    assert result["scipy_after_calibrate"] == []


def test_calibrate_recovers_the_shipped_parameters_with_scipy_blocked():
    result = _child(_NO_SCIPY_CHILD)
    assert result["residuals"] == 8
    assert result["params"] == pytest.approx(result["shipped"], rel=1e-6)


def test_cli_import_loads_no_typing_without_site():
    # -S keeps site, and what it imports, out of the child, so only the package can load typing
    assert _child(_NO_SITE_CLI_CHILD, "-S") == {"typing": False}


def test_package_and_cli_commands_load_neither_dataclasses_nor_inspect():
    result = _child(_CHILD)
    assert result["codes"] == [0, 0, 0]
    assert result["package"] == result["commands"] == []


def test_planning_loads_no_numpy_and_the_functional_path_no_scipy():
    result = _child(_FUNCTIONAL_CHILD)
    assert result["planned"] == []
    assert result["constructed"] == result["computed"] == ["numpy"]
    assert result["value"] == 2

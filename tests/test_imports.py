"""Import hygiene: nothing loads scipy, and only the bit-exact functional path,
from building its first `QuantizedVector` on, may load numpy; the only runtime
dependency is numpy, and `calibrate` fits with neither numpy nor scipy loaded.
Neither importing the package nor a CLI command loads `dataclasses` or
`inspect`, and even without `site`, `import cvusim.cli` loads no `typing`.
Each entry point loads exactly the cvusim modules it runs: a cold process
compiles every module it loads, so each would add to every cold start.  The
analytic model plans through `plan`, so no command loads the bit-exact engine
(`bitslice`, `cvu`) or the fit (`fit`), whose names `arch` and `cost` bind on
first use, and no command loads OpenSSL's `_hashlib` where CPython's builtin
SHA-256 exists."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvusim
from cvusim import arch, cli, cvu
from cvusim.bitslice import QuantizedVector
from cvusim.cost import default_params

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
openssl = "_hashlib" in sys.modules
params, residuals = cost.calibrate(cost.DEFAULT_ANCHORS)
print(json.dumps({"codes": codes, "loaded": loaded, "package": package, "commands": by_commands, "openssl": openssl,
                  "calibrated": type(params).__name__, "residuals": len(residuals),
                  "after_calibrate": sorted(m for m in sys.modules if m.startswith(("numpy", "scipy")))}))
"""

_NO_SITE_CLI_CHILD = """
import json, sys
import cvusim.cli
print(json.dumps({"typing": "typing" in sys.modules}))
"""


_FUNCTIONAL_CHILD = """
import json, sys

import cvusim
from cvusim import arch, cost, plan
from cvusim.bitslice import QuantizedVector

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules if m.startswith(("numpy", "scipy"))})

plan.plan_composition(4, 2, plan.CvuConfig())
planned = loaded()
x, w = QuantizedVector((3, 5), 4), QuantizedVector((-1, 1), 2, signed=True)
constructed = loaded()
acc = arch.build_array(arch.Style.VECTOR, cost.default_params())
value = arch.functional_gemm([w], [x], acc)[0][0]
print(json.dumps({"planned": planned, "constructed": constructed, "computed": loaded(), "value": value}))
"""

# argv None imports the package only; the child prints the cvusim modules it loaded
_ENTRY_CHILD = """
import contextlib, io, json, sys

argv = {argv!r}
if argv is None:
    import cvusim
else:
    from cvusim.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps([m for m in sys.modules if m.startswith("cvusim")]))
"""

# the lazy names, read in a fresh process before any use: each is its home module's object
_LAZY_CHILD = """
import json, sys
from cvusim import arch, cost

unloaded = [m for m in ("cvusim.bitslice", "cvusim.cvu", "cvusim.fit") if m not in sys.modules]
from cvusim.cost import DEFAULT_ANCHORS, calibrate
from cvusim import cvu, fit

same = [arch.execute_cycle is cvu.execute_cycle, calibrate is fit.calibrate, DEFAULT_ANCHORS is fit.DEFAULT_ANCHORS,
        cost.CalibrationAnchor is fit.CalibrationAnchor, cost.calibrate is cost.calibrate]
bound = all(name in vars(module) for module, name in ((arch, "execute_cycle"), (cost, "calibrate")))
print(json.dumps({"unloaded": unloaded, "same": same, "bound": bound}))
"""

# a binding set on cost before the first fit name is read survives the fit's import
_KEPT_CHILD = """
import json
from cvusim import cost

marker = cost.calibrate = object()
anchors = cost.DEFAULT_ANCHORS
from cvusim import fit
print(json.dumps([cost.calibrate is marker, anchors is fit.DEFAULT_ANCHORS]))
"""

_NAMES_CHILD = """
import json
import cvusim.cli as cli

names = cli.build_array, cli.load_network
from cvusim import arch, workloads
print(json.dumps([names[0] is arch.build_array, names[1] is workloads.load_network]))
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
    assert result["after_calibrate"] == []


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")), reason="no builtin SHA-256 here"
)
def test_cli_commands_load_no_openssl():
    result = _child(_CHILD)
    assert result["codes"] == [0, 0, 0]
    assert result["openssl"] is False


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


SIMULATE = ["simulate", "--network", "convnet", "--style", "vector", "--memory", "hbm2"]
DSE_MODULES = {"cvusim", "cvusim.cli", "cvusim.cost", "cvusim.plan", "cvusim.errors"}
MODEL_MODULES = DSE_MODULES | {"cvusim.arch", "cvusim.workloads"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (None, {"cvusim"}),
        (["dse"], DSE_MODULES),
        (SIMULATE, MODEL_MODULES),
        (["compare", "--network", "convnet", "--config", "conventional:ddr4", "--config", "vector:hbm2"], MODEL_MODULES),
    ],
    ids=["import", "dse", "simulate", "compare"],
)
def test_each_entry_point_loads_exactly_the_modules_it_runs(argv, modules):
    assert set(_child(_ENTRY_CHILD.format(argv=argv))) == modules


def test_lazy_names_are_their_home_modules_objects_before_any_use():
    result = _child(_LAZY_CHILD)
    assert result["unloaded"] == ["cvusim.bitslice", "cvusim.cvu", "cvusim.fit"]  # importing arch and cost loads none
    assert result["same"] == [True] * 5
    assert result["bound"]  # after the first read, a plain module attribute: no __getattr__ call per read


def test_a_binding_set_before_the_first_fit_name_is_read_is_kept():
    assert _child(_KEPT_CHILD) == [True, True]


def test_exact_runs_call_the_engine_bound_in_arch(monkeypatch):
    # a tracer rebinds arch.execute_cycle after a first run, so an exact run must look it up when called
    acc = arch.build_array(arch.Style.VECTOR, default_params())
    weights = [QuantizedVector((1, -2, 3), 4, signed=True), QuantizedVector((0, 5, -6), 4, signed=True)]
    inputs = [QuantizedVector((7, 8, 9), 4)]
    assert arch.functional_gemm(weights, inputs, acc) == [[18], [-14]]
    calls = []

    def counting(*args, _original=arch.execute_cycle):
        calls.append(None)
        return _original(*args)

    monkeypatch.setattr(arch, "execute_cycle", counting)
    assert arch.__getattr__("execute_cycle") is counting  # binding the engine again keeps the wrapper
    assert arch.functional_gemm(weights, inputs, acc) == [[18], [-14]]
    assert len(calls) == 1
    monkeypatch.undo()
    assert arch.execute_cycle is cvu.execute_cycle
    assert arch.functional_gemm(weights, inputs, acc) == [[18], [-14]]
    assert len(calls) == 1

    # a conventional run calls arch.functional_dot once per output, as bound when it runs: a tracer counts those
    conventional = arch.build_array(arch.Style.CONVENTIONAL, default_params())
    original, dots = arch.functional_dot, []

    def counting_dot(*args):
        dots.append(None)
        return original(*args)

    monkeypatch.setattr(arch, "functional_dot", counting_dot)
    assert arch.functional_gemm(weights, inputs * 3, conventional) == [[18] * 3, [-14] * 3]
    assert len(dots) == 2 * 3
    assert arch.functional_gemm(weights, [], conventional) == [[], []]
    assert arch.functional_gemm([], inputs, conventional) == []
    assert len(dots) == 2 * 3
    monkeypatch.undo()
    assert arch.functional_gemm(weights, inputs, conventional) == [[18], [-14]]
    assert len(dots) == 2 * 3


def test_cli_model_names_resolve_before_the_first_command():
    # a tracer reads cli.build_array and the rest before it rebinds them
    assert _child(_NAMES_CHILD) == [True, True]


def test_commands_call_the_model_names_bound_in_cli(monkeypatch, capsys):
    # a tracer rebinds these cli attributes after a first run, so a command must look them up when called
    assert cli.main(SIMULATE) == 0
    first = capsys.readouterr().out
    calls = []
    for name in ("load_network", "build_array"):
        def counting(*args, _original=getattr(cli, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    assert cli.main(SIMULATE) == 0
    assert sorted(calls) == ["build_array", "load_network"]
    assert capsys.readouterr().out == first
    monkeypatch.undo()
    assert cli.main(SIMULATE) == 0
    assert capsys.readouterr().out == first

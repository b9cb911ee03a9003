"""``tools/ab.py``: one tiny round of this checkout against itself, and trees whose outputs differ."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AB = ROOT / "tools" / "ab.py"


def run_ab(tree_a: Path, tree_b: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(AB), str(tree_a), str(tree_b), "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_this_checkout_against_itself():
    proc = run_ab(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["lanes"]) == ["exact-vector", "exact-scalar", "exact-conventional", "sweep", "calibrate"]
    for entry in result["lanes"].values():
        assert entry["outputs_ok"] and entry["failed"] == {"a": 0, "b": 0}
        assert entry["a"] > 0 and entry["b"] > 0 and entry["b_won"] in (0, 1)


def edited_tree(tmp_path: Path, module: str, old: str, new: str) -> Path:
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "cvusim" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return tmp_path


def test_fails_when_the_trees_outputs_differ(tmp_path):
    proc = run_ab(ROOT, edited_tree(tmp_path, "arch.py", "OUTPUT_BITS = 8", "OUTPUT_BITS = 16"))
    assert proc.returncode == 1
    lanes = json.loads(proc.stdout.splitlines()[-1])["lanes"]
    # the output width moves only the modelled sweep; the bit-exact outputs and the fit stay the same
    assert [lane["outputs_ok"] for lane in lanes.values()] == [True, True, True, False, True]
    assert "outputs differ" in proc.stderr


def test_fails_when_the_trees_fitted_parameters_differ(tmp_path):
    # one default anchor moves the fit only: the sweep prices with the shipped parameters file
    proc = run_ab(ROOT, edited_tree(tmp_path, "fit.py", "power_norm=0.559", "power_norm=0.56"))
    assert proc.returncode == 1
    lanes = json.loads(proc.stdout.splitlines()[-1])["lanes"]
    assert [lane["outputs_ok"] for lane in lanes.values()] == [True, True, True, True, False]
    assert "fitted parameters differ" in proc.stderr

"""The cvusim benchmark: cold CLI, warm model sweep, bit-exact functional GEMM.

Usage, from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload {cli-cold,model-sweep,functional-exact} \\
        --seed N --seconds S --trace {0,1}

Workloads, all closed loops in one process with no threads and at most one
child process at a time:

* ``cli-cold``: cold ``cvusim`` processes one after another: ``dse`` with its
  defaults, ``simulate`` on each bundled net (all three styles and both
  memories appear), and ``compare`` over all six nets with four configs.
* ``model-sweep``: in one warm process, every bundled net x style x memory x
  bitwidth mode, the 4-config ``compare`` and the default ``dse_sweep``;
  separately, ``calibrate(DEFAULT_ANCHORS)``.
* ``functional-exact``: seeded GEMM tiles through ``functional_gemm`` for
  every style, each output compared exactly with int64 ``W @ X``.

Every run reports every end-to-end metric, so every run interleaves all
three workloads, each with a fixed share of the ``--seconds`` window;
``--workload`` picks whose set-up time and peak memory are reported as
``setup_s`` and ``peak_rss_mb``.  Host times are scaled by the speed of the
host during the run, measured by timing a bare interpreter start alongside;
the unscaled values are printed and kept too (see ``harness.REFERENCE``).

``--trace 1`` is the separate traced run.  It wraps the calls into each
layer from the benchmark's own files (``tracing.py``), runs a fixed amount
of every layer's work once untraced and once traced, and prints the
per-layer metrics and the tracing overhead instead.

Every output is checked: functional outputs against the oracle, every CLI
process for exit 0, and every repeat of an operation for a report identical
to its first run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any operation failed.  A fuller result (environment, samples, tail
percentiles, modelled outputs, spans) is written under ``bench/out/``.

The modelled figures are recorded, not gated.  The model is unvalidated:
the repository holds no held-out reference, and the calibration anchors are
the tuning data, so no accuracy error is given.  The modelled scratchpads
start empty on every layer.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("cli-cold", "model-sweep", "functional-exact")


def load_package() -> None:
    """Put this checkout's ``src`` first on the path and check that
    ``cvusim`` is imported from there."""
    if not (SRC / "cvusim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cvusim package under {SRC}: run from a full source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cvusim

    if Path(cvusim.__file__).resolve().parent != SRC / "cvusim":
        raise ImportError(f"cvusim was imported from {cvusim.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cvusim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness  # imports cvusim, so only after load_package

    return harness.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

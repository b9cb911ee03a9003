"""Spans around the calls into each cvusim layer, recorded from outside.

A traced run rebinds module attributes (``arch.simulate_layer`` and so on)
to wrappers that record a span per call, and restores them afterwards.  The
package itself is not changed, and an untraced run never installs a wrapper.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from cvusim import arch, cli, cost, cvu, workloads

import bodies

# (module, attribute, span name).  `arch` looks up `per_mac_normalized`,
# `plan_composition` and `execute_cycle` in its own namespace and `cvu` does
# the same for `slice_vector` and `nbve_dot`, so those bindings are wrapped.
CLI_BOUNDARIES = (
    (cli, "load_network", "cli.load_network"),
    (cli, "build_array", "cli.build_array"),
    (cli, "simulate_network", "cli.simulate_network"),
    (cli, "compare", "cli.compare"),
    (cli, "dse_sweep", "cli.dse_sweep"),
    (cli, "_emit", "cli._emit"),
)
SWEEP_BOUNDARIES = (
    (workloads, "parse_network", "workloads.parse_network"),
    (arch, "per_mac_normalized", "cost.per_mac_normalized"),
    (cost, "dse_sweep", "cost.dse_sweep"),
    (cost, "calibrate", "cost.calibrate"),
    (arch, "build_array", "arch.build_array"),
    (arch, "simulate_layer", "arch.simulate_layer"),
    (arch, "simulate_network", "arch.simulate_network"),
    (arch, "compare", "arch.compare"),
)
FUNCTIONAL_BOUNDARIES = (
    (arch, "functional_dot", "arch.functional_dot"),
    (arch, "plan_composition", "arch.plan_composition"),
    (arch, "execute_cycle", "arch.execute_cycle"),
    (cvu, "slice_vector", "cvu.slice_vector"),
    (cvu, "nbve_dot", "cvu.nbve_dot"),
)
ALL_BOUNDARIES = CLI_BOUNDARIES + SWEEP_BOUNDARIES + FUNCTIONAL_BOUNDARIES


class Tracer:
    """Spans kept in memory as [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.utilization: list[float] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if name == "arch.execute_cycle":
                self.utilization.append(result.utilization)
            return result

        return traced

    def totals(self, since: int = 0) -> dict[str, dict]:
        """Calls, busy time and self time per span name, from span ``since`` on.

        Self time is busy time minus the time of the directly nested spans.
        """
        out: dict[str, dict] = {}
        for name, start, end, parent in self.spans[since:]:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start
            if parent >= since:
                out[self.spans[parent][0]]["self_s"] -= end - start
        return out


@contextmanager
def installed(tracer: Tracer, boundaries):
    """Rebind every present boundary to a traced wrapper; yield the names of
    absent ones; restore the original bindings on exit."""
    saved, absent = [], []
    try:
        for module, attribute, name in boundaries:
            original = getattr(module, attribute, None)
            if original is None:
                absent.append(name)
                continue
            saved.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(name, original))
        yield absent
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
IMPORTS = ("cvusim", "scipy.optimize", "numpy")


def import_times(repeats: int, checks: bodies.Checks) -> dict[str, float]:
    """Median cumulative import time, in seconds, of each of ``IMPORTS`` in a
    fresh ``python -X importtime -c "import cvusim"``."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTS}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cvusim"],
            env=bodies.child_env(),
            cwd=bodies.ROOT,
            capture_output=True,
            text=True,
            timeout=bodies.CHILD_TIMEOUT_S,
        )
        if not checks.record(proc.returncode == 0, f"import cvusim: exit {proc.returncode}"):
            continue
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items() if values}

"""Bit-sliced composable vector units: arithmetic, cost model, simulator.

Import the submodules: ``bitslice`` holds the exact bit-slice arithmetic,
``cvu`` the composition planning and one cycle of a unit, ``cost`` the
power/area model and its calibration, ``workloads`` the network schema and
the bundled benchmarks, ``arch`` the array simulator, ``errors`` the
exception types and ``cli`` the command line.  Importing the package loads none of them, so a process compiles only
the modules it uses.  No module loads ``dataclasses``, ``inspect`` or scipy;
numpy loads when the first ``QuantizedVector`` is built.
"""

__version__ = "0.1.0"

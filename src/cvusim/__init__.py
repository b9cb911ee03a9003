"""Bit-sliced composable vector units: arithmetic, cost model, simulator.

Import the submodules: ``plan`` holds a unit's composition planning, ``bitslice``
the exact bit-slice arithmetic, ``cvu`` a unit's bit-level execution, ``cost`` the
power/area model, ``fit`` its calibration, ``workloads`` the network schema and the
bundled benchmarks, ``arch`` the array simulator, ``errors`` the exception types and
``cli`` the command line.  Importing the package loads none of them, so a process
compiles only the modules it uses.  No module loads ``dataclasses``, ``inspect`` or scipy;
numpy loads when the first ``QuantizedVector`` is built.
"""

__version__ = "0.1.0"

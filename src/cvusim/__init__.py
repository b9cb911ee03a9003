"""Bit-sliced composable vector units: arithmetic, cost model, simulator.

Importing the package loads only the standard library, and not its dataclass
module or ``inspect``: the records are named tuples.  numpy loads when the first
``QuantizedVector`` is built or ``calibrate`` first runs; nothing loads scipy.
"""

__version__ = "0.1.0"

from .bitslice import QuantizedVector, dot_exact, nbve_dot, slice_vector
from .cvu import CompositionPlan, CvuConfig, CvuOutput, execute_cycle, plan_composition
from .cost import (
    CalibrationAnchor,
    CostBreakdown,
    CostParams,
    DsePoint,
    calibrate,
    default_params,
    dse_sweep,
    iso_power_array_size,
    per_mac_normalized,
)
from .workloads import LayerKind, LayerSpec, NetworkSpec, parse_network, to_homogeneous
from .arch import (
    DDR4,
    HBM2,
    AcceleratorConfig,
    MemorySpec,
    SimReport,
    Style,
    build_array,
    compare,
    lower_layer,
    simulate_layer,
    simulate_network,
)

__all__ = [name for name in dir() if not name.startswith("_")]

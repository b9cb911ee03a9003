"""The package's records: named tuples that check their values on every construction path.

``QuantizedVector``, the one record that is not a tuple, is covered in ``test_bitslice.py``."""

import math
import re

import pytest

from cvusim.arch import DDR4, AcceleratorConfig, Style
from cvusim.cost import DEFAULT_ANCHORS, CalibrationAnchor, CostParams, default_params
from cvusim.errors import ConfigError, NetworkFormatError, RangeError
from cvusim.plan import CvuConfig
from cvusim.workloads import BitwidthMode, LayerKind, LayerSpec, NetworkSpec

FC = LayerSpec(LayerKind.FC, 8, 8, m=4, k=4)
SCALAR = AcceleratorConfig(2, 2, CvuConfig(1, 2), 64, Style.SCALAR)
# an invalid clock, SRAM energy or output width shows the whole record, up to and including the bad value
INVALID_SCALAR = f"invalid {SCALAR!r}".split("frequency_hz=")[0]

# case: (a valid record, the fields that make it invalid, the error, the start of its message)
BAD = {
    "layer-repeat-0": (
        LayerSpec(LayerKind.GEMV, 8, 8, m=4, k=4, repeat=2), {"repeat": 0}, NetworkFormatError, "layer gemv: repeat=0"
    ),
    "layer-foreign-field": (FC, {"stride": 2}, NetworkFormatError, "layer fc: stride does not apply to fc layers"),
    "network-homogeneous-4-bit": (
        NetworkSpec("x", (FC,), BitwidthMode.HOMOGENEOUS),
        {"layers": (FC._replace(bw_w=4),)},
        NetworkFormatError,
        "layers[0] (): homogeneous-8bit mode requires 8-bit layers",
    ),
    "cvu-lanes": (CvuConfig(16, 2), {"lanes": 0}, RangeError, "lanes must be an integer in 1..65536, got 0"),
    "cvu-slice-width": (CvuConfig(16, 2), {"slice_width": 3}, RangeError, "slice_width must be one of (1, 2, 4)"),
    "memory-bandwidth": (
        DDR4, {"bandwidth_bytes_per_s": 0.5}, ConfigError, "invalid memory spec MemorySpec(name='ddr4', bandwidth"
    ),
    "memory-energy": (DDR4, {"access_energy_pj_per_bit": math.inf}, ConfigError, "invalid memory spec"),
    "array-lanes": (SCALAR, {"cvu": CvuConfig(16, 2)}, ConfigError, "scalar-composable style requires 1 lane"),
    "array-rows": (SCALAR, {"rows": 0}, ConfigError, "array geometry must be positive, got 0x2"),
    "array-clock": (SCALAR, {"frequency_hz": 0.0}, ConfigError, f"{INVALID_SCALAR}frequency_hz=0.0, "),
    "array-sram-energy": (
        SCALAR, {"sram_pj_per_byte": math.inf}, ConfigError, f"{INVALID_SCALAR}frequency_hz=500000000.0, sram_pj_per_byte=inf"
    ),
    "array-output-bits": (
        SCALAR, {"output_bits": 8.0}, ConfigError,
        f"{INVALID_SCALAR}frequency_hz=500000000.0, sram_pj_per_byte=0.8, output_bits=8.0): needs",
    ),
    "params": (default_params(), {"adder_area_per_bit": -1.0}, RangeError, "adder_area_per_bit must be strictly"),
    "anchor": (DEFAULT_ANCHORS[0], {"power_norm": math.inf}, RangeError, "power_norm must be strictly positive"),
}


def _paths(good, bad: dict):
    """Every way to build ``good`` with ``bad`` fields: positional, keyword, ``_replace`` and ``_make``."""
    values = {**good._asdict(), **bad}
    cls = type(good)
    return {
        "positional": lambda: cls(*values.values()),
        "keyword": lambda: cls(**values),
        "_replace": lambda: good._replace(**bad),
        "_make": lambda: cls._make(values.values()),
    }


@pytest.mark.parametrize("path", ["positional", "keyword", "_replace", "_make"])
@pytest.mark.parametrize("case", sorted(BAD))
def test_every_construction_path_rejects_a_bad_value(case, path):
    good, bad, error, message = BAD[case]
    assert type(good)(*good) == good  # the valid values pass every check
    with pytest.raises(error, match=re.escape(message)):
        _paths(good, bad)[path]()


@pytest.mark.parametrize("record", [FC, DDR4, CvuConfig(), DEFAULT_ANCHORS[0], default_params()])
def test_records_are_read_only_tuples_of_their_values_with_a_field_repr(record):
    assert tuple(record) == record and type(record)._make(record) == record
    assert repr(record) == f"{type(record).__name__}({', '.join(f'{k}={v!r}' for k, v in record._asdict().items())})"
    with pytest.raises(AttributeError):
        record.new_field = 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


def test_defaults_are_the_named_tuples_field_defaults():
    assert CvuConfig() == (16, 2) and CalibrationAnchor(CvuConfig()) == (CvuConfig(), None, None)
    assert CostParams(*[1.0] * 8).conventional_mac_mw == 0.25
    assert SCALAR[5:] == (500e6, 0.8, 8)  # the clock, the SRAM pJ per byte and the output width
    assert NetworkSpec("x", (FC,)).bitwidth_mode is BitwidthMode.HETEROGENEOUS
    assert FC == (LayerKind.FC, 8, 8, "", 0, 0, 0, 0, 0, 0, 1, 1, 4, 4, 1, 1)


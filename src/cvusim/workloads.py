"""Network descriptions: schema, parsing, validation, bundled benchmarks.

Networks are stored as versioned JSON (``schema_version`` 1), which the
package reads but never writes.  A network holds a layer list plus a bitwidth
mode; layers are convolutions (conv), fully connected layers (fc), or
recurrent matrix-vector products (gemv).

``_LAYER_FIELDS`` is the layer schema: each kind's integer fields in file
order, each with its default (None: required) and its bounds (1 up to a
maximum).  The file's ``kernel`` is the pair ``[kernel_h, kernel_w]``.

* ``_layer_from_dict`` (under :func:`parse_network`) checks the JSON shape
  only: a known kind, no unknown or missing fields, integers, plain names.
* :class:`LayerSpec` checks the values: its kind's fields within bounds and
  every other kind's field at its default (``_field_defaults``).
  :class:`NetworkSpec` checks the bitwidth mode and the chain rule below.
* conv ``height``/``width`` are the layer's input spatial dims; outputs are
  ``ceil(dim/stride)`` (same-style padding) and an optional ``pool`` factor
  downsamples the output fed to the next layer (pooling arithmetic itself is
  not costed).
* fc/gemv weights are ``m x k``; ``n`` is the batch/output-column count
  (default 1).  ``repeat`` on a gemv layer models recurrent timesteps: the
  same weights are consumed once per step.
* Activations are unsigned, weights signed (two's complement) by default.

Consecutive conv/fc layers must chain (each layer's input features equal
the previous layer's output features).  Recurrent layers are exempt: their
input is the concatenation of the external input and the hidden state, which
the linear chain rule cannot see.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from enum import Enum
from pathlib import Path

from .bitslice import MAX_BITWIDTH
from .errors import Checked, NetworkFormatError

SCHEMA_VERSION = 1


class LayerKind(str, Enum):
    CONV = "conv"
    FC = "fc"
    GEMV = "gemv"


class BitwidthMode(str, Enum):
    HOMOGENEOUS = "homogeneous-8bit"
    HETEROGENEOUS = "heterogeneous"


# (default, maximum) per field, named as in LayerSpec; a default of None means required
_SIZE = (None, 2**31 - 1)
_FACTOR = (1, 2**31 - 1)
_BITS = (None, MAX_BITWIDTH)
_LAYER_FIELDS = {
    LayerKind.CONV: {"in_channels": _SIZE, "out_channels": _SIZE, "height": _SIZE, "width": _SIZE, "kernel_h": _SIZE,
                     "kernel_w": _SIZE, "stride": _FACTOR, "pool": _FACTOR, "bw_x": _BITS, "bw_w": _BITS},
    LayerKind.FC: {"m": _SIZE, "k": _SIZE, "n": _FACTOR, "bw_x": _BITS, "bw_w": _BITS},
    LayerKind.GEMV: {"m": _SIZE, "k": _SIZE, "n": _FACTOR, "repeat": (1, 2**16), "bw_x": _BITS, "bw_w": _BITS},
}
_KERNEL = ("kernel_h", "kernel_w")
_FILE_KEY = dict.fromkeys(_KERNEL, "kernel")
_ANY_KIND = dict.fromkeys(field for fields in _LAYER_FIELDS.values() for field in fields)


class LayerSpec(Checked, namedtuple(
    "LayerSpec",
    "kind bw_x bw_w name"
    " in_channels out_channels height width kernel_h kernel_w stride pool"  # conv fields
    " m k n repeat",  # fc / gemv fields
    defaults=("", 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1),
)):
    """One network layer with its quantized bitwidths."""

    __slots__ = ()

    def _check(self):
        own = _LAYER_FIELDS[self.kind]
        label = f"layer {self.name or self.kind.value}"
        for field, (_, maximum) in own.items():
            value = getattr(self, field)
            if not 1 <= value <= maximum:
                raise NetworkFormatError(f"{label}: {field}={value} outside 1..{maximum}")
        for field in _ANY_KIND:
            if field not in own and getattr(self, field) != self._field_defaults[field]:
                raise NetworkFormatError(f"{label}: {field} does not apply to {self.kind.value} layers")

    # conv output geometry (same-style padding, then pooling)
    @property
    def out_height(self) -> int:
        return math.ceil(self.height / self.stride)

    @property
    def out_width(self) -> int:
        return math.ceil(self.width / self.stride)

    @property
    def pooled_height(self) -> int:
        return math.ceil(self.out_height / self.pool)

    @property
    def pooled_width(self) -> int:
        return math.ceil(self.out_width / self.pool)

    @property
    def out_features(self) -> int:
        """Feature count fed to the next layer."""
        if self.kind is LayerKind.CONV:
            return self.out_channels * self.pooled_height * self.pooled_width
        return self.m


class NetworkSpec(
    Checked, namedtuple("NetworkSpec", "name layers bitwidth_mode", defaults=(BitwidthMode.HETEROGENEOUS,))
):
    __slots__ = ()

    def _check(self):
        if not self.layers:
            raise NetworkFormatError(f"network {self.name!r} has no layers")
        if self.bitwidth_mode is BitwidthMode.HOMOGENEOUS:
            for i, layer in enumerate(self.layers):
                if layer.bw_x != 8 or layer.bw_w != 8:
                    raise NetworkFormatError(f"layers[{i}] ({layer.name}): homogeneous-8bit mode requires 8-bit layers")
        _check_chain(self.layers)


def _check_chain(layers: tuple[LayerSpec, ...]) -> None:
    for i in range(1, len(layers)):
        prev, cur = layers[i - 1], layers[i]
        if LayerKind.GEMV in (prev.kind, cur.kind):
            continue  # recurrent input is (external + hidden), not the previous output
        if cur.kind is LayerKind.CONV:
            if prev.kind is not LayerKind.CONV:
                raise NetworkFormatError(f"layers[{i}] ({cur.name}): conv after fc is not supported")
            if cur.in_channels != prev.out_channels:
                raise NetworkFormatError(
                    f"layers[{i}] ({cur.name}): in_channels={cur.in_channels} does not match "
                    f"previous out_channels={prev.out_channels}"
                )
            if (cur.height, cur.width) != (prev.pooled_height, prev.pooled_width):
                raise NetworkFormatError(
                    f"layers[{i}] ({cur.name}): input {cur.height}x{cur.width} does not match "
                    f"previous output {prev.pooled_height}x{prev.pooled_width}"
                )
        else:  # fc
            if cur.k != prev.out_features:
                raise NetworkFormatError(
                    f"layers[{i}] ({cur.name}): k={cur.k} does not match previous "
                    f"out_features={prev.out_features}"
                )


def _report_name(where: str, value) -> str:
    """A name that reports write unquoted into CSV rows."""
    if not isinstance(value, str) or any(c in value for c in ',"\r\n'):
        raise NetworkFormatError(f"{where}: expected a string without commas, quotes or line breaks, got {value!r}")
    return value


def _layer_from_dict(i: int, raw: dict) -> LayerSpec:
    """Check the JSON shape of one layer; LayerSpec checks the values."""
    where = f"layers[{i}]"
    if not isinstance(raw, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    try:
        kind = LayerKind(raw.get("kind"))
    except ValueError:
        raise NetworkFormatError(f"{where}.kind: expected one of {[k.value for k in LayerKind]}")

    fields = _LAYER_FIELDS[kind]
    allowed = {"kind", "name", *(_FILE_KEY.get(field, field) for field in fields)}
    for key in raw:
        if key not in allowed:
            raise NetworkFormatError(f"{where}.{key}: unknown field for kind {kind.value!r}")
    for field, (default, _) in fields.items():
        key = _FILE_KEY.get(field, field)
        if default is None and key not in raw:
            raise NetworkFormatError(f"{where}: missing required field {key!r}")

    values = {"kind": kind, "name": _report_name(f"{where}.name", raw.get("name", ""))}
    if kind is LayerKind.CONV:
        kernel = raw["kernel"]
        if not (isinstance(kernel, list) and len(kernel) == 2 and all(type(x) is int for x in kernel)):
            raise NetworkFormatError(f"{where}.kernel: expected [kernel_h, kernel_w]")
        values.update(zip(_KERNEL, kernel))
    for field, (default, _) in fields.items():
        if field not in _KERNEL:
            value = values[field] = raw.get(field, default)
            if type(value) is not int:
                raise NetworkFormatError(f"{where}.{field}: expected an integer, got {value!r}")
    try:
        return LayerSpec(**values)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{where}: {exc}") from None


def parse_network(text: str) -> NetworkSpec:
    """Parse and validate a network description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise NetworkFormatError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise NetworkFormatError("name: expected a non-empty string")
    _report_name("name", name)
    try:
        mode = BitwidthMode(doc.get("bitwidth_mode", "heterogeneous"))
    except ValueError:
        raise NetworkFormatError(f"bitwidth_mode: expected one of {[m.value for m in BitwidthMode]}")
    layers_raw = doc.get("layers")
    if not isinstance(layers_raw, list):
        raise NetworkFormatError("layers: expected a list")
    layers = tuple(_layer_from_dict(i, raw) for i, raw in enumerate(layers_raw))
    return NetworkSpec(name=name, layers=layers, bitwidth_mode=mode)


def load_network(path: str | Path) -> NetworkSpec:
    return parse_network(Path(path).read_text())


def to_homogeneous(net: NetworkSpec) -> NetworkSpec:
    """The same network with every bitwidth forced to 8."""
    layers = tuple(l._replace(bw_x=8, bw_w=8) for l in net.layers)
    return NetworkSpec(name=net.name, layers=layers, bitwidth_mode=BitwidthMode.HOMOGENEOUS)


def bundled_networks() -> dict[str, Path]:
    """Name -> path of the benchmark files shipped with the package."""
    root = Path(__file__).with_name("data") / "benchmarks"
    return {path.stem: path for path in sorted(root.glob("*.json"))}


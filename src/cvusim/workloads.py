"""Network descriptions: schema, parsing, validation, bundled benchmarks.

Networks are stored as versioned JSON (``schema_version`` 1).  A network
holds a layer list plus a bitwidth mode; layers are convolutions, fully
connected layers, or recurrent matrix-vector products.  Conventions:

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
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import NetworkFormatError

SCHEMA_VERSION = 1
MAX_LAYER_BITWIDTH = 8


class LayerKind(str, Enum):
    CONV = "conv"
    FC = "fc"
    GEMV = "gemv"


class BitwidthMode(str, Enum):
    HOMOGENEOUS = "homogeneous-8bit"
    HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class LayerSpec:
    """One network layer with its quantized bitwidths."""

    kind: LayerKind
    bw_x: int
    bw_w: int
    name: str = ""
    # conv fields
    in_channels: int = 0
    out_channels: int = 0
    height: int = 0
    width: int = 0
    kernel_h: int = 0
    kernel_w: int = 0
    stride: int = 1
    pool: int = 1
    # fc / gemv fields
    m: int = 0
    k: int = 0
    n: int = 1
    repeat: int = 1

    def __post_init__(self):
        def positive(**fields):
            for fname, v in fields.items():
                if v < 1:
                    raise NetworkFormatError(
                        f"layer {self.name or self.kind.value}: {fname} must be >= 1, got {v}"
                    )

        for bname, bw in (("bw_x", self.bw_x), ("bw_w", self.bw_w)):
            if not 1 <= bw <= MAX_LAYER_BITWIDTH:
                raise NetworkFormatError(
                    f"layer {self.name or self.kind.value}: {bname}={bw} outside 1..{MAX_LAYER_BITWIDTH}"
                )
        if self.kind is LayerKind.CONV:
            positive(
                in_channels=self.in_channels,
                out_channels=self.out_channels,
                height=self.height,
                width=self.width,
                kernel_h=self.kernel_h,
                kernel_w=self.kernel_w,
                stride=self.stride,
                pool=self.pool,
            )
            if self.repeat != 1:
                raise NetworkFormatError(f"layer {self.name}: repeat applies to gemv layers only")
        else:
            positive(m=self.m, k=self.k, n=self.n)
            if self.kind is LayerKind.FC and self.repeat != 1:
                raise NetworkFormatError(f"layer {self.name}: repeat applies to gemv layers only")
            positive(repeat=self.repeat)

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

    @property
    def weight_elements(self) -> int:
        if self.kind is LayerKind.CONV:
            return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w
        return self.m * self.k

    @property
    def input_elements(self) -> int:
        if self.kind is LayerKind.CONV:
            return self.in_channels * self.height * self.width
        return self.k * self.n

    @property
    def macs(self) -> int:
        """Multiply-accumulate count for one invocation (one timestep)."""
        if self.kind is LayerKind.CONV:
            return self.weight_elements * self.out_height * self.out_width
        return self.m * self.k * self.n

    @property
    def weight_bytes(self) -> int:
        return -(-self.weight_elements * self.bw_w // 8)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    layers: tuple[LayerSpec, ...]
    bitwidth_mode: BitwidthMode = BitwidthMode.HETEROGENEOUS

    def __post_init__(self):
        if not self.layers:
            raise NetworkFormatError(f"network {self.name!r} has no layers")
        if self.bitwidth_mode is BitwidthMode.HOMOGENEOUS:
            for i, layer in enumerate(self.layers):
                if layer.bw_x != 8 or layer.bw_w != 8:
                    raise NetworkFormatError(
                        f"layers[{i}] ({layer.name}): homogeneous-8bit mode requires 8-bit layers"
                    )
        _check_chain(self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs * l.repeat for l in self.layers)

    @property
    def total_weight_elements(self) -> int:
        return sum(l.weight_elements for l in self.layers)


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


_LAYER_REQUIRED = {
    LayerKind.CONV: ("in_channels", "out_channels", "height", "width", "kernel", "bw_x", "bw_w"),
    LayerKind.FC: ("m", "k", "bw_x", "bw_w"),
    LayerKind.GEMV: ("m", "k", "bw_x", "bw_w"),
}
_LAYER_OPTIONAL = {
    LayerKind.CONV: ("name", "stride", "pool"),
    LayerKind.FC: ("name", "n"),
    LayerKind.GEMV: ("name", "n", "repeat"),
}


def _layer_from_dict(i: int, raw: dict) -> LayerSpec:
    where = f"layers[{i}]"
    if not isinstance(raw, dict):
        raise NetworkFormatError(f"{where}: expected an object")
    try:
        kind = LayerKind(raw.get("kind"))
    except ValueError:
        raise NetworkFormatError(f"{where}.kind: expected one of {[k.value for k in LayerKind]}")

    allowed = set(_LAYER_REQUIRED[kind]) | set(_LAYER_OPTIONAL[kind]) | {"kind"}
    for field in raw:
        if field not in allowed:
            raise NetworkFormatError(f"{where}.{field}: unknown field for kind {kind.value!r}")
    for field in _LAYER_REQUIRED[kind]:
        if field not in raw:
            raise NetworkFormatError(f"{where}: missing required field {field!r}")

    def integer(field, default=None, minimum=1):
        v = raw.get(field, default)
        if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
            raise NetworkFormatError(f"{where}.{field}: expected integer >= {minimum}, got {v!r}")
        return v

    name = raw.get("name", "")
    bw_x, bw_w = integer("bw_x"), integer("bw_w")
    for bname, bw in (("bw_x", bw_x), ("bw_w", bw_w)):
        if bw > MAX_LAYER_BITWIDTH:
            raise NetworkFormatError(
                f"{where} ({name or kind.value}): {bname}={bw} exceeds the {MAX_LAYER_BITWIDTH}-bit maximum"
            )
    if kind is LayerKind.CONV:
        kernel = raw["kernel"]
        if not (isinstance(kernel, list) and len(kernel) == 2 and all(isinstance(x, int) for x in kernel)):
            raise NetworkFormatError(f"{where}.kernel: expected [kernel_h, kernel_w]")
        return LayerSpec(
            kind=kind,
            name=name,
            bw_x=bw_x,
            bw_w=bw_w,
            in_channels=integer("in_channels"),
            out_channels=integer("out_channels"),
            height=integer("height"),
            width=integer("width"),
            kernel_h=kernel[0],
            kernel_w=kernel[1],
            stride=integer("stride", default=1),
            pool=integer("pool", default=1),
        )
    return LayerSpec(
        kind=kind,
        name=name,
        bw_x=bw_x,
        bw_w=bw_w,
        m=integer("m"),
        k=integer("k"),
        n=integer("n", default=1),
        repeat=integer("repeat", default=1) if kind is LayerKind.GEMV else 1,
    )


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
    try:
        mode = BitwidthMode(doc.get("bitwidth_mode", "heterogeneous"))
    except ValueError:
        raise NetworkFormatError(f"bitwidth_mode: expected one of {[m.value for m in BitwidthMode]}")
    layers_raw = doc.get("layers")
    if not isinstance(layers_raw, list):
        raise NetworkFormatError("layers: expected a list")
    layers = tuple(_layer_from_dict(i, raw) for i, raw in enumerate(layers_raw))
    return NetworkSpec(name=name, layers=layers, bitwidth_mode=mode)


def _layer_to_dict(layer: LayerSpec) -> dict:
    out: dict = {"kind": layer.kind.value}
    if layer.name:
        out["name"] = layer.name
    if layer.kind is LayerKind.CONV:
        out.update(
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            height=layer.height,
            width=layer.width,
            kernel=[layer.kernel_h, layer.kernel_w],
        )
        if layer.stride != 1:
            out["stride"] = layer.stride
        if layer.pool != 1:
            out["pool"] = layer.pool
    else:
        out.update(m=layer.m, k=layer.k)
        if layer.n != 1:
            out["n"] = layer.n
        if layer.repeat != 1:
            out["repeat"] = layer.repeat
    out.update(bw_x=layer.bw_x, bw_w=layer.bw_w)
    return out


def serialize_network(net: NetworkSpec) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": net.name,
        "bitwidth_mode": net.bitwidth_mode.value,
        "layers": [_layer_to_dict(l) for l in net.layers],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_network(path: str | Path) -> NetworkSpec:
    return parse_network(Path(path).read_text())


def to_homogeneous(net: NetworkSpec) -> NetworkSpec:
    """The same network with every bitwidth forced to 8."""
    layers = tuple(replace(l, bw_x=8, bw_w=8) for l in net.layers)
    return NetworkSpec(name=net.name, layers=layers, bitwidth_mode=BitwidthMode.HOMOGENEOUS)


def bundled_networks() -> dict[str, Path]:
    """Name -> path of the benchmark files shipped with the package."""
    root = resources.files("cvusim").joinpath("data/benchmarks")
    return {
        p.name.removesuffix(".json"): Path(str(p))
        for p in sorted(root.iterdir(), key=lambda p: p.name)
        if p.name.endswith(".json")
    }


def load_bundled(name: str) -> NetworkSpec:
    paths = bundled_networks()
    if name not in paths:
        raise NetworkFormatError(f"unknown bundled network {name!r}; available: {sorted(paths)}")
    return load_network(paths[name])

"""Network schema parsing, validation, and the bundled benchmark suite."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.workloads
from cvusim.workloads import (
    BitwidthMode,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    bundled_networks,
    load_network,
    parse_network,
    to_homogeneous,
)
from cvusim.arch import lower_layer
from cvusim.errors import NetworkFormatError

MINIMAL = """
{
  "schema_version": 1,
  "name": "tiny",
  "bitwidth_mode": "heterogeneous",
  "layers": [{"kind": "fc", "m": 16, "k": 32, "bw_x": 8, "bw_w": 4}]
}
"""


# The schema as the file format documents it: each kind's integer fields and their largest values
SIZE_MAX = 2**31 - 1
REPEAT_MAX = 2**16
BOUNDS = {
    LayerKind.CONV: dict(
        in_channels=SIZE_MAX, out_channels=SIZE_MAX, height=SIZE_MAX, width=SIZE_MAX,
        kernel_h=SIZE_MAX, kernel_w=SIZE_MAX, stride=SIZE_MAX, pool=SIZE_MAX, bw_x=8, bw_w=8,
    ),
    LayerKind.FC: dict(m=SIZE_MAX, k=SIZE_MAX, n=SIZE_MAX, bw_x=8, bw_w=8),
    LayerKind.GEMV: dict(m=SIZE_MAX, k=SIZE_MAX, n=SIZE_MAX, repeat=REPEAT_MAX, bw_x=8, bw_w=8),
}
OPTIONAL = {"stride", "pool", "n", "repeat"}  # all default to 1
names = st.text(alphabet="abcxyz019 -_.()", max_size=6)


def optional(maximum):
    return st.one_of(st.just(1), st.integers(2, maximum))


@st.composite
def networks(draw):
    """Chain-valid conv/fc/gemv stacks in either bitwidth mode."""
    homogeneous = draw(st.booleans())
    bits = st.just(8) if homogeneous else st.integers(1, 8)
    small = st.integers(1, 64)
    layers = []
    for _ in range(draw(st.integers(1, 5))):
        prev = layers[-1] if layers else None
        kind = draw(st.sampled_from([LayerKind.FC, LayerKind.GEMV] if prev is not None and prev.kind is LayerKind.FC else list(LayerKind)))
        chained = prev is not None and LayerKind.GEMV not in (prev.kind, kind)
        common = dict(kind=kind, name=draw(names), bw_x=draw(bits), bw_w=draw(bits))
        if kind is LayerKind.CONV:
            c, h, w = (prev.out_channels, prev.pooled_height, prev.pooled_width) if chained else draw(st.tuples(small, small, small))
            layer = LayerSpec(
                **common, in_channels=c, out_channels=draw(small), height=h, width=w,
                kernel_h=draw(small), kernel_w=draw(small), stride=draw(optional(8)), pool=draw(optional(8)),
            )
        else:
            k = prev.out_features if chained else draw(st.integers(1, SIZE_MAX))
            repeat = draw(optional(REPEAT_MAX)) if kind is LayerKind.GEMV else 1
            layer = LayerSpec(**common, m=draw(st.integers(1, SIZE_MAX)), k=k, n=draw(optional(SIZE_MAX)), repeat=repeat)
        layers.append(layer)
    mode = BitwidthMode.HOMOGENEOUS if homogeneous else BitwidthMode.HETEROGENEOUS
    return NetworkSpec(draw(names.filter(bool)), tuple(layers), mode)


def network_json(net, *, defaults=False):
    """``net`` as a schema file: its kind's fields from BOUNDS, optional ones at 1 written only with ``defaults``."""
    layers = []
    for layer in net.layers:
        raw = {"kind": layer.kind.value, "name": layer.name} if layer.name else {"kind": layer.kind.value}
        for field in BOUNDS[layer.kind]:
            value = getattr(layer, field)
            if field in ("kernel_h", "kernel_w"):
                raw.setdefault("kernel", []).append(value)
            elif defaults or field not in OPTIONAL or value != 1:
                raw[field] = value
        layers.append(raw)
    doc = {"schema_version": 1, "name": net.name, "bitwidth_mode": net.bitwidth_mode.value, "layers": layers}
    return json.dumps(doc)


def weight_elements(net):
    return sum(d.m * d.k for d in map(lower_layer, net.layers))


def total_macs(net):
    return sum(d.m * d.k * d.n * l.repeat for l, d in zip(net.layers, map(lower_layer, net.layers)))


class TestParse:
    def test_minimal_fc(self):
        net = parse_network(MINIMAL)
        assert net.name == "tiny"
        assert len(net.layers) == 1
        layer = net.layers[0]
        assert (layer.kind, layer.m, layer.k) == (LayerKind.FC, 16, 32)
        dims = lower_layer(layer)
        assert dims.m * dims.k * dims.n == 16 * 32

    def test_bitwidth_error_names_layer(self):
        doc = json.loads(MINIMAL)
        doc["layers"][0]["bw_w"] = 9
        doc["layers"][0]["name"] = "fc_bad"
        with pytest.raises(NetworkFormatError, match=r"layers\[0\].*fc_bad.*bw_w=9"):
            parse_network(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(NetworkFormatError, match="not valid JSON"):
            parse_network("{nope")

    def test_wrong_schema_version(self):
        doc = json.loads(MINIMAL)
        doc["schema_version"] = 99
        with pytest.raises(NetworkFormatError, match="schema_version"):
            parse_network(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = json.loads(MINIMAL)
        doc["layers"][0]["bogus"] = 1
        with pytest.raises(NetworkFormatError, match=r"layers\[0\].bogus"):
            parse_network(json.dumps(doc))

    def test_missing_field(self):
        doc = json.loads(MINIMAL)
        del doc["layers"][0]["k"]
        with pytest.raises(NetworkFormatError, match="missing required field 'k'"):
            parse_network(json.dumps(doc))

    def test_chain_mismatch_fc(self):
        doc = json.loads(MINIMAL)
        doc["layers"].append({"kind": "fc", "m": 8, "k": 99, "bw_x": 8, "bw_w": 8})
        with pytest.raises(NetworkFormatError, match=r"layers\[1\].*k=99"):
            parse_network(json.dumps(doc))

    def test_chain_mismatch_conv_channels(self):
        layers = [
            {"kind": "conv", "in_channels": 3, "out_channels": 8, "height": 8, "width": 8,
             "kernel": [3, 3], "bw_x": 8, "bw_w": 8},
            {"kind": "conv", "in_channels": 7, "out_channels": 8, "height": 8, "width": 8,
             "kernel": [3, 3], "bw_x": 8, "bw_w": 8},
        ]
        doc = {"schema_version": 1, "name": "x", "layers": layers}
        with pytest.raises(NetworkFormatError, match="in_channels=7"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("kernel", [[True, True], [3, False], [3.0, 3], [3], "3x3"])
    def test_kernel_must_be_two_integers(self, kernel):
        layer = {"kind": "conv", "in_channels": 3, "out_channels": 8, "height": 8, "width": 8,
                 "kernel": kernel, "bw_x": 8, "bw_w": 8}
        with pytest.raises(NetworkFormatError, match=r"layers\[0\].kernel"):
            parse_network(json.dumps({"schema_version": 1, "name": "x", "layers": [layer]}))

    @pytest.mark.parametrize("name", ["p,q", 'say "hi"', "two\nlines", "cr\rlf", 7, ["fc"], None])
    def test_layer_name_must_be_a_plain_string(self, name):
        # names are written unquoted into CSV rows
        doc = json.loads(MINIMAL)
        doc["layers"][0]["name"] = name
        with pytest.raises(NetworkFormatError, match=r"layers\[0\].name"):
            parse_network(json.dumps(doc))

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb"])
    def test_network_name_must_be_a_plain_string(self, name):
        doc = json.loads(MINIMAL)
        doc["name"] = name
        with pytest.raises(NetworkFormatError, match="name"):
            parse_network(json.dumps(doc))

    def test_plain_names_still_parse(self):
        doc = json.loads(MINIMAL)
        doc["layers"][0]["name"] = "fc 1-a_b.c(x)"
        assert parse_network(json.dumps(doc)).layers[0].name == "fc 1-a_b.c(x)"

    def test_homogeneous_mode_requires_8bit(self):
        doc = json.loads(MINIMAL)
        doc["bitwidth_mode"] = "homogeneous-8bit"
        with pytest.raises(NetworkFormatError, match="homogeneous"):
            parse_network(json.dumps(doc))


class TestSchemaProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(net=networks())
    def test_round_trip(self, net):
        # written from BOUNDS, not the parser's own table; optional fields at their default of 1
        # parse to the same network whether left out or written out
        assert parse_network(network_json(net)) == net
        assert parse_network(network_json(net, defaults=True)) == net

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_layer_spec_rejects_foreign_fields_and_out_of_bounds_values(self, data):
        kind = data.draw(st.sampled_from(list(LayerKind)))
        valid = dict.fromkeys(BOUNDS[kind], 1)
        LayerSpec(kind=kind, **valid)
        foreign = sorted({f for bounds in BOUNDS.values() for f in bounds} - BOUNDS[kind].keys())
        field = data.draw(st.sampled_from(foreign))
        with pytest.raises(NetworkFormatError, match=f"{field} does not apply"):
            LayerSpec(kind=kind, **valid, **{field: data.draw(st.integers(2, SIZE_MAX))})
        field = data.draw(st.sampled_from(sorted(BOUNDS[kind])))
        value = data.draw(st.one_of(st.integers(BOUNDS[kind][field] + 1, 10**300), st.integers(max_value=0)))
        with pytest.raises(NetworkFormatError, match=f"{field}={value} outside"):
            LayerSpec(kind=kind, **{**valid, field: value})

    def test_every_maximum_is_inclusive(self):
        for kind, bounds in BOUNDS.items():
            valid = dict.fromkeys(bounds, 1)
            for field, maximum in bounds.items():
                LayerSpec(kind=kind, **{**valid, field: maximum})
                with pytest.raises(NetworkFormatError, match=f"{field}={maximum + 1} outside"):
                    LayerSpec(kind=kind, **{**valid, field: maximum + 1})


class TestToHomogeneous:
    def test_all_bitwidths_become_8(self):
        net = to_homogeneous(load_network(bundled_networks()["resnet"]))
        assert net.bitwidth_mode is BitwidthMode.HOMOGENEOUS
        assert all(l.bw_x == 8 and l.bw_w == 8 for l in net.layers)

    def test_dims_unchanged_mac_invariant(self):
        het = load_network(bundled_networks()["vgg"])
        hom = to_homogeneous(het)
        assert total_macs(hom) == total_macs(het)
        assert [(l.kind, l.out_features) for l in hom.layers] == [
            (l.kind, l.out_features) for l in het.layers
        ]

    def test_idempotent(self):
        once = to_homogeneous(load_network(bundled_networks()["gru"]))
        assert to_homogeneous(once) == once


class TestBundledSuite:
    def test_six_networks(self):
        assert sorted(bundled_networks()) == ["alexnet", "convnet", "gru", "lstm", "resnet", "vgg"]

    def test_names_map_to_their_files_in_name_order(self):
        root = Path(cvusim.workloads.__file__).with_name("data") / "benchmarks"
        names = ("alexnet", "convnet", "gru", "lstm", "resnet", "vgg")
        assert list(bundled_networks().items()) == [(name, root / f"{name}.json") for name in names]

    @pytest.mark.parametrize("name", sorted(bundled_networks()))
    def test_all_validate(self, name):
        net = load_network(bundled_networks()[name])
        assert net.layers
        assert net.bitwidth_mode is BitwidthMode.HETEROGENEOUS

    def test_lstm_weight_bytes_closed_form(self):
        # stacked cells, hidden = input = 1024: weights per cell 4*h*(h+i);
        # the bytes the simulator fetches are checked in test_arch.TestRepeats
        net = load_network(bundled_networks()["lstm"])
        h = i = 1024
        cells = [l for l in net.layers if l.kind is LayerKind.GEMV]
        assert len(cells) == 2
        for cell in cells:
            dims = lower_layer(cell)
            assert dims.m * dims.k == 4 * h * (h + i)

    def test_gru_weight_elements_closed_form(self):
        net = load_network(bundled_networks()["gru"])
        h = i = 1280
        cells = [l for l in net.layers if l.kind is LayerKind.GEMV]
        assert all(lower_layer(c).m * lower_layer(c).k == 3 * h * (h + i) for c in cells)

    def test_alexnet_counts_closed_form(self):
        # independent per-layer recomputation from the published shapes
        net = load_network(bundled_networks()["alexnet"])
        conv_shapes = [
            (64, 3, 11, 11, 56 * 56),
            (192, 64, 5, 5, 28 * 28),
            (384, 192, 3, 3, 14 * 14),
            (256, 384, 3, 3, 14 * 14),
            (256, 256, 3, 3, 14 * 14),
        ]
        fc_shapes = [(4096, 12544), (4096, 4096), (1000, 4096)]
        params = sum(k * c * r * s for k, c, r, s, _ in conv_shapes) + sum(m * k for m, k in fc_shapes)
        macs = sum(k * c * r * s * px for k, c, r, s, px in conv_shapes) + sum(m * k for m, k in fc_shapes)
        assert weight_elements(net) == params
        assert total_macs(net) == macs

    def test_vgg_parameter_count_magnitude(self):
        # VGG-16 class: ~138M parameters
        assert weight_elements(load_network(bundled_networks()["vgg"])) == 138_344_128


class TestLayerSpecGeometry:
    def test_strided_pooled_conv(self):
        layer = LayerSpec(
            kind=LayerKind.CONV, bw_x=8, bw_w=8, in_channels=3, out_channels=64,
            height=224, width=224, kernel_h=11, kernel_w=11, stride=4, pool=2,
        )
        assert (layer.out_height, layer.out_width) == (56, 56)
        assert (layer.pooled_height, layer.pooled_width) == (28, 28)
        assert layer.out_features == 64 * 28 * 28

    def test_repeat_only_on_gemv(self):
        with pytest.raises(NetworkFormatError, match="repeat"):
            LayerSpec(kind=LayerKind.FC, bw_x=8, bw_w=8, m=4, k=4, repeat=2)

    def test_empty_network_rejected(self):
        with pytest.raises(NetworkFormatError, match="no layers"):
            NetworkSpec(name="empty", layers=())

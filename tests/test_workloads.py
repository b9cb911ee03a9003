"""Network schema parsing, validation, and the bundled benchmark suite."""

import json

import pytest

from cvusim.workloads import (
    BitwidthMode,
    LayerKind,
    LayerSpec,
    NetworkSpec,
    bundled_networks,
    load_bundled,
    parse_network,
    serialize_network,
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


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        net = parse_network(MINIMAL)
        assert parse_network(serialize_network(net)) == net

    @pytest.mark.parametrize("name", sorted(bundled_networks()))
    def test_bundled_round_trip(self, name):
        net = load_bundled(name)
        assert parse_network(serialize_network(net)) == net


class TestToHomogeneous:
    def test_all_bitwidths_become_8(self):
        net = to_homogeneous(load_bundled("resnet"))
        assert net.bitwidth_mode is BitwidthMode.HOMOGENEOUS
        assert all(l.bw_x == 8 and l.bw_w == 8 for l in net.layers)

    def test_dims_unchanged_mac_invariant(self):
        het = load_bundled("vgg")
        hom = to_homogeneous(het)
        assert total_macs(hom) == total_macs(het)
        assert [(l.kind, l.out_features) for l in hom.layers] == [
            (l.kind, l.out_features) for l in het.layers
        ]

    def test_idempotent(self):
        once = to_homogeneous(load_bundled("gru"))
        assert to_homogeneous(once) == once


class TestBundledSuite:
    def test_six_networks(self):
        assert sorted(bundled_networks()) == ["alexnet", "convnet", "gru", "lstm", "resnet", "vgg"]

    @pytest.mark.parametrize("name", sorted(bundled_networks()))
    def test_all_validate(self, name):
        net = load_bundled(name)
        assert net.layers
        assert net.bitwidth_mode is BitwidthMode.HETEROGENEOUS

    def test_lstm_weight_bytes_closed_form(self):
        # stacked cells, hidden = input = 1024: weights per cell 4*h*(h+i);
        # the bytes the simulator fetches are checked in test_arch.TestRepeats
        net = load_bundled("lstm")
        h = i = 1024
        cells = [l for l in net.layers if l.kind is LayerKind.GEMV]
        assert len(cells) == 2
        for cell in cells:
            dims = lower_layer(cell)
            assert dims.m * dims.k == 4 * h * (h + i)

    def test_gru_weight_elements_closed_form(self):
        net = load_bundled("gru")
        h = i = 1280
        cells = [l for l in net.layers if l.kind is LayerKind.GEMV]
        assert all(lower_layer(c).m * lower_layer(c).k == 3 * h * (h + i) for c in cells)

    def test_alexnet_counts_closed_form(self):
        # independent per-layer recomputation from the published shapes
        net = load_bundled("alexnet")
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
        assert weight_elements(load_bundled("vgg")) == 138_344_128

    def test_unknown_bundled_name(self):
        with pytest.raises(NetworkFormatError, match="unknown bundled network"):
            load_bundled("nope")


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

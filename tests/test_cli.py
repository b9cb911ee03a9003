"""CLI contract: exit codes 0/1/2 and byte-identical re-runs, through ``main``.

Exit 3 ("internal error") is reserved for defects in cvusim itself; no
input a user can give may produce it.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvusim import __version__, cli
from cvusim.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from cvusim.workloads import bundled_networks

SIM = ["simulate", "--network", "convnet", "--style", "vector"]
CUSTOM = [*SIM, "--memory", "custom"]


@pytest.fixture
def files(tmp_path):
    """Bad input files, by name."""
    params = json.loads(resources.files("cvusim").joinpath("data/default_cost_params.json").read_text())
    params["energy"]["mult"] = -1.0
    negative = json.dumps(params)
    params["energy"]["mult"] = float("inf")
    paths = {
        "negative-params": negative,
        "infinite-params": json.dumps(params),
        "list-params": "[1, 2]",
        "bad-json": "{",
        "not-utf8": b"\xff\xfe",
        "list-network": "[]",
        "no-layers-network": json.dumps({"schema_version": 1, "name": "x", "layers": []}),
        "comma-name-network": json.dumps(
            {"schema_version": 1, "name": "x", "layers": [{"kind": "fc", "name": "p,q", "m": 4, "k": 4, "bw_x": 8, "bw_w": 8}]}
        ),
        "huge-int-network": json.dumps(
            {"schema_version": 1, "name": "x", "layers": [{"kind": "fc", "m": 4, "k": 4, "n": 10**300, "bw_x": 8, "bw_w": 8}]}
        ),
        "huge-repeat-network": json.dumps(
            {"schema_version": 1, "name": "x", "layers": [{"kind": "gemv", "m": 4, "k": 4, "repeat": 10**105, "bw_x": 8, "bw_w": 8}]}
        ),
    }
    out = {}
    for name, content in paths.items():
        path = tmp_path / f"{name}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        out[name] = str(path)
    out["missing"] = str(tmp_path / "missing.json")
    out["dir"] = str(tmp_path)
    return out


def run(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    return code


@pytest.mark.parametrize(
    "argv",
    [
        ["dse"],
        ["dse", "--slices", "2", "--lanes", "1,16"],
        SIM,
        [*SIM, "--bitwidths", "homogeneous", "--memory", "hbm2"],
        [*CUSTOM, "--bandwidth", "32", "--pj-per-bit", "5"],
        ["compare", "--network", "convnet", "--network", "gru", "--config", "conventional:ddr4", "--config", "vector:hbm2"],
    ],
)
def test_success(argv, capsys):
    assert run(argv, capsys) == EXIT_OK


def test_repeated_config_keeps_its_own_geomean(capsys):
    base = ["compare", "--network", "convnet", "--network", "gru", "--config", "conventional:ddr4", "--config", "vector:ddr4"]

    def geomeans(argv):
        assert main(argv) == EXIT_OK
        return [line.split(",")[1:] for line in capsys.readouterr().out.splitlines() if line.startswith("geomean,")]

    single = geomeans(base)
    repeated = geomeans([*base, "--config", "vector:ddr4"])
    assert repeated == [single[0], single[1], single[1]]


def test_two_different_networks_of_one_name_are_an_input_error(tmp_path, capsys):
    # the manifest keys input digests by network name, so one name must mean one file content
    def network(m):
        layer = {"kind": "fc", "m": m, "k": 4, "bw_x": 8, "bw_w": 8}
        return json.dumps({"schema_version": 1, "name": "x", "layers": [layer]})

    paths = {}
    for label, content in (("a", network(4)), ("b", network(8)), ("a-copy", network(4))):
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(content)
    configs = ["--config", "conventional:ddr4", "--config", "vector:ddr4"]
    assert main(["compare", "--network", str(paths["a"]), "--network", str(paths["b"]), *configs]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: two different network files are both named 'x'\n"
    for first, second in (("a", "a"), ("a", "a-copy")):  # the same content twice is one network, repeated
        argv = ["compare", "--network", str(paths[first]), "--network", str(paths[second]), *configs]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: --network names network 'x' more than once\n"


def test_repeated_network_is_a_usage_error_that_names_it(capsys):
    # a repeat would count the network twice in the geomean: convnet, convnet, gru read 6.808 for 10.02
    configs = ["--config", "conventional:ddr4", "--config", "vector:ddr4"]
    convnet_file = str(bundled_networks()["convnet"])
    for repeat in ("convnet", convnet_file):
        argv = ["compare", "--network", "convnet", "--network", repeat, "--network", "gru", *configs]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "usage error: --network names network 'convnet' more than once\n")
    assert run(["compare", "--network", "convnet", "--network", "gru", *configs], capsys) == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["simulate", "--network", "convnet"],
        ["dse", "--slices", "two"],
        ["dse", "--slices", ""],
        ["dse", "--lanes", ""],
        ["dse", "--lanes", ","],
        [*SIM, "--style", "systolic"],
        [*SIM, "--budget", "lots"],
        CUSTOM,
        ["compare", "--network", "convnet", "--config", "vector:ddr4"],
        ["compare", "--network", "convnet", "--config", "vector:ddr5", "--config", "scalar:ddr4"],
        ["compare", "--network", "convnet", "--config", "vector", "--config", "scalar:ddr4"],
    ],
)
def test_usage_errors(argv, capsys):
    assert run(argv, capsys) == EXIT_USAGE


@pytest.mark.parametrize("memory", [[], ["--memory", "ddr4"], ["--memory", "hbm2"]])
@pytest.mark.parametrize(
    "flags", [["--bandwidth", "1000"], ["--pj-per-bit", "0.1"], ["--bandwidth", "1000", "--pj-per-bit", "0.1"]]
)
def test_custom_memory_flags_with_a_named_memory_are_usage_errors(memory, flags, capsys):
    # a named memory fixes both figures, so the flags would be silently ignored
    assert main([*SIM, *memory, *flags]) == EXIT_USAGE
    assert f"usage error: {flags[0]} applies only to --memory custom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["dse", "--slices", "3"],
        ["dse", "--lanes", "0"],
        ["dse", "--params", "{negative-params}"],
        ["dse", "--params", "{infinite-params}"],
        ["dse", "--params", "{list-params}"],
        ["dse", "--params", "{bad-json}"],
        ["dse", "--params", "{not-utf8}"],
        ["dse", "--params", "{missing}"],
        [*SIM, "--params", "{negative-params}"],
        [*SIM, "--budget", "nan"],
        [*SIM, "--budget", "inf"],
        [*SIM, "--budget", "-1"],
        [*SIM, "--sram-bytes", "0"],
        [*CUSTOM, "--bandwidth", "nan", "--pj-per-bit", "1"],
        [*CUSTOM, "--bandwidth", "inf", "--pj-per-bit", "1"],
        [*CUSTOM, "--bandwidth", "0", "--pj-per-bit", "1"],
        [*CUSTOM, "--bandwidth", "16", "--pj-per-bit", "nan"],
        [*CUSTOM, "--bandwidth", "16", "--pj-per-bit", "-1"],
        ["simulate", "--network", "{missing}", "--style", "vector"],
        ["simulate", "--network", "{bad-json}", "--style", "vector"],
        ["simulate", "--network", "{list-network}", "--style", "vector"],
        ["simulate", "--network", "{no-layers-network}", "--style", "vector"],
        ["simulate", "--network", "{not-utf8}", "--style", "vector"],
        ["simulate", "--network", "{comma-name-network}", "--style", "vector"],
        ["compare", "--network", "{bad-json}", "--config", "vector:ddr4", "--config", "scalar:ddr4"],
        ["compare", "--network", "convnet", "--config", "vector:ddr4", "--config", "scalar:ddr4", "--budget", "nan"],
        ["dse", "--out", "{dir}"],
        ["dse", "--out", "{missing}/report.csv"],
        ["simulate", "--network", "{huge-int-network}", "--style", "vector"],
        ["simulate", "--network", "{huge-repeat-network}", "--style", "vector"],
        [*CUSTOM, "--bandwidth", "5e-324", "--pj-per-bit", "1"],
        ["dse", "--lanes", "65537"],
        ["simulate", "--network", "convnet", "--style", "conventional", "--budget", "1e308"],
    ],
)
def test_input_errors(argv, files, capsys):
    assert run([arg.format(**files) for arg in argv], capsys) == EXIT_INPUT


def test_infinite_energy_is_an_input_error(capsys):
    argv = ["simulate", "--network", "vgg", "--style", "conventional", "--memory", "custom"]
    code = main([*argv, "--bandwidth", "1e-9", "--pj-per-bit", "1e300"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: energy total overflows at 1e+300 pJ per bit off chip\n"


@pytest.mark.parametrize(
    "style,bitwidths,line",
    [
        ("conventional", "file", "  6 of 8 layers run at 8 bit instead of their file bitwidths\n"),
        ("conventional", "homogeneous", None),
        ("vector", "file", None),
    ],
)
def test_summary_counts_the_layers_run_at_8_bit(style, bitwidths, line, capsys):
    # convnet has 6 layers below 8 bit; only a conventional run on the file's widths computes them at 8
    assert main(["simulate", "--network", "convnet", "--style", style, "--bitwidths", bitwidths]) == EXIT_OK
    err = capsys.readouterr().err
    if line:
        assert err.endswith(line)
    else:
        assert "layers run at 8 bit" not in err


def test_bad_bandwidth_is_named_in_gb_per_s(capsys):
    assert main([*CUSTOM, "--bandwidth", "5e-324", "--pj-per-bit", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: --bandwidth must be finite and at least 1e-9 GB/s, got 5e-324 GB/s\n"


def test_budget_too_large_for_the_sram_names_budget_units_and_sram(capsys):
    assert main([*SIM, "--budget", "1e308"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == (
        "input error: power budget 1e+308 mW sizes 4.47227e+307 vector-composable units, "
        "more than the 6291456 bytes of weight SRAM (--sram-bytes) can give one byte each\n"
    )


@pytest.mark.parametrize("mac_mw,budget,each", [(1e300, "250", "8.94399e+300"), (1e-300, "1e-305", "8.94399e-300")])
def test_budget_that_fits_no_unit_names_the_unit_power_in_six_digits(mac_mw, budget, each, tmp_path, capsys):
    # a unit's power at either end of the float range prints as neither some 300 digits nor 0.000
    params = json.loads(resources.files("cvusim").joinpath("data/default_cost_params.json").read_text())
    params["conventional_mac_mw"] = mac_mw
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main([*SIM, "--params", str(path), "--budget", budget]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"input error: power budget {budget} mW fits no vector-composable unit ({each} mW each)\n"


def test_budget_past_the_staging_buffers_names_the_layer(capsys):
    # 5 W of vector units: one column's input broadcast outgrows the fixed 64 KiB staging buffer
    assert main(["simulate", "--network", "lstm", "--style", "vector", "--budget", "5e6"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: layers[0]: layer lstm1: input staging needs 95680 bytes, buffer holds 65536\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dse"],
        [*SIM, "--memory", "hbm2"],
        ["compare", "--network", "lstm", "--network", "alexnet", "--config", "scalar:ddr4", "--config", "vector:ddr4"],
    ],
)
def test_out_files_are_byte_identical(argv, tmp_path, capsys):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run([*argv, "--out", str(first)], capsys) == EXIT_OK
    assert run([*argv, "--out", str(second)], capsys) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(f"# cvusim {argv[0]} report\n".encode())


def test_digests_equal_hashlib_sha256():
    # cli hashes with CPython's builtin SHA-256 where it exists, and OpenSSL's otherwise
    manifest = '{"command":"dse","input_digests":{"params":"default"},"seed":0}'.encode()
    assert cli.sha256(manifest).hexdigest() == hashlib.sha256(manifest).hexdigest()
    for path in bundled_networks().values():
        data = path.read_bytes()
        assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_a_command_lists_the_bundled_networks_once(monkeypatch, capsys):
    calls, listing = [], cli.bundled_networks
    monkeypatch.setattr(cli, "bundled_networks", lambda: calls.append(None) or listing())
    nets = [arg for name in ("convnet", "gru", "lstm") for arg in ("--network", name)]
    assert run(["compare", *nets, "--config", "conventional:ddr4", "--config", "vector:ddr4"], capsys) == EXIT_OK
    assert run(SIM, capsys) == EXIT_OK
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["dse", "--help"], ["simulate", "--help"], ["compare", "--help"]])
def test_version_and_help_exit_0_to_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert not err
    if argv == ["--version"]:
        assert out == f"cvusim {__version__}\n"
    else:
        assert out.startswith(" ".join(["usage: cvusim", *argv[:-1]]) + " ")


@pytest.mark.parametrize(
    "argv",
    [
        [*SIM, "--memory", "hbm2"],
        ["compare", "--network", "lstm", "--network", "alexnet", "--config", "scalar:ddr4", "--config", "vector:ddr4"],
    ],
)
def test_explicit_default_budget_and_sram_write_the_same_report(argv, tmp_path, capsys):
    # the parser leaves both unset, and the command fills in arch's defaults
    implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
    assert run([*argv, "--out", str(implicit)], capsys) == EXIT_OK
    assert run([*argv, "--budget", "250", "--sram-bytes", "6291456", "--out", str(explicit)], capsys) == EXIT_OK
    assert explicit.read_bytes() == implicit.read_bytes()
    assert '"budget_mw":250.0' in implicit.read_text() and '"sram_bytes":6291456' in implicit.read_text()


# Random inputs: one well-formed layer per kind, which a draw then breaks with wrong types,
# out-of-range or unlisted fields, unknown kinds and missing fields; stacked layers rarely chain.
GOOD_LAYERS = {
    "conv": {"in_channels": 3, "out_channels": 8, "height": 8, "width": 8, "kernel": [3, 3], "bw_x": 8, "bw_w": 4},
    "fc": {"m": 16, "k": 32, "bw_x": 8, "bw_w": 8},
    "gemv": {"m": 16, "k": 16, "n": 2, "repeat": 4, "bw_x": 4, "bw_w": 2},
}
FIELDS = sorted({field for layer in GOOD_LAYERS.values() for field in layer} | {"name", "stride", "pool", "bogus"})
VALUES = st.one_of(
    st.integers(1, 64),
    st.sampled_from([0, -1, 9, 2**16 + 1, 2**31, 10**30, 2.0, "8", True, None, [3, 3], [3], {}, "p,q"]),
)


@st.composite
def layer_docs(draw):
    kind = draw(st.sampled_from([*GOOD_LAYERS, *GOOD_LAYERS, "pool", 3]))
    layer = {"kind": kind, **GOOD_LAYERS.get(kind, {})}
    if draw(st.booleans()):
        layer.update(draw(st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=2)))
    if draw(st.booleans()):
        del layer[draw(st.sampled_from(sorted(layer)))]
    return layer


@st.composite
def network_texts(draw):
    doc = {
        "schema_version": draw(st.sampled_from([1] * 6 + [2, "1"])),
        "name": draw(st.sampled_from(["x"] * 6 + ["", "a,b", 3])),
        "bitwidth_mode": draw(st.sampled_from(["heterogeneous"] * 6 + ["homogeneous-8bit", "mixed"])),
        "layers": draw(st.lists(layer_docs(), max_size=3)),
    }
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(st.sampled_from([json.dumps(doc)] * 8 + ["[]", "{", '{"layers": 1}']))


BUDGETS = st.sampled_from(["250", "100", "1", "1e-300", "5e6", "1e308", "0", "-1", "nan", "inf", "lots"])
SRAM_BYTES = st.sampled_from(["6291456", "4096", "1", "0", "-5", str(2**63), str(10**30), "1.5"])
NETWORKS = st.sampled_from(["{file}"] * 4 + ["convnet", "gru", "nope"])
CONFIGS = st.sampled_from(["conventional:ddr4", "vector:hbm2", "scalar:ddr4", "vector:ddr4"] * 2 + ["vector:ddr5"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["simulate", "compare"]))
    if command == "simulate":
        style = draw(st.sampled_from(["vector", "scalar", "conventional"] * 3 + ["systolic"]))
        argv = ["simulate", "--network", draw(NETWORKS), "--style", style]
        memory = draw(st.sampled_from(["ddr4", "hbm2", "custom"]))
        argv += ["--memory", memory]
        if memory == "custom" or not draw(st.integers(0, 9)):
            argv += ["--bandwidth", draw(st.sampled_from(["16", "1e-9", "0"]))]
            argv += ["--pj-per-bit", draw(st.sampled_from(["5", "1e300"]))]
    else:
        argv = ["compare"]
        for network in draw(st.lists(NETWORKS, min_size=1, max_size=2)):
            argv += ["--network", network]
        for config in draw(st.lists(CONFIGS, min_size=2, max_size=3)):
            argv += ["--config", config]
    bitwidths = st.sampled_from(["file", "homogeneous", "mixed"])
    for flag, values in (("--budget", BUDGETS), ("--sram-bytes", SRAM_BYTES), ("--bitwidths", bitwidths)):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=argvs(), text=network_texts())
def test_random_inputs_exit_0_1_or_2_and_rerun_byte_identically(argv, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(text)
        argv = [arg.format(file=path) for arg in argv]
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0][0] in (EXIT_OK, EXIT_USAGE, EXIT_INPUT), runs[0][2]
    assert runs[0] == runs[1]

"""CLI contract: exit codes 0/1/2 and byte-identical re-runs, through ``main``.

Exit 3 ("internal error") is reserved for defects in cvusim itself; no
input a user can give may produce it.
"""

import json

import pytest

from cvusim.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
from cvusim.cost import default_params

SIM = ["simulate", "--network", "convnet", "--style", "vector"]
CUSTOM = [*SIM, "--memory", "custom"]


@pytest.fixture
def files(tmp_path):
    """Bad input files, by name."""
    params = json.loads(default_params().to_json())
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
    with pytest.warns(UserWarning):  # vgg's heterogeneous layers are clamped to 8 bit
        code = main([*argv, "--bandwidth", "1e-9", "--pj-per-bit", "1e300"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: energy total overflows at 1e+300 pJ per bit off chip\n"


def test_bad_bandwidth_is_named_in_gb_per_s(capsys):
    assert main([*CUSTOM, "--bandwidth", "5e-324", "--pj-per-bit", "1"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "input error: --bandwidth must be finite and at least 1e-9 GB/s, got 5e-324 GB/s\n"


def test_budget_too_large_for_the_sram_names_budget_units_and_sram(capsys):
    assert main([*SIM, "--budget", "1e308"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == (
        "input error: power budget 1e+308 mW sizes 4.4721e+307 vector-composable units, "
        "more than the 6291456 bytes of weight SRAM (--sram-bytes) can give one byte each\n"
    )


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

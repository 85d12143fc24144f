"""Command-line behavior: formats, schemas, determinism, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import shorsim
from shorsim import cli
from shorsim.distribution import two_term_at
from shorsim.cli import EXIT_DOMAIN, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDist:
    def test_fig_instance_csv(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "8")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "c,P(c)"
        rows = lines[2:]
        assert len(rows) == 256
        total = sum(float(r.split(",")[1]) for r in rows)
        assert abs(total - 1.0) < 1e-9
        # every probability printed with at least 12 significant digits
        assert all(len(r.split(",")[1].split("e")[0].replace(".", "").lstrip("-")) >= 12 for r in rows)

    def test_methods_agree_through_cli(self, capsys):
        outputs = {}
        for method in ("two-term", "per-k", "oracle"):
            _, out, _ = run_cli(capsys, "dist", "--n", "15", "--x", "2", "--qa", "8",
                                "--method", method)
            outputs[method] = [float(r.split(",")[1]) for r in out.splitlines()[2:]]
        for c, (a, b) in enumerate(zip(outputs["two-term"], outputs["oracle"])):
            assert abs(a - b) < 1e-10, c
        assert outputs["two-term"] == pytest.approx(outputs["per-k"], abs=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "8",
                               "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["N"] == 256 and len(obj["probabilities"]) == 256

    def test_rerun_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "8")
        _, second, _ = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "8")
        assert first == second


class TestPeaks:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "peaks", "--n", "21", "--x", "10", "--qa", "8")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "nu,sigma_nu,c_nu,delta_nu"
        cells = [int(r.split(",")[2]) for r in lines[2:]]
        assert cells == [0, 42, 85, 128, 170, 213]


class TestFig1:
    def test_emits_256_rows_plus_peak_annotations(self, capsys):
        code, out, _ = run_cli(capsys, "fig1")
        assert code == EXIT_OK
        lines = out.splitlines()
        data_rows = [l for l in lines if l and not l.startswith("#") and l != "c,P(c)"]
        assert len(data_rows) == 256
        peak_rows = [l for l in lines if l.startswith("# peak ")]
        assert len(peak_rows) == 6
        total = sum(float(r.split(",")[1]) for r in data_rows)
        assert abs(total - 1.0) < 1e-9

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "fig1")
        _, b, _ = run_cli(capsys, "fig1")
        assert a == b


class TestRun:
    def test_common_factor_shortcut_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "21", "--x", "7")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["classification"] == "CommonFactorShortcut"
        assert obj["factors"] == [7, 3]
        assert list(obj.keys()) == [
            "schema_version", "n", "x", "qA", "N", "r_true", "c",
            "recovered_num", "recovered_den", "classification", "factors", "retries",
        ]

    def test_success_run_fields(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "21", "--x", "10", "--qa", "9",
                               "--seed", "3")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["r_true"] == 6 and obj["N"] == 512
        if obj["classification"] == "Success":
            assert sorted(obj["factors"]) == [3, 7]

    def test_seed_default_zero_and_determinism(self, capsys):
        _, a, _ = run_cli(capsys, "run", "--n", "21", "--x", "10")
        _, b, _ = run_cli(capsys, "run", "--n", "21", "--x", "10", "--seed", "0")
        assert a == b

    def test_retry_flags_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--n", "21", "--x", "10", "--qa", "9",
                               "--seed", "11", "--max-mu", "2", "--max-resamples", "1")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert isinstance(obj["retries"], int)
        assert obj["classification"] in (
            "Success", "OddOrder", "TrivialSquareRoot", "ZeroPeak",
            "UnverifiedOrder", "Exhausted",
        )

    def test_csv_rendering_of_object_output_parses(self, capsys):
        import csv
        import io

        code, out, _ = run_cli(capsys, "run", "--n", "21", "--x", "7", "--format", "csv")
        assert code == EXIT_OK
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        rows = {r["key"]: r["value"] for r in csv.DictReader(io.StringIO(body))}
        assert rows["classification"] == "CommonFactorShortcut"
        assert json.loads(rows["factors"]) == [7, 3]


class TestCensus:
    def test_sweep_below_100(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--nmax", "100")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "n,p1,p2,num_x,odd_r,trivial_sqrt,bad_fraction"
        rows = [r.split(",") for r in lines[2:]]
        assert [int(r[0]) for r in rows] == [15, 21, 33, 35, 39, 51, 55, 57, 65, 69,
                                             77, 85, 87, 91, 93, 95]
        assert all(float(r[6]) <= 0.5 for r in rows)

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--nmax", "500", "--format", "json")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["half_bound_ok"] is True
        assert obj["total_x"] > 0
        assert 0 < obj["aggregate_bad_fraction"] < 0.5

    @pytest.mark.parametrize("nmax,digest", [
        (100, "365926404448b05dd0187f9b5ec6e6963f98804f7c0e4cd4a34b72b58d172f00"),
        (10_000, "6eef8c81fa3430ebaeceb3d554d2108ea2ea128b753e11cc329161476d0f922a"),
        (30_000, "a9be58d2f280ef8098530659a19a1c421aef7e183ab8fe55a8351651c9ce27d4"),
    ])
    def test_csv_bytes_are_pinned(self, capsys, nmax, digest):
        # SHA-256 of the output of the literal per-base sweep
        code, out, _ = run_cli(capsys, "census", "--nmax", str(nmax))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_ends_with_heuristic_limit(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--nmax", "10000", "--format", "json")
        obj = json.loads(out)
        assert list(obj)[-1] == "heuristic_limit"
        assert obj["heuristic_limit"] == 7 / 27
        assert obj["aggregate_bad_fraction"] == 0.289314364554564

    def test_known_row_rendering_is_stable(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--nmax", "25")
        rows = out.splitlines()[2:]
        assert rows[0] == "15,3,5,7,0,1,1.428571428571428e-01"
        assert rows[1] == "21,3,7,11,2,3,4.545454545454545e-01"


class TestMcValuation:
    def test_fields_and_determinism(self, capsys):
        code, a, _ = run_cli(capsys, "mc-valuation", "--trials", "20000", "--seed", "4")
        assert code == EXIT_OK
        obj = json.loads(a)
        assert obj["trials"] == 20000
        assert obj["p_fail"] == pytest.approx(obj["p_a"] + obj["p_b"], abs=1e-12)
        _, b, _ = run_cli(capsys, "mc-valuation", "--trials", "20000", "--seed", "4")
        assert a == b


class TestCaptureGuaranteeNeighbors:
    def test_capture_json(self, capsys):
        code, out, _ = run_cli(capsys, "capture", "--n", "21", "--x", "10",
                               "--samples", "2000", "--seed", "1")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["qA"] == 9  # default register covers n^2
        assert 0.8 < obj["exact_value"] < 1.0

    def test_guarantee_json(self, capsys):
        code, out, _ = run_cli(capsys, "guarantee", "--n", "21", "--x", "10", "--qa", "9")
        obj = json.loads(out)
        assert code == EXIT_OK and obj["holds"] is True
        code, out, _ = run_cli(capsys, "guarantee", "--n", "21", "--x", "10", "--qa", "8")
        assert json.loads(out)["holds"] is False

    def test_neighbors_json(self, capsys):
        code, out, _ = run_cli(capsys, "neighbors", "--n", "21", "--x", "10")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["changed_within_guarantee"] == 0
        assert {p["nu"] for p in obj["probes"]} == {1, 5}


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag_is_usage(self, capsys):
        assert run_cli(capsys, "dist", "--n", "21")[0] == EXIT_USAGE

    def test_bad_numeric_input_is_usage_not_crash(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--n", "twenty", "--x", "10")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "run", "--n", "9", "--x", "2")
        assert code == EXIT_DOMAIN and "error" in err
        code, _, _ = run_cli(capsys, "dist", "--n", "21", "--x", "7")
        assert code == EXIT_DOMAIN

    def test_resource_guard_exit(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "25")
        assert code == EXIT_RESOURCE and "resource" in err

    def test_no_command_is_usage(self, capsys):
        assert run_cli(capsys)[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == EXIT_OK
        assert run_cli(capsys, "dist", "--help")[0] == EXIT_OK


class TestOutFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "peaks", "--n", "21", "--x", "10", "--qa", "8",
                               "--out", str(target))
        assert code == EXIT_OK and out == ""
        content = target.read_text()
        assert content.splitlines()[1] == "nu,sigma_nu,c_nu,delta_nu"


class TestOutErrors:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_path_is_one_line(self, capsys, tmp_path, fmt, where):
        target = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
        code, out, err = run_cli(capsys, "dist", "--n", "21", "--x", "10", "--qa", "8",
                                 "--format", fmt, "--out", str(target))
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith(f"shorsim: error: cannot write {target}") and err.count("\n") == 1


class TestRouteGuards:
    """Each costly route has its own resource cap; bad sample counts are
    domain errors.  Every failure is one line on stderr."""

    def test_run_at_default_wide_register(self, capsys):
        code, out, err = run_cli(capsys, "run", "--n", "35263", "--x", "2")
        assert code == EXIT_OK and err == ""
        obj = json.loads(out)
        assert obj["qA"] == 31 and obj["N"] == 1 << 31
        assert obj["classification"] in ("Success", "OddOrder", "TrivialSquareRoot", "Exhausted")
        if obj["classification"] == "Success":
            assert obj["factors"] == [179, 197]

    @pytest.mark.parametrize("argv", [
        ("run", "--n", "4294967297", "--x", "3"),  # 641 * 6700417, beyond the modulus cap
        ("run", "--n", "21", "--x", "10", "--qa", "63"),
        ("dist", "--n", "21", "--x", "10", "--qa", "14", "--method", "oracle"),
    ])
    def test_route_caps_exit_resource(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("shorsim: resource guard:") and err.count("\n") == 1

    def test_census_cap_exits_resource_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "census", "--nmax", "10000001")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("shorsim: resource guard:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("dist", "--qa", "8"),
        ("peaks", "--qa", "8"),
        ("guarantee", "--qa", "8"),
        ("capture",),  # default q_A: a narrower register is a domain error first
        ("neighbors",),
    ])
    def test_vector_routes_cap_the_modulus(self, capsys, argv):
        command, *flags = argv
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--n", "1000000000000000000000000000057",
                                 "--x", "2", *flags)
        assert time.perf_counter() - started < 2.0
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("shorsim: resource guard:") and err.count("\n") == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_capture_sample_count_is_a_domain_error(self, capsys, samples):
        code, out, err = run_cli(capsys, "capture", "--n", "21", "--x", "10", "--samples", samples)
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("shorsim: error:") and err.count("\n") == 1


# SHA-256 of each command's output as rendered by the one-string-per-row
# renderer, before rows were streamed in chunks.  q_A 15 gives exactly one
# full chunk of rows, q_A 16 two.
PINNED_OUTPUT = {
    "dist --n 21 --x 10 --qa 8": "91f61bc96c553cdfa6d3cc356f6666b2220ef0ccfefd110568117d5a33013dbd",
    "dist --n 21 --x 10 --qa 8 --format json":
        "3d2a6afeae1d5a94e87fd01531784002d3e116a92a399eb666683304ccc27ddb",
    "dist --n 21 --x 10 --qa 15": "1044ada41bdf5f32859dd00fa35547fbccbc1fd98e04447677dc15dee30ce0e0",
    "dist --n 21 --x 10 --qa 15 --format json":
        "ca5239910cf4c942ee03e6c00d720ad3add9ecdff751611a14ea93c8ca23b65d",
    "dist --n 1007 --x 5 --qa 16": "0f591e726fb51604f21aec9e68afac2d474a2f18fc4ab1c57e788b5ed11bd412",
    "dist --n 1007 --x 5 --qa 16 --format json":
        "0ad444fdfb9d9fb6419d62103bbd0366aa82073ceb68185481e2059cb8e6e3e4",
    "dist --n 15 --x 2 --method oracle": "d566c3e1cac08ed9290d2756a16e05bd28ab897025a470bc90e72e43f4e4fd9b",
    "dist --n 15 --x 2 --method oracle --format json":
        "d4b5cc8912376a3997f77b3054e1a6db2c5c49173e1ed0c5253ac719b816cae1",
    "fig1": "51a1d1d26bb9e5f45fdc3a5c9758a6606a66e800f1371d52ae892b3572d8f479",
    "fig1 --format json": "a0be9bba78f64b18d11b88a705475e37041c911df259cdc9275cd49e08eccd1c",
    "census --nmax 10000": "6eef8c81fa3430ebaeceb3d554d2108ea2ea128b753e11cc329161476d0f922a",
    # taken while capture built the whole vector, mc-valuation held whole
    # arrays and the census aggregate summed a held list of rows
    "census --nmax 10000 --format json":
        "b92bc404b2f0ba288560c54c00201cef2c249ac5ea546f2aae590956fe656de8",
    "capture --n 1007 --x 5 --samples 200000 --seed 3":
        "2fb18f3b3ced0b22f16ea50675decd95e22984cdcb386b077598b8b4422424f6",
    "capture --n 15 --x 7 --qa 10 --samples 5000 --format csv":
        "8c257b7828428ee8f79b1b0c095bbcd502dee72d7c5b7990169e9d3b45a22fe2",
    "mc-valuation --trials 70000 --seed 4":
        "15b93a1e8c3334171f0b0937bc3e52a12677405f6d8e940a5669afa6f3d65ba7",
    "mc-valuation --trials 65537 --format csv":
        "cec88590de487fc6dcff2622e881ab71c0c7c5e2470e36f0825d1caf1aaeeccc",
    # taken while run_once and run_with_retries were two copies of the
    # attempt and each peak row had its own f-string
    "run --n 21 --x 10 --qa 9 --seed 3": "535f0fc446f8079f5e222fe5a2794111d359105a34904df37d4b56b88e4d7b85",
    "run --n 21 --x 10 --qa 9 --seed 3 --format csv":
        "f0a9a70ab73083ccf2a745c82479059500751d56a3368ca02090b47e723f276a",
    "run --n 21 --x 7": "63b7fcdb10d6467867b7b2e176c9bb188bed4184ccb59d977f72b2fd940be9df",
    "run --n 21 --x 10 --qa 9 --seed 11 --max-mu 2 --max-resamples 1 --format csv":
        "8db6e2c48d57719aa330c1e8791fba30b3e067668919e4925b2b801a513108a2",
    "run --n 1007 --x 5 --seed 7": "8edcac8eb5a6b8aa0001b352b36d705697db29d52caeb95896eb5a4cad0a0d00",
    "peaks --n 21 --x 10 --qa 8": "ecd2d3a084a91b9926aa43f6bd8a2c4e32ab3c82d4535d14af1c70ae1e95f158",
    "peaks --n 21 --x 10 --qa 8 --format json":
        "87057089ebeefd8da213efd9770e7362db9d6cd2ceb616b2714c6f481e556014",
    "peaks --n 1007 --x 5 --qa 16": "505cf34fc22366ca17d3b2342b00200e9d7d23fc2349e816aaf96c43c02bf7ce",
    "peaks --n 1007 --x 5 --qa 16 --format json":
        "badf7e03d881723543abf8251034b1f0bb579339152e49c85888c4983018d7ec",
    "guarantee --n 21 --x 10 --qa 9": "4a67db5dbf70134caf001a36962ad5771ae805ba588b5f7e973f5e77e8e79601",
    "guarantee --n 21 --x 10 --qa 8 --format csv":
        "7a117bb6e58924b40adccc7a3d9e87abf33decf8bc215e7835af698dca1c1dd4",
    "neighbors --n 21 --x 10": "65c18d7291a1122b146ed629deb9958b81605fad17ddd48f11cfe2eb02ed0a5d",
    "neighbors --n 21 --x 10 --format csv":
        "13f81288487ac854ec56ec122520435a4cdf3b8769641d4a5372df16dc94a76c",
    "neighbors --n 1007 --x 5": "093a810d192e70f0b2be3e8e52bc1fc31967777cb9fed479d5c8baadf10bd72a",
    "neighbors --n 1007 --x 5 --format csv":
        "4a9d46a3c97aa41f88746bde1c2aaf3880ffd7d8aa855e5343061bc7e53b3dda",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestStreamedOutput:
    """Tables are written in chunks; the bytes must not depend on that."""

    @pytest.mark.parametrize("command", PINNED_OUTPUT)
    def test_stdout_and_out_file_bytes_are_pinned(self, capsys, tmp_path, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        target = tmp_path / "out"
        code, quiet, _ = run_cli(capsys, *command.split(), "--out", str(target))
        assert code == EXIT_OK and quiet == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("chunk_rows", [1, 100, 255, 256, 257])
    @pytest.mark.parametrize("command", [
        "dist --n 21 --x 10 --qa 8",  # 256 rows
        "dist --n 21 --x 10 --qa 8 --format json",
        "fig1",
        "fig1 --format json",
        "census --nmax 10000",  # 1932 rows
    ])
    def test_chunk_size_does_not_change_bytes(self, capsys, monkeypatch, chunk_rows, command):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]

    @pytest.mark.parametrize("command", [
        "dist --n 1007 --x 5 --qa 16",
        "dist --n 1007 --x 5 --qa 16 --format json",
        "fig1 --format json",
    ])
    def test_two_term_tables_evaluate_one_chunk_at_a_time(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)
        sizes = []

        def counted(inst, info, c):
            sizes.append(len(c))
            return two_term_at(inst, info, c)

        monkeypatch.setattr(cli, "two_term_at", counted)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        assert max(sizes) <= 1000
        assert sum(sizes) == (256 if command.startswith("fig1") else 1 << 16)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("flags,expected", [
        (("--n", "21", "--x", "7"), EXIT_DOMAIN),  # x shares a factor with n
        (("--n", "21", "--x", "10", "--qa", "25"), EXIT_RESOURCE),
        (("--n", "1000000000000000000000000000057", "--x", "2", "--qa", "8"), EXIT_RESOURCE),
    ])
    def test_error_leaves_no_file(self, capsys, tmp_path, fmt, flags, expected):
        target = tmp_path / "out"
        code, _, err = run_cli(capsys, "dist", *flags, "--format", fmt, "--out", str(target))
        assert code == expected and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize("argv", [
        ("dist", "--n", "1007", "--x", "5", "--qa", "16"),
        ("dist", "--n", "1007", "--x", "5", "--qa", "16", "--format", "json"),
        ("census", "--nmax", "30000"),
    ])
    def test_reader_closing_early_is_not_an_error(self, argv):
        src = os.path.dirname(os.path.dirname(shorsim.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        writer = subprocess.Popen([sys.executable, "-m", "shorsim.cli", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert writer.stdout.readline()
            writer.stdout.close()
            err = writer.stderr.read()
            assert writer.wait(timeout=60) == EXIT_OK
        finally:
            writer.kill()
            writer.wait()
        assert err == b""

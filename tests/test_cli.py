"""Command-line behavior: formats, schemas, determinism, and exit codes."""

import argparse
import errno
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import shorsim
from shorsim import cli, distribution, experiments, number_theory, render
from oracles import oracle_at, per_k_at
from shorsim.distribution import OrderInfo, ProblemInstance, two_term_at
from shorsim.errors import ResourceError
from shorsim.rng import SplitMix64
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

    @pytest.mark.parametrize("n, x, q_A", [(15, 2, 8), (21, 10, 9), (341, 2, 10)])
    def test_output_matches_the_test_oracles(self, capsys, n, x, q_A):
        _, out, _ = run_cli(capsys, "dist", "--n", str(n), "--x", str(x), "--qa", str(q_A))
        printed = np.array([float(r.split(",")[1]) for r in out.splitlines()[2:]])
        inst = ProblemInstance.create(n, x, q_A)
        info = OrderInfo.from_instance(inst)
        cells = np.arange(inst.N)
        assert np.max(np.abs(printed - oracle_at(inst, info, cells))) < 1e-10
        assert np.max(np.abs(printed - per_k_at(inst, info, cells))) < 1e-12

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


#: Every command's flags as ``build_parser()`` makes them, each with its
#: default and choices: a flag added, taken away or changed shows up here.
_FORMATS = ("csv", "json")
_MACHINE = {"--n": (None, None), "--x": (None, None), "--qa": (None, None)}
OPTION_SURFACE = {
    "dist": {**_MACHINE, "--format": ("csv", _FORMATS), "--out": (None, None)},
    "peaks": {**_MACHINE, "--format": ("csv", _FORMATS), "--out": (None, None)},
    "fig1": {"--format": ("csv", _FORMATS), "--out": (None, None)},
    "run": {**_MACHINE, "--seed": (0, None), "--max-mu": (64, None), "--max-resamples": (4, None),
            "--format": ("json", _FORMATS), "--out": (None, None)},
    "census": {"--nmax": (10_000, None), "--format": ("csv", _FORMATS), "--out": (None, None)},
    "mc-valuation": {"--trials": (1_000_000, None), "--seed": (0, None),
                     "--format": ("json", _FORMATS), "--out": (None, None)},
    "capture": {**_MACHINE, "--seed": (0, None), "--samples": (100_000, None),
                "--format": ("json", _FORMATS), "--out": (None, None)},
    "guarantee": {**_MACHINE, "--format": ("json", _FORMATS), "--out": (None, None)},
    "neighbors": {**_MACHINE, "--format": ("json", _FORMATS), "--out": (None, None)},
}


class TestOptionSurface:
    def test_parser_matches_the_table(self):
        parser = cli.build_parser()
        (commands,) = [action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)]
        surface = {
            name: {action.option_strings[-1]: (action.default, action.choices)
                   for action in command._actions
                   if action.option_strings and not isinstance(action, argparse._HelpAction)}
            for name, command in commands.items()
        }
        assert surface == OPTION_SURFACE

    @pytest.mark.parametrize("flags", [("--method", "per-k"), ("--method", "oracle"),
                                       ("--method", "two-term")])
    def test_removed_method_flag_is_a_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "dist", "--n", "15", "--x", "2", *flags)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: shorsim ")
        assert err.endswith(f"shorsim: error: unrecognized arguments: {' '.join(flags)}\n")


class TestPeaks:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "peaks", "--n", "21", "--x", "10", "--qa", "8")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == "nu,sigma_nu,c_nu,delta_nu"
        cells = [int(r.split(",")[2]) for r in lines[2:]]
        assert cells == [0, 42, 85, 128, 170, 213]

    def test_a_register_past_int64_prints_the_literal_integer_split(self, capsys):
        # N = 2^70: c_nu past int64 comes as Python ints, each printed by %d
        inst = ProblemInstance.create(1007, 5, 70)
        r = OrderInfo.from_instance(inst).r
        literal = []
        for nu in range(r):
            c_nu, rest = divmod(nu * inst.N, r)
            literal.append((nu, c_nu + rest / r, c_nu, rest / r))
        code, out, _ = run_cli(capsys, "peaks", "--n", "1007", "--x", "5", "--qa", "70")
        assert code == EXIT_OK
        assert out == "# schema_version=1\nnu,sigma_nu,c_nu,delta_nu\n" + "".join(
            "%d,%.15e,%d,%.15e\n" % row for row in literal)
        code, out, _ = run_cli(capsys, "peaks", "--n", "1007", "--x", "5", "--qa", "70", "--format", "json")
        assert code == EXIT_OK
        head = f'"n": 1007,\n  "x": 5,\n  "qA": 70,\n  "N": {inst.N},\n  "r": {r}'
        assert out == '{\n  "schema_version": 1,\n  ' + head + ',\n  "peaks": [\n    ' + ",\n    ".join(
            '{\n      "nu": %d,\n      "sigma_nu": %r,\n      "c_nu": %d,\n      "delta_nu": %r\n    }' % row
            for row in literal) + "\n  ]\n}\n"


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

    @pytest.mark.parametrize("nmax", ["-5", "0", "1", "15"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_semiprimes_is_a_domain_error(self, capsys, monkeypatch, fmt, nmax):
        def refuse(*_args):
            raise AssertionError("the sieve ran for a census with no rows")

        monkeypatch.setattr(experiments, "_sieve_primes", refuse)
        code, out, err = run_cli(capsys, "census", "--nmax", nmax, "--format", fmt)
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"shorsim: error: no odd distinct-prime semiprimes below {nmax}\n"

    def test_least_census_is_the_row_of_15(self, capsys):
        # 15 = 3*5 is the least odd distinct-prime semiprime
        code, out, _ = run_cli(capsys, "census", "--nmax", "16")
        assert code == EXIT_OK
        assert out.splitlines()[2:] == ["15,3,5,7,0,1,1.428571428571428e-01"]
        code, out, _ = run_cli(capsys, "census", "--nmax", "16", "--format", "json")
        assert code == EXIT_OK and json.loads(out)["count"] == 1

    def test_record_is_the_printed_row(self, capsys):
        _, out, _ = run_cli(capsys, "census", "--nmax", "10000")
        rows = experiments.census_sweep(10_000)
        assert out.splitlines()[2:] == ["%d,%d,%d,%d,%d,%d,%.15e" % row for row in rows]

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


class TestOutputFailures:
    """A write that fails and an interrupt each end in one line on stderr."""

    def test_write_error_on_stdout_exits_ioerr(self, capsys, monkeypatch, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FullStdout:
            def writelines(self, chunks):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FullStdout())
        try:
            code = main(["dist", "--n", "21", "--x", "10", "--qa", "8"])
        finally:
            os.close(fd)
        assert code == cli.EXIT_IOERR == 74
        assert capsys.readouterr().err == (
            f"shorsim: error: writing stdout failed: {os.strerror(errno.ENOSPC)}\n")

    def test_write_error_on_out_mid_stream_exits_ioerr(self, capsys, monkeypatch, tmp_path):
        target, written = tmp_path / "table.csv", []

        class FullAfterOneChunk:
            """A file that takes the first chunk and then is out of space."""

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def writelines(self, chunks):
                for chunk in chunks:
                    if written:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    written.append(chunk)

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: FullAfterOneChunk(),
                            raising=False)
        code, out, err = run_cli(capsys, "dist", "--n", "1007", "--x", "5", "--qa", "16",
                                 "--out", str(target))
        assert code == cli.EXIT_IOERR == 74
        assert len(written) == 1 and out == ""
        assert err == f"shorsim: error: writing {target} failed: {os.strerror(errno.ENOSPC)}\n"

    def test_empty_out_path_cannot_be_opened(self, capsys):
        # an empty path is a path that cannot be opened, not stdout
        code, out, err = run_cli(capsys, "census", "--nmax", "100", "--out", "")
        assert code == EXIT_DOMAIN and out == ""
        assert err == f"shorsim: error: cannot write : {os.strerror(errno.ENOENT)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("out", [(), ("--out", "/dev/full")])
    def test_full_device_exits_ioerr_with_one_line(self, out):
        src = os.path.dirname(os.path.dirname(shorsim.__file__))
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "shorsim.cli", "dist", "--n", "1007",
                                   "--x", "5", "--qa", "16", *out],
                                  stdout=full, stderr=subprocess.PIPE, timeout=60,
                                  env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == cli.EXIT_IOERR
        assert done.stderr.startswith(b"shorsim: error: writing ") and done.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("argv, route", [
        (("mc-valuation", "--trials", "100"), "valuation_model_mc"),
        (("dist", "--n", "1007", "--x", "5", "--qa", "16"), "two_term_at"),
    ])
    def test_interrupt_exits_130_with_one_line(self, capsys, monkeypatch, argv, route):
        module = distribution if route == "two_term_at" else cli
        original, calls = getattr(module, route), []

        def interrupted(*args, **kwargs):
            # the dist table is interrupted after its first block is written
            calls.append(None)
            if len(calls) > 1 or route != "two_term_at":
                raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(module, route, interrupted)
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_INTERRUPTED == 130
        assert err == "shorsim: interrupted\n"
        assert (out != "") == (route == "two_term_at")


class TestOracleOrder:
    def test_order_is_computed_once(self, capsys, monkeypatch):
        original = number_theory._distinct_prime_factors
        calls = []

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(number_theory, "_distinct_prime_factors", counted)
        code, _, _ = run_cli(capsys, "dist", "--n", "4087", "--x", "5", "--qa", "8")
        assert code == EXIT_OK
        assert calls == [4087, 60, 66]


class TestOutFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "peaks", "--n", "21", "--x", "10", "--qa", "8",
                               "--out", str(target))
        assert code == EXIT_OK and out == ""
        content = target.read_text()
        assert content.splitlines()[1] == "nu,sigma_nu,c_nu,delta_nu"


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(heading):
    """The first fenced code block under the README's `## heading`."""
    return re.search(rf"^## {heading}\n.*?^```\w*\n(.*?)^```", README, re.M | re.S).group(1)


README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for line in readme_block("Command line").splitlines() if line.startswith("shorsim ")]


class TestReadmeExamples:
    """The README's examples run as written, so it names no flag that no
    longer parses."""

    def test_every_command_is_shown(self):
        assert {argv[0] for argv in README_COMMANDS} == set(OPTION_SURFACE)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_command_line_example_exits_zero(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert (tmp_path / "out").stat().st_size > 0

    def test_library_example_prints_the_factors(self, capsys):
        exec(readme_block("Library example"), {})
        assert capsys.readouterr().out == "(3, 7)\n"


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
        ("dist", "--n", "21", "--x", "10", "--qa", "25"),
        ("dist", "--n", "21", "--x", "10", "--qa", "25", "--format", "json"),
        ("dist", "--n", "4294967297", "--x", "3", "--qa", "8"),
        ("capture", "--n", "21", "--x", "10", "--qa", "25"),
        ("capture", "--n", "4294967297", "--x", "3"),
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
        ("mc-valuation", "--trials", str(experiments.MAX_MC_TRIALS + 1)),
        ("capture", "--n", "4087", "--x", "5", "--samples", str(experiments.MAX_CAPTURE_SAMPLES + 1)),
    ])
    def test_monte_carlo_caps_exit_resource_at_once(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
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

    @pytest.mark.parametrize("command", ["guarantee", "peaks", "neighbors"])
    def test_register_wider_than_a_float_exits_resource(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "21", "--x", "10", "--qa", "1024")
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("shorsim: resource guard:") and err.count("\n") == 1

    def test_guarantee_at_the_widest_register(self, capsys):
        code, out, err = run_cli(capsys, "guarantee", "--n", "21", "--x", "10", "--qa", "1023")
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["qA"] == 1023

    def test_guarantee_at_a_large_order_is_immediate(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "guarantee", "--n", "2119933513", "--x", "3",
                                 "--qa", "8")
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_OK and err == ""
        obj = json.loads(out)
        assert obj["r"] == 529960357 and obj["max_delta_c_d1"] == 1 / 256
        assert obj["holds"] is False

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dist_at_a_large_order_is_immediate(self, capsys, fmt):
        # r = 529 960 357 is past the peak cap, but a dist pass costs O(N)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "dist", "--n", "2119933513", "--x", "3", "--qa", "8",
                                 "--format", fmt)
        assert time.perf_counter() - started < 1.0
        assert code == EXIT_OK and err == ""
        if fmt == "csv":
            p = [float(row.split(",")[1]) for row in out.splitlines()[2:]]
        else:
            p = json.loads(out)["probabilities"]
        assert len(p) == 256 and sum(p) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("peaks", "--qa", "8"),
        ("peaks", "--qa", "8", "--format", "json"),
        ("neighbors",),
    ])
    def test_large_order_routes_exit_resource_at_once(self, capsys, argv):
        command, *flags = argv
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, "--n", "2119933513", "--x", "3", *flags)
        assert time.perf_counter() - started < 1.0
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
    # q_A 62: three-word bounded draws and a long expansion of N/c; taken
    # while convergents were selected from the list of Fractions
    "run --n 2146654199 --x 3 --seed 5":
        "8b7e4d404397917353a1945bf54dc16a9c06f236a0ced2c5088a20be81019d76",
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
    # taken at 0.7.0, when dist --method picked among three evaluators,
    # from its default, two-term: the machines of the per-k and oracle pins
    # of that release (most cells of n 15 print 0.0)
    "dist --n 15 --x 2": "50ae11a5fba6c21217a1170420eb2b8234bbfbdea357b1bd103d18a9a9ee8b50",
    "dist --n 15 --x 2 --format json":
        "2ffeb7a703a5a137ee1ca0a14019a511fe5653da5e97d1ea5eb08767df4250ee",
    "dist --n 341 --x 2 --qa 12": "29276c91a87b866506ec913aece45807b4ed626111b385810eaede55aacdfea1",
    "dist --n 341 --x 2 --qa 12 --format json":
        "2b6d7978f7eab367b998ec73f0e0b69f44700ca6d31f2d3f60a1af8d6beda1b0",
}


# every pinned command whose output is JSON (by --format or by default),
# and two more: peaks' floats are mostly fixed notation, and most cells of
# dist at n 15 are 0.0
JSON_COMMANDS = [command for command in PINNED_OUTPUT
                 if cli.build_parser().parse_args(command.split()).format == "json"]
JSON_COMMANDS += ["peaks --n 1007 --x 5 --format json", "dist --n 15 --x 2 --qa 12 --format json"]

# at least one call of every command; run --n 2146654199 is q_A 62, with
# three-word bounded draws and a long expansion of N/c
CONSOLE_COMMANDS = [
    "fig1", "fig1 --format json", "run --n 21 --x 10 --seed 7", "run --n 2146654199 --x 3 --seed 5",
    "dist --n 1007 --x 5 --qa 16 --format json", "dist --n 341 --x 2 --qa 12",
    "dist --n 15 --x 2 --format json", "peaks --n 21 --x 10 --qa 8 --format json",
    "census --nmax 30000", "census --nmax 30000 --format json", "neighbors --n 1007 --x 5",
    "neighbors --n 1007 --x 5 --format csv", "guarantee --n 4087 --x 5",
    "mc-valuation --trials 100000 --seed 3", "capture --n 1007 --x 5 --samples 100000",
]


def fresh_interpreter(*argv):
    """The completed process of `python argv`, with this checkout's package
    first on the path and stdout and stderr captured."""
    src = os.path.dirname(os.path.dirname(shorsim.__file__))
    return subprocess.run([sys.executable, *argv], capture_output=True, timeout=60, check=True,
                          env={**os.environ, "PYTHONPATH": src})


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

    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_json_output_is_json_dumps_of_its_parse(self, capsys, command):
        # the JSON writer checked without a pinned digest: every float
        # reads back to itself and prints as json.dumps prints it
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("chunk_rows", [1, 100, 255, 256, 257])
    @pytest.mark.parametrize("command", [
        "dist --n 21 --x 10 --qa 8",  # 256 rows
        "dist --n 21 --x 10 --qa 8 --format json",
        "fig1",
        "fig1 --format json",
        "census --nmax 10000",  # 1932 rows
        "census --nmax 10000 --format json",
        "peaks --n 1007 --x 5 --qa 16",  # 468 peaks
        "peaks --n 1007 --x 5 --qa 16 --format json",
        "neighbors --n 1007 --x 5 --format csv",
        "neighbors --n 1007 --x 5",
    ])
    def test_chunk_size_does_not_change_bytes(self, capsys, monkeypatch, chunk_rows, command):
        monkeypatch.setattr(distribution, "_BLOCK", chunk_rows)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]

    @pytest.mark.parametrize("command", [
        "mc-valuation --trials 65537 --format csv",
        "capture --n 15 --x 7 --qa 10 --samples 5000 --format csv",
        "census --nmax 10000",
        "dist --n 21 --x 10 --qa 8",
        "dist --n 341 --x 2 --qa 12",
        "dist --n 15 --x 2",
        "peaks --n 1007 --x 5 --qa 16",
    ])
    def test_every_pass_takes_blocks_of_the_one_size(self, capsys, monkeypatch, command):
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        sizes = []

        def counted(function, size):
            def wrapper(*args):
                sizes.append(size(*args))
                return function(*args)
            return wrapper

        # the random words of both Monte Carlo tallies (each counts raw
        # words of uint64_block), the census chunks, the cells of every
        # register pass (dist, fig1 and two_term_prefix_sums), and the peak
        # chunks
        monkeypatch.setattr(SplitMix64, "uint64_block",
                            counted(SplitMix64.uint64_block, lambda rng, count: count))
        monkeypatch.setattr(experiments, "_census_columns",
                            counted(experiments._census_columns, lambda p, q: len(p)))
        monkeypatch.setattr(distribution, "two_term_at",
                            counted(two_term_at, lambda inst, info, c: len(c)))
        monkeypatch.setattr(distribution, "peak_columns",
                            counted(distribution.peak_columns, lambda inst, info, start, stop: stop - start))
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        assert sizes and max(sizes) <= 7

    @pytest.mark.parametrize("command, cells", [pytest.param(command, cells, id=command) for command, cells in [
        ("dist --n 1007 --x 5 --qa 16", 1 << 16),
        ("dist --n 1007 --x 5 --qa 16 --format json", 1 << 16),
        ("fig1 --format json", 256),
        ("dist --n 341 --x 2 --qa 12", 1 << 12),
        ("dist --n 341 --x 2 --qa 12 --format json", 1 << 12),
        ("dist --n 15 --x 2", 256),
        ("dist --n 15 --x 2 --format json", 256),
    ]])
    def test_two_term_tables_evaluate_one_chunk_at_a_time(self, capsys, monkeypatch, command, cells):
        # no table holds the register's N cells at once
        monkeypatch.setattr(distribution, "_BLOCK", 1000)
        sizes = []

        def evaluate(inst, info, c):
            sizes.append(len(c))
            return two_term_at(inst, info, c)

        monkeypatch.setattr(distribution, "two_term_at", evaluate)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        assert max(sizes) <= 1000
        assert sum(sizes) == cells

    @pytest.mark.parametrize("command", [
        "dist --n 1007 --x 5 --qa 16",
        "dist --n 1007 --x 5 --qa 16 --format json",
        "fig1",
        "fig1 --format json",
        "peaks --n 1007 --x 5 --qa 16 --format json",
        "census --nmax 10000",
    ])
    def test_every_number_through_the_stdlib_gives_the_same_bytes(self, capsys, monkeypatch,
                                                                  command):
        kernel_runs = []
        for conv, (kernel, text) in list(render._FIELDS.items()):
            def forced(column, work, kernel=kernel):
                kernel_runs.append(conv)
                width, write, _ = kernel(column, work)
                return width, write, np.ones(len(column), dtype=bool)  # every element left to the stdlib
            monkeypatch.setitem(render._FIELDS, conv, (forced, text))
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        assert kernel_runs

    def test_peaks_json_is_streamed(self, capsys, monkeypatch):
        monkeypatch.setattr(distribution, "_BLOCK", 100)
        args = cli.build_parser().parse_args("peaks --n 1007 --x 5 --qa 16 --format json".split())
        chunks = args.func(args)
        assert not isinstance(chunks, str)
        text = b"".join(chunks).decode()
        assert sha256(text) == PINNED_OUTPUT["peaks --n 1007 --x 5 --qa 16 --format json"]
        assert len(json.loads(text)["peaks"]) == 468

    @pytest.mark.parametrize("command", [
        "dist --n 21 --x 10 --qa 8",
        "dist --n 21 --x 10 --qa 8 --format json",
        "fig1",
        "peaks --n 1007 --x 5 --qa 16",
    ])
    def test_chunks_held_together_keep_their_bytes(self, monkeypatch, command):
        # a table's renderer reuses its row buffer: each chunk it returns is its own
        monkeypatch.setattr(distribution, "_BLOCK", 100)
        args = cli.build_parser().parse_args(command.split())
        chunks = list(args.func(args))
        assert len({id(chunk) for chunk in chunks}) == len(chunks) > 3
        assert sha256(b"".join(chunks).decode()) == PINNED_OUTPUT[command]

    def test_neighbors_json_is_streamed(self, monkeypatch):
        # the probes are spread over chunks, none holding more than a block
        monkeypatch.setattr(distribution, "_BLOCK", 7)
        args = cli.build_parser().parse_args("neighbors --n 1007 --x 5".split())
        chunks = list(args.func(args))
        text = b"".join(chunks).decode()
        assert sha256(text) == PINNED_OUTPUT["neighbors --n 1007 --x 5"]
        counts = [chunk.count(b'"nu": ') for chunk in chunks]
        assert sum(counts) == len(json.loads(text)["probes"]) > 7
        assert max(counts) <= 7

    @pytest.mark.parametrize("command, expected", [
        *(pytest.param(command, {bytes, bytearray}, id=command) for command in [
            "dist --n 21 --x 10 --qa 8",
            "dist --n 21 --x 10 --qa 8 --format json",
            "dist --n 341 --x 2 --qa 12",
            "dist --n 15 --x 2 --format json",
            "fig1",
            "fig1 --format json",
            "peaks --n 21 --x 10 --qa 8",
            "peaks --n 21 --x 10 --qa 8 --format json",
            "census --nmax 10000",
            "neighbors --n 21 --x 10 --format csv",
        ]),
        # renders no rows: each probe is encoded from its JSON text
        pytest.param("neighbors --n 1007 --x 5", {bytes}, id="neighbors --n 1007 --x 5"),
    ])
    def test_tables_reach_the_writer_as_bytes(self, capsys, monkeypatch, command, expected):
        # no text round trip: the rendered rows go to the writer as they are
        write, kinds = cli._write, set()

        def recorded(chunks, path):
            chunks = list(chunks)
            kinds.update(type(chunk) for chunk in chunks)
            return write(chunks, path)

        monkeypatch.setattr(cli, "_write", recorded)
        code, out, _ = run_cli(capsys, *command.split())
        assert code == EXIT_OK
        assert sha256(out) == PINNED_OUTPUT[command]
        assert kinds == expected

    @pytest.mark.parametrize("command", [
        *CONSOLE_COMMANDS,
        "dist --n 1007 --x 5 --qa 16",
        "peaks --n 1007 --x 5 --qa 16 --format json",
    ])
    def test_out_file_holds_the_bytes_of_stdout(self, tmp_path, command):
        # in a fresh interpreter, so that stdout is the process's own
        target = tmp_path / "out"
        piped = fresh_interpreter("-m", "shorsim.cli", *command.split())
        quiet = fresh_interpreter("-m", "shorsim.cli", *command.split(), "--out", str(target))
        assert quiet.stdout == b"" and target.read_bytes() == piped.stdout
        assert b"\r" not in piped.stdout
        if command in PINNED_OUTPUT:
            assert hashlib.sha256(piped.stdout).hexdigest() == PINNED_OUTPUT[command]

    @pytest.mark.parametrize("command", CONSOLE_COMMANDS)
    def test_console_script_writes_the_bytes_of_the_module(self, command):
        # the installed `shorsim` script imports the [project.scripts] target
        # and exits with what it returns
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        module, function = re.search(r'^\[project\.scripts\]\nshorsim = "([\w.]+):(\w+)"$',
                                     pyproject, re.M).groups()
        script = fresh_interpreter(
            "-c", f"import sys; from {module} import {function}; sys.exit({function}())",
            *command.split())
        piped = fresh_interpreter("-m", "shorsim.cli", *command.split())
        assert script.stdout == piped.stdout and script.stderr == piped.stderr == b""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("flags,expected", [
        (("--n", "21", "--x", "7"), EXIT_DOMAIN),  # x shares a factor with n
        (("--n", "21", "--x", "10", "--qa", "25"), EXIT_RESOURCE),
        (("--n", "1000000000000000000000000000057", "--x", "2", "--qa", "8"), EXIT_RESOURCE),
        (("--n", "4294967297", "--x", "3", "--qa", "8"), EXIT_RESOURCE),  # beyond the modulus cap
        (("--n", "21", "--x", "10", "--qa", "0"), EXIT_DOMAIN),
    ])
    def test_error_leaves_no_file(self, capsys, tmp_path, fmt, flags, expected):
        target = tmp_path / "out"
        code, _, err = run_cli(capsys, "dist", *flags, "--format", fmt, "--out", str(target))
        assert code == expected and err.count("\n") == 1
        assert not target.exists()

    def test_run_and_guarantee_never_load_numpy(self):
        # in a fresh interpreter: this module's own import of numpy, and
        # pytest's of dataclasses, would hide a module-level one in the package
        child = textwrap.dedent("""
            import contextlib, hashlib, io, json, sys
            import shorsim, shorsim.cli

            def digest(command):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert shorsim.cli.main(command.split()) == 0
                return hashlib.sha256(out.getvalue().encode()).hexdigest()

            report = {command: digest(command) for command in sys.argv[1:3]}
            shorsim.run_with_retries(1007, 5, seed=7)
            report["census row"] = repr(shorsim.failure_census(4087))
            report["numpy"] = "numpy" in sys.modules
            report["dataclasses"] = "dataclasses" in sys.modules
            report.update((command, digest(command)) for command in sys.argv[3:])
            report["numpy after"] = "numpy" in sys.modules
            print(json.dumps(report))
        """)
        commands = ["run --n 21 --x 10 --qa 9 --seed 3", "guarantee --n 21 --x 10 --qa 9",
                    "dist --n 21 --x 10 --qa 8", "census --nmax 10000 --format json"]
        src = os.path.dirname(os.path.dirname(shorsim.__file__))
        done = subprocess.run([sys.executable, "-c", child, *commands], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        report = json.loads(done.stdout)
        assert report.pop("census row") == repr(shorsim.failure_census(4087))
        assert report.pop("numpy") is False
        assert report.pop("dataclasses") is False
        assert report.pop("numpy after") is True
        assert report == {command: PINNED_OUTPUT[command] for command in commands}

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


# starts `shorsim argv` and prints its exit code, peak RSS in KiB and minor
# page faults.  Run from a fresh interpreter, never from pytest: on Linux a
# forked child's ru_maxrss starts at its parent's RSS.
BUDGET_LAUNCHER = textwrap.dedent("""
    import os, subprocess, sys
    child = subprocess.Popen([sys.executable, "-m", "shorsim.cli", *sys.argv[1:]],
                             stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
""")


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as Linux reports it")
@pytest.mark.parametrize("command,measure,bound", [
    # the report holds its probes as columns and the JSON is streamed a
    # chunk a probe: 42-43 MB at r = 62 748, against 57 MB for a record a
    # probe and 121 MB for the report built as one string
    ("neighbors --n 130007 --x 2", "peak_mb", 50),
    # at the cap (r = 65 521) the CSV's columns take 77 MB, against 107 MB
    # for a record a probe
    ("neighbors --n 1965633 --x 1024 --format csv", "peak_mb", 85),
    # one renderer a table keeps its work arrays: about 5 600 minor faults
    # for the 2^22 rows, where arrays allocated and freed a chunk at a time
    # faulted their pages back in, 66 700 in all
    ("dist --n 4087 --x 5 --qa 22", "minor_faults", 20_000),
    # the semiprimes are placed by n, not sorted: 72 MB, against 82 MB
    ("census --nmax 10000000", "peak_mb", 77),
    # 159 681 of the 988 288 sigma_nu at q_A 62 are the stdlib's, placed
    # as one block a chunk: 44 MB, against 47-48 MB for a list of texts
    # and a loop over their rows
    ("peaks --n 2146654199 --x 1519629142 --format json", "peak_mb", 46),
])
def test_command_keeps_its_budget(command, measure, bound):
    code, peak_kib, faults = map(int, fresh_interpreter("-c", BUDGET_LAUNCHER,
                                                        *command.split()).stdout.split())
    measured = {"peak_mb": peak_kib / 1024, "minor_faults": faults}
    assert code == EXIT_OK and measured[measure] <= bound, measured


def test_version_is_pyprojects():
    # no tomllib before Python 3.11
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert shorsim.__version__ == re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)


class TestPasses:
    """``distribution`` makes every streamed pass: its guards fire before
    any cell is evaluated, and no block is held once the next is taken."""

    def test_census_chunk_is_freed_once_the_next_is_taken(self, monkeypatch):
        columns = experiments._census_columns
        refs = []

        def tracked(p, q):
            chunk = columns(p, q)
            refs.append(weakref.ref(chunk.n))
            return chunk

        monkeypatch.setattr(experiments, "_census_columns", tracked)
        args = cli.build_parser().parse_args(["census", "--nmax", "1000000"])
        text = args.func(args)
        next(text)  # the header
        next(text)  # the rows of the first chunk
        assert len(refs) == 1
        next(text)
        assert len(refs) == 2 and refs[0]() is None

    def test_register_block_is_freed_once_the_next_is_taken(self):
        inst = ProblemInstance.create(1007, 5, 20)
        values = distribution._register_values(inst, OrderInfo.from_instance(inst))
        cells, p = next(values)
        refs = [weakref.ref(cells), weakref.ref(p)]
        del cells, p
        next(values)
        assert [ref() for ref in refs] == [None, None]

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cell evaluator ran before the register guard")

        # the register passes evaluate through distribution, and capture
        # reads its peak cells through experiments
        for module in (distribution, experiments):
            monkeypatch.setattr(module, "two_term_at", refuse)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dist_guard_comes_before_any_evaluation(self, no_evaluation, fmt):
        args = cli.build_parser().parse_args(
            ["dist", "--n", "21", "--x", "10", "--qa", "25", "--format", fmt])
        with pytest.raises(ResourceError):
            args.func(args)

    def test_prefix_sums_guard_comes_before_any_evaluation(self, no_evaluation):
        inst = ProblemInstance.create(21, 10, 25)
        with pytest.raises(ResourceError):
            distribution.two_term_prefix_sums(inst, OrderInfo.from_instance(inst), [0, 1])

    def test_capture_guard_comes_before_any_evaluation(self, no_evaluation):
        with pytest.raises(ResourceError):
            experiments.capture_rate_empirical(21, 10, 25, 1000)

"""Command-line front end.

Every command is deterministic given its flags: randomness flows from the
--seed flag through SplitMix64 only, output carries no timestamps, and
re-running a command reproduces its output byte for byte.

Exit codes: 0 success, 1 domain error, 2 resource-guard violation,
64 usage error, 74 write error on stdout or --out, 130 interrupted.

Every command returns its output as ASCII byte chunks, written as they
are made: a record as one chunk, a table (dist, fig1, census, peaks,
neighbors) one block of ``distribution._blocks`` a chunk, or one probe a
chunk for the neighbors JSON, so its text is never held whole.  One
``render.Renderer`` a table turns each chunk's columns of numbers into
the stdlib's exact text, with no Python call per number, and keeps its
work arrays from the table's first chunk to its last.  Output goes to the
binary file under stdout, so every platform writes ``\n``.
``distribution`` makes, caps and evaluates every pass over the register
(``_register_values``) and over the peaks (``_peak_blocks``), and the
census CSV and JSON aggregate take each block's columns from the closed
form, so none of them holds a vector or a list of rows; the CLI formats.
Every pass checks its inputs and caps when it is made, and no block can
fail once they pass, so an error leaves no output.
"""

import argparse
import json
import sys
from itertools import chain

from .distribution import (
    OrderInfo,
    ProblemInstance,
    _blocks,
    _peak_blocks,
    _register_values,
)
from .errors import DomainError, ResourceError
from .experiments import (
    CENSUS_HEURISTIC_LIMIT,
    _census_chunks,
    _census_chunks_aggregate,
    capture_rate_empirical,
    figure1_instance,
    neighbor_state_check,
    valuation_model_mc,
)
from .pipeline import (
    RetryPolicy,
    order_recovery_guarantee,
    run_with_retries,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
EXIT_IOERR = 74
EXIT_INTERRUPTED = 130

SCHEMA_VERSION = 1
_JSON = json.JSONEncoder(indent=2)  # json.dumps(obj, indent=2) is _JSON.encode(obj)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json(obj: dict) -> str:
    return _JSON.encode({"schema_version": SCHEMA_VERSION, **obj}) + "\n"


def _kv_csv(obj: dict) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", "key,value"]
    for key, value in obj.items():
        if isinstance(value, (list, tuple, dict)):
            value = json.dumps(value)
        text = str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        lines.append(f"{key},{text}")
    return "\n".join(lines) + "\n"


def _render(args, obj: dict) -> list:
    return [(_json(obj) if args.format == "json" else _kv_csv(obj)).encode()]


def _rows(row_format: str):
    """The ``rows`` of a ``render.Renderer`` for one table by
    `row_format`, which keeps its work arrays from chunk to chunk.  The
    renderer is imported with the first table made, so that a command or
    a library caller that writes none does not build its tables."""
    from .render import Renderer

    return Renderer(row_format).rows


def _csv_chunks(header: str, row_format: str, column_chunks):
    """A CSV document as byte chunks: the header, then the rows of each
    chunk of `column_chunks`, which gives one sequence per conversion of
    `row_format` (see ``render.Renderer``)."""
    return chain([f"# schema_version={SCHEMA_VERSION}\n{header}\n".encode()],
                 map(_rows(row_format), column_chunks))


def _json_chunks(obj: dict, arrays: dict):
    """`_json(obj)` as byte chunks, with each placeholder `obj[key] = None`
    replaced by the JSON array whose elements come in the byte chunks of
    `arrays[key]`, each element led by ",\n    ".  The keys come in the
    order of obj."""
    text = _json(obj).encode()
    for key, chunks in arrays.items():
        head, _, text = text.partition(f'"{key}": null'.encode())
        yield head + f'"{key}": ['.encode()
        first = True
        for chunk in chunks:
            if chunk:
                # the first element follows "[\n    ", not ",\n    "
                yield chunk[1:] if first else chunk
                first = False
        yield b"]" if first else b"\n  ]"
    yield text


def _json_rows(element: str, column_chunks):
    """The `_json_chunks` chunks of the rows of `column_chunks`, each by the
    format `element`.  json.dumps prints a finite float as its repr, so
    ``%r`` gives the same bytes; the floats printed are finite."""
    return map(_rows(",\n    " + element), column_chunks)


def _distribution_csv(cell_values):
    """The `c,P(c)` table of the pairs of ``_register_values`` as byte chunks."""
    return _csv_chunks("c,P(c)", "%d,%.15e\n", cell_values)


def _cmd_dist(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    info = OrderInfo.from_instance(inst)
    cell_values = _register_values(inst, info)
    if args.format == "json":
        return _json_chunks({
            "n": args.n, "x": args.x, "qA": inst.q_A, "N": inst.N,
            "method": "two_term_form",
            "probabilities": None,
        }, {"probabilities": _json_rows("%r", (pair[1:] for pair in cell_values))})
    return _distribution_csv(cell_values)


_PEAK_HEADER = "nu,sigma_nu,c_nu,delta_nu"
_PEAK_ROW = "%d,%.15e,%d,%.15e\n"
_PEAK_JSON = ('{\n      "nu": %d,\n      "sigma_nu": %r,\n'
              '      "c_nu": %d,\n      "delta_nu": %r\n    }')


def _cmd_peaks(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    info = OrderInfo.from_instance(inst)
    chunks = _peak_blocks(inst, info)
    if args.format == "json":
        return _json_chunks({
            "n": args.n, "x": args.x, "qA": inst.q_A, "N": inst.N, "r": info.r,
            "peaks": None,
        }, {"peaks": _json_rows(_PEAK_JSON, chunks)})
    return _csv_chunks(_PEAK_HEADER, _PEAK_ROW, chunks)


def _fig1_csv(inst, info):
    peak_rows = _rows("# peak " + _PEAK_ROW)
    yield from _distribution_csv(_register_values(inst, info))
    yield f"# peaks: {_PEAK_HEADER}\n".encode()
    yield from map(peak_rows, _peak_blocks(inst, info))


def _cmd_fig1(args):
    inst, info = figure1_instance()
    if args.format == "json":
        return _json_chunks({
            "n": inst.n, "x": inst.x, "qA": inst.q_A, "N": inst.N,
            "probabilities": None,
            "peaks": None,
        }, {"probabilities": _json_rows("%r", (pair[1:] for pair in _register_values(inst, info))),
            "peaks": _json_rows(_PEAK_JSON, _peak_blocks(inst, info))})
    return _fig1_csv(inst, info)


def _cmd_run(args):
    policy = RetryPolicy(max_mu=args.max_mu, max_resamples=args.max_resamples)
    outcome = run_with_retries(args.n, args.x, policy=policy, seed=args.seed, q_A=args.qa)
    rec = outcome.recovery
    obj = {
        "n": outcome.n,
        "x": outcome.x,
        "qA": outcome.instance.q_A if outcome.instance else None,
        "N": outcome.instance.N if outcome.instance else None,
        "r_true": outcome.r_true,
        "c": outcome.c,
        "recovered_num": rec.recovered.numerator if rec and rec.recovered else None,
        "recovered_den": rec.recovered.denominator if rec and rec.recovered else None,
        "classification": outcome.classification.value,
        "factors": list(outcome.factors) if outcome.factors else None,
        "retries": len(outcome.retries),
    }
    return _render(args, obj)


def _cmd_census(args):
    if args.nmax <= 15:  # 15 = 3*5 is the least odd distinct-prime semiprime
        raise DomainError(f"no odd distinct-prime semiprimes below {args.nmax}")
    chunks = _census_chunks(args.nmax)
    if args.format == "json":
        agg = _census_chunks_aggregate(chunks)
        band = (1 / 3 - 0.1, 1 / 3 + 0.1)
        return _render(args, {
            "nmax": args.nmax,
            "count": agg.count,
            "total_x": agg.total_x,
            "total_odd": agg.total_odd,
            "total_trivial": agg.total_trivial,
            "aggregate_bad_fraction": agg.aggregate_bad_fraction,
            "mean_bad_fraction": agg.mean_bad_fraction,
            "max_bad_fraction": agg.max_bad_fraction,
            "half_bound_ok": agg.bound_ok,
            "band_low": band[0],
            "band_high": band[1],
            "band_ok": band[0] <= agg.aggregate_bad_fraction <= band[1],
            "heuristic_limit": CENSUS_HEURISTIC_LIMIT,
        })

    return _csv_chunks("n,p1,p2,num_x,odd_r,trivial_sqrt,bad_fraction", "%d,%d,%d,%d,%d,%d,%.15e\n",
                       chunks)


def _cmd_mc_valuation(args):
    res = valuation_model_mc(args.trials, seed=args.seed)
    return _render(args, {
        "trials": res.trials,
        "both_odd": res.both_odd,
        "matched_valuations": res.matched_valuations,
        "p_a": res.p_a,
        "p_b": res.p_b,
        "p_fail": res.p_fail,
    })


def _cmd_capture(args):
    rep = capture_rate_empirical(args.n, args.x, args.qa, args.samples, seed=args.seed)
    return _render(args, {
        "n": rep.n, "x": rep.x, "qA": rep.q_A,
        "samples": rep.samples,
        "exact_value": rep.exact_value,
        "sampled_fraction": rep.sampled_fraction,
    })


def _cmd_guarantee(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    rep = order_recovery_guarantee(inst)
    return _render(args, {
        "n": rep.n, "x": rep.x, "qA": rep.q_A, "N": rep.N, "r": rep.r,
        "delta_min": rep.delta_min,
        "max_delta_c_d0": rep.max_delta_c_d0,
        "max_delta_c_d1": rep.max_delta_c_d1,
        "margin_min": rep.margin_min,
        "size_ok": rep.size_ok,
        "holds": rep.holds,
    })


def _cmd_neighbors(args):
    rep = neighbor_state_check(args.n, args.x, args.qa)
    if args.format == "csv":
        return _csv_chunks("nu,c_nu,delta_nu,differs", "%d,%d,%.15e,%d\n", (
            (rep.nu[start:stop], rep.c_nu[start:stop], rep.delta_nu[start:stop],
             list(map(len, rep.neighbors_differ[start:stop])))
            for start, stop in _blocks(len(rep.nu))))
    # a chunk a probe: the probe as json.dumps(indent=2) prints it, four spaces further in
    return _json_chunks({
        "n": rep.n, "x": rep.x, "qA": rep.q_A, "r": rep.r,
        "changed_neighbors": rep.changed_neighbors,
        "changed_within_guarantee": rep.changed_within_guarantee,
        "probes": None,
    }, {"probes": ((",\n    " + _JSON.encode({
        "nu": nu, "c_nu": c_nu, "delta_nu": delta_nu,
        "results": {str(d): (list(v) if v else None) for d, v in zip(rep.results, results)},
        "neighbors_differ": list(differ),
    }).replace("\n", "\n    ")).encode() for nu, c_nu, delta_nu, results, differ in zip(
        rep.nu, rep.c_nu, rep.delta_nu, zip(*rep.results.values()), rep.neighbors_differ))})


def build_parser() -> _Parser:
    parser = _Parser(prog="shorsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, fmt_default, **flags):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    n_flag = {"type": int, "required": True}
    x_flag = {"type": int, "required": True}
    qa_flag = {"type": int, "default": None}
    seed_flag = {"type": int, "default": 0}

    add("dist", _cmd_dist, "csv", **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag})
    add("peaks", _cmd_peaks, "csv", **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag})
    add("fig1", _cmd_fig1, "csv")
    run = add("run", _cmd_run, "json",
              **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag, "--seed": seed_flag})
    run.add_argument("--max-mu", type=int, default=64)
    run.add_argument("--max-resamples", type=int, default=4)
    add("census", _cmd_census, "csv", **{"--nmax": {"type": int, "default": 10_000}})
    add("mc-valuation", _cmd_mc_valuation, "json",
        **{"--trials": {"type": int, "default": 1_000_000}, "--seed": seed_flag})
    capture = add("capture", _cmd_capture, "json",
                  **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag, "--seed": seed_flag})
    capture.add_argument("--samples", type=int, default=100_000)
    add("guarantee", _cmd_guarantee, "json", **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag})
    add("neighbors", _cmd_neighbors, "json", **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag})
    return parser


def _write(chunks, path) -> int:
    """Write the byte chunks to the file at path, or to stdout when path is
    None: to its binary buffer, or as text to a stdout that has none (such
    as an ``io.StringIO``)."""
    if path is not None:
        try:
            fh = open(path, "wb")
        except OSError as exc:
            print(f"shorsim: error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return EXIT_DOMAIN
        try:
            with fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"shorsim: error: writing {path} failed: {exc.strerror}", file=sys.stderr)
            return EXIT_IOERR
        return EXIT_OK
    stdout = sys.stdout
    out = getattr(stdout, "buffer", None)
    try:
        if out is None:
            stdout.writelines(chunk.decode() for chunk in chunks)
            stdout.flush()
        else:
            stdout.flush()  # text written before goes first
            out.writelines(chunks)
            out.flush()
    except OSError as exc:
        # Point stdout at devnull so that the interpreter's final flush of
        # what is left in its buffer stays quiet.
        import os  # needed on this path only

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader left early, which is not an error
            return EXIT_OK
        print(f"shorsim: error: writing stdout failed: {exc.strerror}", file=sys.stderr)
        return EXIT_IOERR
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; usage errors exit 64
        return int(exc.code or 0)
    try:
        return _write(args.func(args), args.out)
    except ResourceError as exc:
        print(f"shorsim: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"shorsim: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KeyboardInterrupt:
        print("shorsim: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

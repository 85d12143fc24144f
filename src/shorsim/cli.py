"""Command-line front end.

Every command is deterministic given its flags: randomness flows from the
--seed flag through SplitMix64 only, output carries no timestamps, and
re-running a command reproduces its output byte for byte.

Exit codes: 0 success, 1 domain error, 2 resource-guard violation,
64 usage error, 74 write error on stdout or --out, 130 interrupted.

The tables (dist, fig1, census, peaks, and the neighbors CSV) are
returned as a stream of ASCII byte chunks that is written as it is
formatted, so the full text is never held; other output is one string,
written as its UTF-8 bytes.  Each chunk is a set of columns that
``render.render_rows`` turns into the stdlib's exact text, as bytes and
with no Python call per number, one block of the package's one block
size (``distribution._blocks``) a chunk.  Output goes to the binary
file under stdout, so every platform writes ``\n``.
``distribution`` makes, caps, evaluates and primes every pass over the
register (``_register_values``) and over the peaks (``_peak_blocks``),
and the census CSV and JSON aggregate take each block's columns from the
closed form, so none of them holds a vector or a list of rows; the CLI
formats.  Every pass raises its errors before its first chunk, so an
error leaves no output.
"""

import argparse
import json
import sys

from .distribution import (
    OrderInfo,
    ProblemInstance,
    _blocks,
    _peak_blocks,
    _primed,
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


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json(obj: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **obj}, indent=2) + "\n"


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


def _render(args, obj: dict) -> str:
    return _json(obj) if args.format == "json" else _kv_csv(obj)


def _render_rows(row_format: str, columns) -> bytearray:
    """``render.render_rows``, imported with the first table written, so
    that a command or a library caller that writes none does not build
    the renderer's tables."""
    from .render import render_rows

    return render_rows(row_format, columns)


def _csv_chunks(header: str, row_format: str, column_chunks):
    """A CSV document as byte chunks: the header, then the rows of each
    chunk of `column_chunks`, which gives one sequence per conversion of
    `row_format` (see ``render_rows``)."""
    yield f"# schema_version={SCHEMA_VERSION}\n{header}\n".encode()
    for columns in column_chunks:
        yield _render_rows(row_format, columns)


def _json_chunks(obj: dict, arrays: dict):
    """`_json(obj)` as byte chunks, with each placeholder `obj[key] = None`
    replaced by the JSON array whose elements `arrays[key] = (element,
    column_chunks)` renders chunk by chunk, each by the format `element`.
    The keys come in the order of obj.

    json.dumps prints a finite float as its repr, so ``%r`` gives the same
    bytes; the floats printed are finite.
    """
    text = _json(obj).encode()
    for key, (element, column_chunks) in arrays.items():
        head, _, text = text.partition(f'"{key}": null'.encode())
        yield head + f'"{key}": ['.encode()
        first = True
        for columns in column_chunks:
            # each element follows ",\n    ", the first one "[\n    "
            rows = _render_rows(",\n    " + element, columns)
            if rows:
                yield rows[1:] if first else rows
                first = False
        yield b"]" if first else b"\n  ]"
    yield text


def _distribution_csv(cell_values):
    """The `c,P(c)` table of the pairs of ``_register_values`` as byte chunks."""
    return _csv_chunks("c,P(c)", "%d,%.15e\n", cell_values)


def _probabilities_json(cell_values):
    """The `_json_chunks` entry of the float array P(0..N-1) from the pairs
    of ``_register_values``."""
    return "%r", map(lambda pair: pair[1:], cell_values)


def _cmd_dist(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    info = OrderInfo.from_instance(inst)
    cell_values = _register_values(inst, info)
    if args.format == "json":
        return _json_chunks({
            "n": args.n, "x": args.x, "qA": inst.q_A, "N": inst.N,
            "method": "two_term_form",
            "probabilities": None,
        }, {"probabilities": _probabilities_json(cell_values)})
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
        }, {"peaks": (_PEAK_JSON, chunks)})
    return _csv_chunks(_PEAK_HEADER, _PEAK_ROW, chunks)


def _fig1_csv(inst, info):
    yield from _distribution_csv(_register_values(inst, info))
    yield f"# peaks: {_PEAK_HEADER}\n".encode()
    for columns in _peak_blocks(inst, info):
        yield _render_rows("# peak " + _PEAK_ROW, columns)


def _cmd_fig1(args):
    inst, info = figure1_instance()
    if args.format == "json":
        return _json_chunks({
            "n": inst.n, "x": inst.x, "qA": inst.q_A, "N": inst.N,
            "probabilities": None,
            "peaks": None,
        }, {"probabilities": _probabilities_json(_register_values(inst, info)),
            "peaks": (_PEAK_JSON, _peak_blocks(inst, info))})
    return _fig1_csv(inst, info)


def _cmd_run(args) -> str:
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
    chunks = _primed(_census_chunks(args.nmax))
    if chunks is None:
        raise DomainError(f"no odd distinct-prime semiprimes below {args.nmax}")
    if args.format == "json":
        agg = _census_chunks_aggregate(chunks)
        band = (1 / 3 - 0.1, 1 / 3 + 0.1)
        return _json({
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
                       ((c.n, c.p1, c.p2, c.num_x, c.odd_r, c.trivial_sqrt, c.fraction_bad)
                        for c in chunks))


def _cmd_mc_valuation(args) -> str:
    res = valuation_model_mc(args.trials, seed=args.seed)
    return _render(args, {
        "trials": res.trials,
        "both_odd": res.both_odd,
        "matched_valuations": res.matched_valuations,
        "p_a": res.p_a,
        "p_b": res.p_b,
        "p_fail": res.p_fail,
    })


def _cmd_capture(args) -> str:
    rep = capture_rate_empirical(args.n, args.x, args.qa, args.samples, seed=args.seed)
    return _render(args, {
        "n": rep.n, "x": rep.x, "qA": rep.q_A,
        "samples": rep.samples,
        "exact_value": rep.exact_value,
        "sampled_fraction": rep.sampled_fraction,
    })


def _cmd_guarantee(args) -> str:
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
        rows = [(p.nu, p.c_nu, p.delta_nu, len(p.neighbors_differ)) for p in rep.probes]
        return _csv_chunks("nu,c_nu,delta_nu,differs", "%d,%d,%.15e,%d\n",
                           (tuple(zip(*rows[start:stop])) for start, stop in _blocks(len(rows))))
    return _json({
        "n": rep.n, "x": rep.x, "qA": rep.q_A, "r": rep.r,
        "changed_neighbors": rep.changed_neighbors,
        "changed_within_guarantee": rep.changed_within_guarantee,
        "probes": [
            {
                "nu": p.nu,
                "c_nu": p.c_nu,
                "delta_nu": p.delta_nu,
                "results": {str(d): (list(v) if v else None) for d, v in p.results},
                "neighbors_differ": list(p.neighbors_differ),
            }
            for p in rep.probes
        ],
    })


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
    if path:
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
        output = args.func(args)
        return _write([output.encode()] if isinstance(output, str) else output, args.out)
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

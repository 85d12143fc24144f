"""Command-line front end.

Every command is deterministic given its flags: randomness flows from the
--seed flag through SplitMix64 only, output carries no timestamps, and
re-running a command reproduces its output byte for byte.

Exit codes: 0 success, 1 domain error, 2 resource-guard violation,
64 usage error.

The tables (dist, fig1, census, and the peaks and neighbors CSV) are
returned as a stream of text chunks that is written as it is formatted,
so the full text is never held; other output is one string.  The
two-term tables evaluate each chunk's cells as they go, and the census
makes each chunk's rows, so neither holds a vector or a list of rows.
"""

import argparse
import itertools
import json
import sys

import numpy as np

from .distribution import (
    METHOD_ORACLE,
    METHOD_PER_K,
    METHOD_TWO_TERM,
    OrderInfo,
    ProblemInstance,
    guard_register,
    oracle_distribution,
    peaks,
    per_k_distribution,
    two_term_at,
)
from .errors import DomainError, ResourceError
from .experiments import (
    CENSUS_HEURISTIC_LIMIT,
    capture_rate_empirical,
    census_aggregate,
    census_rows,
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

SCHEMA_VERSION = 1

#: Rows per chunk of a streamed table: one C-level %-format of about 1 MB
#: of text per chunk.
_CHUNK_ROWS = 1 << 15


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


def _ranges(count: int):
    """(start, stop) of each chunk of `count` rows."""
    for start in range(0, count, _CHUNK_ROWS):
        yield start, min(start + _CHUNK_ROWS, count)


def _csv_chunks(header: str, row_format: str, field_chunks):
    """A CSV document as text chunks.

    `field_chunks` gives, chunk by chunk, the fields of its rows as one
    flat list of Python values, row after row, one per `%` of
    `row_format`; each chunk is formatted by a single `%` on `row_format`
    repeated.
    """
    yield f"# schema_version={SCHEMA_VERSION}\n{header}\n"
    per_row = row_format.count("%")
    for flat in field_chunks:
        yield row_format * (len(flat) // per_row) % tuple(flat)


def _distribution_csv(count: int, values):
    """The `c,P(c)` table of the cells 0..count-1 as text chunks, where
    `values(start, stop)` gives P over cells start..stop-1 as an array."""

    def fields(start, stop):
        flat = [None] * (2 * (stop - start))
        flat[0::2] = range(start, stop)
        flat[1::2] = values(start, stop).tolist()
        return flat

    return _csv_chunks("c,P(c)", "%d,%.15e\n", itertools.starmap(fields, _ranges(count)))


def _json_chunks(obj: dict, key: str, count: int, values):
    """`_json(obj)` as text chunks, with the placeholder `obj[key] = None`
    replaced by the float array of `count` entries that `values(start,
    stop)` gives in slices.

    json.dumps prints a finite float as its repr, so joining the reprs
    gives the same bytes; the probabilities are finite and never empty.
    """
    head, _, tail = _json(obj).partition(f'"{key}": null')
    prefix = f'{head}"{key}": [\n    '
    for start, stop in _ranges(count):
        yield prefix + ",\n    ".join(map(float.__repr__, values(start, stop).tolist()))
        prefix = ",\n    "
    yield "\n  ]" + tail


def _two_term_values(inst, info):
    """P over cells start..stop-1 of the two-term form, evaluated on demand."""
    return lambda start, stop: two_term_at(inst, info, np.arange(start, stop, dtype=np.int64))


_METHODS = {
    "two-term": METHOD_TWO_TERM,
    "per-k": METHOD_PER_K,
    "oracle": METHOD_ORACLE,
}


def _cmd_dist(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    info = OrderInfo.from_instance(inst)
    if args.method == "two-term":
        guard_register(inst)
        values = _two_term_values(inst, info)
    else:
        dist = oracle_distribution(inst) if args.method == "oracle" else per_k_distribution(inst, info)

        def values(start, stop):
            return dist.probabilities[start:stop]
    if args.format == "json":
        return _json_chunks({
            "n": args.n, "x": args.x, "qA": inst.q_A, "N": inst.N,
            "method": _METHODS[args.method],
            "probabilities": None,
        }, "probabilities", inst.N, values)
    return _distribution_csv(inst.N, values)


_PEAK_HEADER = "nu,sigma_nu,c_nu,delta_nu"
_PEAK_ROW = "%d,%.15e,%d,%.15e\n"


def _peak_fields(pk) -> list:
    """The `_PEAK_ROW` fields of the peaks, row after row."""
    return [value for p in pk for value in (p.nu, p.sigma_nu, p.c_nu, p.delta_nu)]


def _peak_dicts(pk) -> list[dict]:
    return [{"nu": p.nu, "sigma_nu": p.sigma_nu, "c_nu": p.c_nu, "delta_nu": p.delta_nu}
            for p in pk]


def _cmd_peaks(args):
    inst = ProblemInstance.create(args.n, args.x, args.qa)
    info = OrderInfo.from_instance(inst)
    pk = peaks(inst, info)
    if args.format == "json":
        return _json({
            "n": args.n, "x": args.x, "qA": inst.q_A, "N": inst.N, "r": info.r,
            "peaks": _peak_dicts(pk),
        })
    return _csv_chunks(_PEAK_HEADER, _PEAK_ROW,
                       (_peak_fields(pk[start:stop]) for start, stop in _ranges(len(pk))))


def _fig1_csv(inst, info, pk):
    yield from _distribution_csv(inst.N, _two_term_values(inst, info))
    yield f"# peaks: {_PEAK_HEADER}\n" + ("# peak " + _PEAK_ROW) * len(pk) % tuple(_peak_fields(pk))


def _cmd_fig1(args):
    inst, info = figure1_instance()
    pk = peaks(inst, info)
    if args.format == "json":
        return _json_chunks({
            "n": inst.n, "x": inst.x, "qA": inst.q_A, "N": inst.N,
            "probabilities": None,
            "peaks": _peak_dicts(pk),
        }, "probabilities", inst.N, _two_term_values(inst, info))
    return _fig1_csv(inst, info, pk)


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
    rows = census_rows(args.nmax)
    first = next(rows, None)
    if first is None:
        raise DomainError(f"no odd distinct-prime semiprimes below {args.nmax}")
    rows = itertools.chain((first,), rows)
    if args.format == "json":
        agg = census_aggregate(rows)
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

    def field_chunks():
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            yield [value for r in chunk
                   for value in (r.n, r.p1, r.p2, r.num_x, r.odd_r, r.trivial_sqrt, r.fraction_bad)]

    return _csv_chunks("n,p1,p2,num_x,odd_r,trivial_sqrt,bad_fraction",
                       "%d,%d,%d,%d,%d,%d,%.15e\n", field_chunks())


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
    qa = args.qa if args.qa is not None else ProblemInstance.default_q_A(args.n)
    rep = capture_rate_empirical(args.n, args.x, qa, args.samples, seed=args.seed)
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
    qa = args.qa if args.qa is not None else ProblemInstance.default_q_A(args.n)
    rep = neighbor_state_check(args.n, args.x, qa)
    obj = {
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
    }
    if args.format == "json":
        return _json(obj)

    fields = ([value for p in rep.probes[start:stop]
               for value in (p.nu, p.c_nu, p.delta_nu, len(p.neighbors_differ))]
              for start, stop in _ranges(len(rep.probes)))
    return _csv_chunks("nu,c_nu,delta_nu,differs", "%d,%d,%.15e,%d\n", fields)


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

    dist = add("dist", _cmd_dist, "csv", **{"--n": n_flag, "--x": x_flag, "--qa": qa_flag})
    dist.add_argument("--method", choices=tuple(_METHODS), default="two-term")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help exits 0; usage errors exit 64
        return int(exc.code or 0)
    try:
        output = args.func(args)
    except ResourceError as exc:
        print(f"shorsim: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"shorsim: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    chunks = [output] if isinstance(output, str) else output
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"shorsim: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_DOMAIN
        with fh:
            fh.writelines(chunks)
        return EXIT_OK
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early, which is not an error.  Point stdout at
        # devnull so that the interpreter's final flush stays quiet.
        import os  # needed on this path only

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

"""The benchmark's workloads: inputs from a seed, the timed call, its checks.

Importing this module imports shorsim from the checkout's ``src`` directory.
Inputs are drawn with the benchmark's own ``random.Random(seed)`` and plain
trial division, so the library receives only the generated arguments.

Every check is independent of the sampler's draw stream: exact identities,
brute-force oracles run outside the timed call, SHA-256 digests and totals
pinned in ``spec.json``, and 5-sigma bands around known probabilities.
"""

import hashlib
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import shorsim  # noqa: E402
from shorsim import cli  # noqa: E402
from shorsim.number_theory import multiplicative_order as brute_order  # noqa: E402

with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))


def _semiprimes(lo: int, hi: int) -> list[int]:
    """Odd n = p*q in [lo, hi] with primes 2 < p < q."""
    out = []
    for n in range(lo | 1, hi + 1, 2):
        p = next((f for f in range(3, math.isqrt(n) + 1, 2) if n % f == 0), None)
        if p is not None and p * p != n and _is_prime(p) and _is_prime(n // p):
            out.append(n)
    return out


def _coprime_base(rng: random.Random, n: int) -> int:
    while True:
        x = rng.randrange(2, n - 1)
        if math.gcd(x, n) == 1:
            return x


def _register_bits(n: int) -> int:
    """The default q_A: smallest q with 2^q >= n^2."""
    return (n * n - 1).bit_length()


def _rng(seed: int, index: int) -> random.Random:
    """The input stream of pass `index` of a run with workload seed `seed`."""
    return random.Random(f"{seed}:{index}")


class RunSweep:
    """Seeded run_with_retries calls at default registers, stratified by q_A
    so that every seed and pass does the same amount of vector work."""

    params = SPEC["workloads"]["run-sweep"]["params"]

    def inputs(self, seed: int, index: int) -> list[tuple]:
        rng = _rng(seed, index)
        pool = _semiprimes(*self.params["n_range"])
        ops = []
        for q_A, count in self.params["runs_per_q_A"].items():
            stratum = [n for n in pool if _register_bits(n) == int(q_A)]
            for _ in range(count):
                n = rng.choice(stratum)
                ops.append((n, _coprime_base(rng, n), rng.getrandbits(63)))
        rng.shuffle(ops)
        return ops

    def run(self, op, _workdir):
        n, x, seed = op
        return shorsim.run_with_retries(n, x, seed=seed)

    def check(self, op, outcome) -> tuple[int, dict]:
        n, x, _seed = op
        kind = outcome.classification.value
        r, brute = outcome.r_true, brute_order(x, n)
        _require(r == brute, f"n={n} x={x}: r_true={r}, brute order {brute}")
        if kind == "Success":
            p, q = outcome.factors
            _require(p * q == n and 1 < p < q, f"n={n} x={x}: bad factors {outcome.factors}")
        elif kind == "OddOrder":
            _require(r % 2 == 1, f"n={n} x={x}: OddOrder with even r={r}")
        elif kind == "TrivialSquareRoot":
            _require(r % 2 == 0 and pow(x, r // 2, n) == n - 1, f"n={n} x={x}: x^(r/2) != -1")
        else:
            _require(kind == "Exhausted", f"n={n} x={x}: unexpected terminal outcome {kind}")
        return 1, {
            "runs": 1,
            "successes": int(kind == "Success"),
            "resamples": sum(1 for e in outcome.retries if e.kind == "resample"),
            "retry_events": len(outcome.retries),
        }


class DistExport:
    """`shorsim dist` through cli.main, writing CSV and JSON files; every file's
    SHA-256 is pinned for each instance of the pool.

    A pass makes two calls at q_A 19 and one at q_A 20, so that the pooled
    p50 falls among the q_A 19 calls and the p90 among the q_A 20 calls.
    """

    params = SPEC["workloads"]["dist-export"]["params"]

    def inputs(self, seed: int, index: int) -> list[tuple]:
        rng = _rng(seed, index)
        return [(*rng.choice(self.params["pool"]), q_A, fmt) for q_A, fmt in self.params["calls"]]

    def run(self, op, workdir):
        n, x, q_A, fmt = op
        path = os.path.join(workdir, f"dist-{n}-{x}-{q_A}.{fmt}")
        argv = ["dist", "--n", str(n), "--x", str(x), "--qa", str(q_A), "--format", fmt, "--out", path]
        return cli.main(argv), path

    def check(self, op, result) -> tuple[int, dict]:
        n, x, q_A, fmt = op
        code, path = result
        _require(code == 0, f"dist n={n} x={x} qa={q_A}: exit code {code}")
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        size = os.path.getsize(path)
        os.remove(path)
        pinned = self.params["sha256"][f"{n},{x},{q_A},{fmt}"]
        _require(digest.hexdigest() == pinned, f"dist n={n} x={x} qa={q_A} {fmt}: SHA-256 differs")
        rows = 1 << q_A
        return rows, {"rows_out": rows, "bytes_out": size}


class Census:
    """census_sweep + census_aggregate, as `shorsim census --format json` does."""

    params = SPEC["workloads"]["census"]["params"]

    def inputs(self, seed: int, _index: int) -> list[tuple]:
        # one nmax per seed, so that every pass of a run does the same work
        return [(random.Random(seed).choice(self.params["nmax_choices"]),)]

    def run(self, op, _workdir):
        return shorsim.census_aggregate(shorsim.census_sweep(op[0]))

    def check(self, op, agg) -> tuple[int, dict]:
        pinned = self.params["totals"][str(op[0])]
        got = {key: getattr(agg, key) for key in pinned}
        _require(got == pinned, f"census nmax={op[0]}: {got} != pinned {pinned}")
        return agg.count, {"semiprimes": agg.count}


class MonteCarlo:
    """capture_rate_empirical (one build, many draws) and valuation_model_mc."""

    params = SPEC["workloads"]["monte-carlo"]["params"]

    def inputs(self, seed: int, index: int) -> list[tuple]:
        rng = _rng(seed, index)
        cap = self.params["capture"]
        pool = _semiprimes(*cap["n_range"])
        ops = []
        for _ in range(cap["instances"]):
            n = rng.choice(pool)
            ops.append(("capture", n, _coprime_base(rng, n), cap["q_A"], cap["samples"], rng.getrandbits(63)))
        ops.append(("valuation", self.params["valuation_trials"], rng.getrandbits(63)))
        return ops

    def run(self, op, _workdir):
        if op[0] == "capture":
            _kind, n, x, q_A, samples, seed = op
            return shorsim.capture_rate_empirical(n, x, q_A, samples, seed=seed)
        _kind, trials, seed = op
        return shorsim.valuation_model_mc(trials, seed=seed)

    def check(self, op, res) -> tuple[int, dict]:
        if op[0] == "capture":
            p = res.exact_value
            sigma = math.sqrt(max(p * (1 - p), 0.0) / res.samples)  # 0 when the order divides N
            _require(0 < p <= 1 + 1e-9 and abs(res.sampled_fraction - p) <= 5 * sigma + 1e-9,
                     f"capture n={res.n} x={res.x}: sampled {res.sampled_fraction} vs exact {p}")
            return res.samples, {"draws": res.samples}
        for name, got, want in (("p_a", res.p_a, 1 / 4), ("p_b", res.p_b, 1 / 12)):
            sigma = math.sqrt(want * (1 - want) / res.trials)
            _require(abs(got - want) <= 5 * sigma, f"valuation {name}={got}, expected {want}")
        return res.trials, {"trials": res.trials}


WORKLOADS = {
    "run-sweep": RunSweep(),
    "dist-export": DistExport(),
    "census": Census(),
    "monte-carlo": MonteCarlo(),
}

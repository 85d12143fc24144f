"""In-memory span recorder that times shorsim's public functions from outside.

`install` replaces each traced function with a wrapper in every loaded
``shorsim`` module that refers to it (and in module-level dicts of tuples,
such as the CLI's method table), so calls made inside the library are seen
too.  Methods are wrapped on their class.  Spans are kept in memory as
(label, start, end, parent index, count) and summarised when the pass ends.

A layer's time is the self time of its spans: duration minus the part of
it covered by nested traced spans.  Nested spans of the same label add up to
the outermost span's duration, and only the outermost one counts as a call.
"""

import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [label, start, end, parent, count]
        self._stack = []

    def wrap(self, label, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def summary(self) -> dict:
        """label -> {"self_s", "calls", "count"} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent, _count in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (label, start, end, parent, count) in enumerate(self.spans):
            entry = out.setdefault(label, {"self_s": 0.0, "calls": 0, "count": 0})
            entry["self_s"] += (end - start) - child_time[i]
            entry["count"] += count
            if parent < 0 or self.spans[parent][0] != label:
                entry["calls"] += 1
        return out


def _length(result):
    return len(result)


def _entries(result):
    return len(result.probabilities)


def _none(_result):
    return 0


def _one(_result):
    return 1


# (module, attribute, span label, count of work in the result)
FUNCTIONS = [
    ("number_theory", "multiplicative_order", "number_theory.order", None),
    ("number_theory", "order_from_multiple", "number_theory.order", None),
    ("distribution", "two_term_distribution", "distribution.build", _entries),
    ("distribution", "per_k_distribution", "distribution.build", _entries),
    ("distribution", "oracle_distribution", "distribution.build", _entries),
    ("distribution", "sample_from", "distribution.sample", _length),
    ("pipeline", "recover_order", "pipeline.recover", None),
    ("experiments", "semiprimes_below", "experiments.enumerate", _length),
    ("experiments", "census_sweep", "experiments.census", _length),
    ("experiments", "census_aggregate", "experiments.aggregate", None),
    ("experiments", "capture_rate_empirical", "experiments.capture", None),
    ("experiments", "valuation_model_mc", "experiments.mc", None),
    ("cli", "main", "cli.main", None),
]

# (module, class, method, span label, count of work in the result)
METHODS = [
    ("distribution", "OrderInfo", "from_instance", "number_theory.order", None),
    ("rng", "SplitMix64", "uint64_block", "rng.block", _length),
    ("rng", "SplitMix64", "random_block", "rng.block", _none),
    ("rng", "SplitMix64", "next_uint64", "rng.block", _one),
]


def install(tracer: Tracer) -> None:
    """Route every traced shorsim function and method through `tracer`.

    A target the package no longer has is skipped, so its layer reads 0.
    """
    package = {name: mod for name, mod in sys.modules.items()
               if name == "shorsim" or name.startswith("shorsim.")}
    replace = {}
    for mod_name, attr, label, count in FUNCTIONS:
        fn = getattr(package.get("shorsim." + mod_name), attr, None)
        if fn is not None:
            replace[id(fn)] = (fn, tracer.wrap(label, fn, count))

    def swapped(value):
        hit = replace.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for mod in package.values():
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):  # e.g. the CLI's name -> (method, function) table
                for k, v in list(value.items()):
                    if isinstance(v, tuple):
                        value[k] = tuple(swapped(e) for e in v)
            else:
                namespace[key] = swapped(value)
    for mod_name, cls_name, method, label, count in METHODS:
        cls = getattr(package.get("shorsim." + mod_name), cls_name, None)
        raw = vars(cls).get(method) if cls is not None else None
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(label, raw.__func__, count)))
        elif raw is not None:
            setattr(cls, method, tracer.wrap(label, raw, count))

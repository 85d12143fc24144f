"""The resource guards: every cap refuses the value just above it before
the work it sizes starts, admits the cap itself, and is checked by the one
helper ``shorsim.errors.guard``."""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

import shorsim
from shorsim import distribution, experiments, number_theory, pipeline, rng
from shorsim.cli import EXIT_RESOURCE, main
from shorsim.distribution import OrderInfo, ProblemInstance, two_term_at
from shorsim.errors import ResourceError


def cli_route(*argv):
    """The route of `shorsim argv` through cli.main, with {} in argv
    replaced by the capped value."""
    return lambda value: main([arg.format(value) for arg in argv])


def with_order(route):
    """route with the order of every instance taken to be the capped value:
    no small instance has an order at a cap."""
    def call(value):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distribution, "order_from_multiple", lambda *_args: value)
            return route(value)
    return call


def two_term_route(q_A):
    inst = ProblemInstance.create(21, 10, q_A)
    return two_term_at(inst, OrderInfo.from_instance(inst), [0, 1])


def sampler_route(count):
    inst = ProblemInstance.create(21, 10, 8)
    return distribution.sample_states(inst, OrderInfo.from_instance(inst), rng.SplitMix64(0), count)


class Cap(NamedTuple):
    name: str      # the capped quantity, as the message names it
    cap: int       # the largest value admitted
    constant: tuple | None  # (module, name) of the constant the guard reads
    route: object  # route(value) runs the route on the capped value
    work: tuple    # (owner, name) of the first work behind the guard


MODULUS = number_theory.MAX_RUN_MODULUS - 1
TRIAL_DIVISION = ((number_theory, "_distinct_prime_factors"),)

CAPS = [
    pytest.param(Cap("q_A", 1023, (distribution, "MAX_QUBITS"),
                     cli_route("peaks", "--n", "21", "--x", "10", "--qa", "{}"),
                     ((distribution, "carmichael_lambda"),)), id="instance-q_A"),
    pytest.param(Cap("q_A", 24, (distribution, "MAX_REGISTER_QUBITS"),
                     cli_route("dist", "--n", "21", "--x", "10", "--qa", "{}"),
                     ((distribution, "two_term_at"),)), id="dist-q_A"),
    pytest.param(Cap("q_A", 24, (experiments, "MAX_REGISTER_QUBITS"),
                     cli_route("capture", "--n", "21", "--x", "10", "--qa", "{}", "--samples", "1000"),
                     ((experiments, "peak_columns"), (experiments, "two_term_at"))),
                 id="capture-q_A"),
    pytest.param(Cap("q_A", 31, None, two_term_route,
                     ((distribution, "_sin_sq"),)), id="two_term_at-q_A"),
    pytest.param(Cap("q_A", 62, (pipeline, "MAX_RUN_QUBITS"),
                     cli_route("run", "--n", "21", "--x", "10", "--qa", "{}"),
                     ((pipeline, "semiprime_factors"),)), id="run-q_A"),
    pytest.param(Cap("n", MODULUS, (number_theory, "MAX_RUN_MODULUS"),
                     cli_route("peaks", "--n", "{}", "--x", "3", "--qa", "8"),
                     TRIAL_DIVISION), id="order-n"),
    pytest.param(Cap("n", MODULUS, (number_theory, "MAX_RUN_MODULUS"), experiments.failure_census,
                     TRIAL_DIVISION), id="census-row-n"),
    pytest.param(Cap("n", MODULUS, (number_theory, "MAX_RUN_MODULUS"),
                     cli_route("run", "--n", "{}", "--x", "3"),
                     TRIAL_DIVISION), id="run-n"),
    pytest.param(Cap("r", 1 << 20, (distribution, "MAX_PEAKS_ORDER"),
                     with_order(cli_route("peaks", "--n", "21", "--x", "10", "--qa", "8")),
                     ((distribution, "peak_columns"),)), id="peaks-r"),
    pytest.param(Cap("r", 1 << 16, (experiments, "MAX_NEIGHBOR_ORDER"),
                     with_order(cli_route("neighbors", "--n", "21", "--x", "10")),
                     ((experiments, "peak_columns"),)), id="neighbors-r"),
    pytest.param(Cap("nmax", 10**7, (experiments, "MAX_CENSUS_NMAX"),
                     cli_route("census", "--nmax", "{}"),
                     ((experiments, "_semiprime_factors_below"),)), id="census-nmax"),
    pytest.param(Cap("trials", 8 * 10**8, (experiments, "MAX_MC_TRIALS"),
                     cli_route("mc-valuation", "--trials", "{}"),
                     ((experiments, "SplitMix64"),)), id="mc-trials"),
    pytest.param(Cap("samples", 4 * 10**8, (experiments, "MAX_CAPTURE_SAMPLES"),
                     cli_route("capture", "--n", "21", "--x", "10", "--samples", "{}"),
                     ((experiments.ProblemInstance, "create"),)), id="capture-samples"),
    pytest.param(Cap("count", 10**5, (distribution, "MAX_SAMPLE_COUNT"), sampler_route,
                     ((distribution, "_bounded"),)), id="sampler-count"),
    pytest.param(Cap("count", 1 << 24, (rng, "MAX_BLOCK_WORDS"),
                     lambda count: rng.SplitMix64(0).uint64_block(count),
                     ((rng, "_offset_table"),)), id="block-count"),
]


class Reached(Exception):
    """Raised by the work behind a guard that let its value through."""


def stub_work(monkeypatch, case, exc):
    """Make every function of case.work raise exc instead of working."""
    def stub(*_args, **_kwargs):
        raise exc(f"{case.name}: the work behind the guard started")

    for owner, name in case.work:
        monkeypatch.setattr(owner, name, stub)


def refusal(capsys, route, value) -> str:
    """The message with which route refuses value: that of the ResourceError
    it raises, or the one stderr line of its exit 2 through cli.main."""
    try:
        code = route(value)
    except ResourceError as exc:
        return str(exc)
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (EXIT_RESOURCE, "", 1), err
    return err


@pytest.mark.parametrize("case", CAPS)
def test_the_value_above_the_cap_is_refused_before_the_work(capsys, monkeypatch, case):
    stub_work(monkeypatch, case, AssertionError)
    value = case.cap + 1
    expected = f"{case.name}={value} exceeds the cap of {case.cap} for "
    assert expected in refusal(capsys, case.route, value)


@pytest.mark.parametrize("case", CAPS)
def test_the_cap_itself_is_admitted(monkeypatch, case):
    stub_work(monkeypatch, case, Reached)  # no route runs at its real cap
    with pytest.raises(Reached):
        case.route(case.cap)


@pytest.mark.parametrize("case", [param for param in CAPS if param.values[0].constant])
def test_the_guard_reads_its_constant(capsys, monkeypatch, case):
    # from ... import MAX_... makes a copy: the patched name must be the
    # one the guard reads
    module, name = case.constant
    monkeypatch.setattr(module, name, getattr(module, name) - 1)
    stub_work(monkeypatch, case, AssertionError)
    expected = f"{case.name}={case.cap} exceeds the cap of {case.cap - 1} for "
    assert expected in refusal(capsys, case.route, case.cap)


def _resource_errors(node, where):
    """`where`, extended by the enclosing classes and functions, for each
    ResourceError made or raised under node."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{where}:{child.name}"
        made = getattr(child, "func", None) or getattr(child, "exc", None)  # a call or a raise
        if getattr(made, "id", getattr(made, "attr", None)) == "ResourceError":
            yield inner
        yield from _resource_errors(child, inner)


def test_only_errors_guard_makes_a_resource_error():
    # a hand-written cap check would be a second place for the decision
    package = Path(shorsim.__file__).parent
    makers, guard_functions = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        makers += _resource_errors(tree, path.name)
        guard_functions += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and node.name.startswith("guard_")]
    assert makers == ["errors.py:guard"]
    assert guard_functions == []


def _hand_written_type_tests(tree):
    """The line of each isinstance against a numbers ABC, int or float, of
    each ``type(_) is`` int, float or bool, and of each import of numbers,
    under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) in ("int", "float")
                   or getattr(getattr(kind, "value", None), "id", None) == "numbers" for kind in kinds):
                yield node.lineno
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and getattr(node.left.func, "id", None) == "type"
              and any(getattr(kind, "id", None) in ("int", "float", "bool") for kind in node.comparators)):
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "numbers" in _imported_modules(node):
            yield node.lineno


def test_only_errors_integer_and_real_test_an_argument_type():
    # a hand-written type test would be a second place for the decision
    package = Path(shorsim.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py")) if path.name != "errors.py"
             for line in _hand_written_type_tests(ast.parse(path.read_text(), str(path)))]
    assert found == []


def _imported_modules(tree):
    """The top-level name of each module an import statement under tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.partition(".")[0]


def test_no_scipy_import_in_package_or_tests():
    # the oracles are mpmath's; scipy is in neither the runtime nor the test extra
    root = Path(__file__).parents[1]
    importers = [str(path.relative_to(root)) for folder in ("src", "tests")
                 for path in sorted((root / folder).rglob("*.py"))
                 if "scipy" in _imported_modules(ast.parse(path.read_text(), str(path)))]
    assert importers == []

"""Package layout: no module reads a private name of a sibling module, the
formulas shared by scalar and array routes use no ``**``, one place
builds a ``StabilityReport``, no module forms a noise from the
transfer coefficients, no module imports scipy, one function checks the
detuning range, each checking route shares no code with what it checks,
and the names the benchmark harness reads still exist."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import optospring

PACKAGE = Path(optospring.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str, filename: str) -> list[str]:
    """``file:line: module.name`` for every private sibling name that ``source`` reads.

    Sibling modules are reached as ``from . import mod [as alias]``, then
    ``alias._name``, or directly as ``from .mod import _name``.
    """
    tree = ast.parse(source, filename=filename)
    aliases, hits = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif node.module in MODULES and _private(alias.name):
                    hits.append(f"{filename}:{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            hits.append(f"{filename}:{node.lineno}: {aliases[node.value.id]}.{node.attr}")
    return hits


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_sibling_reads(name):
    path = PACKAGE / f"{name}.py"
    assert private_reads(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize(
    "source",
    [
        "from . import optimize as opt\nopt._bounded_brent(f, 0, 1, 1e-8, 9)\n",
        "from . import core\ncore._check_phase('x', 0.0)\n",
        "from .optimize import _bounded_brent\n",
    ],
)
def test_checker_flags_private_reads(source):
    assert len(private_reads(source, "m.py")) == 1


def test_checker_allows_public_and_own_names():
    source = (
        "from . import optimize as opt\nfrom .core import stability\n"
        "def _own():\n    return opt.SearchSpec(), stability, __name__\n_own()\n"
    )
    assert private_reads(source, "m.py") == []


# Formulas evaluated both on Python floats and on numpy arrays. Python's
# ``x**2`` calls libm ``pow``, which rounds apart from ``x * x`` on about
# 1 in 1,200 doubles (1,744 of 2e6 log-uniform samples), while numpy
# squares an array by ``x * x``; writing the squares as products keeps the
# scalar and array routes equal bit for bit.
SHARED_FORMULAS = [
    ("quasistatic", "noise_over_coupling"),
    ("quasistatic", "_noise_closure"),
    ("quasistatic", "_cavity_factors"),
    ("quasistatic", "_noise_block"),
    ("quasistatic", "_sql_block"),
    ("quasistatic", "amplification_factor"),
    ("quasistatic", "free_mass_sql_level"),
    ("core", "mech_susceptibility"),
    ("core", "stability_margins"),
    ("core", "static_susceptibility"),
    ("core", "kappa_for_coupling"),
    ("core", "loop_denominator"),
    ("core", "effective_damping"),
]


def pow_lines(source: str, name: str) -> list[int]:
    """Lines of every ``**`` in the top-level function ``name`` of ``source``."""
    tree = ast.parse(source)
    (func,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return [
        node.lineno
        for node in ast.walk(func)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]


@pytest.mark.parametrize("module, name", SHARED_FORMULAS)
def test_shared_formulas_use_no_pow(module, name):
    assert pow_lines((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), name) == []


def test_pow_checker_sees_nested_and_augmented_pow():
    source = "def f(x):\n    y = x\n    y **= 2\n    def g(z):\n        return z ** 2\n"
    assert pow_lines(source, "f") == [3, 5]


def call_lines(source: str, name: str) -> list[int]:
    """Lines of every call of ``name`` or ``anything.name`` in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_stability_report_built_in_one_place():
    # the stability rule (both margins > 0, zero unstable) lives in one constructor
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in call_lines(path.read_text(encoding="utf-8"), "StabilityReport")
    ]
    assert len(hits) == 1 and hits[0].startswith("core.py:"), hits


def test_call_checker_sees_plain_and_qualified_calls():
    source = "a = StabilityReport(1)\nb = core.StabilityReport(2)\nc = StabilityReport\n"
    assert call_lines(source, "StabilityReport") == [1, 2]


TRANSFER_FIELDS = ("c_q", "c_p", "c_sig")


def transfer_reads(source: str) -> list[int]:
    """Lines of every read of a ``QuadratureTransfer`` field as ``anything.c_*``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in TRANSFER_FIELDS
        and isinstance(node.ctx, ast.Load)
    )


def test_no_module_reads_transfer_coefficients():
    # the noise is formed only by noise_over_coupling; the coefficients serve
    # users and the oracles that check it
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in transfer_reads(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def test_transfer_checker_sees_reads_not_keywords():
    source = (
        "t = full_transfer_by_solve(o, c, w, g)\np = abs(t.c_q) ** 2 + abs(t.c_p) ** 2\n"
        "s = QuadratureTransfer(c_q=1, c_p=0, c_sig=t.c_sig)\n"
    )
    assert transfer_reads(source) == [2, 2, 3]


def scipy_imports(source: str) -> list[int]:
    """Lines of every absolute import of ``scipy`` or a scipy submodule in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            hits.append(node.lineno)
    return hits


def test_package_does_not_import_scipy():
    # scipy is a test-only extra in pyproject.toml: it serves the tests as an
    # independent oracle, and the package runs on numpy alone
    hits = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in scipy_imports(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def test_scipy_checker_sees_every_import_form():
    source = (
        "import scipy\nimport numpy, scipy.optimize as so\nfrom scipy.optimize import brent\n"
        "def f():\n    import scipy.special\nimport scipyx\nfrom . import scipy\n"
    )
    assert scipy_imports(source) == [1, 2, 3, 5]


def pi_comparisons(source: str, module: str) -> list[tuple[str, int]]:
    """``(module.name, line)`` of every comparison with ``pi`` in ``source``.

    ``name`` is the top-level function or class holding the comparison,
    ``<module>`` outside any; ``pi`` is any ``x.pi`` or a bare ``pi``.
    """
    hits = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare) and any(
                (isinstance(n, ast.Attribute) and n.attr == "pi")
                or (isinstance(n, ast.Name) and n.id == "pi")
                for operand in (node.left, *node.comparators)
                for n in ast.walk(operand)
            ):
                hits.append((f"{module}.{getattr(top, 'name', '<module>')}", node.lineno))
    return hits


def test_one_detuning_range_check():
    # the (-pi, pi] rule lives in check_detuning alone
    hits = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in pi_comparisons(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert {name for name, _ in hits} == {"core.check_detuning"}, hits


def test_pi_checker_sees_every_comparison_form():
    source = (
        "def f(x):\n    return -math.pi < x <= math.pi\n"
        "class C:\n    def g(self, x):\n        return x > 2 * np.pi\n"
        "y = 2.0 * math.pi\nz = [v for v in w if v <= pi]\nok = x < p.ip\n"
    )
    assert pi_comparisons(source, "m") == [("m.f", 2), ("m.C", 5), ("m.<module>", 7)]


def call_graph(sources) -> tuple[dict[str, set[str]], set[str]]:
    """Name-level call graph of the top-level functions and classes in ``sources``.

    Maps each name to the names it calls, as ``f()`` or ``anything.f()``, kept
    only where they are defined in ``sources``; a class calls what its methods
    and fields call, a repeated name what each of its bodies calls. Also
    returns the names that are functions, as opposed to classes.
    """
    graph, functions = {}, set()
    for source in sources:
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(top, ast.FunctionDef):
                    functions.add(top.name)
                graph.setdefault(top.name, set()).update(
                    getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    for node in ast.walk(top)
                    if isinstance(node, ast.Call)
                )
    return {name: calls & graph.keys() for name, calls in graph.items()}, functions


# Primitives that a checking route may share with what it checks: the
# detuning range, the free response, the coupling-to-field conversion and
# the SQL reference. The walk stops at them.
SHARED_PRIMITIVES = frozenset(
    {"check_detuning", "mech_susceptibility", "kappa_for_coupling", "sql_point", "sql_level"}
)


def reach(graph: dict[str, set[str]], start: str) -> set[str]:
    """Every name ``start`` calls, directly or through others, not entering a shared primitive."""
    seen, todo = set(), [start]
    while todo:
        for callee in graph[todo.pop()]:
            if callee not in seen:
                seen.add(callee)
                if callee not in SHARED_PRIMITIVES:
                    todo.append(callee)
    return seen


def shared_code(sources, checker: str, checked) -> list[str]:
    """Functions that ``checker`` reaches and ``checked`` is or reaches, shared primitives aside.

    Classes are records and errors: their construction is followed, not counted.
    """
    graph, functions = call_graph(sources)
    other = set(checked).union(*(reach(graph, name) for name in checked))
    return sorted((reach(graph, checker) & other & functions) - SHARED_PRIMITIVES)


CLOSED_OPTIMA = (
    "coupling_optimum",
    "lowfreq_optimum",
    "highfreq_optimum",
    "ultimate_quantum_limit",
    "equivalent_input_noise_closed_form",
)
# each numeric or oracle route, and the closed forms it checks and must not reach
INDEPENDENT_ROUTES = [
    ("minimize_over_xi", CLOSED_OPTIMA),
    ("minimize_xi_quasistatic", CLOSED_OPTIMA),
    ("minimize_over_detuning", CLOSED_OPTIMA),
    (
        "full_transfer_by_solve",
        ("noise_over_coupling", "equivalent_input_noise", "equivalent_input_noise_closed_form"),
    ),
    (
        "effective_susceptibility_poles",
        ("stability", "stability_margins", "stability_map", "effective_damping",
         "static_coupling2_bound"),
    ),
    ("equivalent_input_noise_closed_form", ("noise_over_coupling", "equivalent_input_noise")),
]


def package_sources() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]


@pytest.mark.parametrize("checker, checked", INDEPENDENT_ROUTES)
def test_routes_independent_of_what_they_check(checker, checked):
    sources = package_sources()
    graph, _ = call_graph(sources)
    assert {checker, *checked} <= graph.keys()
    assert shared_code(sources, checker, checked) == []


@pytest.mark.parametrize(
    "extra",
    [
        "def minimize_over_detuning(osc, gamma, omega):\n    return coupling_optimum(osc, omega)\n",
        "def _polish(f):\n    return ultimate_quantum_limit(f)\n"
        "def minimize_over_xi(objective):\n    return opt._polish(objective)\n",
        "def minimize_xi_quasistatic(osc, gamma):\n    return invert_susceptibility(osc)\n",
    ],
    ids=["direct", "through-helper", "shared-helper"],
)
def test_independence_checker_flags_a_closed_form_reached(extra):
    # each extra body adds its calls to the package function of that name
    checker = ast.parse(extra).body[-1].name
    assert shared_code([*package_sources(), extra], checker, CLOSED_OPTIMA) != []


def test_independence_checker_stops_at_shared_primitives():
    source = (
        "def sql_point(osc):\n    return helper(osc)\n"
        "def helper(osc):\n    return osc\n"
        "def closed(osc):\n    return sql_point(osc), helper(osc)\n"
        "def search(osc):\n    return sql_point(osc)\n"
    )
    assert shared_code([source], "search", ("closed",)) == []
    helper_call = "def search(osc):\n    return helper(osc)\n"
    assert shared_code([source, helper_call], "search", ("closed",)) == ["helper"]


# Names that bench/tracer.py and bench/workloads.py read by attribute or
# parameter name: a rename breaks traced benchmark runs, not any other test.
BENCH_CONFIG_FIELDS = (
    "cavity", "constants", "oscillator", "points", "grid_lo", "grid_hi",
    "grid_points_per_decade", "optimize_omega", "stability_xi2", "stability_psi",
)
BENCH_PARAMETERS = [
    ("quasistatic", "equivalent_input_noise", "omega"),
    ("optimize", "minimize_xi_quasistatic", "spec"),
    ("optimize", "minimize_over_detuning", "spec"),
    ("cli", "write_table", "blocks"),
    ("cli", "_atomic_write", "text"),
]


def test_names_the_benchmark_reads():
    from optospring import core, optimize
    from optospring.config import RunConfig

    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert set(BENCH_CONFIG_FIELDS) <= field_names(RunConfig)
    assert "wavevector" in field_names(core.OpticalCavity)
    assert "constraint_active" in field_names(optimize.OptimResult)
    assert core.OpticalCavity(0.01, 1e-3, wavevector=2.0).wavevector == 2.0
    for module, name, parameter in BENCH_PARAMETERS:
        func = getattr(importlib.import_module(f"optospring.{module}"), name)
        assert parameter in inspect.signature(func).parameters, (module, name, parameter)

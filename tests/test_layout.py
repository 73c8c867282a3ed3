"""Package layout: no module reads a private name of a sibling module, the
formulas shared by scalar and array routes use no ``**``, one place
builds a ``StabilityReport``, one function reads Brent's step constants,
no module forms a noise from the transfer coefficients, no module
imports scipy or anything else beyond numpy and the standard library
(numpy is the one dependency in pyproject.toml), one function checks
the detuning range, no function takes a round trip beside a gamma, each
checking route shares no code with what it checks, the float and block
routes of the noise share one coupling-free setup and one coupling tail,
that setup and chi's kernel run the one function that writes 1/chi,
every public function and class is read in the package or ``bench/`` or
shown in README, README's quick start runs, every config key is shown
in README, and the names the benchmark harness reads still exist."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import optospring

PACKAGE = Path(optospring.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
README = BENCH.parent / "README.md"
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
    ("quasistatic", "_noise_block"),
    ("quasistatic", "_noise_setup"),
    ("quasistatic", "_noise_tail"),
    ("core", "susceptibility_into"),
    ("core", "inverse_susceptibility"),
    ("quasistatic", "amplification_factor"),
    ("quasistatic", "free_mass_sql_level"),
    ("core", "mech_susceptibility"),
    ("core", "stability_margins"),
    ("core", "static_susceptibility"),
    ("core", "kappa_for_coupling"),
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


# The noise kernel's coupling-free setup (X, Y, the omega tau factors a, d and g, and the
# zero-denominator check) and its coupling tail (the four squares and their quasi-static
# fold) are each written once, so a rounding change is made in one place.
NOISE_ROUTES = ("_noise_closure", "_noise_block")
NOISE_SETUP = "_noise_setup"
NOISE_TAIL = "_noise_tail"


def setup_leaks(source: str) -> list[str]:
    """``route: fault`` for each of ``NOISE_ROUTES`` in ``source`` that computes its setup.

    A route must call ``NOISE_SETUP``, read ``osc`` and ``u2`` only as arguments of that
    call (X and Y need the oscillator, a, d and g need u^2) and neither name
    ``SingularPointError`` nor hold the noise-denominator message.
    """
    tree = ast.parse(source)
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    hits = []
    for route in NOISE_ROUTES:
        calls = [
            n for n in ast.walk(funcs[route])
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == NOISE_SETUP
        ]
        passed = {id(arg) for call in calls for arg in call.args}
        if not calls:
            hits.append(f"{route}: no {NOISE_SETUP} call")
        for node in ast.walk(funcs[route]):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in ("osc", "u2", "SingularPointError")
                and id(node) not in passed
            ):
                hits.append(f"{route}:{node.lineno}: {node.id}")
            elif isinstance(node, ast.Constant) and "denominator" in str(node.value):
                hits.append(f"{route}:{node.lineno}: denominator message")
    return sorted(hits)


def _callee(node) -> str | None:
    return getattr(node.func, "id", None) if isinstance(node, ast.Call) else None


def tail_leaks(source: str) -> list[str]:
    """``route: fault`` for each of ``NOISE_ROUTES`` in ``source`` that spells its own tail.

    A route must call ``NOISE_SETUP`` and ``NOISE_TAIL`` and may only pass what they return,
    or a name bound from it, to ``NOISE_TAIL`` or return it: any other read, as in arithmetic
    such as ``q * q + p * p`` on the setup's terms, is reported by the name or call read.
    """
    funcs = {n.name: n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
    kernel = {NOISE_SETUP, NOISE_TAIL}
    hits = []
    for route in NOISE_ROUTES:
        nodes = list(ast.walk(funcs[route]))
        missing = kernel - {_callee(n) for n in nodes}
        hits += [f"{route}: no {name} call" for name in sorted(missing)]
        outputs = set()  # names bound from the setup's or the tail's output, in source order
        assigns = sorted((n for n in nodes if isinstance(n, ast.Assign)), key=lambda n: n.lineno)
        for node in assigns:
            values = ast.walk(node.value)
            if any(_callee(n) in kernel or getattr(n, "id", None) in outputs for n in values):
                targets = (t for target in node.targets for t in ast.walk(target))
                outputs |= {t.id for t in targets if isinstance(t, ast.Name)}
        passed = {  # into the tail, whole or unpacked, into a name, or out of the route
            id(arg.value if isinstance(arg, ast.Starred) else arg)
            for n in nodes if _callee(n) == NOISE_TAIL for arg in n.args
        }
        passed |= {id(n.value) for n in nodes if isinstance(n, (ast.Return, ast.Assign))}
        passed |= {id(n.body) for n in nodes if isinstance(n, ast.Lambda)}
        for node in nodes:
            if isinstance(node, ast.AugAssign) and getattr(node.target, "id", None) in outputs:
                read = node.target.id
            elif type(node) is ast.Name and node.id in outputs and type(node.ctx) is ast.Load:
                read = node.id
            elif _callee(node) in kernel:
                read = f"{node.func.id} output"
            else:
                continue
            if id(node) not in passed:
                hits.append(f"{route}:{node.lineno}: {read}")
    return sorted(set(hits))


# 1/chi is written once, in core.inverse_susceptibility: the noise setup and chi's kernel
# (and through it the SQL) run it and read no oscillator field themselves.
INVERSE = "inverse_susceptibility"
OSCILLATOR_FIELDS = ("mass", "resonance_freq", "damping")


def inverse_leaks(source: str, name: str) -> list[str]:
    """``name: fault`` where the top-level function ``name`` of ``source`` spells 1/chi
    itself: it does not call ``INVERSE``, or it reads an oscillator field."""
    (func,) = [n for n in ast.parse(source).body if getattr(n, "name", None) == name]
    hits = [] if call_lines(ast.unparse(func), INVERSE) else [f"{name}: no {INVERSE} call"]
    return hits + [
        f"{name}:{node.lineno}: {node.attr}"
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in OSCILLATOR_FIELDS
    ]


def test_noise_routes_share_one_setup():
    source = (PACKAGE / "quasistatic.py").read_text(encoding="utf-8")
    assert setup_leaks(source) == []
    # the setup holds the check, and takes 1/chi from the function that chi's kernel runs
    setup = [n for n in ast.parse(source).body if getattr(n, "name", None) == NOISE_SETUP]
    assert "SingularPointError" in {getattr(n, "id", None) for n in ast.walk(setup[0])}
    assert inverse_leaks(source, NOISE_SETUP) == []
    core_source = (PACKAGE / "core.py").read_text(encoding="utf-8")
    assert inverse_leaks(core_source, "susceptibility_into") == []


def test_noise_routes_share_one_tail():
    assert tail_leaks((PACKAGE / "quasistatic.py").read_text(encoding="utf-8")) == []


def test_tail_checker_flags_a_route_spelling_its_own_tail():
    source = (
        "def _noise_closure(osc, cavity, psi, u2, omega, b, hbar):\n"
        "    x0, y2, dx, den = _noise_setup(osc, cavity, psi, u2, omega, OPS, SLOTS)\n"
        "    def noise_at(xi):\n"
        "        xi2 = _coupling_squared(xi)\n"
        "        q, p = x0 + b * xi2, hbar * xi2 - dx\n"
        "        return (y2 + q * q + p * p) / xi2 / den\n"
        "    return noise_at\n"
        "def _noise_block(osc, cavity, psi, u2, w, b, hbar, xi2, out, s):\n"
        "    setup = _noise_setup(osc, cavity, psi, u2, w, OPS, (out, *s))\n"
        "    total = _noise_tail(setup, b, hbar, xi2, OPS)\n"
        "    total += 0.0\n"
        "    return 2.0 * _noise_tail(*setup, b, hbar, xi2, OPS)\n"
    )
    assert tail_leaks(source) == [
        "_noise_block:11: total", "_noise_block:12: _noise_tail output",
        "_noise_closure: no _noise_tail call", "_noise_closure:5: dx", "_noise_closure:5: x0",
        "_noise_closure:6: den", "_noise_closure:6: p", "_noise_closure:6: q",
        "_noise_closure:6: y2",
    ]
    # passed on whole or unpacked, and returned, the outputs are no leak
    assert tail_leaks(source.replace("    total += 0.0\n", "").replace("2.0 * ", "")) == [
        "_noise_closure: no _noise_tail call", "_noise_closure:5: dx", "_noise_closure:5: x0",
        "_noise_closure:6: den", "_noise_closure:6: p", "_noise_closure:6: q",
        "_noise_closure:6: y2",
    ]


def test_inverse_checker_flags_a_setup_spelling_its_own_x():
    source = (
        "def _noise_setup(osc, cavity, psi, u2, w, ops, s):\n"
        "    mul, add, sub, _ = ops\n"
        "    om = osc.resonance_freq\n"
        "    re0 = mul(osc.mass, sub(om * om, mul(w, w, s[0]), s[0]), s[0])\n"
        "    _, im0 = core.inverse_susceptibility(osc, w, ops, s[0], s[1])\n"
        "def susceptibility_into(osc, omega, chi):\n"
        "    return 1.0 / (osc.mass * (1.0 - omega * omega))\n"
    )
    assert inverse_leaks(source, NOISE_SETUP) == [
        "_noise_setup:3: resonance_freq", "_noise_setup:4: mass",
    ]
    assert inverse_leaks(source, "susceptibility_into") == [
        "susceptibility_into: no inverse_susceptibility call", "susceptibility_into:7: mass",
    ]


def test_setup_checker_flags_a_route_computing_its_own_setup():
    source = (
        "def _noise_closure(osc, cavity, psi, u2, w, c):\n"
        "    x0, y2, dx, den = _noise_setup(osc, cavity, psi, u2, w, *OPS, SLOTS)\n"
        "    return x0 * osc.mass / u2\n"
        "def _noise_block(osc, cavity, psi, u2, w, c, xi2, out, s):\n"
        "    re0 = osc.mass * (w * w)\n"
        "    if not re0.all():\n"
        "        raise SingularPointError(f'noise denominator is 0 at omega={w!r}')\n"
    )
    assert setup_leaks(source) == [
        "_noise_block: no _noise_setup call", "_noise_block:5: osc",
        "_noise_block:7: SingularPointError", "_noise_block:7: denominator message",
        "_noise_closure:3: osc", "_noise_closure:3: u2",
    ]


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


def name_reads(source: str, names) -> list[str]:
    """``function:line`` of every read of a bare name in ``names``, by the top-level
    function or class holding it, ``<module>`` outside any."""
    return [
        f"{getattr(top, 'name', '<module>')}:{node.lineno}"
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in names and isinstance(node.ctx, ast.Load)
    ]


BRENT_CONSTANTS = ("_GOLDEN", "_SQRT_EPS")


def test_one_brent_loop():
    # Brent's method is written once, as the generator that solo and lockstep runs drive
    hits = [
        f"{path.stem}.{hit}"
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in name_reads(path.read_text(encoding="utf-8"), BRENT_CONSTANTS)
    ]
    assert {hit.partition(":")[0] for hit in hits} == {"optimize._brent"}, hits


def test_name_checker_sees_reads_not_stores():
    source = (
        "_GOLDEN = 0.38\n_SQRT_EPS = 1e-8\nSTEP = _GOLDEN * 2\n"
        "def _brent(a):\n    return a + _GOLDEN * _SQRT_EPS\n"
        "class Lanes:\n    def step(self, e):\n        return [_GOLDEN * v for v in e]\n"
        "def other(_GOLDEN=1.0):\n    _SQRT_EPS = 2.0\n"
    )
    hits = ["<module>:3", "_brent:5", "_brent:5", "Lanes:8"]
    assert name_reads(source, BRENT_CONSTANTS) == hits


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


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every import in ``source`` of neither numpy nor the standard library.

    A relative import is a sibling module and always allowed.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                hits.append((node.lineno, name))
    return sorted(hits)


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one dependency in pyproject.toml; an installed third-party
    # module (a faster JSON or float formatter, say) must not become a silent one
    hits = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in foreign_imports(path.read_text(encoding="utf-8"))
    ]
    assert hits == []
    pyproject = (BENCH.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'\ndependencies = \[\s*"numpy>=2",\s*\]', pyproject)


def test_import_checker_sees_every_import_form():
    source = (
        "import numpy as np, orjson\nfrom numpy.lib import stride_tricks\nimport json, os.path\n"
        "def f():\n    from scipy import optimize\nfrom . import core\nfrom .core import x\n"
        "from __future__ import annotations\nimport numpyx\n"
    )
    assert foreign_imports(source) == [(1, "orjson"), (5, "scipy"), (9, "numpyx")]


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


def loose_round_trips(source: str) -> list[str]:
    """Names of the functions in ``source``, nested ones too, that take both a
    ``gamma`` and a ``round_trip`` parameter."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if {"gamma", "round_trip"} <= {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}:
                hits.append(node.name)
    return hits


def test_regime_is_the_cavity():
    # the quasi-static regime is a cavity with round_trip = 0: a round trip passed
    # beside a gamma splits one cavity into loose floats
    hits = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in loose_round_trips(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def test_round_trip_checker_sees_every_parameter_form():
    source = (
        "def f(osc, gamma, omega, round_trip=0.0):\n"
        "    def g(gamma, /, *, round_trip):\n        pass\n"
        "def h(cavity, round_trip):\n    pass\n"
        "class C:\n    def m(self, gamma, tau):\n        pass\n"
        "    async def n(self, round_trip, gamma=0.1):\n        pass\n"
    )
    assert loose_round_trips(source) == ["f", "g", "n"]


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
        ("stability", "stability_margins", "stability_map", "static_coupling2_bound"),
    ),
    ("equivalent_input_noise_closed_form", ("noise_over_coupling", "equivalent_input_noise")),
    ("exact_noise", ("noise_over_coupling", "equivalent_input_noise", "spectrum")),
    ("exact_sql", ("sql_level", "sql_point", "mech_susceptibility")),
]
# the exact rounding oracles live beside their properties, outside the package
ORACLES = [Path(__file__).with_name("test_exact_noise.py")]


def package_sources() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]


@pytest.mark.parametrize("checker, checked", INDEPENDENT_ROUTES)
def test_routes_independent_of_what_they_check(checker, checked):
    sources = package_sources() + [path.read_text(encoding="utf-8") for path in ORACLES]
    graph, _ = call_graph(sources)
    assert {checker, *checked} <= graph.keys()
    assert shared_code(sources, checker, checked) == []


@pytest.mark.parametrize(
    "extra",
    [
        "def minimize_over_detuning(osc, gamma, omega):\n    return coupling_optimum(osc, omega)\n",
        "def _polish(f):\n    return ultimate_quantum_limit(f)\n"
        "def minimize_over_xi(objective):\n    return opt._polish(objective)\n",
        "def minimize_xi_quasistatic(osc, gamma):\n    return free_mass_sql_level(osc, gamma)\n",
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


def names_in(trees) -> set[str]:
    """Every name the ``trees`` read as ``name``, ``anything.name`` or in an import."""
    found = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def unread_public(sources: dict[str, str], outside: set[str]) -> list[str]:
    """``module.name`` of each public top-level function or class that nothing names.

    A name is read where another of ``sources`` names it, where its own module
    names it outside its definition, or where it is in ``outside``, the names
    read or documented beyond the package. ``__init__`` is no reader: its
    re-export of a name tells neither a use nor documented API.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    hits = []
    for module, tree in trees.items():
        others = (other for name, other in trees.items() if name not in (module, "__init__"))
        read = outside | names_in(others)
        for top in tree.body:
            if (
                isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not _private(top.name)
                and top.name not in read | names_in(t for t in tree.body if t is not top)
            ):
                hits.append(f"{module}.{top.name}")
    return hits


def package_modules() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def bench_names() -> set[str]:
    return names_in(ast.parse(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py"))


def readme_code() -> list[str]:
    """Every fenced block and inline span of README."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```.*?^```|`[^`\n]+`", text, re.MULTILINE | re.DOTALL)


def readme_names() -> set[str]:
    """Every identifier that README shows as code, in a fenced block or an inline span."""
    return {name for chunk in readme_code() for name in re.findall(r"[A-Za-z_]\w*", chunk)}


def outside_names() -> set[str]:
    return bench_names() | readme_names()


def test_every_public_name_has_a_reader():
    assert BENCH.is_dir()
    assert unread_public(package_modules(), outside_names()) == []


def test_reader_checker_flags_an_unread_helper():
    # a call from inside its own body is no reader; a call from elsewhere in its module is
    sources = {**package_modules(), "extra": "def helper(n):\n    return helper(n - 1)\n"}
    assert unread_public(sources, outside_names()) == ["extra.helper"]
    sources["extra"] += "def _use():\n    return helper(3)\n"
    assert unread_public(sources, outside_names()) == []


def test_reader_checker_flags_an_undocumented_export():
    # an export that nothing in the package or bench/ reads and README does not show
    sources = {**package_modules(), "extra": "def exported(n):\n    return n\n"}
    sources["__init__"] += "from .extra import exported\n"
    assert unread_public(sources, outside_names()) == ["extra.exported"]
    assert unread_public(sources, outside_names() | {"exported"}) == []


def test_readme_names_come_from_code():
    assert {"noise_over_coupling", "equivalent_input_noise", "OpticalCavity"} <= readme_names()
    assert "probe" not in readme_names()  # a prose word, outside any code


def readme_blocks(lang: str) -> list[str]:
    """The fenced ``lang`` code blocks of README."""
    pattern = rf"^```{lang}\n(.*?)^```"
    return re.findall(pattern, README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_readme_quick_start_runs():
    # the documented library API, run as README shows it
    (block,) = readme_blocks("python")
    exec(compile(block, str(README), "exec"), {})


def test_every_config_key_in_readme():
    # a key that README never shows as code can be set only by reading config.py
    from optospring.config import KNOWN_KEYS

    shown = {word for chunk in readme_code() for word in re.findall(r"[\w.]+", chunk)}
    assert sorted(set(KNOWN_KEYS) - shown) == []


def test_readme_config_example_builds():
    from optospring.config import build_run_config, parse_config_text

    (block,) = readme_blocks("ini")
    assert len(build_run_config(parse_config_text(block)).points) == 2


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

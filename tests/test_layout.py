"""Package layout: no module reads a private name of a sibling module, the
formulas shared by scalar and array routes use no ``**``, one place
builds a ``StabilityReport``, no module forms a noise from the
transfer coefficients, and no module imports scipy."""

import ast
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

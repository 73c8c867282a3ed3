"""One property over the whole CLI input space.

Every command runs in-process on configs drawn key by key, through the
config file, the environment or a flag, with numbers from the float
range's edges. Whatever the config, a run ends in a documented exit code;
a failing run prints one ``optospring:`` line and leaves no file; a
successful run prints nothing on stderr, writes only finite numbers and
writes the same bytes when repeated. Each axis is bounded to about 10^4
points: an allocatable huge grid is slow, not wrong, and the inputs too
large to allocate have their own tests in ``test_cli.py``.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optospring.cli import main
from optospring.config import env_name

# optimize three times, once per mode, which a key or flag sets
COMMANDS = [
    ["spectrum"],
    ["stability"],
    ["optimize"],
    ["optimize"],
    ["optimize"],
    ["figure", "fig2"],
    ["figure", "fig3"],
    ["figure", "fig4"],
]
MAX_AXIS = 10_000
EDGES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-150, 1e-30, 1e30, 1e150,
    1e200, 1e300, 1.7976931348623157e308, math.pi, math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, 4.0),
]
EDGES += [-x for x in EDGES]
# a number near which each number key is drawn most of the time
TYPICAL = {
    "oscillator.mass": 1.0,
    "oscillator.resonance_freq": 1.0,
    "oscillator.damping": 0.001,
    "cavity.gamma": 0.01,
    "cavity.round_trip": 0.001,
    "optimize.omega": 0.5,
    "optimize.detuning": 0.02,
}
CHOICES = {
    "units": ["normalized", "si"],
    "grid.units": ["omega_sql", "rad_s"],
    "output.format": ["csv", "json"],
    "optimize.mode": ["xi", "detuning", "uql-sweep"],
}
FLAGS = {
    "output.format": "--format",
    "optimize.mode": "--mode",
    "optimize.omega": "--omega",
    "optimize.detuning": "--detuning",
}
GRID_KEYS = ("grid.lo", "grid.hi", "grid.points_per_decade")
POINT_KEYS = ("points.detuning", "points.coupling")
# strategies are built once: building one costs more than a draw
KIND = st.integers(0, 19)
FACTOR, SIGNED_FACTOR = st.floats(0.0, 1.0), st.floats(-1.0, 1.0)
EDGE, ANY = st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False)
BAD = st.sampled_from(["nan", "-inf", "abc", ""])


@st.composite
def numbers(draw, typical=1.0, signed=False):
    """Float text: mostly a value within a factor of 2 of ``typical``, of either sign if
    ``signed``; else an edge of the float range, any finite float, or text that is not a
    finite number."""
    kind = draw(KIND)
    if kind < 16:
        x = draw(SIGNED_FACTOR if signed else FACTOR)
        return repr(typical * math.copysign(2.0 ** (2.0 * abs(x) - 1.0), x))
    if kind < 18:
        return repr(draw(EDGE))
    return repr(draw(ANY)) if kind < 19 else draw(BAD)


def number_list(typical, min_size, max_size, signed=False):
    return st.lists(numbers(typical, signed), min_size=min_size, max_size=max_size).map(", ".join)


@st.composite
def ranges(draw, typical_lo, typical_hi):
    """``lo:hi:n`` text with n up to 60, so that a 2-d grid of two stays within MAX_AXIS."""
    lo, hi = draw(numbers(typical_lo)), draw(numbers(typical_hi))
    return f"{lo}:{hi}:{draw(st.integers(2, 60))}"


@st.composite
def grids(draw):
    """``(lo, hi, points per decade)`` texts with at most about MAX_AXIS points."""
    lo, hi = draw(numbers(0.1)), draw(numbers(10.0))
    try:
        decades = abs(math.log10(abs(float(hi))) - math.log10(abs(float(lo))))
    except ValueError:  # a zero or a non-number: the config refuses it
        decades = math.nan
    decades = decades if 1.0 < decades < math.inf else 1.0
    return lo, hi, str(draw(st.integers(1, int(MAX_AXIS / decades))))


@st.composite
def points(draw):
    """One or two working points, now and then with one coupling more or fewer."""
    size = draw(st.integers(1, 2))
    couplings = draw(st.sampled_from([size] * 9 + [3 - size]))
    return draw(DETUNINGS[size]), draw(COUPLINGS[couplings])


DETUNINGS = {n: number_list(0.02, n, n, signed=True) for n in (1, 2)}
COUPLINGS = {n: number_list(0.7, n, n) for n in (1, 2)}
RATIOS = {n: number_list(2.0, n, n, signed=True) for n in range(1, 5)}
BANDWIDTHS = {n: number_list(2.0, n, n) for n in range(7)}
VALUES = {key: numbers(typical, key == "optimize.detuning") for key, typical in TYPICAL.items()}
VALUES.update((key, st.sampled_from(choices)) for key, choices in CHOICES.items())
VALUES[POINT_KEYS] = points()
VALUES["optimize.omegas"] = number_list(1.0, 1, 3)
VALUES["stability.xi2"] = ranges(0.01, 100.0)
VALUES["stability.psi"] = ranges(-12.0, 2.0)
VALUES[GRID_KEYS] = grids()
# a key's digit picks where it is set, 3 times in 8; a flag it lacks reads as the file.
# All the digits are one draw, since a draw costs more than the rest of a key.
ROUTES = (None, None, None, None, None, "file", "env", "flag")
ROUTE_DIGITS = st.integers(0, 8 ** len(VALUES) - 1)


@st.composite
def runs(draw):
    """``(argv, env, config text)`` of one run, ``--out`` not yet added.

    ``optimize`` always gets a mode and a list of up to three sweep frequencies:
    the default sweep of ten costs up to 40 ms a run.
    """
    command = list(draw(st.sampled_from(COMMANDS)))
    digits = draw(ROUTE_DIGITS)  # one octal digit per key, drawn at once
    env, lines = {}, []
    for i, (key, strategy) in enumerate(VALUES.items()):
        digit = digits >> 3 * i & 7
        if key in ("optimize.mode", "optimize.omegas") and command == ["optimize"]:
            digit = 5 + digit % 3
        route = ROUTES[digit]
        if route is None:
            continue
        value = draw(strategy)
        keys, texts = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        flag = key == "output.format" or key in FLAGS and command[0] == "optimize"
        if route == "flag" and key == GRID_KEYS:
            command.append("--grid={}:{}:{}".format(*value))
        elif route == "flag" and flag:
            command.append(f"{FLAGS[key]}={value}")
        elif route == "env":
            env.update((env_name(k), text) for k, text in zip(keys, texts))
        else:
            lines += [f"{k} = {text}\n" for k, text in zip(keys, texts)]
    if command[0] == "figure":  # --bandwidths mostly on fig4, one per curve
        size = draw(st.integers(1, 4))
        if draw(st.integers(0, 2)) == 0:
            command.append(f"--detunings={draw(RATIOS[size])}")
        else:
            size = 6  # the curves of the default fig4
        if draw(KIND) < (10 if command[1] == "fig4" else 1):
            size = draw(st.sampled_from([size] * 9 + [size - 1]))
            command.append(f"--bandwidths={draw(BANDWIDTHS[size])}")
    return command, env, "".join(lines)


@contextlib.contextmanager
def environment(env):
    """``os.environ`` with ``env`` added, restored on exit."""
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run(argv, env):
    """``(exit code, stdout text, stderr text, warnings)`` of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with (
        environment(env),
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(out),
    ):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def _floats(node):
    """Every number in a parsed JSON value, as one float array; a row of numbers in one step."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        try:
            return np.asarray(node, dtype=float).ravel()
        except (TypeError, ValueError):  # not all numbers: a text, or a nested dict or list
            return np.concatenate([np.empty(0)] + [_floats(item) for item in node])
    return np.asarray([node], dtype=float) if isinstance(node, (int, float)) else np.empty(0)


def finite_numbers(text):
    """Whether every number in a written CSV or JSON file parses finite."""
    if text.startswith("{"):  # NaN and Infinity tokens parse as non-finite floats
        return bool(np.isfinite(_floats(json.loads(text))).all())
    # the data rows, after the comment lines and the column names
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    return bool(np.isfinite(np.asarray(",".join(rows).split(",") if rows else [], float)).all())


def written(directory):
    """The files under ``directory``, by relative path, with their bytes."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestWholeInputSpace:
    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(runs())
    def test_contracts(self, drawn):
        argv, env, config_text = drawn
        with tempfile.TemporaryDirectory() as work:
            work = pathlib.Path(work)
            (work / "run.cfg").write_text(config_text)
            argv = [*argv, "--config", str(work / "run.cfg")]
            outs = []
            for copy in ("first", "repeat"):
                out = work / copy
                target = out if argv[0] == "figure" else out / "out"
                code, printed, err, caught = run([*argv, f"--out={target}"], env)
                assert caught == [] and code in (0, 2, 3, 4), (code, err, caught)
                if code and copy == "first":
                    assert err.startswith("optospring: ") and err.count("\n") == 1, err
                    assert err.endswith("\n") and list(written(work)) == ["run.cfg"], err
                    assert printed == ""
                    return
                assert code == 0, err
                assert err == ""
                # one line: the path of the last file written, the manifest for a figure
                last = target / f"{argv[1]}_manifest.json" if argv[0] == "figure" else target
                assert printed == f"{last}\n"
                outs.append(written(out))
        first, repeat = outs
        assert first and first == repeat
        for name, data in first.items():
            assert finite_numbers(data.decode()), name

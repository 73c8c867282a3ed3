"""Golden digests of the 43 files the default commands write.

Identical configs write identical bytes, and a change to those bytes is
deliberate. ``golden.json`` holds, for each default output file, its
SHA-256 and the short digests of its first ``HEAD_UNITS`` lines (a JSON
file, written on one line, counts each ``", "``-separated item as a line).
The test writes the files into ``tmp_path``, compares each with the
table, and on a mismatch names the file and prints its first differing
line. A change that moves a digest rewrites the table with
``python tests/test_golden.py`` and names the moved files in CHANGES.md.

The digests are pinned for this platform's libm: ``math.exp``,
``np.log10`` and the powers in the grids round through it, so another
libm may move the last digit of a cell and with it a digest.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

from optospring.cli import main

TABLE = pathlib.Path(__file__).with_name("golden.json")
HEAD_UNITS = 32

# (output name, with {fmt} for the format, and the command line); each runs in CSV and JSON
DATASETS = [
    ("spectrum.{fmt}", ["spectrum"]),
    ("spectrum-si.{fmt}", ["spectrum", "--si"]),
    ("stability.{fmt}", ["stability"]),
    ("fig2-{fmt}", ["figure", "fig2"]),
    ("fig3-{fmt}", ["figure", "fig3"]),
    ("fig4-{fmt}", ["figure", "fig4"]),
]
OPTIMIZE_MODES = ["xi", "detuning", "uql-sweep"]


def _units(data: bytes) -> list[bytes]:
    """A file's lines, each with its end; one-line JSON splits after each ``", "``."""
    return [u for u in re.split(rb"(?<=\n)|(?<=, )", data) if u]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_defaults(out: pathlib.Path) -> dict[str, bytes]:
    """Run every default command into ``out``; each written file's bytes by relative path."""
    argvs = [
        [*argv, "--format", fmt, "--out", str(out / name.format(fmt=fmt))]
        for name, argv in DATASETS
        for fmt in ("csv", "json")
    ]
    argvs += [
        ["optimize", "--mode", mode, "--out", str(out / f"optimize-{mode}.json")]
        for mode in OPTIMIZE_MODES
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert main(argv) == 0, argv
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def fingerprints(files: dict[str, bytes]) -> dict[str, dict]:
    return {
        name: {
            "sha256": _digest(data),
            "head": " ".join(_digest(u)[:8] for u in _units(data)[:HEAD_UNITS]),
        }
        for name, data in files.items()
    }


def _first_difference(name: str, data: bytes, want: dict) -> str:
    units, heads = _units(data), want["head"].split()
    for i, (unit, head) in enumerate(zip(units, heads)):
        if _digest(unit)[:8] != head:
            return f"{name}: first differing line {i + 1}: {unit.decode()[:200]!r}"
    if len(units) < len(heads):
        return f"{name}: ends after line {len(units)}"
    return f"{name}: first difference after line {len(heads)}"


def test_default_outputs_match_golden_digests(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("OPTOSPRING_")]:
        monkeypatch.delenv(key)
    files = write_defaults(tmp_path)
    table = json.loads(TABLE.read_text())
    assert len(files) == 43
    assert sorted(files) == sorted(table)
    got = fingerprints(files)
    moved = [
        _first_difference(name, files[name], table[name])
        for name in sorted(files)
        if got[name]["sha256"] != table[name]["sha256"]
    ]
    assert not moved, "digests moved:\n" + "\n".join(moved)


def readme_rows(first_cell: str) -> dict[str, str]:
    """README's Output format table rows whose first cell starts with ``first_cell``."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(rf"^\| ({re.escape(first_cell)}[^|]*) \|(.*)\|$", readme, re.MULTILINE)
    return dict(rows)


def _keys(node) -> set[str]:
    """Every key of a JSON report, nested ones included; a curve's letter is no key."""
    if isinstance(node, list):
        return set().union(*map(_keys, node))
    if not isinstance(node, dict):
        return set()
    keys = set() if set(node) <= set("abcdefghijklmnopqrstuvwxyz") else set(node)
    return keys.union(*map(_keys, node.values()))


def test_readme_lists_every_column_and_key(tmp_path, monkeypatch):
    # README's Output format tables name each kind's columns in order, and every report key
    for key in [k for k in os.environ if k.startswith("OPTOSPRING_")]:
        monkeypatch.delenv(key)
    files = write_defaults(tmp_path)
    columns = {}
    for kinds, cells in readme_rows("`").items():
        listed = re.findall(r"`([\w-]+)`", cells.rpartition("|")[2].partition(";")[0])
        columns.update((kind, listed) for kind in re.findall(r"`([\w-]+)`", kinds))
    reports = readme_rows("`<figure>") | readme_rows("`optimize`")
    for name, data in files.items():
        if name.endswith(".csv"):
            lines = data.decode().splitlines()
            header = next(line for line in lines if not line.startswith("#"))
            assert header.split(",") == columns[lines[0].split()[2]], name
        elif name.endswith("_manifest.json") or name.startswith("optimize-"):
            row = "`<figure>_manifest.json`"
            if name.startswith("optimize-"):
                sweep = name == "optimize-uql-sweep.json"
                row = "`optimize`, `uql-sweep`" if sweep else "`optimize`, `xi` and `detuning`"
            named = set(re.findall(r"`([\w.]+)`", reports[row]))
            assert _keys(json.loads(data)) <= named, name


if __name__ == "__main__":  # rewrite the table from this tree's outputs
    for key in [k for k in os.environ if k.startswith("OPTOSPRING_")]:
        del os.environ[key]
    with tempfile.TemporaryDirectory() as work:
        table = fingerprints(write_defaults(pathlib.Path(work)))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{TABLE}: {len(table)} files", file=sys.stderr)

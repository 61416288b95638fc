"""Check-removal sweep: which input checks of the package no test needs.

Two kinds of mutant are made of every module under src/elmboost:

* guard removal: the condition of an ``if`` whose body is one ``raise``
  becomes ``False``, so the guard never fires;
* identity conversion: a call of ``np.asarray``, ``np.ascontiguousarray``,
  ``np.asfortranarray``, ``np.array`` or ``operator.index`` becomes its
  first argument, so the input reaches the code unconverted.

Each mutant is written into a temporary copy of the source tree, and the
fast suite runs on it (``pytest -x -q``).  A mutant the suite still passes
is a survivor: a check whose removal no test notices.  The unmutated copy
runs first, through the same parse and unparse, and must pass.  The
checkout is only read.  The exit status is 0 when every mutant is killed,
and 1 when one survives or the unmutated copy fails.

Usage, from anywhere in a checkout::

    python3 tools/mutate_checks.py

A full sweep runs the suite once per mutant: 77 mutants took 11.5 minutes on
a 2-vCPU host.  SIGTERM stops a sweep as Ctrl-C does: the running suite is
killed and the temporary copy removed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "elmboost"
# what the suite reads: the package, the tests and their config, and the tracer table
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
CONVERSIONS = {
    ("np", "asarray"),
    ("np", "ascontiguousarray"),
    ("np", "asfortranarray"),
    ("np", "array"),
    ("operator", "index"),
}
# a mutant that hangs (say, a lane walk waiting forever) counts as killed
TIMEOUT_S = 600


class Mutant(NamedTuple):
    module: str
    kind: str  # "guard" or "identity"
    line: int
    col: int
    source: str  # first line of the mutated code


def _kind(node: ast.AST) -> str | None:
    if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
        return "guard"
    if (
        isinstance(node, ast.Call)
        and node.args
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in CONVERSIONS
    ):
        return "identity"
    return None


def mutants(module: str) -> list[Mutant]:
    text = (ROOT / PACKAGE / f"{module}.py").read_text()
    lines = text.splitlines()
    found = []
    for node in ast.walk(ast.parse(text)):
        kind = _kind(node)
        if kind is not None:
            source = lines[node.lineno - 1].strip()
            found.append(Mutant(module, kind, node.lineno, node.col_offset, source))
    return sorted(found, key=lambda m: (m.line, m.col))


class _Mutate(ast.NodeTransformer):
    def __init__(self, mutant: Mutant):
        self.mutant = mutant

    def visit(self, node):
        node = self.generic_visit(node)
        if (
            _kind(node) == self.mutant.kind
            and (node.lineno, node.col_offset) == (self.mutant.line, self.mutant.col)
        ):
            if self.mutant.kind == "guard":
                node.test = ast.Constant(False)
            else:
                return node.args[0]
        return node


def mutated_source(module: str, mutant: Mutant | None) -> str:
    """The module's source unparsed, with the one mutant applied (none: unmutated)."""
    tree = ast.parse((ROOT / PACKAGE / f"{module}.py").read_text())
    if mutant is not None:
        tree = ast.fix_missing_locations(_Mutate(mutant).visit(tree))
    return ast.unparse(tree) + "\n"


def _suite_passes(copy: Path) -> tuple[bool, str]:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    tail = run.stdout.strip().splitlines()[-1:] or [""]
    return run.returncode == 0, tail[0]


def _exit(signum, frame):
    # unwinds through subprocess.run, which kills the suite, and TemporaryDirectory
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    signal.signal(signal.SIGTERM, _exit)
    modules = sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py") if p.stem != "__init__")
    todo = [m for module in modules for m in mutants(module)]

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutate-checks-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".*")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=ignore)
            else:
                shutil.copy2(src, copy / name)
        for module in modules:
            (copy / PACKAGE / f"{module}.py").write_text(mutated_source(module, None))
        passed, tail = _suite_passes(copy)
        print(f"unmutated copy: {tail}", flush=True)
        if not passed:
            print("the unmutated copy fails; no mutant was run", file=sys.stderr)
            return 1
        for i, m in enumerate(todo, 1):
            path = copy / PACKAGE / f"{m.module}.py"
            path.write_text(mutated_source(m.module, m))
            started = time.perf_counter()
            passed, tail = _suite_passes(copy)
            path.write_text(mutated_source(m.module, None))
            verdict = "SURVIVED" if passed else "killed"
            print(
                f"[{i}/{len(todo)}] {m.module}.py:{m.line} {m.kind} {verdict} "
                f"({time.perf_counter() - started:.0f} s): {m.source}",
                flush=True,
            )
            if passed:
                survivors.append(m)

    print(f"\n{len(survivors)} of {len(todo)} mutants survived")
    for m in survivors:
        print(f"  {m.module}.py:{m.line} {m.kind}: {m.source}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

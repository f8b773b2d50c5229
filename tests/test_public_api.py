"""Every public top-level name of the package is reached by code that runs.

A public name (a top-level function, class or assignment of a module in
src/plcalc that does not start with "_") must be referenced from src/ (its
own definition and __init__.py excluded) or from perfbench/, whose tracer
names its targets as strings.  Public API that only its own tests reach is
removed; the exceptions are listed in REACHED_BY_TESTS only.
"""

import ast
import re
from pathlib import Path

import pytest

import plcalc

SRC = Path(plcalc.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

# Oracles and documented entry points that no run path calls, one reason each.
REACHED_BY_TESTS = {
    "convergence_check": "oracle: the block expansion sum_n phi_n(A)x converges to x",
    "derivative_check": "oracle of the Taylor jets: d/dt g(tA)x against A g'(tA)x",
    "even_extension": "entry point: builds the even (double-sector) partition",
    "fractional_power_apply": "entry point: A^theta x on the injective part",
    "mihlin_norm": "the Mihlin-class estimator; reference of multiplier_bound_check's rows",
    "resolvent_apply_lu": "oracle: the resolvent by an LU solve against op.matrix()",
    "semigroup_apply": "entry point: e^{-tA} x",
    "tilde": "entry point: the widened window tilde(n), with tilde(n) phi_n = phi_n",
    "validate_partition": "oracle: the partition sums to 1 on its range",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _defined(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _docstrings(tree) -> set:
    nodes = (n for n in ast.walk(tree)
             if isinstance(n, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def _references(node, with_strings: bool = False) -> set:
    """Names and attributes used in node; with_strings adds the identifiers
    inside its string constants, docstrings excepted."""
    skip = _docstrings(node) if with_strings else None
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif (skip is not None and isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in skip):
            out.update(_WORD.findall(n.value))
    return out


def _public_and_reached():
    public, reached = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = _defined(stmt)
            public.update({name: path.stem for name in own if not name.startswith("_")})
            reached |= _references(stmt) - own
    for path in sorted(PERFBENCH.glob("*.py")):
        reached |= _references(ast.parse(path.read_text()), with_strings=True)
    return public, reached


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ here")
def test_every_public_name_is_reached_or_listed():
    public, reached = _public_and_reached()
    unreached = sorted(f"{public[name]}.{name}" for name in set(public) - reached
                       if name not in REACHED_BY_TESTS)
    assert unreached == [], "public names that only tests reach: " + ", ".join(unreached)
    # an entry that is reached, or no longer defined, has no place in the list
    stale = sorted(name for name in REACHED_BY_TESTS if name not in public or name in reached)
    assert stale == []

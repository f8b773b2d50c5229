"""Every public top-level name of the package is reached by code that runs,
and every defaulted parameter of its public API is set by code that runs.

A public name (a top-level function, class or assignment of a module in
src/plcalc that does not start with "_") must be referenced from src/ (its
own definition and __init__.py excluded) or from perfbench/, whose tracer
names its targets as strings.  Public API that only its own tests reach is
removed; the exceptions are listed in REACHED_BY_TESTS only.

A defaulted parameter of a public function, of a public method of a public
class, or of a public class's constructor (a dataclass field included) must
be passed, by keyword or by position, by some call in src/ or perfbench/.
Calls are matched by the callee's name.  A setting that only tests change
is a constant, or goes; the exceptions are listed in SET_BY_TESTS only.

A module imports no _-prefixed name from another module of the package: a
helper that two modules share is public where it lives.  The exceptions
are listed in PRIVATE_IMPORTS only.
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
    "even_extension": "entry point: builds the even (double-sector) partition",
    "fractional_power_apply": "entry point: A^theta x on the injective part",
    "mihlin_norm": "the Mihlin-class estimator; reference of multiplier_bound_check's rows",
    "resolvent_apply_lu": "oracle: the resolvent by an LU solve against op.matrix()",
    "semigroup_apply": "entry point: e^{-tA} x",
    "tilde": "entry point: the widened window tilde(n), with tilde(n) phi_n = phi_n",
    "validate_partition": "oracle: the partition sums to 1 on its range",
}

# Defaulted parameters that no run path sets, one reason each.
SET_BY_TESTS = {
    "mihlin_norm.M": "grid argument of the Mihlin-class estimator",
    "mihlin_norm.window": "grid argument of the Mihlin-class estimator",
    "mihlin_norm.n_x": "grid argument of the Mihlin-class estimator",
    "mihlin_norm.n_h": "grid argument of the Mihlin-class estimator",
    "mihlin_norm.check_window_growth": "the estimator's widening gate, off to read a raw value",
    "multiplier_bound_check.n_x": "estimator grid of the trial rows; tests use a coarse one",
    "multiplier_bound_check.n_h": "estimator grid of the trial rows; tests use a coarse one",
    "k_functional_bruteforce.rounds": "refinement rounds of the K-functional oracle",
    "k_functional_bruteforce.grid": "search grid of the K-functional oracle",
    "convergence_check.permute_seed": "oracle: the order of the permuted partial sum",
    "continuous_square_norm.quad": "entry point: a given quadrature instead of the certified one",
    "continuous_square_norm.pnorm": "entry point: the one-shot continuous_square plan, "
                                    "which runs set",
    "besov_discrete_norm.pnorm": "entry point: the one-shot besov_discrete plan, which runs set",
    "pl_square_norm.theta": "entry point: the one-shot pl_square plan, which runs set",
    "mcintosh_check.quad": "oracle: a given quadrature instead of the certified one",
    "pl_random_norm.theta": "entry point: the one-shot pl_random plan, which runs set",
    "pl_inhomogeneous_norm.pnorm": "entry point: the one-shot pl_inhomogeneous plan",
    "pl_inhomogeneous_norm.theta": "entry point: the one-shot pl_inhomogeneous plan",
    "spectral_blocks.theta": "entry point: the blocks of block_stack(theta), which runs set",
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


def _callee(call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _defaulted(fn, bound: bool) -> dict:
    """Defaulted parameters of fn: name -> position in a call, None if
    keyword-only; a bound method's self is not a position."""
    args = fn.args
    pos = (args.posonlyargs + args.args)[int(bound):]
    first = len(pos) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(pos) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _fields(cls) -> dict:
    """Defaulted constructor parameters of a dataclass: field -> position."""
    out, position = {}, 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        value = stmt.value
        is_field = isinstance(value, ast.Call) and _callee(value) == "field"
        options = {k.arg: k.value for k in value.keywords} if is_field else {}
        if getattr(options.get("init"), "value", True) is False:
            continue
        if value is not None and (not is_field or {"default", "default_factory"} & set(options)):
            out[stmt.target.id] = position
        position += 1
    return out


def _defaulted_parameters() -> dict:
    """Every defaulted parameter of the public API, as "owner.parameter" ->
    (callee name, position)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                out.update({f"{stmt.name}.{a}": (stmt.name, i)
                            for a, i in _defaulted(stmt, False).items()})
            if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
                continue
            if any("dataclass" in _references(d) for d in stmt.decorator_list):
                out.update({f"{stmt.name}.{a}": (stmt.name, i) for a, i in _fields(stmt).items()})
            methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)
                       and (m.name == "__init__" or not m.name.startswith("_"))]
            for m in methods:
                static = any("staticmethod" in _references(d) for d in m.decorator_list)
                callee, owner = ((stmt.name, stmt.name) if m.name == "__init__"
                                 else (m.name, f"{stmt.name}.{m.name}"))
                out.update({f"{owner}.{a}": (callee, i)
                            for a, i in _defaulted(m, not static).items()})
    return out


def _calls() -> dict:
    """Callee name -> (positional count, keywords) of every call in src/ and
    perfbench/; a call that unpacks *args or **kwargs passes everything."""
    out = {}
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and _callee(n) is not None:
                star = (any(isinstance(a, ast.Starred) for a in n.args)
                        or any(k.arg is None for k in n.keywords))
                out.setdefault(_callee(n), []).append(
                    (float("inf") if star else len(n.args),
                     None if star else {k.arg for k in n.keywords}))
    return out


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench/ here")
def test_every_defaulted_parameter_is_set_or_listed():
    params, calls = _defaulted_parameters(), _calls()

    def is_set(key):
        callee, position = params[key]
        name = key.rsplit(".", 1)[1]
        return any(kws is None or name in kws or (position is not None and npos > position)
                   for npos, kws in calls.get(callee, []))

    unset = sorted(key for key in params if key not in SET_BY_TESTS and not is_set(key))
    assert unset == [], "defaulted parameters that only tests set: " + ", ".join(unset)
    stale = sorted(key for key in SET_BY_TESTS if key not in params or is_set(key))
    assert stale == []


# Private names one module imports from another, one reason each.
PRIVATE_IMPORTS = {
    "experiments: norms._dilation_integrals": "mcintosh_check reduces the dilation integrals "
                                              "of the continuous square function",
    "experiments: norms._window_grid": "the oracles place windows by the rule of every block norm",
    "acceptance: cli._encode": "criterion 14 checks the bytes a report is written as",
}


def _private_imports() -> set:
    """Every _-prefixed name that a module of src/plcalc imports from
    another, as "importer: module.name"."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("plcalc")):
                module = (n.module or "").rsplit(".", 1)[-1]
                out |= {f"{path.stem}: {module}.{a.name}" for a in n.names
                        if a.name.startswith("_") and module != path.stem}
    return out


def test_no_module_imports_a_private_name_of_another_or_it_is_listed():
    found = _private_imports()
    assert sorted(found - set(PRIVATE_IMPORTS)) == [], "private names imported across modules"
    # an entry that no module imports any longer has no place in the list
    assert sorted(set(PRIVATE_IMPORTS) - found) == []

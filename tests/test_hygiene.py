"""Source hygiene: every name a cfcql_lab module imports is used in it,
every public name it defines is used in the package or the benchmark, every
option is set there, and every field of a public dataclass is read there."""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cfcql_lab"


def imported_names(tree):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere, in quoted annotations, or listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


# Public names with no caller in the package or the benchmark yet, each with
# the reason it stays.
UNCALLED_ALLOWED = {
    "learner_fixed_point": "the exact oracle the tests check the practical learner against",
    "check_ratio_bound_probs": "the paper's D_CQL / D_CF bound, to be checked by the oracle",
    "save_params": "checkpoint writer for the planned command-line train step",
    "load_params": "checkpoint reader for the planned command-line train step",
}

CALLERS = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "bench").glob("*.py"))


def public_definitions(tree):
    """(name, line) of every public top-level name and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def referenced_names(paths):
    """Names read as a variable or used as an attribute anywhere in ``paths``.

    Definitions are not references: a def or class statement binds no
    ast.Name, and an assignment binds its targets in the Store context.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_allowlist_names_only_uncalled_names():
    referenced = referenced_names(CALLERS)
    defined = {name for path in SRC.glob("*.py")
               for name, _ in public_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(UNCALLED_ALLOWED) <= defined
    assert not set(UNCALLED_ALLOWED) & referenced, "an allowed name has a caller now"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    referenced = referenced_names(CALLERS)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uncalled = [f"{name} (line {line})" for name, line in public_definitions(tree)
                if not name.startswith("_") and name not in referenced
                and name not in UNCALLED_ALLOWED]
    assert not uncalled, (f"{path.name} defines names nothing in src/cfcql_lab or bench "
                          f"uses: {', '.join(uncalled)}")


# Options: defaulted parameters of public functions, methods and class
# constructors, and defaulted fields of public dataclasses. Each must be set
# by some call in the package or the benchmark (by keyword, by position,
# through functools.partial or through dataclasses.replace), or be listed
# here with the reason it stays.
# Calls are matched by name, as for UNCALLED_ALLOWED: ``obj.step(...)`` sets
# the options of every method named ``step``. A function on UNCALLED_ALLOWED
# has no caller, so its options need no entry; an entry may still say why
# one of them stays.
_WITH_BUDGET = "the datagen tests' small runs; kept or cut together with OnlineTrainConfig.budget"
OPTIONS_ALLOWED = {
    "TrainConfig.alpha": "the paper's penalty weight, which tests compare at alpha and n * alpha",
    "TrainConfig.lambda_mode": "uniform lambda is the one learner_fixed_point solves for",
    "TrainConfig.batch_size": "the converged learner-against-oracle run",
    "TrainConfig.target_interval": "the converged learner-against-oracle run",
    "TrainConfig.lr": "the converged learner-against-oracle run",
    "OnlineTrainConfig.n_parallel": _WITH_BUDGET,
    "OnlineTrainConfig.updates_per_block": _WITH_BUDGET,
    "OnlineTrainConfig.eval_episodes": _WITH_BUDGET,
    "OnlineTrainConfig.medium_fraction": _WITH_BUDGET,
    "value_iteration.max_iter": "the only way to reach ConvergenceError",
    "learner_fixed_point.max_iter": "the only way to reach ConvergenceError",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _callee(target) == "dataclass":
            return True
    return False


def _defaulted(fn, first):
    """(name, position or None) of each defaulted parameter of ``fn``;
    positions count from parameter ``first`` (1 skips a method's self)."""
    positional = fn.args.posonlyargs + fn.args.args
    start = len(positional) - len(fn.args.defaults)
    for k, arg in enumerate(positional[start:], start=start):
        yield arg.arg, k - first
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def option_definitions(tree):
    """(option, callee, parameter, position or None, is a field, line) of
    every option a module defines; ``callee`` is the name a call uses: the
    function's, the method's, or the class's for its constructor and fields."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            for name, pos in _defaulted(node, first=0):
                yield f"{node.name}.{name}", node.name, name, pos, False, node.lineno
        else:
            yield from _class_options(node)


def _class_options(node):
    if _is_dataclass(node):
        fields = [m for m in node.body
                  if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
        for k, member in enumerate(fields):
            if member.value is not None:
                name = member.target.id
                yield f"{node.name}.{name}", node.name, name, k, True, member.lineno
    for member in node.body:
        if not isinstance(member, ast.FunctionDef):
            continue
        if member.name == "__init__":
            callee, key = node.name, node.name
        elif not member.name.startswith("_"):
            callee, key = member.name, f"{node.name}.{member.name}"
        else:
            continue
        for name, pos in _defaulted(member, first=1):
            yield f"{key}.{name}", callee, name, pos, False, member.lineno


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def option_settings(paths):
    """What the calls in ``paths`` set: (callee, keyword) pairs, the most
    positional arguments any call of each callee passes (unbounded with a
    starred one), and the field names given to ``dataclasses.replace``."""
    keywords, positions, replaced = set(), {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee, args = _callee(node.func), node.args
            if callee == "partial" and args:  # functools.partial(f, ...) calls f
                callee, args = _callee(args[0]), args[1:]
            if callee == "replace":
                replaced |= {kw.arg for kw in node.keywords}
                continue
            keywords |= {(callee, kw.arg) for kw in node.keywords}
            starred = any(isinstance(arg, ast.Starred) for arg in args)
            positions[callee] = max(positions.get(callee, 0), math.inf if starred else len(args))
    return keywords, positions, replaced


def options():
    """{option: (where, set by some call in the package or the benchmark)}."""
    keywords, positions, replaced = option_settings(CALLERS)
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for option, callee, name, pos, is_field, line in option_definitions(tree):
            is_set = ((callee, name) in keywords
                      or (pos is not None and positions.get(callee, 0) > pos)
                      or (is_field and name in replaced))
            out[option] = (f"{path.name}:{line}", is_set)
    return out


def test_every_option_has_a_setter():
    unset = [f"{option} ({where})" for option, (where, is_set) in sorted(options().items())
             if not is_set and option not in OPTIONS_ALLOWED
             and option.split(".")[0] not in UNCALLED_ALLOWED]
    assert not unset, ("options nothing in src/cfcql_lab or bench sets; give each a caller, "
                       "make it a constant, or allow it: " + ", ".join(unset))


def test_options_allowlist_names_only_unset_options():
    found = options()
    gone = sorted(set(OPTIONS_ALLOWED) - set(found))
    assert not gone, f"allowed options that no longer exist: {', '.join(gone)}"
    now_set = sorted(option for option in OPTIONS_ALLOWED if found[option][1])
    assert not now_set, f"allowed options that a call sets now: {', '.join(now_set)}"


# Fields of public dataclasses that nothing in the package or the benchmark
# reads as an attribute, each with the reason it stays. Reads are matched by
# attribute name, as calls are for UNCALLED_ALLOWED; an assignment to
# ``obj.field`` is not a read.
_RATIO_BOUND = "the report of check_ratio_bound_probs, which is on UNCALLED_ALLOWED"
FIELDS_ALLOWED = {
    "SolveReport.residual": "the solvers' self-check of their own equation, which tests assert",
    "RatioBoundReport.lhs": _RATIO_BOUND,
    "RatioBoundReport.rhs": _RATIO_BOUND,
    "RatioBoundReport.argmax_agent": _RATIO_BOUND,
    "RatioBoundReport.holds": _RATIO_BOUND,
}


def dataclass_fields(tree):
    """(Class.field, field, line) of every field of a public dataclass."""
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and _is_dataclass(node)):
            for member in node.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield f"{node.name}.{member.target.id}", member.target.id, member.lineno


def attribute_reads(paths):
    """Attribute names read (loaded, not assigned or deleted) anywhere in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def fields():
    """{Class.field: (where, read as an attribute in the package or the benchmark)}."""
    reads = attribute_reads(CALLERS)
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for key, name, line in dataclass_fields(tree):
            out[key] = (f"{path.name}:{line}", name in reads)
    return out


def test_every_dataclass_field_is_read():
    unread = [f"{key} ({where})" for key, (where, is_read) in sorted(fields().items())
              if not is_read and key not in FIELDS_ALLOWED]
    assert not unread, ("dataclass fields nothing in src/cfcql_lab or bench reads; delete "
                        "each or allow it: " + ", ".join(unread))


def test_fields_allowlist_names_only_unread_fields():
    found = fields()
    gone = sorted(set(FIELDS_ALLOWED) - set(found))
    assert not gone, f"allowed fields that no longer exist: {', '.join(gone)}"
    now_read = sorted(key for key in FIELDS_ALLOWED if found[key][1])
    assert not now_read, f"allowed fields that something reads now: {', '.join(now_read)}"


def test_field_walk_counts_only_reads(tmp_path):
    tree = ast.parse("@dataclass\nclass C:\n    x: int\n    y: int = 0\n    Z = 1\n"
                     "class Plain:\n    w: int\n"
                     "@dataclasses.dataclass(frozen=True)\nclass _Private:\n    v: int\n")
    assert [key for key, _, _ in dataclass_fields(tree)] == ["C.x", "C.y"]
    code = tmp_path / "code.py"
    code.write_text("c.x = 1\ndel c.y\nprint(c.z.w)\n")
    assert attribute_reads([code]) == {"z", "w"}


def test_option_walk_sees_every_way_to_set_an_option(tmp_path):
    tree = ast.parse("def f(a, b=1, *, c=2): pass\n"
                     "def _private(a=1): pass\n"
                     "@dataclass(frozen=True)\n"
                     "class C:\n    x: int\n    y: int = 0\n"
                     "class K:\n"
                     "    def __init__(self, a, b=1): pass\n"
                     "    def m(self, c=2): pass\n"
                     "    def _q(self, d=3): pass\n")
    assert [d[:4] for d in option_definitions(tree)] == [
        ("f.b", "f", "b", 1), ("f.c", "f", "c", None), ("C.y", "C", "y", 1),
        ("K.b", "K", "b", 1), ("K.m.c", "m", "c", 0)]
    calls = tmp_path / "calls.py"
    calls.write_text("f(1, c=2)\nobj.m(1, 2)\nfunctools.partial(h, 1, d=3)\n"
                     "dataclasses.replace(cfg, y=4)\nk(*args)\n")
    keywords, positions, replaced = option_settings([calls])
    assert keywords == {("f", "c"), ("h", "d")}
    assert positions == {"f": 1, "m": 2, "h": 1, "k": math.inf}
    assert replaced == {"y"}

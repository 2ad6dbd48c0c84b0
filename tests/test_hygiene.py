"""Source hygiene: every name a cfcql_lab module imports is used in it, and
every public name it defines is used in the package or the benchmark."""

import ast
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

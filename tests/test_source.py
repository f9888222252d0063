"""Every definition in src/fusionkit is reached from src/.

The test parses the package with ast.  A top-level function or class, or a
method whose name is not a dunder, counts as used when some Name or
Attribute node anywhere in src/ carries its name.  An instance attribute,
set by a `self.<name> = ...` assignment in a method, counts as read when
some Attribute node in src/ loads that name (an augmented assignment
loads it too).  Code that no command reaches is deleted; the few
definitions that only tests use stay in KEPT, each with the reason it
stays.  Every name a module imports at top level is used in that module,
so a deletion leaves no dead import behind.  No two functions share a
body, so a fact is written once.
"""

from __future__ import annotations

import ast
import copy
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fusionkit"

KEPT = {
    "normalizer": "scan oracle for the stabilizers in test_fusion; perfbench's tracer names it",
    "spot_check_associativity": "checks the hand-built group models in the tests",
    "HeisenbergGroup.central_indices": "oracle for center() on the coordinate model",
    "CycNum.as_rational": "reads exact values back in the cyclotomic tests",
    "CycNum.lift": "oracle for conductor changes in the cyclotomic tests",
    "CycNum.to_complex": "floating-point cross-check in the cyclotomic tests",
    "VerificationReport.failed_ids": "names the failed checks in test assertions",
}

KEPT_ATTRIBUTES = {
    "Mat2Group.kind": "perfbench/tracer.py reads it by name to key repeated calls; "
                      "test_extraspecial reads it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions_and_uses(src: Path = SRC) -> tuple[list[str], set[str]]:
    """The qualified names defined in src (functions, classes, non-dunder
    methods) and every name that a Name or Attribute node uses."""
    defs: list[str] = []
    used: set[str] = set()
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, funcs + (ast.ClassDef,)):
                defs.append(node.name)
            if isinstance(node, ast.ClassDef):
                defs += ["%s.%s" % (node.name, item.name) for item in node.body
                         if isinstance(item, funcs) and not _is_dunder(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defs, used


def test_every_definition_is_used_in_src():
    defs, used = definitions_and_uses()
    unused = [d for d in defs if d.rsplit(".", 1)[-1] not in used and d not in KEPT]
    assert unused == []


def test_kept_definitions_are_still_defined_and_unused():
    # a KEPT entry that src/ starts using, or that is deleted, leaves the list
    defs, used = definitions_and_uses()
    assert sorted(d for d in KEPT if d in defs and d.rsplit(".", 1)[-1] not in used) == sorted(KEPT)


def instance_attributes_and_reads(src: Path = SRC) -> tuple[list[str], set[str]]:
    """The `Class.name` of every `self.<name> = ...` assignment in a method
    of a top-level class in src, and every attribute name that src loads."""
    attrs: list[str] = []
    reads: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    attrs.append("%s.%s" % (cls.name, node.attr))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                reads.add(node.target.attr)
    return sorted(set(attrs)), reads


def test_every_instance_attribute_is_read_in_src():
    attrs, reads = instance_attributes_and_reads()
    unread = [a for a in attrs if a.rsplit(".", 1)[-1] not in reads and a not in KEPT_ATTRIBUTES]
    assert unread == []


def test_kept_attributes_are_still_set_and_unread():
    attrs, reads = instance_attributes_and_reads()
    kept = [a for a in KEPT_ATTRIBUTES if a in attrs and a.rsplit(".", 1)[-1] not in reads]
    assert sorted(kept) == sorted(KEPT_ATTRIBUTES)


def unused_imports(src: Path = SRC) -> list[str]:
    """`module: name` for each name that a module imports at top level
    (a `from __future__` import excepted) and no Name node in the module
    uses; an attribute chain such as `functools.partial` uses its first
    name, and `import a.b` binds `a`."""
    unused: list[str] = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names: list[str] = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                names += [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s: %s" % (path.name, n) for n in names if n not in used]
    return unused


def test_every_top_level_import_is_used():
    assert unused_imports() == []


# A body of fewer nodes is a delegation or a raise, such as
# `return canonical_json(self.to_json_dict())`, not a duplicated fact.
MIN_BODY_NODES = 16


def normalized_body(fn: ast.FunctionDef) -> tuple[str, int]:
    """The ast dump of fn's body without its docstring, with the arguments
    renamed by position and every other name fn assigns renamed by first
    appearance, and the number of nodes in that body."""
    body = fn.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
    args = fn.args
    params = args.posonlyargs + args.args + [args.vararg] + args.kwonlyargs + [args.kwarg]
    names = {a.arg: "arg%d" % i for i, a in enumerate(a for a in params if a is not None)}
    nodes = list(ast.walk(module))
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.setdefault(node.id, "var%d" % len(names))
    for node in nodes:
        if isinstance(node, ast.Name):
            node.id = names.get(node.id, node.id)
    return ast.dump(module), len(nodes)


def duplicate_bodies(src: Path = SRC) -> list[list[str]]:
    """The `module:function` names of each group of functions (methods and
    nested functions too) in src whose normalized bodies are equal."""
    by_body: dict[str, list[str]] = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body, size = normalized_body(node)
                if size >= MIN_BODY_NODES:
                    by_body.setdefault(body, []).append("%s:%s" % (path.name, node.name))
    return [names for names in by_body.values() if len(names) > 1]


def test_no_two_functions_share_a_body():
    assert duplicate_bodies() == []


def test_duplicate_bodies_are_found_up_to_renaming(tmp_path):
    (tmp_path / "a.py").write_text(
        "def power_of(n, p):\n"
        "    \"\"\"Docstrings are dropped.\"\"\"\n"
        "    while n % p == 0:\n"
        "        n //= p\n"
        "    return n == 1\n"
        "def first(g):\n"
        "    raise NotImplementedError\n")
    (tmp_path / "b.py").write_text(
        "def is_power(o, q):\n"
        "    while o % q == 0:\n"
        "        o //= q\n"
        "    return o == 1\n"
        "def other(n, p):\n"
        "    while n % p == 1:\n"
        "        n //= p\n"
        "    return n == 1\n"
        "def second(h):\n"
        "    raise NotImplementedError\n")
    assert duplicate_bodies(tmp_path) == [["a.py:power_of", "b.py:is_power"]]

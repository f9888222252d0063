"""Every definition in src/fusionkit is reached from src/.

The test parses the package with ast.  A top-level function or class
counts as used when some Name node in src/ loads its name, and a method or
property whose name is not a dunder when some Attribute node loads it: a
parameter, a dataclass field or a keyword that shares the name is not a
use.  Every parameter with a default is passed, by position or by
keyword, by some call in src/, so a default that no call changes is a
constant, not a parameter.  An instance attribute, set by a
`self.<name> = ...` assignment in a method, counts as read when some
Attribute node in src/ loads that name (an augmented assignment loads it
too).  Code that no command reaches is deleted; the few definitions and
defaults that only tests or outside callers use stay in KEPT and
KEPT_DEFAULTS, each with the reason it stays.  Every name a module imports
at top level is used in that module, so a deletion leaves no dead import
behind.  No two functions share a body, so a fact is written once.
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
    "CycNum.from_coeffs": "builds arbitrary field elements in the cyclotomic tests",
    "CycNum.coeffs": "reads the rational coefficient vector in the cyclotomic tests",
    "CycNum.to_complex": "floating-point cross-check in the cyclotomic tests",
    "VerificationReport.failed_ids": "names the failed checks in test assertions",
    "heisenberg_semidirect": "builds the engine's Gamma x| H models in the tests and in "
                             "perfbench/tables.py; verify reads each section as its pair",
}

KEPT_ATTRIBUTES = {
    "Mat2Group.kind": "perfbench/tracer.py reads it by name to key repeated calls; "
                      "test_extraspecial reads it",
}

KEPT_DEFAULTS = {
    "main(argv)": "perfbench/client.py passes the command line; the script entry point does not",
    "spot_check_associativity(trials, seed)": "only the tests call it (KEPT)",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_definitions(src: Path = SRC) -> list[str]:
    """The qualified names of the top-level functions and classes that no
    Name node in src loads, and of the non-dunder methods and properties
    of top-level classes that no Attribute node loads."""
    defs: list[str] = []
    names: set[str] = set()
    attrs: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, FUNCS + (ast.ClassDef,)):
                defs.append(node.name)
            if isinstance(node, ast.ClassDef):
                defs += ["%s.%s" % (node.name, item.name) for item in node.body
                         if isinstance(item, FUNCS) and not _is_dunder(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return [d for d in defs
            if (d.rsplit(".", 1)[-1] not in attrs if "." in d else d not in names)]


def test_every_definition_is_used_in_src():
    assert [d for d in unused_definitions() if d not in KEPT] == []


def test_kept_definitions_are_still_defined_and_unused():
    # a KEPT entry that src/ starts using, or that is deleted, leaves the list
    assert sorted(d for d in unused_definitions() if d in KEPT) == sorted(KEPT)


def test_a_shared_name_is_not_a_use(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "def is_normal(g):\n"
        "    return True\n"
        "def used(g):\n"
        "    return g\n"
        "@dataclass\n"
        "class Report:\n"
        "    is_normal: bool\n"
        "class Num:\n"
        "    def coeffs(self):\n"
        "        return ()\n"
        "    def read(self):\n"
        "        return self.val\n"
        "    @staticmethod\n"
        "    def from_coeffs(coeffs):\n"
        "        return Num(used(coeffs))\n"
        "def main(r):\n"
        "    return r.is_normal, Num.from_coeffs(()).read()\n")
    assert unused_definitions(tmp_path) == ["is_normal", "Report", "Num.coeffs", "main"]


def _signature_defaults(fn: ast.FunctionDef, offset: int) -> tuple[dict[str, int | None], list[str]]:
    """The parameters of fn by name, each with its position in a call that
    passes `offset` arguments implicitly (None for keyword-only ones), and
    the names of those with a default, in order."""
    args = fn.args
    positional = args.posonlyargs + args.args
    params: dict[str, int | None] = {a.arg: i - offset for i, a in enumerate(positional)}
    params.update((a.arg, None) for a in args.kwonlyargs)
    with_default = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    with_default += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return params, with_default


def _passed(call: ast.Call, params: dict[str, int | None]) -> set[str]:
    """The parameters a call passes; a *args passes every position, and a
    **kwargs every parameter."""
    if any(k.arg is None for k in call.keywords):
        return set(params)
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    reach = float("inf") if starred else len(call.args)
    out = {k.arg for k in call.keywords}
    out.update(n for n, i in params.items() if i is not None and 0 <= i < reach)
    return out


def unpassed_defaults(src: Path = SRC) -> list[str]:
    """`function(param, ...)` or `Class.method(param, ...)` for each
    top-level function and method of a top-level class in src whose
    parameters with a default no call in src passes.  A function is called
    by its Name, a method by an Attribute of its name (self or cls passed
    implicitly unless it is a staticmethod), and `__init__` by the class's
    Name, the Name of a subclass that defines none, or `super().__init__`."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(src.glob("*.py"))]
    classes = {node.name: node for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}

    def init_of(name):
        # the class whose __init__ a call of the class named `name` runs
        while name in classes:
            cls = classes[name]
            if any(isinstance(i, FUNCS) and i.name == "__init__" for i in cls.body):
                return name
            name = next((b.id for b in cls.bases if isinstance(b, ast.Name)), None)
        return None

    calls: dict[str, list[ast.Call]] = {}
    for top in (node for tree in trees for node in tree.body):
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                owner = init_of(f.id)
                calls.setdefault("%s.__init__" % owner if owner else f.id, []).append(node)
            elif isinstance(f, ast.Attribute) and f.attr == "__init__":
                # super().__init__ in a class runs its base's __init__
                base = next((b.id for b in getattr(top, "bases", ()) if isinstance(b, ast.Name)), None)
                calls.setdefault("%s.__init__" % init_of(base), []).append(node)
            elif isinstance(f, ast.Attribute):
                calls.setdefault("." + f.attr, []).append(node)
    targets = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, FUNCS):
                targets.append((node.name, node, 0, calls.get(node.name, [])))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, FUNCS):
                        continue
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    key = "%s.__init__" % node.name if item.name == "__init__" else "." + item.name
                    found = calls.get(key, [])
                    targets.append(("%s.%s" % (node.name, item.name), item, 0 if static else 1, found))
    out = []
    for name, fn, offset, found in targets:
        params, with_default = _signature_defaults(fn, offset)
        passed = set().union(*(_passed(c, params) for c in found))
        missing = [a for a in with_default if a not in passed]
        if missing:
            out.append("%s(%s)" % (name, ", ".join(missing)))
    return out


def test_every_default_is_passed_in_src():
    assert [d for d in unpassed_defaults() if d not in KEPT_DEFAULTS] == []


def test_kept_defaults_are_still_unpassed():
    assert sorted(d for d in unpassed_defaults() if d in KEPT_DEFAULTS) == sorted(KEPT_DEFAULTS)


def test_a_default_no_call_passes_is_named(tmp_path):
    (tmp_path / "a.py").write_text(
        "def subgroups(g, cap=10, base=None):\n"
        "    return g\n"
        "def order(g, *, exact=True):\n"
        "    return g\n"
        "class Poset:\n"
        "    def __init__(self, data, sylow=None, name='p'):\n"
        "        self.data = data\n"
        "    def diagram(self, name='d'):\n"
        "        return name\n"
        "    @staticmethod\n"
        "    def build(x, y=0):\n"
        "        return x\n"
        "class Sub(Poset):\n"
        "    pass\n"
        "class Other(Poset):\n"
        "    def __init__(self, data):\n"
        "        super().__init__(data)\n"
        "class Far:\n"
        "    def __init__(self, a, b=1, c=2):\n"
        "        pass\n"
        "class Near(Far):\n"
        "    def __init__(self):\n"
        "        super().__init__(0, 1, 2)\n"
        "def run(args):\n"
        "    Sub(1, None)\n"
        "    Poset.build(1, 2)\n"
        "    order(subgroups(1, base=2), **args)\n"
        "    return Poset(1).diagram()\n")
    assert unpassed_defaults(tmp_path) == [
        "subgroups(cap)", "Poset.__init__(name)", "Poset.diagram(name)"]
    # a super().__init__ call passes only its own base's parameters
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self, x, y=0):\n"
        "        pass\n"
        "class B:\n"
        "    def __init__(self, x, y=0):\n"
        "        pass\n"
        "class C(B):\n"
        "    def __init__(self):\n"
        "        super().__init__(1, 2)\n"
        "def run():\n"
        "    return A(1), C()\n")
    assert unpassed_defaults(tmp_path) == ["A.__init__(y)"]


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

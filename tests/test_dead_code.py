"""Every top-level function and class of the engine, and every method, has a
caller in the engine, so a deletion that leaves a helper behind fails here.
A method counts as called only through an attribute read (`x.name`), so a
local variable or a field of the same name does not hide it.

The one exception is the library surface that nothing inside the engine
calls: the names the package exports (`gchodge.__all__`) and the paper-level
checks that README lists under "Library use"."""

import ast
import re
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gchodge"
README = Path(__file__).resolve().parent.parent / "README.md"

# paper-level checks with no CLI command, as README lists them
DOCUMENTED = {"families.gm_derivative", "families.q_flatness",
              "gcs.symp_delta", "gcs.GCStruct.partial"}


def _defs_and_uses():
    return _parse(SRC)


@cache
def _parse(root: Path):
    """({(module, qualified name, public)} of the top-level functions and
    classes and of the methods, {(name, module, owner, attribute)} of every
    name read in the engine under root, where the owner is the top-level
    function or class, or the method, whose body reads it, and `attribute`
    says whether it is read as an attribute.  Dunder names are left out."""
    defs, uses = set(), set()

    def record(node, mod, owner):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                uses.add((sub.id, mod, owner, False))
            elif isinstance(sub, ast.Attribute):
                uses.add((sub.attr, mod, owner, True))

    def is_def(node):
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and not node.name.startswith("__"))

    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for top in tree.body:
            owner = getattr(top, "name", None)
            if is_def(top):
                defs.add((path.stem, owner, not owner.startswith("_")))
            if not isinstance(top, ast.ClassDef):
                record(top, path.stem, owner)
                continue
            for node in top.body:
                if isinstance(node, ast.ClassDef) or not is_def(node):
                    record(node, path.stem, owner)
                    continue
                qual = f"{owner}.{node.name}"
                defs.add((path.stem, qual, not node.name.startswith("_")))
                record(node, path.stem, qual)
    return defs, uses


def exported_names():
    """gchodge.__all__, read from the package's __init__.py."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]):
            return set(ast.literal_eval(node.value))
    raise AssertionError("gchodge/__init__.py has no __all__")


def unreferenced_names(public: bool):
    """The private (or public) functions, classes and methods read nowhere
    outside their own body, a method only as an attribute; an import alone
    does not count as a use."""
    defs, uses = _defs_and_uses()
    out = []
    for mod, qual, is_public in defs:
        if is_public != public:
            continue
        name = qual.rsplit(".", 1)[-1]
        method = "." in qual
        if not any(n == name and (m, o) != (mod, qual) and (attr or not method)
                   for n, m, o, attr in uses):
            out.append(f"{mod}.{qual}")
    return sorted(out)


def allowed_public_names():
    exported = exported_names()
    return {f"{mod}.{qual}" for mod, qual, public in _defs_and_uses()[0]
            if public and (qual in exported or f"{mod}.{qual}" in DOCUMENTED)}


def test_every_private_helper_has_a_caller():
    defs, _uses = _defs_and_uses()
    assert sum(1 for d in defs if not d[2]) >= 20
    assert unreferenced_names(public=False) == []


def test_every_public_name_has_a_caller_or_is_library_api():
    assert sorted(set(unreferenced_names(public=True))
                  - allowed_public_names()) == []


def test_the_library_api_exists_and_is_documented():
    defs = _defs_and_uses()[0]
    assert DOCUMENTED <= {f"{mod}.{qual}" for mod, qual, _public in defs}
    assert exported_names() <= {qual for _mod, qual, _public in defs}
    readme = README.read_text()
    section = readme[readme.index("## Library use"):]
    section = section[:section.index("\n## ", 1)]
    for name in DOCUMENTED:
        assert re.search(rf"`[\w.]*{re.escape(name.split('.', 1)[1])}`",
                         section), name


def _copy_with(tmp_path, monkeypatch, module, text):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / f"{module}.py", "a") as fh:
        fh.write(text)
    monkeypatch.setitem(globals(), "SRC", tmp_path)


def test_a_helper_left_behind_is_caught(tmp_path, monkeypatch):
    """A copy of the engine plus one private helper that only recurses
    into itself, as a half-done deletion leaves one behind."""
    _copy_with(tmp_path, monkeypatch, "forms",
               "\n\ndef _left_behind(k):\n"
               "    return _left_behind(k - 1) if k else 0\n")
    assert unreferenced_names(public=False) == ["forms._left_behind"]


def test_a_public_name_only_tests_read_is_caught(tmp_path, monkeypatch):
    """A copy of the engine plus a public function and a public method that
    only tests would call."""
    _copy_with(tmp_path, monkeypatch, "linalg",
               "\n\ndef test_only(k):\n    return k\n\n\n"
               "class Holder:\n    def __init__(self):\n        self.k = 0\n\n"
               "    def peek(self):\n        return self.k\n\n\n"
               "HOLDER = Holder()\n")
    assert set(unreferenced_names(public=True)) - allowed_public_names() \
        == {"linalg.test_only", "linalg.Holder.peek"}


def test_a_method_named_like_a_local_variable_is_caught(tmp_path, monkeypatch):
    """A copy of the engine plus a public method that only tests would call,
    named like a local variable that the engine reads."""
    _copy_with(tmp_path, monkeypatch, "linalg",
               "\n\nclass Shelf:\n    def __init__(self):\n"
               "        self.k = 0\n\n"
               "    def stock(self):\n        return self.k\n\n\n"
               "def count_stock(k):\n    stock = Shelf().k + k\n"
               "    return stock\n\n\nSHELF = count_stock(0)\n")
    assert set(unreferenced_names(public=True)) - allowed_public_names() \
        == {"linalg.Shelf.stock"}

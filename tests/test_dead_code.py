"""Every private top-level function or class of the engine has a caller, so a
deletion that leaves a helper behind fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gchodge"


def _private_defs_and_uses():
    """({(module, name)} of the `_`-prefixed top-level functions and classes,
    {(name, module, top-level owner)} of every name read in the engine)."""
    defs, uses = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for top in tree.body:
            owner = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defs.add((path.stem, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.add((node.id, path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    uses.add((node.attr, path.stem, owner))
    return defs, uses


def unreferenced_private_names():
    """The private top-level names read nowhere outside their own body; an
    import alone does not count as a use."""
    defs, uses = _private_defs_and_uses()
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if not any(n == name and (m, o) != (mod, name)
                             for n, m, o in uses))


def test_every_private_helper_has_a_caller():
    defs, _uses = _private_defs_and_uses()
    assert len(defs) >= 20
    assert unreferenced_private_names() == []


def test_a_helper_left_behind_is_caught(tmp_path, monkeypatch):
    """A copy of the engine plus one private helper that only recurses
    into itself, as a half-done deletion leaves one behind."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "forms.py", "a") as fh:
        fh.write("\n\ndef _left_behind(k):\n"
                 "    return _left_behind(k - 1) if k else 0\n")
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert unreferenced_private_names() == ["forms._left_behind"]

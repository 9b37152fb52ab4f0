"""Every public top-level function and class of src/gedlab/ has a user:
some code in src/, perfbench/ or demos/ names it outside its own
definition.  Tests do not count, and neither does a re-export in
__init__.py, so a name that only tests call fails here.  perfbench/
names the functions its tracer wraps as strings (spans.WRAPS), so there
a string constant counts as a use too."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "gedlab").glob("*.py")
                 if p.name != "__init__.py")


def names_in(node, strings: bool) -> set[str]:
    """The names node uses: Name ids, Attribute attrs and the last part
    of each imported name; with strings, every str constant too."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            out.add(n.value)
    return out


def test_every_public_name_has_a_user():
    outside = set()
    for folder, strings in (("perfbench", True), ("demos", False)):
        for path in (ROOT / folder).rglob("*.py"):
            outside |= names_in(ast.parse(path.read_text()), strings)
    bodies = {path.stem: ast.parse(path.read_text()).body
              for path in MODULES}
    # the names each top-level statement of each module uses
    uses = {(module, k): names_in(stmt, False)
            for module, body in bodies.items()
            for k, stmt in enumerate(body)}
    unused = [
        f"{module}.{stmt.name}"
        for module, body in bodies.items() for k, stmt in enumerate(body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in outside
        and not any(stmt.name in names for at, names in uses.items()
                    if at != (module, k))]
    assert not unused, f"public names with no user but tests: {unused}"

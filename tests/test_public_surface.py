"""Every public top-level function, class and UPPER_CASE constant of
src/gedlab/ has a user: some code in src/, perfbench/ or demos/ names it
outside its own definition.  Tests do not count, and neither does a
re-export in __init__.py, so a name that only tests read fails here.
perfbench/ names the functions its tracer wraps as strings
(spans.WRAPS), so there a string constant counts as a use too."""
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


def defined(stmt) -> list[str]:
    """The function or class stmt defines, or the UPPER_CASE names it
    binds at module level."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and n.id.isupper()]


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
        f"{module}.{name}"
        for module, body in bodies.items() for k, stmt in enumerate(body)
        for name in defined(stmt)
        if not name.startswith("_") and name not in outside
        and not any(name in names for at, names in uses.items()
                    if at != (module, k))]
    assert not unused, f"public names with no user but tests: {unused}"

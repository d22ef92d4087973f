"""Every top-level name in `src/kstep_lln` has a product caller, or a stated reason to stay.

The product is the `kstep-lln` console script, `cli.main`, together with what each module
runs at import.  From there the test follows name and module-attribute references through
the parsed source: an import, nested ones included, resolves a name to the module that
defines it, and a reached function or class reaches everything its body names.  A top-level
definition that nothing reaches is code whose only user is its own test: delete it, or list
it in KEPT with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kstep_lln"

#: Unreached definitions and why each stays.  A reason "perfbench W calls M.F" is checked
#: against perfbench/*.py: workload W exists there, it names M.F, and M.F reaches the entry.
KEPT = {
    "trees.block_process_tree": "perfbench numerics calls trees.block_process_tree",
    "treefile.bundle_to_dict": "perfbench tree-exact calls treefile.bundle_to_dict",
    "treefile._floats": "perfbench tree-exact calls treefile.bundle_to_dict",
    "__init__.__version__": "package metadata",
}

PERFBENCH_REASON = re.compile(r"perfbench (\S+) calls (\w+)\.(\w+)")


def _defined(stmt: ast.stmt) -> list[str]:
    """The top-level names a statement defines: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def build_graph(src: Path):
    """({(module, name): referenced (module, name) set}, the references of import-time code).

    The package imports itself relatively (`from . import m`, `from .m import f`); only
    those imports resolve names.
    """
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(src.glob("*.py"))}
    graph, roots = {}, set()
    for mod, tree in trees.items():
        local = {name for stmt in tree.body for name in _defined(stmt)}
        modules, names = {}, {}  # alias -> module; alias -> (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                source = node.module or ""
                for alias in node.names:
                    if source == "" and alias.name in trees:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (source or "__init__", alias.name)

        def references(node: ast.AST) -> set[tuple[str, str]]:
            out = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    if n.id in local:
                        out.add((mod, n.id))
                    if n.id in names:
                        out.add(names[n.id])
                elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                    if n.value.id in modules:
                        out.add((modules[n.value.id], n.attr))
            return out

        for stmt in tree.body:
            defined = _defined(stmt)
            for name in defined:
                graph[(mod, name)] = references(stmt)
            if not defined:
                roots |= references(stmt)
    return graph, roots


def reached(graph, start) -> set[tuple[str, str]]:
    seen, todo = set(), list(start)
    while todo:
        node = todo.pop()
        if node in graph and node not in seen:
            seen.add(node)
            todo.extend(graph[node])
    return seen


def unreached(src: Path) -> set[str]:
    graph, roots = build_graph(src)
    live = reached(graph, roots | {("cli", "main")})
    # `__all__` only lists names; its strings are not references.
    return {f"{mod}.{name}" for mod, name in graph if (mod, name) not in live and name != "__all__"}


def test_every_unreached_definition_is_kept_for_a_stated_reason():
    dead = unreached(SRC)
    new, stale = sorted(dead - set(KEPT)), sorted(set(KEPT) - dead)
    assert not new, f"no product caller; delete these or list them in KEPT: {new}"
    assert not stale, f"in KEPT but reached or gone; drop them from KEPT: {stale}"


def test_every_kept_reason_holds():
    graph, _ = build_graph(SRC)
    perfbench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    for entry, reason in KEPT.items():
        assert reason.strip(), entry
        if "perfbench" not in reason:
            continue
        match = PERFBENCH_REASON.fullmatch(reason)
        assert match, (entry, reason)
        workload, mod, func = match.groups()
        assert f'name = "{workload}"' in perfbench, (entry, f"no perfbench workload {workload!r}")
        assert f"{mod}.{func}(" in perfbench, (entry, f"perfbench does not call {mod}.{func}")
        via = reached(graph, {(mod, func)})
        assert tuple(entry.split(".")) in via, (entry, f"{mod}.{func} does not reach it")

"""Every name a library module imports is used, and everything it defines is reached.

No linter ships with the project, so this parses each module under
``src/reciprocity`` with :mod:`ast`.  Package ``__init__`` files re-export
their imports and are skipped; ``from __future__`` imports are exempt.
Names count as used when they appear as identifiers anywhere in the module,
or inside a string annotation.

The second check is over the whole package: every top-level function and
class, every method that is not a dunder, and every name exported from
``reciprocity/__init__.py`` must be referenced by some library code other
than its own definition and the export.  A reference is a read of a name,
a read of an attribute, or a string annotation.  An attribute read on a
name that an import binds to a module is resolved: ``generic.mul`` reaches
the ``mul`` of ``_kernels/generic.py`` (through re-exports) and nothing
else, and ``re.findall`` reaches nothing in the package.  Every other read,
a bare name or an attribute of a value (``field.kernels.mul``,
``self.live``), is matched by name, not by type, so a dead method that
shares its name with a live one goes unseen.

The third check holds the kernel namespace to what the library calls: every
public name that ``_kernels/__init__.py`` binds must be read by a library
module outside ``_kernels``, as an attribute of ``kernels``, ``_kernels`` or
a ``.kernels`` attribute (``field.kernels.mul``), or by a ``from ._kernels
import``.  A name the kernels only use among themselves does not count.

The fourth check is the cold start: a fresh isolated interpreter that
imports the package, its parser and its CLI loads none of the modules in
``COLD_START_FORBIDDEN`` beyond those its own start-up had loaded.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reciprocity"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # string annotations such as -> "Polynomial" name types too
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, sys\nfrom math import gcd, lcm\nx: 'lcm' = gcd(1, 2)\ny = 'sys'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "sys"}


# Entry points the library does not call itself, each with its reason.
REACH_ALLOWLIST = {
    # bench/run.py and tools/op_digest.py print the live backend
    "KERNEL_BACKEND",
    # bench/tracing.py LAYERS wraps it by name
    "unit_factorize",
    # the determinant central extension over dual numbers: the routes the
    # residue and Gelfand-Fuchs verifiers are to gain (ROADMAP items 2 and 3)
    "lie_cocycle_dual",
    "residue_from_dual_symbol",
    # adele orthogonality, the north-star global law, until a command runs it
    "residue_pairing_sum",
    # bench/workloads.py sizes each tate-residue window from the supports;
    # the library's window rule is symbols.tate_window
    "LaurentSeries.support",
}


def references(node: ast.AST, modules: dict) -> Counter:
    """How often each name is read under node; assigning to a name is no reference.

    modules maps the names bound to modules (``module_names``); an attribute
    read on one counts under (path, attr), or not at all for a module outside
    the package.  Every other read counts under the bare name.
    """
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            owner = sub.value
            if not (isinstance(owner, ast.Name) and owner.id in modules):
                refs[sub.attr] += 1
            elif modules[owner.id] is not None:
                refs[modules[owner.id], sub.attr] += 1
    for ann in annotations(node):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                inner = ast.parse(sub.value, mode="eval")
                refs.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return refs


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each top-level definition and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node


def module_path(package: Path, node: ast.ImportFrom) -> Path:
    """The file a relative import in the package directory ``package`` reads."""
    base = package
    for _ in range(node.level - 1):
        base = base.parent
    for part in node.module.split(".") if node.module else ():
        base = base / part
    return base / "__init__.py" if base.is_dir() else base.with_suffix(".py")


def module_names(path: Path, tree: ast.Module, trees: dict) -> dict:
    """Name -> module of each name the module at path binds to a module by an import.

    The module is the parsed file of a package module, or None for a module
    outside the package (``import re``).  A package module that is not
    Python source (the compiled ``_core``) is left out, so the attributes
    read on its name are matched by name, like those of a value.  The name
    is taken to be bound by the import everywhere in the module.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = None
        elif isinstance(node, ast.ImportFrom) and node.level:
            source = module_path(path.parent, node)
            for alias in node.names:
                # from . import corpus, from ._kernels import generic
                sub = module_path(source.parent, ast.ImportFrom(module=alias.name, level=1))
                if source.name == "__init__.py" and sub in trees:
                    bound[alias.asname or alias.name] = sub
    return bound


def origin(trees: dict, defs: dict, source: Path, name: str) -> tuple[Path, str]:
    """(module, name) of the definition that name in source re-exports, or the last module it can be followed to.

    ``from .module import name`` is followed; ``from . import module`` binds a module, which ends the walk.
    """
    while (source, name) not in defs and source in trees:
        hops = [(n, a.name) for n in trees[source].body if isinstance(n, ast.ImportFrom) and n.level and n.module
                for a in n.names if (a.asname or a.name) == name]
        if not hops:
            break
        (imp, name), = hops
        source = module_path(source.parent, imp)
    return source, name


def unreached(root: Path) -> set[str]:
    """Names defined or exported under root that no other code under root references.

    root is a package directory; its ``__init__.py`` is the export list and
    counts as no reference.
    """
    init = root / "__init__.py"
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(root.rglob("*.py"))}
    modules = {path: module_names(path, tree, trees) for path, tree in trees.items()}
    defs = {}
    for path, tree in trees.items():
        for qualified, bare, node in definitions(tree):
            defs[path, bare] = node

    def resolved(refs: Counter) -> Counter:
        """refs with each (module, name) key moved to the module that defines name."""
        out = Counter()
        for key, count in refs.items():
            out[origin(trees, defs, *key) if isinstance(key, tuple) else key] += count
        return out

    total = Counter()
    for path, tree in trees.items():
        if path != init:
            total += resolved(references(tree, modules[path]))

    def outside(path: Path, bare: str, node: ast.AST) -> int:
        own = resolved(references(node, modules[path]))
        count = total[bare] - own[bare]
        # a module attribute read reaches a top-level definition, never a method
        if node in trees[path].body:
            count += total[path, bare] - own[path, bare]
        return count

    dead = set()
    for path, tree in trees.items():
        for qualified, bare, node in definitions(tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) and not outside(path, bare, node):
                dead.add(qualified)
    for node in trees[init].body:
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        for alias in node.names:
            source, name = origin(trees, defs, module_path(root, node), alias.name)
            if not outside(source, name, defs[source, name]):
                dead.add(alias.asname or alias.name)
    return dead


def test_everything_the_library_defines_is_reached():
    dead = unreached(SRC)
    assert not dead - REACH_ALLOWLIST, f"defined or exported but never referenced: {sorted(dead - REACH_ALLOWLIST)}"
    assert not REACH_ALLOWLIST - dead, f"allowlisted but referenced: {sorted(REACH_ALLOWLIST - dead)}"


def test_the_check_sees_a_dead_definition_and_a_dead_export(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from .core import LIMIT, Box, used\nfrom .sub import FLAG as EXPORTED_FLAG\n"
    )
    (pkg / "core.py").write_text(
        "LIMIT = 3\n"
        "def used(n: 'Box') -> int:\n    return n\n"
        "def dead():\n    return used(1)\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = used(2)\n"
        "    def live(self):\n        return self.size\n"
        "    def dead_method(self):\n        return self.live()\n"
        "def shared():\n    return 1\n"
        "def floor(x):\n    return x\n"
    )
    (pkg / "sub" / "__init__.py").write_text("from .flags import FLAG\nfrom .tools import Tool\n")
    (pkg / "sub" / "flags.py").write_text("FLAG: bool = bool(0)\n")
    (pkg / "sub" / "tools.py").write_text("class Tool:\n    def run(self):\n        return 0\n")
    # extra.shared shares its name with core.shared, and math.floor with core.floor; sub.Tool is
    # read through the package that re-exports it, and tools.run on a value, so by name
    (pkg / "extra.py").write_text("def shared():\n    return 2\n")
    (pkg / "cli.py").write_text(
        "import math\nfrom . import extra, sub\nfrom .core import used\n"
        "print(used(0), extra.shared(), math.floor(0.5), sub.Tool().run())\n"
    )
    assert unreached(pkg) == {"dead", "recursive", "Box.dead_method", "LIMIT", "EXPORTED_FLAG", "shared", "floor"}


def unread_kernel_exports(root: Path) -> set[str]:
    """Public names bound in ``root/_kernels/__init__.py`` that no module of root outside ``_kernels`` reads."""
    package = root / "_kernels"
    init = ast.parse((package / "__init__.py").read_text())
    exported = {target.id for node in init.body if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name) and not target.id.startswith("_")}
    read = set()
    for path in root.rglob("*.py"):
        if package in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id in ("kernels", "_kernels")
                        or isinstance(owner, ast.Attribute) and owner.attr == "kernels"):
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "_kernels":
                read.update(alias.name for alias in node.names)
    return exported - read


def test_every_kernel_export_is_called():
    unread = unread_kernel_exports(SRC)
    assert not unread, f"the _kernels namespace exports names no library module calls: {sorted(unread)}"


def test_the_check_sees_an_unread_kernel_export(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "_kernels").mkdir(parents=True)
    (pkg / "_kernels" / "__init__.py").write_text(
        "from . import impl as _impl\nBACKEND = 'python'\n_PRIVATE = 1\n"
        "add = _impl.add\nmul = _impl.mul\neval_at = _impl.eval_at\nxgcd = _impl.xgcd\n"
    )
    (pkg / "_kernels" / "impl.py").write_text("def xgcd(a): return a\ndef eval_at(a): return xgcd(a)\n")
    (pkg / "__init__.py").write_text("from ._kernels import BACKEND\n")
    (pkg / "poly.py").write_text(
        "from . import _kernels\n"
        "def f(field, kernels, other):\n"
        "    return field.kernels.add(1), _kernels.mul(2), other.eval_at(3), xgcd\n"
    )
    assert unread_kernel_exports(pkg) == {"eval_at", "xgcd"}


# Modules no cold import may load: dataclasses loads inspect, ast and dis and
# generates code per record; typing and inspect are as costly; traceback, whose
# linecache loads tokenize, belongs on the error path only.
COLD_START_FORBIDDEN = {"dataclasses", "inspect", "ast", "dis", "typing", "tokenize", "linecache"}


def cold_imports(path: Path, statement: str) -> set[str]:
    """Modules that a fresh ``-I`` interpreter, with path first on sys.path, loads to run statement."""
    code = (f"import sys\nbefore = set(sys.modules)\nsys.path.insert(0, {str(path)!r})\n{statement}\n"
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True, timeout=60)
    return set(proc.stdout.split())


def test_a_cold_import_loads_none_of_the_forbidden_modules():
    loaded = cold_imports(SRC.parent, "import reciprocity, reciprocity.parsing, reciprocity.cli")
    assert "reciprocity.cli" in loaded
    assert not loaded & COLD_START_FORBIDDEN, sorted(loaded & COLD_START_FORBIDDEN)


def test_the_cold_start_check_sees_a_planted_import(tmp_path):
    (tmp_path / "planted").mkdir()
    (tmp_path / "planted" / "__init__.py").write_text("import dataclasses\n")
    assert {"dataclasses", "inspect"} <= cold_imports(tmp_path, "import planted") & COLD_START_FORBIDDEN

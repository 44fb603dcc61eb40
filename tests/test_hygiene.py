"""Repository hygiene, checked with the standard library only: every
module-level import in the package is used, every dataclass field is read,
every public name has a caller outside the tests, only the tests import
the oracles, every differentiable op has a finite-difference test, every
raise is a ValidationError or a NumericalError, every dataclass is checked
when it is made and not at each use, the imports match the declared
dependencies, importing every module of the package loads no scipy, and
every console script declared in pyproject.toml resolves to a callable."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latentflow"
OPS = PACKAGE / "autodiff" / "ops.py"
ORACLES = PACKAGE / "oracles.py"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_module_level_imports():
    unused = [entry for path in sorted(PACKAGE.rglob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def _dataclasses(tree: ast.AST) -> list[ast.ClassDef]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]


def _dataclass_fields(path: Path) -> list[tuple[str, str]]:
    fields = []
    for node in _dataclasses(ast.parse(path.read_text(), filename=str(path))):
        fields += [(node.name, s.target.id) for s in node.body
                   if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return fields


def _attribute_loads(tree: ast.AST, in_check: bool = False) -> set[str]:
    """Attribute names loaded anywhere in ``tree`` outside a ``validate`` or
    ``__post_init__`` method, so a field that only its own check reads
    counts as unread."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)) and tree.name in ("validate", "__post_init__"):
        in_check = True
    loads = set()
    if not in_check and isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        loads.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        loads |= _attribute_loads(child, in_check)
    return loads


def test_every_dataclass_field_is_read():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    loads = set().union(*(_attribute_loads(ast.parse(p.read_text(), filename=str(p))) for p in sources))
    fields = [f for path in sorted(PACKAGE.rglob("*.py")) for f in _dataclass_fields(path)]
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in loads] == []


def _validate_calls(tree: ast.AST) -> list[int]:
    """Lines of the ``.validate`` calls in ``tree`` outside a ``__post_init__``."""
    if isinstance(tree, ast.FunctionDef) and tree.name == "__post_init__":
        return []
    lines = [tree.lineno] if isinstance(tree, ast.Call) and getattr(tree.func, "attr", None) == "validate" else []
    for child in ast.iter_child_nodes(tree):
        lines += _validate_calls(child)
    return lines


def _post_init_raises(cls: ast.ClassDef) -> bool:
    """Whether ``cls.__post_init__`` raises, itself or in a method of ``cls``
    that it calls on ``self``."""
    methods = {m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)}
    if "__post_init__" not in methods:
        return False
    reached = [methods["__post_init__"]] + [
        methods[c.func.attr] for c in ast.walk(methods["__post_init__"])
        if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
        and getattr(c.func.value, "id", None) == "self" and c.func.attr in methods
    ]
    return any(isinstance(n, ast.Raise) for m in reached for n in ast.walk(m))


def _is_frozen(cls: ast.ClassDef) -> bool:
    return any(k.arg == "frozen" and getattr(k.value, "value", None) is True
               for d in cls.decorator_list if isinstance(d, ast.Call) for k in d.keywords)


def test_every_dataclass_is_checked_once_when_made():
    """Nothing in the package calls ``.validate`` outside a ``__post_init__``,
    and every dataclass whose ``__post_init__`` raises is frozen: an instance
    that exists is valid and stays valid, so no caller checks it again."""
    per_use, unfrozen = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        per_use += [f"{path.relative_to(ROOT)}:{line}" for line in _validate_calls(tree)]
        unfrozen += [cls.name for cls in _dataclasses(tree) if _post_init_raises(cls) and not _is_frozen(cls)]
    assert per_use == []
    assert unfrozen == []


def _loads(tree: ast.AST) -> Counter:
    """How often each name is loaded in ``tree``, as ``name`` or ``x.name``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _autodiff_loads(tree: ast.AST) -> Counter:
    """How often each name is loaded in ``tree`` as ``ad.name``, where ``ad``
    is bound by ``from latentflow import autodiff`` or, in a module of the
    package, ``from . import autodiff``, under any alias."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module, node.level) in (("latentflow", 0), (None, 1))
               for a in node.names if a.name == "autodiff"}
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                   and isinstance(n.value, ast.Name) and n.value.id in aliases)


def _public_definitions() -> list[tuple[Path, str, ast.AST]]:
    """(file, qualified name, definition) of every public module-level
    function and class in the package outside ``oracles.py``, and of every
    public method and property of those classes."""
    defs = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == ORACLES:
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append((path, node.name, node))
                if isinstance(node, ast.ClassDef):
                    defs += [(path, f"{node.name}.{m.name}", m) for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return defs


# Public names that only the tests call, each with the reason it stays.
_CALLED_ONLY_BY_TESTS = {
    "finite_diff_check": "oracle: the independent check of every backward rule",
    "set_debug_checks": "the debug switch, turned on by hand or by a test",
    "write_wav": "waits for a synth command that writes its output",
    "ParamStore.load_state_dict": "waits for checkpointing in a train command",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public module-level function and class of the package, and each
    public method and property of those classes, is loaded by name somewhere
    in src/, perfbench/ or scripts/, outside its own definition. The
    ``__init__`` re-exports do not count, since an import is not a load.
    ``oracles.py`` holds the tests' oracles, so its names are not checked
    and its loads call nothing: a name that only an oracle calls fails.

    An op of ``autodiff/ops.py`` counts only as ``ad.<op>``, loaded from a
    name bound to ``latentflow.autodiff``, so ``np.sqrt`` is no call of an
    op called ``sqrt``. Any other name is checked by name only: a load of
    ``x.names`` counts for every method called ``names``, whatever ``x``
    is, so it finds names nothing loads, not every method without a
    caller."""
    trees = [ast.parse(p.read_text(), filename=str(p))
             for d in ("src", "perfbench", "scripts") for p in sorted((ROOT / d).rglob("*.py")) if p != ORACLES]
    loads = sum((_loads(t) for t in trees), Counter())
    op_loads = sum((_autodiff_loads(t) for t in trees), Counter())
    uncalled = {qual for path, qual, node in _public_definitions()
                if (op_loads[node.name] if path == OPS else loads[node.name] - _loads(node)[node.name]) <= 0}
    assert sorted(uncalled - _CALLED_ONLY_BY_TESTS.keys()) == []
    assert sorted(_CALLED_ONLY_BY_TESTS.keys() - uncalled) == []


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules, and of the names in them, that
    ``path`` imports; a relative import counts from a module of the package
    only."""
    parts = path.relative_to(PACKAGE.parent).parent.parts if PACKAGE in path.parents else None
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.level == 0 or parts is not None):
            base = parts[:len(parts) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return names


def test_only_the_tests_import_the_oracles():
    """No module of the package but ``oracles.py`` itself, and nothing in
    perfbench/ or scripts/, imports ``latentflow.oracles``; and each public
    name of ``oracles.py`` is loaded somewhere in tests/, so the exemption
    from the caller rule above hides no dead oracle."""
    sources = [p for d in ("src", "perfbench", "scripts") for p in sorted((ROOT / d).rglob("*.py")) if p != ORACLES]
    importers = [str(p.relative_to(ROOT)) for p in sources if "latentflow.oracles" in _imported_modules(p)]
    assert importers == []
    public = {node.name for node in ast.parse(ORACLES.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    loads = sum((_loads(ast.parse(p.read_text(), filename=str(p))) for p in sorted((ROOT / "tests").rglob("*.py"))),
                Counter())
    assert public and sorted(name for name in public if not loads[name]) == []


def _called(tree: ast.AST) -> set[str]:
    """Names of the functions called anywhere in ``tree``, as ``f`` or ``m.f``."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(tree) if isinstance(n, ast.Call)}


def test_every_differentiable_op_has_a_finite_difference_test():
    """Each public op in autodiff/ops.py that records on the tape (calls
    ``_make``) is called in a test that calls ``finite_diff_check``, either
    in the test itself or in a module-level value the test names."""
    tree = ast.parse((PACKAGE / "autodiff" / "ops.py").read_text())
    ops = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
           and not f.name.startswith("_") and "_make" in _called(f)}
    checked = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        values = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and "finite_diff_check" in _called(fn):
                named = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                checked |= _called(fn).union(*(_called(values[n]) for n in named & values.keys()))
    assert ops and sorted(ops - checked) == []


def test_every_raise_in_the_package_is_a_validation_or_numerical_error():
    """Bad input fails with ValidationError and a numerical breakdown with
    NumericalError; the package raises no other type, and no bare re-raise."""
    other = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) not in ("ValidationError", "NumericalError"):
                    other.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert other == []


def test_console_scripts_resolve_to_callables():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"].get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name} = {target}: {exc}")
            continue
        if not callable(obj):
            broken.append(f"{name} = {target}: not callable")
    assert broken == []


def _third_party_imports(paths) -> set[str]:
    """Top-level names of every absolute import in ``paths`` that is neither
    in the standard library nor the package itself."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"latentflow"}


def _requirement_names(requirements: list[str]) -> set[str]:
    """Import names of PEP 508 requirements: the distribution name, lowered,
    with dashes as underscores. Version floors are not compared."""
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_imports_match_the_declared_dependencies():
    """The package imports exactly its declared dependencies, the tests
    import nothing beyond them, the dev extras and one another, and the
    pairing script runs on the standard library alone."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _requirement_names(project["dependencies"])
    dev = _requirement_names(project["optional-dependencies"]["dev"])
    assert _third_party_imports(sorted(PACKAGE.rglob("*.py"))) == runtime
    tests = sorted((ROOT / "tests").rglob("*.py"))
    siblings = {p.stem for p in tests}  # a test module may import another one
    assert _third_party_imports(tests) - siblings <= runtime | dev
    assert _third_party_imports([ROOT / "scripts" / "bench_pairs.py"]) == set()


def test_importing_every_module_of_the_package_loads_no_scipy():
    """numpy is the only runtime dependency, so a fresh process that imports
    every module of the package never loads scipy."""
    code = (
        "import importlib, json, pkgutil, sys\n"
        "import latentflow\n"
        "names = [m.name for m in pkgutil.walk_packages(latentflow.__path__, 'latentflow.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps([names, sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')]))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    names, scipy_modules = json.loads(run.stdout)
    assert {"latentflow.signals", "latentflow.oracles", "latentflow.autodiff.ops"} <= set(names)
    assert scipy_modules == []

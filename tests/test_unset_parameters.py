"""Every defaulted parameter in ``src/`` is set by some call, and every
public ``src/`` entry point has a user outside the tests.

A default that no call in ``src/``, ``tests/``, ``examples/`` or
``benchmarks/`` overrides is a constant dressed up as an option.  Calls
are matched by name: a class call sets its ``__init__``, a call through
``from m import f as g`` sets ``f``, and a call with ``*args`` or
``**kwargs`` sets every parameter.  :data:`ALLOWED` names the parameters
whose callers the match cannot see, each with the reason.

A public function, method or class that only ``tests/`` references is
code kept alive for its own tests.  References are matched by name too:
any ``Name``, ``Attribute`` or identifier inside a string counts, except
in docstrings, imports and ``__all__``.  :data:`TEST_ONLY` names the
entry points kept anyway, each with the reason.

A package ``__init__.py`` holds its docstring and the names it defines
itself: it imports from a ``repro`` module only what its own code uses,
and has no ``__all__``, so every public name has one import path.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_REGISTRY = "set by run_experiment through the experiment registry"
_SUPER = "set by AttackerStld through super().__init__"

ALLOWED = {
    "repro.experiments.attack_e2e.run_aslr(seed)": _REGISTRY,
    "repro.experiments.attack_e2e.run_capacity(seed)": _REGISTRY,
    "repro.experiments.attack_e2e.run_extraction(seed)": _REGISTRY,
    "repro.experiments.attack_evals.run_all(seed)": _REGISTRY,
    "repro.experiments.robustness.run_channel(seed)": _REGISTRY,
    "repro.experiments.robustness.run_extraction(seed)": _REGISTRY,
    "repro.experiments.sec5_extensions.run_address_leak(seed)": _REGISTRY,
    "repro.experiments.sec5_extensions.run_covert_channel(seed)": _REGISTRY,
    "repro.experiments.sec5_extensions.run_stl_inplace(seed)": _REGISTRY,
    "repro.experiments.runner.run_experiment(seed)":
        "called through functools.partial and metered()",
    "repro.revng.stld.StldRunner.__init__(thread_id)": _SUPER,
    "repro.revng.stld.StldRunner.__init__(timer)": _SUPER,
}


TEST_ONLY = {
    "repro.core.config.zen2_model": "the documented Zen 2 (SSB-only) ablation config",
    "repro.baselines.arm_mdu.ArmMdu.predict_bypass": "the baseline MDUs' query",
    "repro.baselines.intel_mdu.IntelMdu.predict_bypass": "the baseline MDUs' query",
    "repro.mitigations.secure_timer.SecureTimer": "the documented Section VI timer",
    "repro.revng.report.ReverseEngineeringCampaign": "the documented Section III run",
    "repro.osm.kernel.Kernel.physical_address": "the privileged translation tests check",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _defaulted(path: Path):
    """(qualified name, call name, parameter, position or None) per default."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    tree = ast.parse(path.read_text())
    classes = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = classes.get(id(fn))
        method = cls is not None and not any(
            getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list
        )
        qualname = f"{module}.{cls.name}.{fn.name}" if cls else f"{module}.{fn.name}"
        call_name = cls.name if cls and fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield qualname, call_name, arg.arg, index - method
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualname, call_name, arg.arg, None


def _calls():
    """Per call name: keywords set, most positionals passed, star calls."""
    keywords: dict[str, set[str]] = {}
    positions: dict[str, int] = {}
    starred: set[str] = set()
    for top in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            aliases = {alias.asname: alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names if alias.asname}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                name = aliases.get(name, name)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                ):
                    starred.add(name)
                positions[name] = max(positions.get(name, 0), len(node.args))
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords if k.arg
                )
    return keywords, positions, starred


def test_every_default_is_set_by_some_call():
    keywords, positions, starred = _calls()
    unset = {
        f"{qualname}({param})"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for qualname, name, param, index in _defaulted(path)
        if name not in starred
        and param not in keywords.get(name, ())
        and (index is None or index >= positions.get(name, 0))
    }
    assert sorted(unset - ALLOWED.keys()) == [], "defaults no call sets"
    assert sorted(ALLOWED.keys() - unset) == [], "stale ALLOWED entries"


def _entry_points(path: Path):
    """(qualified name, name) per module-level def or class and method."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(*tops: str) -> set[str]:
    """Every name used under ``tops`` outside docstrings, imports and ``__all__``."""
    names: set[str] = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skipped = {id(node.body[0].value) for node in ast.walk(tree)
                       if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                       and ast.get_docstring(node, clean=False) is not None}
            for node in tree.body:
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                    skipped.update(id(item) for item in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and id(node) not in skipped:
                    names.update(_IDENTIFIER.findall(str(node.value)))
    return names


def test_every_entry_point_has_a_user_outside_tests():
    used = _references("src", "examples", "benchmarks")
    tested = _references("tests")
    test_only = {
        qualname
        for path in sorted((ROOT / "src").rglob("*.py"))
        for qualname, name in _entry_points(path)
        if not name.startswith("_") and name in tested and name not in used
    }
    assert sorted(test_only - TEST_ONLY.keys()) == [], "entry points only tests use"
    assert sorted(TEST_ONLY.keys() - test_only) == [], "stale TEST_ONLY entries"


def _reexports(path: Path):
    """Names ``path`` imports from ``repro`` without using them, and ``__all__``."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "repro"
        ):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name.split(".")[0] == "repro")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", "") == "__all__" for target in targets):
                yield "__all__"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    yield from sorted(bound - used)


def test_no_package_reexports():
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src").rglob("__init__.py"))
        for name in _reexports(path)
    ]
    assert found == [], "package __init__ names imported but unused, or __all__"

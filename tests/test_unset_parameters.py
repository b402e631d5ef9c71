"""Every defaulted parameter in ``src/`` is set by some call.

A default that no call in ``src/``, ``tests/``, ``examples/`` or
``benchmarks/`` overrides is a constant dressed up as an option.  Calls
are matched by name: a class call sets its ``__init__``, a call through
``from m import f as g`` sets ``f``, and a call with ``*args`` or
``**kwargs`` sets every parameter.  :data:`ALLOWED` names the parameters
whose callers the match cannot see, each with the reason.
"""

import ast
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

from __future__ import annotations

import ast
import gc
import importlib
import inspect
import sys
import weakref
from pathlib import Path

import pytest

import ngonstab

MODULES = [
    "ngonstab.charges",
    "ngonstab.gamma0",
    "ngonstab.compat",
    "ngonstab.sheaves",
    "ngonstab.hn",
    "ngonstab.moduli",
    "ngonstab.schemas",
    "ngonstab.cli",
]

SRC = Path(ngonstab.__file__).parent
ROOT = SRC.parent.parent
# Public names that only tests reach, each with the reason it stays.
UNREACHED = {
    "stable_vb_construct": "waits for its caller, the moduli oracle of ROADMAP item 2",
}


def test_the_package_defines_no_names():
    # callers import from the modules, so each name has one public path
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []


def _uses(path: Path) -> list[tuple[str | None, set[str]]]:
    """(name defined, names read) for each top-level statement of a file."""
    out = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        defined = getattr(stmt, "name", None)  # a def or a class
        used = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        out.append((defined, used))
    return out


def _callers() -> list[Path]:
    """The library, the benchmark and the acceptance suite: the files
    whose calls count as uses of the public API."""
    bench = (ROOT / "bench").glob("*.py")
    return [*SRC.glob("*.py"), *bench, ROOT / "tests" / "test_acceptance.py"]


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in a module's __all__ must be read by the library outside
    its own definition (recursion is no caller), by the benchmark or by
    the acceptance suite."""
    uses = {path: _uses(path) for path in _callers()}
    unreached = set()
    for name in MODULES:
        module = importlib.import_module(name)
        home = SRC / f"{name.rsplit('.', 1)[-1]}.py"
        for public in module.__all__:
            if not any(
                public in used and not (path == home and defined == public)
                for path, stmts in uses.items()
                for defined, used in stmts
            ):
                unreached.add(public)
    assert unreached == set(UNREACHED)


def test_every_private_definition_is_read_in_the_library():
    """A module-level private function or class must be read somewhere in
    src/ outside its own definition, so a refactor leaves no dead helper.
    A decorated definition counts as read: the decorator uses it."""
    uses = {path: _uses(path) for path in SRC.glob("*.py")}
    dead = set()
    for path in uses:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if not name.startswith("_") or stmt.decorator_list:
                continue
            if not any(
                name in used and not (other == path and defined == name)
                for other, stmts in uses.items()
                for defined, used in stmts
            ):
                dead.add(f"{path.name}: {name}")
    assert sorted(dead) == []


def _passed(call: ast.Call, params: list[str]) -> set[str]:
    """The parameters a call gives: by keyword, by position, or all of
    them through *args or **kwargs."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return set(params)
    return set(params[: len(call.args)]) | {kw.arg for kw in call.keywords}


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Names a file binds to one of MODULES by a simple assignment
    (`sh = self.ng.sheaves`, `sh, hn = ng.sheaves, ng.hn`), each mapped
    to the module's short name."""
    shorts = {name.rsplit(".", 1)[-1] for name in MODULES}
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                short = getattr(value, "attr", getattr(value, "id", None))
                if isinstance(name, ast.Name) and short in shorts:
                    aliases[name.id] = short
    return aliases


def _calls(call: ast.Call, module: str, public: str, aliases: dict[str, str]) -> bool:
    """Whether a call is one of `public` in `module`: by its bare name, or
    as an attribute of the module's short name (`cli.run`,
    `self.ng.cli.run`) or of a name `aliases` binds to the module
    (`sh.brute_force_band_verdict` after `sh = self.ng.sheaves`).  A
    method of the same name on another object (`subprocess.run`,
    `runner.run`) is not a call of it."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == public
    if not isinstance(func, ast.Attribute) or func.attr != public:
        return False
    short = module.rsplit(".", 1)[-1]
    owner = getattr(func.value, "id", None)
    return short in (aliases.get(owner, owner), getattr(func.value, "attr", None))


def _signatures():
    """(label, parameters, call matcher) for each public function, and for
    the constructor and each public method, classmethod and staticmethod
    of each public class.  A method call is matched by its attribute name
    alone: which class a receiver holds is not known without running the
    code, and a same-named method of another object can only hide a
    finding, never make one."""
    for name in MODULES:
        module = importlib.import_module(name)
        for public in module.__all__:
            obj = inspect.unwrap(getattr(module, public))

            def by_name(call, aliases, name=name, public=public):
                return _calls(call, name, public, aliases)

            if inspect.isfunction(obj):
                yield public, list(inspect.signature(obj).parameters.values()), by_name
            if not inspect.isclass(obj):
                continue
            for attr, value in vars(obj).items():
                if attr == "__init__":
                    label, matches = public, by_name
                elif attr.startswith("_"):
                    continue
                else:
                    label = f"{public}.{attr}"

                    def matches(call, aliases, attr=attr):
                        return isinstance(call.func, ast.Attribute) and call.func.attr == attr

                func = getattr(value, "__func__", value)
                if not inspect.isfunction(func):
                    continue  # a property or a class constant
                params = list(inspect.signature(func).parameters.values())
                if not isinstance(value, staticmethod):
                    params = params[1:]  # self or cls
                yield label, params, matches


def _default_uses(files: list[Path]) -> dict[str, list[bool]]:
    """For each defaulted parameter in `_signatures`, whether each call in
    the given files passes it."""
    calls = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _module_aliases(tree)
        calls += [(node, aliases) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    uses = {}
    for label, params, matches in _signatures():
        names = [p.name for p in params]
        passed = [_passed(call, names) for call, aliases in calls if matches(call, aliases)]
        for p in params:
            if p.default is not p.empty:
                uses[f"{label}({p.name})"] = [p.name in given for given in passed]
    return uses


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter of a public function, constructor or method
    must be passed by some call outside the tests (the acceptance suite
    aside); a setting only tests set is a constant."""
    uses = _default_uses(_callers())
    assert sorted(p for p, passes in uses.items() if not any(passes)) == []


def test_every_default_is_relied_on_somewhere():
    """A defaulted parameter of a public function, constructor or method
    must be left out by some call; a default every caller overrides is a
    required parameter."""
    files = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
    uses = _default_uses([*files, *(ROOT / "tests").glob("*.py")])
    assert sorted(p for p, passes in uses.items() if all(passes)) == []


def test_a_fresh_import_frees_the_one_before():
    # a module-level cache keyed by library classes (as typing keeps for
    # Union[...]) would hold every import's classes, and through their
    # methods' globals whole modules, for the life of the process
    def fresh_import():
        for name in [m for m in sys.modules if m.split(".")[0] == "ngonstab"]:
            del sys.modules[name]
        return importlib.import_module("ngonstab.cli")

    saved = {m: sys.modules[m] for m in sys.modules if m.split(".")[0] == "ngonstab"}
    try:
        fresh_import()
        first = [
            weakref.ref(sys.modules["ngonstab.sheaves"].ChainSheaf),
            weakref.ref(sys.modules["ngonstab.charges"].PhasePoint),
        ]
        for _ in range(3):
            fresh_import()
            gc.collect()
        assert [ref() for ref in first] == [None, None]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "ngonstab"]:
            del sys.modules[name]
        sys.modules.update(saved)

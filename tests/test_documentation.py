"""Meta-tests: documentation coverage of the public API.

The deliverable standard is doc comments on every public item; these tests
enforce it mechanically so it cannot regress.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.core", "repro.sampling", "repro.models",
    "repro.simulator", "repro.workloads", "repro.analysis",
    "repro.experiments", "repro.statsim", "repro.util",
    "repro.lint", "repro.lint.rules", "repro.lint.semantic",
    "repro.obs", "repro.obs.prof", "repro.obs.history",
    "repro.obs.live", "repro.serve",
]


def all_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            out.append(importlib.import_module(info.name))
    return out


MODULES = all_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_has_a_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_classes_and_functions_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from elsewhere
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_every_public_class_method_documented_in_core_models():
    # The modeling layer is the library's primary public surface; hold its
    # methods to the documented standard too.  The registry and model-card
    # modules are part of that surface: their records travel between runs.
    from repro.models import linear, rbf, registry, tree
    from repro.obs import modelcard

    for module in (rbf, tree, linear, registry, modelcard):
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls):
                continue
            if cls.__module__ != module.__name__:
                continue
            for meth_name, meth in vars(cls).items():
                if meth_name.startswith("_") or not callable(meth):
                    continue
                assert meth.__doc__ and meth.__doc__.strip(), (
                    f"{module.__name__}.{cls_name}.{meth_name}"
                )


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _example_calls(path):
    """``(line, callable, bind args)`` for each call an example makes into repro.

    Names imported from ``repro`` resolve to their objects, attribute
    chains on them resolve by ``getattr`` (``ProcessorConfig.from_design_point``),
    and a variable assigned from an imported class's constructor resolves
    its methods through the class, a placeholder standing in for ``self``.
    Calls through ``*`` or ``**`` cannot be checked and are skipped.
    """
    tree = ast.parse(path.read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    instances = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and inspect.isclass(names.get(node.value.func.id))):
            instances[node.targets[0].id] = names[node.value.func.id]

    def resolve(func):
        if isinstance(func, ast.Name):
            return names.get(func.id), 0
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in names:
                return getattr(names[func.value.id], func.attr), 0
            cls = instances.get(func.value.id)
            if cls is not None:
                raw = inspect.getattr_static(cls, func.attr)
                return getattr(cls, func.attr), int(inspect.isfunction(raw))
        return None, 0

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        target, needs_self = resolve(node.func)
        if target is None or not callable(target):
            continue
        args = [None] * (needs_self + len(node.args))
        calls.append((node.lineno, target, args, {k.arg: None for k in node.keywords}))
    return calls


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_bind_to_the_api(path):
    # The examples are linted but never run; this catches an example
    # passing an argument the API no longer takes.
    calls = _example_calls(path)
    assert calls, f"{path.name}: no call into repro found"
    unbound = []
    for line, target, args, kwargs in calls:
        try:
            inspect.signature(target).bind_partial(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"{path.name}:{line} {getattr(target, '__qualname__', target)}: {exc}")
    assert not unbound, "\n".join(unbound)

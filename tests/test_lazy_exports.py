"""The PEP 562 helper behind the lazy package ``__init__``s.

``repro.graph`` / ``ppr`` / ``core`` / ``queueing`` / ``serving`` /
``evaluation`` / ``shard`` declare where each export lives and import
it on first access, so the serving front door can name an
``EdgeUpdate`` without loading numpy (``tests/test_import_hygiene.py``
checks that in fresh interpreters; this file checks the mechanics).
"""

import ast
import importlib
import sys
import types

import pytest

LAZY_PACKAGES = (
    "repro.core", "repro.evaluation", "repro.graph", "repro.ppr",
    "repro.queueing", "repro.serving", "repro.shard",
)


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A throwaway package ``lazypkg`` with two submodules on disk."""
    root = tmp_path / "lazypkg"
    root.mkdir()
    (root / "__init__.py").write_text(
        "from repro._lazy import lazy_exports\n"
        "__all__ = ['Thing', 'helper', 'shadow']\n"
        "__getattr__, __dir__ = lazy_exports(__name__, {\n"
        "    'things': ['Thing', 'helper'], 'shadow': ['shadow']})\n"
    )
    (root / "things.py").write_text(
        "class Thing: pass\n"
        "def helper(): return 'helped'\n"
    )
    (root / "shadow.py").write_text("def shadow(): return 'function'\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("lazypkg")
    for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
        del sys.modules[name]


def test_import_is_deferred_until_first_access(package):
    assert "lazypkg.things" not in sys.modules
    assert package.helper() == "helped"
    assert "lazypkg.things" in sys.modules
    # resolved once: the name now lives on the package itself
    assert vars(package)["helper"] is package.helper


def test_from_import_and_submodule_attribute(package):
    from lazypkg import Thing

    assert Thing is sys.modules["lazypkg.things"].Thing
    assert isinstance(package.things, types.ModuleType)


def test_dir_and_all_list_unresolved_exports(package):
    assert set(package.__all__) <= set(dir(package))
    assert "lazypkg.things" not in sys.modules


def test_typo_raises_attribute_error_not_import_error(package):
    with pytest.raises(AttributeError, match="lazypkg.*no attribute 'Thnig'"):
        package.Thnig
    with pytest.raises(ImportError):
        from lazypkg import Thnig  # noqa: F401


def test_export_named_like_its_submodule_is_the_export(package):
    """``repro.ppr.forward_push`` is a function *and* a submodule; the
    import system binds the submodule onto the package whenever someone
    imports it, and the function must survive that in either order."""
    import lazypkg.shadow  # noqa: F401  (the submodule first)

    assert package.shadow() == "function"
    from lazypkg import shadow

    assert shadow() == "function"
    assert sys.modules["lazypkg.shadow"].shadow is shadow


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_real_packages_resolve_all_they_declare(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        assert getattr(package, export) is not None
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_the_three_lists_of_a_lazy_init_agree(name):
    """Every export is written down three times — ``__all__``, the
    ``TYPE_CHECKING`` imports and the ``lazy_exports`` map — and a name
    missing from one of them fails only for type checkers or only at
    first access; read the source and hold the three equal."""
    package = importlib.import_module(name)
    tree = ast.parse(open(package.__file__, encoding="utf-8").read())
    typed, mapped = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(statement)
                typed |= {alias.asname or alias.name for alias in statement.names}
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "lazy_exports":
            for submodule, names in ast.literal_eval(node.args[1]).items():
                assert not mapped & set(names), (submodule, names)
                mapped |= set(names)
    assert typed == mapped == set(package.__all__)
    assert len(package.__all__) == len(set(package.__all__))


def test_ppr_push_functions_stay_functions():
    import repro.ppr.forward_push
    import repro.ppr.reverse_push
    from repro.ppr import forward_push, reverse_push

    assert callable(forward_push) and callable(reverse_push)
    assert repro.ppr.forward_push is forward_push

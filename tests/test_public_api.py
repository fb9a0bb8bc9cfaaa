"""Public-API integrity: every advertised name exists, is importable and is
documented in docs/API.md."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

#: Every layer: the root package, its sub-packages, and ``repro.parallel``,
#: the one layer that is a single module.
_PACKAGES = ["repro", "repro.parallel"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)

_API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"


def undocumented(names, document):
    """Non-dunder ``names`` that ``document`` never mentions word-exact."""
    return [
        name
        for name in names
        if not name.startswith("__") and not re.search(rf"\b{re.escape(name)}\b", document)
    ]


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} is advertised but missing"


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_names_unique(package_name):
    package = importlib.import_module(package_name)
    assert len(set(package.__all__)) == len(package.__all__)


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_public_classes_have_docstrings():
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


def test_undocumented_export_is_found():
    document = "Only `good` is documented here; __version__ is metadata.\n"
    assert undocumented(["good", "missing", "__version__"], document) == ["missing"]


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_names_documented(package_name):
    package = importlib.import_module(package_name)
    missing = undocumented(package.__all__, _API_DOC.read_text(encoding="utf-8"))
    assert missing == [], f"{package_name} exports {missing} but docs/API.md never mentions them"

"""The package exports what README documents, and little else, and parses
on the oldest Python that pyproject.toml declares."""

import ast
import re
from pathlib import Path

import satsemi
import satsemi.errors

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _readme_imports() -> set[str]:
    block = re.search(r"from satsemi import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    return {name.strip() for name in block.group(1).split(",") if name.strip()}


def test_exports_are_readme_names_return_types_and_errors():
    errors = {
        name
        for name, value in vars(satsemi.errors).items()
        if isinstance(value, type) and issubclass(value, satsemi.errors.SemigroupError)
    }
    extra = {"feasible_rank", "SatFSet", "AperyTable"}
    assert set(satsemi.__all__) == _readme_imports() | extra | errors
    assert len(satsemi.__all__) == len(set(satsemi.__all__))
    for name in satsemi.__all__:
        assert hasattr(satsemi, name)


def test_sources_parse_on_the_declared_python_floor():
    # the tests run on a newer Python, which accepts syntax the floor lacks
    floor = re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    )
    version = (int(floor.group(1)), int(floor.group(2)))
    assert version == (3, 10)
    sources = sorted(Path(satsemi.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)

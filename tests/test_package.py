"""The package exports what README documents, and little else."""

import re
from pathlib import Path

import satsemi
import satsemi.errors

README = Path(__file__).resolve().parent.parent / "README.md"


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

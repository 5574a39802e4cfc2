"""Every public name the package exports is reached from outside the tests."""

import re
import types
from pathlib import Path

import pytest

import sunflowers

ROOT = Path(__file__).resolve().parent.parent
PUBLIC = sorted(
    name
    for name, value in vars(sunflowers).items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)


def _reference_lines():
    package = Path(sunflowers.__file__).resolve().parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]
    return [line for path in paths for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_used_outside_its_definition(name):
    definition = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*[:=]")
    word = re.compile(rf"\b{name}\b")
    uses = [line for line in _reference_lines() if word.search(line) and not definition.search(line)]
    assert uses, f"{name} is exported but only tests reach it"

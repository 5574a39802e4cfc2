"""Every public name the package exports is reached from outside the tests,
every command-line option is named in the README, the declared runtime
dependencies are exactly the third-party modules it imports, and each
argument rule is written once."""

import argparse
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sunflowers
from sunflowers.cli import build_parser

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


def _long_options(parser):
    """The long options of the parser and of each of its subcommands, recursively."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from _long_options(subparser)
        yield from (option for option in action.option_strings if option.startswith("--"))


@pytest.mark.parametrize("option", sorted(set(_long_options(build_parser())) - {"--help"}))
def test_cli_option_is_named_in_the_readme(option):
    readme = (ROOT / "README.md").read_text()
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme), f"{option} is not named in README.md"


def test_importing_the_package_loads_no_scipy():
    code = "import sys, sunflowers, sunflowers.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.stdout.strip() == "[]", result.stderr


def test_runtime_dependencies_are_the_third_party_imports():
    import tomllib  # Python 3.11+; the rest of this module runs on 3.10 too

    imported = set()
    for path in Path(sunflowers.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names)
    declared = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared} == third_party


def test_each_argument_rule_is_written_once():
    """The count and interval refusals come from the checkers in
    ``sunflowers.families``; an entry point that wrote one out again could drift."""
    package = Path(sunflowers.__file__).resolve().parent
    source = "\n".join(path.read_text() for path in sorted(package.glob("*.py")))
    for template in ("must be >= {minimum}, got", "must be in (0,1), got", "must be in (0, 1/2], got"):
        assert source.count(template) == 1, template
    assert not re.findall(r"\b(?:p|k|trials|classes) must be >= \d, got", source)


def test_readme_quick_tour_states_what_it_computes():
    """Runs the README's "Quick tour" block one statement at a time and checks
    each bare expression against the value its comment states."""
    block = re.search(r"## Quick tour.*?```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL).group(1)
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            values[ast.get_source_segment(block, statement)] = value
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert values["spreadness(fam)"] == 2.0
    assert values["exact_hit_probability(fam, 0.5).p_hat"] == 0.5625
    estimate = values["mc_hit_probability(fam, 0.5, trials=10**5, seed=7).p_hat"]
    assert abs(estimate - 0.5625) < 0.01
    sunflower = values["trace.sunflower"]
    assert len(sunflower.petals) == 2 and sunflower.core == 0
    assert set(sunflower.petals) <= set(namespace["fam"].sets)
    assert values["sun_value(3, 2).exact"] == 7

"""README names what the package has: every module in Layout, every subcommand and flag in CLI.

Layout also names nothing the package lacks.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import oia
from oia.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

# Lower-case snake_case names, private ones included, and UPPER_CASE constants.
# Mixed-case spans such as the sum S_k or the norm subscript in ||h||_F are math.
SNAKE_CASE = re.compile(r"(?<!\w)(?:_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+|_[a-z][a-z0-9]*"
                        r"|[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)(?!\w)")


def layout_section() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]


def test_readme_layout_names_every_module():
    """Each ``src/oia/<name>.py`` entry is a module; each module but ``__init__`` has one."""
    listed = re.findall(r"^- `src/oia/(\w+\.py)`", layout_section(), flags=re.M)
    modules = [p.name for p in (ROOT / "src" / "oia").glob("*.py") if p.name != "__init__.py"]
    assert len(listed) == len(set(listed)), f"a module is listed twice: {listed}"
    assert sorted(listed) == sorted(modules)


def test_readme_cli_names_every_subcommand_and_flag():
    """README's CLI section names exactly the subcommands and ``--flags`` of ``build_parser()``.

    argparse's own ``--help`` is left out.
    """
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subcommands = set(re.findall(r"^- `([a-z-]+)` —", section, flags=re.M))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defined = {option for sub in commands.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    assert subcommands == set(commands.choices)
    assert flags == defined


def test_readme_layout_names_only_what_the_package_has():
    """Each backticked snake_case name in Layout is a module-level name of ``oia``,
    a parameter of one of its functions or a field of one of its dataclasses."""
    defined = set()
    for info in pkgutil.iter_modules(oia.__path__):
        for name, value in vars(importlib.import_module(f"oia.{info.name}")).items():
            defined.add(name)
            if inspect.isfunction(value):
                defined.update(inspect.signature(value).parameters)
            if dataclasses.is_dataclass(value):
                defined.update(field.name for field in dataclasses.fields(value))
    spans = re.findall(r"`([^`]+)`", layout_section())
    named = {name for span in spans for name in SNAKE_CASE.findall(span)}
    assert "design_secondary" in named
    assert sorted(named - defined) == []

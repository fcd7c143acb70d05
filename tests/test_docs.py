"""README names what the package has: every module in Layout, every subcommand and flag in CLI."""

import argparse
import re
from pathlib import Path

from oia.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    """Each ``src/oia/<name>.py`` entry is a module; each module but ``__init__`` has one."""
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `src/oia/(\w+\.py)`", layout, flags=re.M)
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

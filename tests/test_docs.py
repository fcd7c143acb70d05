"""README's Layout list names every module of the package, and only those."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_names_every_module():
    """Each ``src/oia/<name>.py`` entry is a module; each module but ``__init__`` has one."""
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `src/oia/(\w+\.py)`", layout, flags=re.M)
    modules = [p.name for p in (ROOT / "src" / "oia").glob("*.py") if p.name != "__init__.py"]
    assert len(listed) == len(set(listed)), f"a module is listed twice: {listed}"
    assert sorted(listed) == sorted(modules)

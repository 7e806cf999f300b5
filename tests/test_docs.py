"""README stays in step with the package: its module table and its config-key list."""

import re
from pathlib import Path

import qstkit
from qstkit import cli

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_layout_table_lists_every_module():
    layout = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `qstkit\.(\w+)`", layout, flags=re.MULTILINE)
    package = Path(qstkit.__file__).parent
    modules = {p.stem for p in package.glob("*.py") if not p.stem.startswith("__")}
    assert sorted(listed) == sorted(modules)


def test_config_key_list_is_config_keys():
    count, keys = re.search(r"these (\d+) keys,(.*?)Paths in the file", README,
                            flags=re.DOTALL).groups()
    listed = re.findall(r"`(\w+)`", keys)
    assert len(listed) == int(count) == len(set(listed))
    assert set(listed) == cli.CONFIG_KEYS

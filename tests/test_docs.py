"""README stays in step with the package: its module table, its config-key list and its
container format strings."""

import re
from pathlib import Path

import qstkit
from qstkit import cli, neuralnet, tomography

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


def test_container_format_strings_are_the_headers():
    """The dataset, checkpoint and states formats: the framing, then each one's header."""
    formats = README.split("## File formats", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(<\w+)`", formats)
    headers = (tomography._HEADER, neuralnet._CONFIG, tomography._STATES_HEADER)
    assert listed == [tomography._FRAME.format + h.format.lstrip("<") for h in headers]

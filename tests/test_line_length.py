"""No line of the package's source is longer than 100 characters.

Source line counts are how the package's size is compared from one change to
the next, so lines are kept to one width: packing more into fewer lines is not
a smaller program.
"""

from pathlib import Path

import qstkit

MAX_LINE = 100


def test_no_source_line_is_over_the_limit():
    package = Path(qstkit.__file__).parent
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []

"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def section_code(title) -> str:
    """The one Python block of the README section `title`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_example_prints_what_its_comments_say():
    code = section_code("Library")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    expected = re.findall(r"^\s*print\(.*\)\s+# (.*)$", code, re.M)
    assert expected and out.getvalue().splitlines() == expected

"""The README's Python examples run, and each `print` prints the value its comment gives."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_their_commented_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:  # in order, in one namespace, as a reader would paste them
        expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.MULTILINE)
        assert expected, block
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected

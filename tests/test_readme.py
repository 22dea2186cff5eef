"""README's Python code runs as written and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # the quick start, then the simulate_terminal example, in one namespace:
    # the second block reuses the first one's params and kernel
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    printed = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(printed):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    rmse, *terminal = printed.getvalue().splitlines()
    assert float(rmse) < 1e-5  # the quick start says "about 2e-6"
    assert len(terminal) == 5
    for line in terminal:
        T, vol = map(float, line.split())
        assert T in (0.25, 0.5, 1.0) and 0 < vol < 1, line

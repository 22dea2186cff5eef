"""README's Python code runs as written, and its key table matches the config table."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

from roughvol import cli

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


def test_readme_key_table_matches_the_config_table():
    # README's "keys each command reads" table against the `commands`
    # column of cli._CONFIG; a section's keys are listed one by one, except
    # params, whose rows depend on the model
    after = README.read_text().split("The keys each command reads", 1)[1]
    table = after.split("\n\n")[1]
    rows = re.findall(r"^\| `([\w-]+)` +\|(.*)\|$", table, flags=re.M)
    documented = {command: re.findall(r"`([^`]+)`", cell) for command, cell in rows}

    def reads(command):
        keys = []
        for name, key in cli._CONFIG.items():
            if name in ("schema_version", "seed", "out_dir"):
                continue
            if key.commands and command not in key.commands:
                continue
            if isinstance(key.table, dict):
                keys += [
                    f"{name}.{sub}"
                    for sub, row in key.table.items()
                    if not row.commands or command in row.commands
                ]
            else:
                keys.append(name)
        return keys

    assert documented == {command: reads(command) for command in cli._COMMANDS}

"""The python blocks of README.md run as written, each in a fresh
namespace, and each ``annuli ...`` line of its *Command line* section
exits 0, so the documented API and commands cannot drift from the
package."""
import re
import shlex
from pathlib import Path

import pytest

from annuli.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = _README.read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _TEXT, re.MULTILINE | re.DOTALL)


def _cli_lines():
    """argv of each ``annuli`` line in the sh block of *Command line*."""
    section = re.search(r"^## Command line\n(.*?)^## ", _TEXT, re.MULTILINE | re.DOTALL)
    block = re.search(r"^```sh\n(.*?)^```", section.group(1), re.MULTILINE | re.DOTALL)
    return [shlex.split(line)[1:] for line in block.group(1).splitlines()
            if line.startswith("annuli ")]


_CLI_LINES = _cli_lines()


def test_readme_has_python_blocks():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(_README), "exec"), {"__name__": "readme"})


def test_readme_has_every_command():
    assert sorted(argv[0] for argv in _CLI_LINES) == [
        "energy", "minimize", "nitsche", "sweep", "verify"]


@pytest.mark.parametrize("argv", _CLI_LINES, ids=[argv[0] for argv in _CLI_LINES])
def test_readme_command_exits_zero(argv, tmp_path):
    # the report goes to a file under tmp_path, named as in the README
    if "--output" in argv:
        i = argv.index("--output") + 1
        argv = argv[:i] + [str(tmp_path / argv[i])] + argv[i + 1:]
    else:
        argv = argv + ["--output", str(tmp_path / "out.txt")]
    assert main(argv) == 0

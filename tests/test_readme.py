"""The python blocks of README.md run as written, each in a fresh
namespace, so the documented API cannot drift from the package."""
import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```", _README.read_text(encoding="utf-8"),
                     re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("code", _BLOCKS, ids=[f"block{i}" for i in range(len(_BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(_README), "exec"), {"__name__": "readme"})

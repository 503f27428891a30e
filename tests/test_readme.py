"""The python examples of README.md run as written, so a removed or renamed
public name cannot leave a broken example behind."""

import re
from pathlib import Path

from ergokit import cli

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    try:
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})
    finally:
        cli._MODELS.pop("mine", None)  # the custom-model example registers it

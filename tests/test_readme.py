"""The README's Python examples run against the package as it is, and its
JSON config example is the built-in scenario's config."""

import json
import re
from pathlib import Path

from mbsplan import default_config, default_scenario, load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(capsys):
    assert BLOCKS, "README.md has no python block"
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
    assert capsys.readouterr().out  # every block prints its results


def test_readme_config_example_is_the_default_config():
    # Every config key is required, so this pins the README to the schema.
    (block,) = re.findall(r"^```json\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
    assert load_scenario(block) == default_scenario()
    assert json.loads(block) == default_config()

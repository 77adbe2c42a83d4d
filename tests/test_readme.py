"""The README's library quick start runs, and every `sk.NAME` it mentions is public."""
import re
from pathlib import Path

import selkern

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # One line per selected feature: the block selects k = 30.
    assert len(capsys.readouterr().out.splitlines()) == 30


def test_mentioned_names_are_public():
    names = set(re.findall(r"\bsk\.(\w+)", README))
    assert names
    assert sorted(names - set(selkern.__all__)) == []

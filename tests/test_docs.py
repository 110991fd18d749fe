"""The README's library example runs as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_library_block_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the block names problems/ relative to the root
    exec(compile(code, "README.md", "exec"), {})

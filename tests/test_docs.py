"""The README's library and command-line examples run as written, and
docs/problem-format.md names the header that `sweep` writes and states
how the expression language binds its operators."""

import pathlib
import re
import shlex

from hammcert.cli import main
from hammcert.expr import eval_constant, parse

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _block(heading: str, language: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs(monkeypatch):
    code = _block("## Library", "python")
    monkeypatch.chdir(ROOT)  # the block names problems/ relative to the root
    exec(compile(code, "README.md", "exec"), {})


def test_readme_command_line_block_runs(monkeypatch, tmp_path):
    script = _block("## Command line", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("hammcert ")]
    assert len(commands) == 5
    monkeypatch.chdir(ROOT)
    for argv in commands:
        if "--out" in argv:  # keep the written files out of the checkout
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv[1:]) == 0, argv


def test_documented_sweep_header_is_written(tmp_path):
    doc = (ROOT / "docs" / "problem-format.md").read_text(encoding="utf-8")
    documented = re.search(r"^    (lambda,.*)$", doc, re.M).group(1)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--problem", str(ROOT / "problems" / "example2.prob"),
                 "--lambda", "0:1:1", "--eta1", "0:1:1", "--eta2", "0:1:1",
                 "--r", "0.05", "--R", "1", "--out", str(out)]) == 0
    header = next(line for line in out.read_text().splitlines() if not line.startswith("#"))
    assert header == documented


def test_documented_precedence_examples_evaluate_as_stated():
    doc = (ROOT / "docs" / "problem-format.md").read_text(encoding="utf-8")
    sentence = doc[doc.index("Precedence from loose to tight"):].split("\n\n", 1)[0]
    examples = re.findall(r"`([^`=]+) = ([^`]+)`", sentence)
    assert examples == [("-2^2", "-4"), ("2^3^2", "512")]
    for src, value in examples:
        assert eval_constant(parse(src, "constant")) == float(value)

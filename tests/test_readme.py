"""The README's example config and library sketch run as documented."""

import contextlib
import io
import json
import re
from pathlib import Path

from graphtower.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language):
    """The first fenced code block of the language in the README."""
    return re.search(rf"```{language}\n(.*?)```", README, re.S).group(1)


def test_readme_example_config(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(_block("json"))
    assert main(["tower", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["e"] == [0, 1, 2, 3]
    assert main(["mhg-check", "--config", str(path)]) == 0


def test_readme_library_sketch():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("python"), {})
    printed = out.getvalue()
    assert "mu1=2, lambda1=2," in printed
    assert "verdict='HOLDS'" in printed
    assert printed.endswith("True 0\n")

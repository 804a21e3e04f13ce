"""The README's library example, run verbatim on the bundled demo market."""

import re
from pathlib import Path

from manymatch.markets import BUNDLED

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "market.txt").write_text(BUNDLED["manipulation-demo"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert capsys.readouterr().out == "(6, 1, 8) [(0, 1), (0, 2), (1, 0), (2, 3)]\n"
    assert namespace["report"].applicable and namespace["report"].all_hold

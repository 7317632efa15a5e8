"""The README's library example runs, and the names it lists exist."""

import re
from pathlib import Path

import sncalc

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _library_section() -> str:
    return README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_listed_simulator_names_exist():
    listed = re.search(r"The simulator names \((.*?)\)", _library_section(), re.S).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert names
    for name in names:
        assert callable(getattr(sncalc, name))

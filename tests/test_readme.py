"""README's quick-start block runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"## Library quick start\s+```python\n(.*?)```", text, re.S)
    assert match, "README has no Python quick-start block"
    return match.group(1)


def test_quick_start_prints_its_comments(capsys):
    code = _quick_start()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected

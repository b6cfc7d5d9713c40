"""Every module under src/ and tests/ parses as Python 3.10, the oldest version pyproject.toml allows.

The check is best-effort and covers syntax only: `ast.parse(source,
feature_version=(3, 10))` rejects most newer grammar, such as `except*`,
but not every form, and it says nothing of a stdlib API newer than 3.10
(`tomllib`, `datetime.UTC`, ...). It does not run the modules under 3.10.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_pyproject_declares_the_version_checked():
    # A regex, not tomllib: tomllib is new in 3.11.
    declared = re.findall(r'^requires-python = "(.*)"$', (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert declared == [">=" + ".".join(map(str, OLDEST))]


def test_every_module_parses_as_the_oldest_python():
    failures = {}
    for path in sorted(p for directory in ("src", "tests") for p in (ROOT / directory).rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
        except SyntaxError as error:
            failures[str(path.relative_to(ROOT))] = f"line {error.lineno}: {error.msg}"
    assert failures == {}


def test_the_check_sees_newer_syntax():
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)

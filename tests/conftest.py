import os
import tempfile
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def golden_input() -> Path:
    return DATA_DIR / "golden_input"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return DATA_DIR / "golden"


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


@pytest.fixture
def nothing_left_behind(tmp_path, monkeypatch):
    """A check that the test has left no file in the temporary directory and no open descriptor.

    The temporary directory (tempfile.tempdir) is an empty one of the
    test's own; descriptors are counted where /proc/self/fd exists.
    """
    tempdir = tmp_path / "tempdir"
    tempdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tempdir))
    before = _open_descriptors()

    def check() -> None:
        assert list(tempdir.iterdir()) == []
        assert _open_descriptors() <= before

    return check

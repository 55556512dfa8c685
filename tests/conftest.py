import json
import pathlib

import pytest

from isosym import construct, kernels

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "isosym" / "schemas"


@pytest.fixture(params=[kernels.active], ids=lambda mod: mod.NAME)
def kernel(request):
    """The kernel module the defects are evaluated with; tags the test id."""
    return request.param


class _NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"construct allocated through np.{name}")


@pytest.fixture
def no_construct_arrays(monkeypatch):
    """From here on, ``construct`` fails a test if it builds any array."""
    def refuse(*args):
        raise AssertionError("construct allocated through kron")

    monkeypatch.setattr(construct, "np", _NoArrays())
    monkeypatch.setattr(construct, "kron", refuse)


@pytest.fixture(scope="session")
def schemas():
    out = {}
    for path in SCHEMA_DIR.glob("*.schema.json"):
        out[path.name.split(".")[0]] = json.loads(path.read_text())
    return out

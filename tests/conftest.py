import json
import pathlib

import pytest

from isosym import kernels

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "isosym" / "schemas"


@pytest.fixture(params=[kernels.active], ids=lambda mod: mod.NAME)
def kernel(request):
    """The kernel module the defects are evaluated with; tags the test id."""
    return request.param


@pytest.fixture(scope="session")
def schemas():
    out = {}
    for path in SCHEMA_DIR.glob("*.schema.json"):
        out[path.name.split(".")[0]] = json.loads(path.read_text())
    return out

import importlib
import pkgutil

import pytest
from hypothesis import settings

import assortplan
from assortplan.catalog import Catalog, demo_catalog, serialize_catalog

# Hypothesis also draws literals it collects from every loaded local module,
# and rescans whenever sys.modules grows; the CLI loads some engine modules
# only on first use.  Importing every submodule here, before any test runs,
# fixes that pool, so a derandomized property test draws the same examples
# whichever tests ran before it.
for submodule in pkgutil.iter_modules(assortplan.__path__):
    importlib.import_module(f"assortplan.{submodule.name}")

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no per-example deadline, since machine speed varies.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def demo() -> Catalog:
    return demo_catalog()


@pytest.fixture
def demo_path(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(serialize_catalog(demo_catalog()), encoding="utf-8")
    return path


@pytest.fixture
def write_catalog(tmp_path):
    def _write(catalog: Catalog, name: str = "catalog.json"):
        path = tmp_path / name
        path.write_text(serialize_catalog(catalog), encoding="utf-8")
        return path

    return _write

import os
from pathlib import Path

import pytest

from tokenomics import econ_core as ec

from helpers import CONFIG_DIR

# pytest's pythonpath setting puts src/ on this process's sys.path only; the
# CLI tests start `python -m tokenomics.cli` in child processes, which read
# PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def det_cfg() -> ec.EconomyConfig:
    return ec.load_config(CONFIG_DIR / "deterministic.json")


@pytest.fixture(scope="session")
def iid_cfg() -> ec.EconomyConfig:
    return ec.load_config(CONFIG_DIR / "iid.json")


@pytest.fixture(scope="session")
def common_cfg() -> ec.EconomyConfig:
    return ec.load_config(CONFIG_DIR / "common.json")


@pytest.fixture(scope="session")
def het_cfg() -> ec.EconomyConfig:
    return ec.load_config(CONFIG_DIR / "heterogeneous.json")

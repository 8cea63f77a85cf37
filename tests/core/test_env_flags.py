"""The boolean ``REPRO_*`` knobs: ``0`` or ``1``, anything else raises."""

from __future__ import annotations

import pytest

from repro.core.seedmajor import fast_seeds_enabled
from repro.errors import ConfigError
from repro.fleet.trial import fast_fleet_enabled, psi_enabled, spans_enabled
from repro.sim.engine import Engine
from repro.workloads.datasets import shm_enabled
from tests.conftest import make_small_system

#: Each knob with its default and a read through the code that uses it.
KNOBS = [
    ("REPRO_FAST_ACCESS", True, lambda: make_small_system(start=False)[1].fast_access),
    ("REPRO_FAST_RECLAIM", True, lambda: make_small_system(start=False)[1].fast_reclaim),
    ("REPRO_FAST_ENGINE", True, lambda: Engine()._fast),
    ("REPRO_FAST_SEEDS", True, fast_seeds_enabled),
    ("REPRO_FAST_FLEET", True, fast_fleet_enabled),
    ("REPRO_PSI", False, psi_enabled),
    ("REPRO_SPANS", False, spans_enabled),
    ("REPRO_DATASET_SHM", True, shm_enabled),
]


@pytest.mark.parametrize(
    "name, default, read", KNOBS, ids=[knob[0] for knob in KNOBS]
)
def test_boolean_knob(monkeypatch, name, default, read):
    monkeypatch.delenv(name, raising=False)
    assert read() is default
    monkeypatch.setenv(name, "0")
    assert read() is False
    monkeypatch.setenv(name, " 1\n")
    assert read() is True
    for bad in ("false", "true", "", "2", "off"):
        monkeypatch.setenv(name, bad)
        with pytest.raises(ConfigError, match=name):
            read()

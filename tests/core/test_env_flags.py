"""The ``REPRO_*`` knobs fail loudly: the boolean ones take ``0`` or
``1``, the integer and enumerated ones their documented values, and
anything else raises a :class:`ConfigError` naming the variable."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.seedmajor import fast_seeds_enabled
from repro.core.tracecache import DEFAULT_ROOT, cache_cap_bytes, cache_root
from repro.errors import ConfigError
from repro.fleet.trial import (
    fast_fleet_enabled,
    psi_enabled,
    spans_enabled,
    spans_sample_env,
)
from repro.sim.engine import Engine
from repro.workloads.datasets import memo_mode, shm_enabled
from tests.conftest import make_small_system

#: Each knob with its default and a read through the code that uses it.
KNOBS = [
    ("REPRO_FAST_ACCESS", True, lambda: make_small_system(start=False)[1].fast_access),
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


MIB = 1 << 20

#: Each valued knob with its reader, its default, values that parse (raw
#: -> read) and values that must raise.
VALUED_KNOBS = [
    (
        "REPRO_SPANS_SAMPLE",
        spans_sample_env,
        1,
        [("3", 3), (" 1\n", 1)],
        ["abc", "0", "-2", "1.5", ""],
    ),
    (
        "REPRO_TRACE_CACHE_CAP_MB",
        cache_cap_bytes,
        512 * MIB,
        [("1", MIB), ("0", 0), ("-1", -MIB), (" 64 ", 64 * MIB)],
        ["1g", "abc", "2.5", ""],
    ),
    (
        "REPRO_DATASET_MEMO",
        memo_mode,
        "full",
        [("1", "full"), ("0", "legacy"), ("off", "legacy"), (" legacy ", "legacy")],
        ["legacyy", "false", "full", "2", ""],
    ),
    (
        "REPRO_TRACE_CACHE",
        cache_root,
        Path(DEFAULT_ROOT).expanduser(),
        [("0", None), ("OFF", None), (" none ", None), ("Disabled", None),
         ("/tmp/traces", Path("/tmp/traces")), ("", Path(DEFAULT_ROOT).expanduser())],
        ["1", "true", "on", "yes", "false", "no", "TRUE", " On ", "Yes"],
    ),
]


@pytest.mark.parametrize(
    "name, read, default, good, bad",
    VALUED_KNOBS,
    ids=[knob[0] for knob in VALUED_KNOBS],
)
def test_valued_knob(monkeypatch, name, read, default, good, bad):
    monkeypatch.delenv(name, raising=False)
    assert read() == default
    for raw, expected in good:
        monkeypatch.setenv(name, raw)
        assert read() == expected
    for raw in bad:
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            read()

"""The observer bus: attach/detach, multicast, disabled-state contract."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.trace import tracepoints
from repro.trace.tracepoints import EVENT_IDS, EVENT_NAMES, EVENTS, TRACEPOINTS


def test_all_slots_none_while_disabled():
    for name in EVENTS:
        assert getattr(tracepoints, name) is None


def test_tracepoints_lead_the_event_table():
    # The recorded tracepoints are events too, first and in id order.
    assert list(EVENTS)[: len(TRACEPOINTS)] == list(TRACEPOINTS)
    for name, labels in TRACEPOINTS.items():
        recorded = [label for label in labels if label != "unused"]
        if name not in ("mm_vmscan_scan", "mm_vmscan_evict"):  # per block
            assert list(EVENTS[name][: len(recorded)]) == recorded, name


def test_event_ids_are_stable_and_nonzero():
    assert sorted(EVENT_IDS.values()) == list(range(1, len(TRACEPOINTS) + 1))
    for name, ev_id in EVENT_IDS.items():
        assert EVENT_NAMES[ev_id] == name


def test_attach_enables_and_detach_disables():
    calls = []
    probe = lambda a=0, b=0, c=0: calls.append((a, b, c))  # noqa: E731
    tracepoints.attach("mm_vmscan_evict", probe)
    assert tracepoints.mm_vmscan_evict is probe
    tracepoints.mm_vmscan_evict(1, 2, 3)
    assert calls == [(1, 2, 3)]
    tracepoints.detach("mm_vmscan_evict", probe)
    assert tracepoints.mm_vmscan_evict is None


def test_multicast_fans_out_in_attach_order():
    order = []
    first = lambda a=0, b=0, c=0: order.append(("first", a))  # noqa: E731
    second = lambda a=0, b=0, c=0: order.append(("second", a))  # noqa: E731
    tracepoints.attach("swap_io_done", first)
    tracepoints.attach("swap_io_done", second)
    tracepoints.swap_io_done(9)
    assert order == [("first", 9), ("second", 9)]
    # Detaching one leaves the other attached (and drops the shim).
    tracepoints.detach("swap_io_done", first)
    assert tracepoints.swap_io_done is second
    tracepoints.detach("swap_io_done", second)
    assert tracepoints.swap_io_done is None


def test_unknown_tracepoint_rejected():
    with pytest.raises(ConfigError):
        tracepoints.attach("mm_no_such_event", lambda: None)
    with pytest.raises(ConfigError):
        tracepoints.detach("mm_no_such_event", lambda: None)


def test_detach_unattached_probe_is_noop():
    tracepoints.detach("mm_fault_major", lambda: None)
    assert tracepoints.mm_fault_major is None


def test_detach_all_and_active():
    assert tracepoints.active() == ()
    probe = lambda a=0, b=0, c=0: None  # noqa: E731
    tracepoints.attach("mglru_age", probe)
    tracepoints.attach("mm_fault_minor", probe)
    assert set(tracepoints.active()) == {"mglru_age", "mm_fault_minor"}
    tracepoints.detach_all()
    assert tracepoints.active() == ()
    assert tracepoints.mglru_age is None
    assert tracepoints.mm_fault_minor is None


def test_payload_labels_are_three_tuples():
    for name, labels in TRACEPOINTS.items():
        assert len(labels) == 3, name
        assert all(isinstance(label, str) for label in labels)

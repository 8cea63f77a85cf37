"""PsiTracker unit semantics, driven without a full simulator.

The tracker only reads ``engine._now`` and ``engine.current_thread``,
so these tests call its observer-bus probes (``wait_begin``/``wait_end``
for memstall waits, ``sched_runnable`` for CPU jobs) with bare stubs at
hand-picked instants and pin the accounting — including the EWMA math against literal values of the
kernel formula ``avg = avg*d + pct*(1-d), d = exp(-period/window)``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro._units import MS
from repro.errors import ConfigError
from repro.psi import (
    PsiConfig,
    PsiGroup,
    PsiTracker,
    interval_overlap_ns,
    merge_intervals,
)


class _Thread:
    """A thread identity: the tracker keeps stall depths by thread."""


class _Engine:
    def __init__(self) -> None:
        self._now = 0
        self.current_thread = None


def _cg(index: int = 0, usage: int = 0):
    return SimpleNamespace(name=f"t{index}", index=index, usage_pages=usage)


def make_tracker(config: PsiConfig = None):
    engine = _Engine()
    return PsiTracker(engine, config), engine


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"sample_interval_ns": 0},
        {"max_samples": 0},
        {"avg_windows_s": (10.0, 60.0)},
        {"avg_windows_s": (10.0, -1.0, 300.0)},
        {"trigger_some_us": -1},
        {"trigger_full_us": -5},
    ],
)
def test_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ConfigError):
        PsiConfig(**kwargs)


def test_config_defaults_mirror_kernel_windows():
    config = PsiConfig()
    assert config.avg_windows_s == (10.0, 60.0, 300.0)
    assert config.trigger_some_us is None and config.trigger_full_us is None


# ----------------------------------------------------------------------
# EWMA math pinned against the kernel formula, hand-computed
# ----------------------------------------------------------------------

def test_decays_are_closed_form_exponentials():
    tracker, _ = make_tracker(PsiConfig(sample_interval_ns=10 * MS))
    decays = tracker.decays()
    assert decays == pytest.approx(
        (0.999000499833375, 0.9998333472214507, 0.999966667222216),
        rel=0,
        abs=1e-15,
    )
    # d = exp(-period/window) exactly.
    for d, window in zip(decays, (10.0, 60.0, 300.0)):
        assert d == math.exp(-0.01 / window)


def test_ewma_steps_match_hand_computed_values():
    """Three sampler ticks at 10 ms, stall pattern 3 ms / 0 / 10 ms.

    Expected values are literal evaluations of the kernel recurrence
    (computed by hand, not by re-running the implementation's code):

        tick1: avg = 30 * (1 - d)
        tick2: avg *= d
        tick3: avg = avg * d + 100 * (1 - d)
    """
    period = 10 * MS
    tracker, _ = make_tracker(PsiConfig(sample_interval_ns=period))
    decays = tracker.decays()
    group = PsiGroup("g", 0)

    group.some_total_ns = 3 * MS  # 3 ms of the 10 ms period stalled
    d_some, d_full = group.update_averages(period, decays)
    assert (d_some, d_full) == (3 * MS, 0)
    assert group.avg_some == pytest.approx(
        [0.029985004998749343, 0.004999583356479764, 0.0009999833335183617],
        rel=0,
        abs=1e-15,
    )
    assert group.avg_full == [0.0, 0.0, 0.0]

    # Idle period: pure decay.
    group.update_averages(period, decays)
    assert group.avg_some == pytest.approx(
        [0.02995503498125684, 0.0049987501620218176, 0.0009999500012961178],
        rel=0,
        abs=1e-15,
    )

    # Fully stalled period (pct = 100), full too this time.
    group.some_total_ns += period
    group.full_total_ns += period
    d_some, d_full = group.update_averages(period, decays)
    assert (d_some, d_full) == (period, period)
    assert group.avg_some == pytest.approx(
        [0.12987511158129963, 0.02166319496135059, 0.004333194448579468],
        rel=0,
        abs=1e-15,
    )
    # full saw only this one stalled period: 100 * (1 - d).
    assert group.avg_full == pytest.approx(
        [0.09995001666249781, 0.016665277854932548, 0.003333277778394539],
        rel=0,
        abs=1e-15,
    )


def test_avg10_converges_to_occupancy_under_steady_pressure():
    """Constant 40% stall occupancy drives avg10 toward 40."""
    period = 10 * MS
    tracker, _ = make_tracker(PsiConfig(sample_interval_ns=period))
    decays = tracker.decays()
    group = PsiGroup("g", 0)
    for _ in range(10_000):  # 100 s >> the 10 s window
        group.some_total_ns += 4 * MS
        group.update_averages(period, decays)
    assert group.avg_some[0] == pytest.approx(40.0, rel=1e-4)
    assert 0.0 <= group.avg_some[0] <= 100.0


# ----------------------------------------------------------------------
# some / full occupancy semantics
# ----------------------------------------------------------------------

def test_some_accrues_full_only_without_productive_tasks():
    """Kernel NR_MEMSTALL_RUNNING rule, replayed at fixed instants.

    t=0..1ms  productive task running, nobody stalled   -> nothing
    t=1..2ms  t2 stalled, productive task still running -> some only
    t=2..4ms  t2 stalled, productive task finished      -> some + full
    t=4..5ms  nobody stalled                            -> nothing
    """
    tracker, engine = make_tracker()
    t1, t2 = _Thread(), _Thread()

    engine.current_thread = t1
    tracker.sched_runnable(1, t1, None)  # productive work starts at t=0

    engine._now = 1 * MS
    engine.current_thread = t2
    tracker.wait_begin("swap_read", None, True, None)
    assert tracker.system.nr_stalled == 1

    engine._now = 2 * MS
    tracker.sched_runnable(0, None, [t1])  # productive job drains

    engine._now = 4 * MS
    tracker.wait_end("swap_read", None, True)
    assert tracker.system.nr_stalled == 0

    engine._now = 5 * MS
    tracker.finalize(engine._now)
    assert tracker.system.some_total_ns == 3 * MS
    assert tracker.system.full_total_ns == 2 * MS


def test_memstalled_threads_cpu_time_is_unproductive():
    """Reclaim CPU burnt by a stalled thread must not avert *full*."""
    tracker, engine = make_tracker()
    t1 = _Thread()
    engine.current_thread = t1
    tracker.wait_begin("swap_read", None, True, None)
    # The stalled thread runs reclaim on-CPU: still fully stalled.
    tracker.sched_runnable(1, t1, None)
    engine._now = 2 * MS
    tracker.sched_runnable(0, None, [t1])
    tracker.wait_end("swap_read", None, True)
    assert tracker.system.some_total_ns == 2 * MS
    assert tracker.system.full_total_ns == 2 * MS


def test_overlapping_stalls_count_wall_time_once():
    """Two threads stalled concurrently: some is occupancy, not a sum."""
    tracker, engine = make_tracker()
    t1, t2 = _Thread(), _Thread()
    engine.current_thread = t1
    tracker.wait_begin("swap_read", None, True, None)
    engine._now = 1 * MS
    engine.current_thread = t2
    tracker.wait_begin("swap_read", None, True, None)
    engine._now = 3 * MS
    tracker.wait_end("swap_read", None, True)
    engine._now = 4 * MS
    engine.current_thread = t1
    tracker.wait_end("swap_read", None, True)
    tracker.finalize(engine._now)
    assert tracker.system.some_total_ns == 4 * MS
    assert tracker.system.full_total_ns == 4 * MS  # nothing productive


def test_per_cgroup_stall_is_scoped_to_the_group():
    tracker, engine = make_tracker()
    cg_a, cg_b = _cg(0), _cg(1)
    group_a = tracker.add_group(cg_a)
    group_b = tracker.add_group(cg_b)
    thread = _Thread()
    engine.current_thread = thread
    tracker.wait_begin("swap_read", cg_a, True, None)
    engine._now = 2 * MS
    tracker.wait_end("swap_read", cg_a, True)
    assert group_a.some_total_ns == 2 * MS
    assert group_b.some_total_ns == 0
    assert tracker.system.some_total_ns == 2 * MS


def test_add_group_is_idempotent_per_cgroup():
    tracker, _ = make_tracker()
    cg = _cg(3)
    assert tracker.add_group(cg) is tracker.add_group(cg)
    assert tracker.group_for(cg).gid == 4  # 1 + cg.index
    assert tracker.group_for(_cg(9)) is None


# ----------------------------------------------------------------------
# stall interval recording (the attribution raw material)
# ----------------------------------------------------------------------

def test_stall_intervals_coalesce_contiguous_segments():
    tracker, engine = make_tracker()
    cg = _cg()
    group = tracker.add_group(cg, record_intervals=True)
    thread = _Thread()
    engine.current_thread = thread

    engine._now = 10
    tracker.wait_begin("swap_read", cg, True, None)
    engine._now = 20
    tracker.wait_end("swap_read", cg, True)
    # Second segment starts exactly where the first ended: one interval.
    tracker.wait_begin("swap_read", cg, True, None)
    engine._now = 30
    tracker.wait_end("swap_read", cg, True)
    assert group.stall_intervals == [[10, 30]]

    engine._now = 50
    tracker.wait_begin("swap_read", cg, True, None)
    engine._now = 60
    tracker.wait_end("swap_read", cg, True)
    assert group.stall_intervals == [[10, 30], [50, 60]]

    # Zero-duration stalls leave no interval behind.
    tracker.wait_begin("swap_read", cg, True, None)
    tracker.wait_end("swap_read", cg, True)
    assert group.stall_intervals == [[10, 30], [50, 60]]


def test_merge_intervals_and_overlap():
    assert merge_intervals([[5, 9], [0, 3], [3, 6]]) == [[0, 9]]
    assert merge_intervals([]) == []
    a = [[0, 10], [20, 30]]
    b = [[5, 25]]
    assert interval_overlap_ns(a, b) == 10
    assert interval_overlap_ns(a, []) == 0
    assert interval_overlap_ns(a, a) == 20
    # Touching endpoints overlap nothing.
    assert interval_overlap_ns([[0, 10]], [[10, 20]]) == 0


# ----------------------------------------------------------------------
# workingset refault / activate / restore
# ----------------------------------------------------------------------

def _page(vpn: int, cg):
    return SimpleNamespace(vpn=vpn, memcg=cg)


def test_workingset_refault_within_resident_size_activates():
    tracker, _ = make_tracker()
    cg = _cg(usage=10)
    group = tracker.add_group(cg)
    tracker.note_eviction(_page(1, cg))
    tracker.note_eviction(_page(2, cg))
    # distance = age_now(2) - age_at_eviction(1) = 1 <= 10 resident.
    tracker.note_refault(1)
    assert (group.ws_refault, group.ws_activate, group.ws_restore) == (
        1, 1, 0,
    )
    # The system group mirrors every tenant-group bump.
    sg = tracker.system
    assert (sg.ws_refault, sg.ws_activate, sg.ws_restore) == (1, 1, 0)


def test_workingset_restore_needs_the_flag():
    """Activation sets the PG_workingset analog; the *next*
    eviction+refault of the same page counts a restore."""
    tracker, _ = make_tracker()
    cg = _cg(usage=10)
    group = tracker.add_group(cg)
    page = _page(7, cg)
    tracker.note_eviction(page)
    tracker.note_refault(page.vpn)  # activate, flag set
    tracker.note_eviction(page)  # flagged shadow
    tracker.note_refault(page.vpn)
    assert (group.ws_refault, group.ws_activate, group.ws_restore) == (
        2, 2, 1,
    )


def test_workingset_distant_refault_does_not_activate():
    tracker, _ = make_tracker()
    cg = _cg(usage=0)  # zero resident pages: every distance is "far"
    group = tracker.add_group(cg)
    tracker.note_eviction(_page(1, cg))
    tracker.note_eviction(_page(2, cg))
    tracker.note_refault(1)
    assert (group.ws_refault, group.ws_activate, group.ws_restore) == (
        1, 0, 0,
    )


def test_workingset_refault_without_shadow_is_ignored():
    tracker, _ = make_tracker()
    cg = _cg()
    group = tracker.add_group(cg)
    tracker.note_refault(42)
    assert group.ws_refault == 0 and tracker.system.ws_refault == 0


# ----------------------------------------------------------------------
# sampling + snapshots
# ----------------------------------------------------------------------

def test_sample_series_and_snapshot_shape():
    period = 10 * MS
    tracker, engine = make_tracker(PsiConfig(sample_interval_ns=period))
    decays = tracker.decays()
    thread = _Thread()
    engine.current_thread = thread
    tracker.wait_begin("swap_read", None, True, None)
    engine._now = period
    tracker.sample(engine._now, period, decays)
    tracker.wait_end("swap_read", None, True)
    assert len(tracker.samples) == 1
    t, some_ns, full_ns, avg10, favg10 = tracker.samples[0]
    assert (t, some_ns, full_ns) == (period, period, period)
    assert avg10 == pytest.approx(100.0 * (1 - decays[0]))
    snap = tracker.system.snapshot()
    assert snap["some_total_us"] == period // 1000
    assert set(snap) == {
        "some_total_us", "full_total_us",
        "some_avg10", "some_avg60", "some_avg300",
        "full_avg10", "full_avg60", "full_avg300",
        "workingset_refault", "workingset_activate",
        "workingset_restore",
    }


def test_steal_matrix_accumulates_and_filters_self():
    tracker, _ = make_tracker()
    tracker.note_steal(0, 1, 5)
    tracker.note_steal(0, 1, 3)
    tracker.note_steal(2, 1, 7)
    tracker.note_steal(1, 1, 9)  # self-reclaim: not an instigator
    assert tracker.steals[(0, 1)] == 8
    assert tracker.instigators_for(1) == {0: 8, 2: 7}
    assert tracker.instigators_for(0) == {}

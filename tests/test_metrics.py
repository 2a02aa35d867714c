"""OSPA / OSPA(2) metrics and communication accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackfuse.errors import InputError
from trackfuse.metrics import (
    CommLedger,
    OspaParams,
    TrackHistory,
    comm_bytes,
    ospa,
    ospa2,
)

PARAMS = OspaParams(c=50.0, p=2.0, w=10)


@pytest.mark.parametrize("field, bad", [
    ("c", 0.0), ("c", np.nan), ("c", np.inf), ("p", 0.5), ("p", np.nan), ("p", np.inf),
    ("w", 0), ("w", 2.5), ("w", True)])
def test_params_reject_out_of_range_values(field, bad):
    # a fractional w raised a TypeError in ospa2 and a NaN c a ValueError;
    # a NaN p or an infinite c gave NaN distances
    with pytest.raises(InputError):
        OspaParams(**{field: bad})
    assert OspaParams(c=1e-3, p=1.0, w=np.int64(1)).w == 1


class TestOspa:
    def test_identical_sets(self):
        pts = [np.array([1.0, 2.0]), np.array([-3.0, 4.0])]
        assert ospa(pts, pts, PARAMS) == 0.0

    def test_pure_cardinality_penalty(self):
        assert ospa([np.array([0.0, 0.0])], [], PARAMS) == 50.0
        assert ospa([], [], PARAMS) == 0.0

    def test_single_pair_distance(self):
        assert ospa([np.array([0.0, 0.0])], [np.array([3.0, 4.0])],
                    PARAMS) == pytest.approx(5.0, rel=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-100, 100, (int(rng.integers(0, 6)), 2))
            y = rng.uniform(-100, 100, (int(rng.integers(0, 6)), 2))
            assert ospa(x, y, PARAMS) == ospa(y, x, PARAMS)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        worst = -np.inf
        for _ in range(500):
            x, y, z = (rng.uniform(-100, 100, (int(rng.integers(0, 6)), 2))
                       for _ in range(3))
            worst = max(worst, ospa(x, z, PARAMS)
                        - (ospa(x, y, PARAMS) + ospa(y, z, PARAMS)))
        assert worst <= 1e-9

    def test_bounded_by_cutoff(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-1e4, 1e4, (int(rng.integers(1, 5)), 2))
            y = rng.uniform(-1e4, 1e4, (int(rng.integers(1, 5)), 2))
            assert 0.0 <= ospa(x, y, PARAMS) <= 50.0


class TestOspa2:
    def test_identical_labeled_sets(self):
        tracks = {"a": {s: np.array([float(s), 0.0]) for s in range(1, 11)}}
        assert ospa2(tracks, tracks, 10, PARAMS) == 0.0

    def test_one_track_vs_empty(self):
        tracks = {"a": {s: np.zeros(2) for s in range(1, 11)}}
        assert ospa2(tracks, {}, 10, PARAMS) == 50.0

    def test_constant_offset_window_average(self):
        # two 3-scan tracks offset by (3, 4): base distance 5, OSPA2 = 5
        tx = {"a": {s: np.array([0.0, 0.0]) for s in (8, 9, 10)}}
        ty = {"b": {s: np.array([3.0, 4.0]) for s in (8, 9, 10)}}
        assert ospa2(tx, ty, 10, PARAMS) == pytest.approx(5.0, rel=1e-12)

    def test_half_existing_scans_cost_cutoff(self):
        tx = {"a": {s: np.zeros(2) for s in (9, 10)}}
        ty = {"b": {10: np.zeros(2)}}
        # scans 9 (one-sided, c) and 10 (match, 0): base = c/2
        assert ospa2(tx, ty, 10, PARAMS) == pytest.approx(25.0, rel=1e-12)


def flickering_tracks(rng, n_tracks, n_scans, spread):
    """label -> presence over scans 1..n_scans, in runs that start, stop and
    start again, with random-walk positions (some within the cutoff of
    each other, some beyond it)."""
    tracks = {}
    for label in range(n_tracks):
        present = np.repeat(rng.random(n_scans // 2 + 1) < 0.6, 2)[:n_scans]
        pos = rng.uniform(-spread, spread, 2)
        tracks[label] = {}
        for s in range(1, n_scans + 1):
            pos = pos + rng.normal(0.0, 5.0, 2)
            if present[s - 1]:
                tracks[label][s] = pos
    return tracks


class TestOspa2Cache:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_est=st.integers(0, 6),
           n_truth=st.integers(0, 5), w=st.integers(1, 8),
           c=st.sampled_from([5.0, 50.0, 1e4]), spread=st.sampled_from([10.0, 200.0]))
    def test_cached_equals_uncached_exactly(self, seed, n_est, n_truth, w, c, spread):
        rng = np.random.default_rng(seed)
        n_scans = 24
        est = flickering_tracks(rng, n_est, n_scans, spread)
        truth = flickering_tracks(rng, n_truth, n_scans, spread)
        # a track that appears, vanishes and comes back inside every window
        est["gap"] = {s: np.array([float(s), 1.0]) for s in range(1, n_scans + 1)
                      if s % 3 != 0}
        params = OspaParams(c=c, w=w)
        history, cache, swapped = {}, {}, {}
        for scan in range(1, n_scans + 1):
            # grown scan by scan, as the fusion loop records its estimates
            for label, track in est.items():
                if scan in track:
                    history.setdefault(label, {})[scan] = track[scan]
            cached = ospa2(history, truth, scan, params, cache)
            assert cached == ospa2(history, truth, scan, params)
            assert (ospa2(truth, history, scan, params, swapped)
                    == ospa2(truth, history, scan, params))

    def test_each_term_is_computed_once(self, monkeypatch):
        import trackfuse.metrics as metrics_mod
        calls = []
        norm = np.linalg.norm

        def counting_norm(x):
            calls.append(1)
            return norm(x)

        monkeypatch.setattr(metrics_mod.np.linalg, "norm", counting_norm)
        tx = {"a": {s: np.zeros(2) for s in range(1, 21)}}
        ty = {"b": {s: np.ones(2) for s in range(1, 21)}}
        cache = {}
        for scan in range(1, 21):
            ospa2(tx, ty, scan, PARAMS, cache)
        assert len(calls) == 20
        # only the scans of the last window are kept
        assert sorted(cache) == list(range(11, 21))


class TestTrackHistory:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), w=st.integers(1, 8),
           c=st.sampled_from([5.0, 50.0]), cached=st.booleans())
    def test_indexed_window_equals_full_scan_exactly(self, seed, w, c, cached):
        # many short-lived labels, most expired long before the last scans,
        # some coming back; truth tracks flicker
        rng = np.random.default_rng(seed)
        n_scans = 40
        est = {}
        for label in range(60):
            first = int(rng.integers(1, n_scans + 1))
            scans = range(first, min(n_scans, first + int(rng.integers(1, 4))) + 1)
            est[("tr", label)] = {s: rng.uniform(-100, 100, 2) for s in scans}
        est["back"] = {s: rng.uniform(-100, 100, 2) for s in (2, 3, 30, 31)}
        truth = flickering_tracks(rng, 4, n_scans, 100.0)
        params = OspaParams(c=c, w=w)
        plain, indexed, truth_indexed = {}, TrackHistory(), TrackHistory()
        for label, track in truth.items():
            for s, pos in track.items():
                truth_indexed.record(label, s, pos)
        cache_plain, cache_indexed = ({}, {}) if cached else (None, None)
        for scan in range(1, n_scans + 1):
            # recorded scan by scan, in label order, as the fusion loop does
            for label, track in est.items():
                if scan in track:
                    plain.setdefault(label, {})[scan] = track[scan]
                    indexed.record(label, scan, track[scan])
            assert dict(indexed.present(range(1, scan + 1))) == plain
            assert (ospa2(indexed, truth_indexed, scan, params, cache_indexed)
                    == ospa2(plain, truth, scan, params, cache_plain))
            assert (ospa2(truth_indexed, indexed, scan, params)
                    == ospa2(truth, plain, scan, params))
            # the index itself
            scans = range(scan - w + 1, scan + 1)
            assert indexed.present(scans) == [
                (k, t) for k, t in plain.items() if any(s in t for s in scans)]

    def test_present_keeps_first_recorded_order(self):
        hist = TrackHistory()
        hist.record("b", 1, np.zeros(2))
        hist.record("a", 1, np.zeros(2))
        hist.record("c", 5, np.ones(2))
        hist.record("a", 6, np.ones(2))
        hist.record("b", 6, np.ones(2))
        assert [k for k, _ in hist.present(range(1, 7))] == ["b", "a", "c"]
        assert [k for k, _ in hist.present(range(6, 7))] == ["b", "a"]
        assert hist.present(range(2, 5)) == []


class TestCommBytes:
    def test_reference_byte_values(self):
        assert comm_bytes("raw", 2, 4, 100) == 10400
        assert comm_bytes("info_filter", 2, 4, 100) == 22400
        assert comm_bytes("type1", 2, 4, 100) == 8000
        assert comm_bytes("type2", 2, 4, 100) == 4000

    def test_kilobyte_rounding(self):
        assert round(10400 / 1024, 2) == 10.16
        assert round(22400 / 1024, 2) == 21.88
        assert round(8000 / 1024, 2) == 7.81
        assert round(4000 / 1024, 2) == 3.91

    def test_transformed_never_beats_raw(self):
        for m in range(1, 6):
            for n in range(1, 8):
                raw = comm_bytes("raw", m, n, 1)
                assert comm_bytes("type1", m, n, 1) <= raw
                assert comm_bytes("type2", m, n, 1) <= raw

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            comm_bytes("carrier_pigeon", 2, 4, 1)


class TestCommLedger:
    def test_zero_tracks_zero_bytes(self):
        ledger = CommLedger()
        ledger.record(1, 0, 0, "type2", 2, 4)
        assert ledger.total_bytes == 0

    def test_per_track_formula_times_count(self):
        ledger = CommLedger()
        ledger.record(1, 0, 3, "type2", 2, 4)
        assert ledger.total_bytes == 3 * 8 * 5

    def test_raw_strictly_larger_for_same_traffic(self):
        raw, t1 = CommLedger(), CommLedger()
        for scan in range(1, 6):
            raw.record(scan, 0, 2, "raw", 2, 4)
            t1.record(scan, 0, 2, "type1", 2, 4)
        assert raw.total_bytes > t1.total_bytes
        assert raw.mean_bytes_per_scan(5) == pytest.approx(raw.total_bytes / 5)

    def test_per_scan_totals_equal_a_sum_over_records(self):
        rng = np.random.default_rng(3)
        ledger = CommLedger()
        for scan in range(1, 200):
            for sensor in range(int(rng.integers(0, 4))):
                ledger.record(scan, sensor, int(rng.integers(0, 9)),
                              str(rng.choice(["raw", "type1", "type2"])), 2, 4)
        for scan in range(0, 202):
            assert ledger.bytes_for_scan(scan) == sum(
                r[4] for r in ledger.records if r[0] == scan)
        assert sum(ledger.bytes_for_scan(s) for s in range(202)) == ledger.total_bytes

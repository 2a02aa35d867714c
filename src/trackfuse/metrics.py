"""OSPA / OSPA(2) distances and communication-byte accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError
from .models import RAW, TYPE1, TYPE2

BYTES_PER_SCALAR = 8

INFO_FILTER = "info_filter"


@dataclass
class OspaParams:
    c: float = 50.0
    p: float = 2.0
    w: int = 10

    def __post_init__(self):
        if self.c <= 0 or self.p < 1 or self.w < 1:
            raise InputError("need c > 0, p >= 1, w >= 1")


def _as_points(x) -> np.ndarray:
    arr = np.asarray(list(x), dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 1)
    return np.atleast_2d(arr)


def ospa(X, Y, params: OspaParams) -> float:
    """Optimal subpattern assignment distance between two point sets.

    Per-point distances are cut off at c, matched by a Hungarian
    assignment, and the cardinality difference is charged at c. The inputs
    are canonically ordered before matching so the result is exactly
    symmetric.
    """
    a, b = _as_points(X), _as_points(Y)
    if a.shape[0] == 0 and b.shape[0] == 0:
        return 0.0
    if a.shape[0] == 0 or b.shape[0] == 0:
        return float(params.c)
    if (a.shape[0], a.tobytes()) > (b.shape[0], b.tobytes()):
        a, b = b, a
    diff = a[:, None, :] - b[None, :, :]
    d = np.minimum(np.sqrt(np.sum(diff * diff, axis=2)), params.c)
    rows, cols = linear_sum_assignment(d ** params.p)
    cost = float(np.sum(d[rows, cols] ** params.p))
    n, m = a.shape[0], b.shape[0]
    return float(((cost + params.c ** params.p * (max(n, m) - min(n, m)))
                  / max(n, m)) ** (1.0 / params.p))


def _track_base_distance(tx: dict, ty: dict, scans, c: float,
                         cache: Optional[dict] = None, key=None) -> float:
    """Time-averaged per-scan distance between two labeled tracks.

    Scans where both tracks exist contribute min(d, c), scans where exactly
    one exists contribute c, scans where neither exists are skipped. With
    `cache`, the min(d, c) of scan s is kept in cache[s][key] and computed
    once; the terms are summed in scan order either way.
    """
    total = 0.0
    count = 0
    for s in scans:
        in_x, in_y = s in tx, s in ty
        if not in_x and not in_y:
            continue
        count += 1
        if in_x and in_y:
            terms = None if cache is None else cache.setdefault(s, {})
            term = None if terms is None else terms.get(key)
            if term is None:
                term = min(float(np.linalg.norm(tx[s] - ty[s])), c)
                if terms is not None:
                    terms[key] = term
            total += term
        else:
            total += c
    return total / count if count else 0.0


class TrackHistory:
    """Labeled trajectories, label -> {scan: position}, that index the
    labels recorded at each scan.

    `ospa2` reads the index to find the tracks present in its window
    without visiting every label the run ever recorded. Positions are
    added through `record` only, so the index holds every one of them.
    """

    def __init__(self):
        self._tracks: dict = {}
        self._by_scan: dict = {}
        self._rank: dict = {}

    def record(self, label, scan: int, pos):
        track = self._tracks.get(label)
        if track is None:
            track = self._tracks[label] = {}
            self._rank[label] = len(self._rank)
        track[scan] = pos
        self._by_scan.setdefault(scan, set()).add(label)

    def present(self, scans) -> list:
        """(label, track) of the tracks with a position at one of `scans`,
        in the order the labels were first recorded."""
        labels = set()
        for s in scans:
            labels.update(self._by_scan.get(s, ()))
        return [(k, self._tracks[k])
                for k in sorted(labels, key=self._rank.__getitem__)]


def _present(tracks, scans) -> list:
    """(label, track) of the tracks with a position at one of `scans`, in
    the tracks' order: from the index of a `TrackHistory`, by visiting
    every label of a plain dict."""
    if isinstance(tracks, TrackHistory):
        return tracks.present(scans)
    return [(k, t) for k, t in tracks.items() if any(s in t for s in scans)]


def ospa2(tracks_x, tracks_y, scan: int, params: OspaParams,
          cache: Optional[dict] = None) -> float:
    """OSPA over labeled trajectories on the window [scan - w + 1, scan].

    tracks_* are a `TrackHistory` or a plain dict, label -> {scan:
    position}. Tracks with no presence inside the window are ignored; a
    `TrackHistory` finds the others through its index, a plain dict by
    visiting every label. `cache` is an optional
    dict kept across the calls of one run, in which each (x label,
    y label, scan) base-distance term is computed once and dropped when its
    scan leaves the window; the result equals the uncached one bit for bit,
    provided no position at a scan up to `scan` changes between the calls
    that share it, and the cutoff c stays the same.
    """
    scans = range(scan - params.w + 1, scan + 1)
    if cache is not None:
        for s in [s for s in cache if s < scans.start]:
            del cache[s]
    xs, ys = _present(tracks_x, scans), _present(tracks_y, scans)
    if not xs and not ys:
        return 0.0
    if not xs or not ys:
        return float(params.c)
    swap = len(xs) > len(ys)
    if swap:
        xs, ys = ys, xs
    d = np.zeros((len(xs), len(ys)))
    for i, (kx, tx) in enumerate(xs):
        for j, (ky, ty) in enumerate(ys):
            key = (ky, kx) if swap else (kx, ky)
            d[i, j] = _track_base_distance(tx, ty, scans, params.c, cache, key)
    rows, cols = linear_sum_assignment(d ** params.p)
    cost = float(np.sum(d[rows, cols] ** params.p))
    n, m = len(xs), len(ys)
    return float(((cost + params.c ** params.p * (m - n)) / m) ** (1.0 / params.p))


def payload_scalars(kind: str, m: int, n: int) -> int:
    """Scalars transmitted per track for one payload kind."""
    if kind == RAW:
        return m + m * n + m * (m + 1) // 2
    if kind == INFO_FILTER:
        return 2 * n + n * (n + 1)
    if kind == TYPE1:
        return m + m * n
    if kind == TYPE2:
        return m + m * (m + 1) // 2
    raise InputError(f"unknown payload kind: {kind!r}")


def comm_bytes(kind: str, m: int, n: int, n_max: int) -> int:
    """Per-scan byte requirement for n_max tracks at 8 bytes per scalar."""
    if m <= 0 or n <= 0 or n_max <= 0:
        raise InputError("m, n, N_max must be positive")
    return BYTES_PER_SCALAR * payload_scalars(kind, m, n) * n_max


@dataclass
class CommLedger:
    """Accumulated actual transmission bytes per scan and sensor."""

    records: list = field(default_factory=list)
    total_bytes: int = 0
    per_scan: dict = field(default_factory=dict)

    def record(self, scan: int, sensor: int, n_tracks_sent: int,
               kind: str, m: int, n: int):
        if n_tracks_sent < 0:
            raise InputError("track count must be nonnegative")
        bytes_sent = BYTES_PER_SCALAR * payload_scalars(kind, m, n) * n_tracks_sent
        self.records.append((scan, sensor, kind, n_tracks_sent, bytes_sent))
        self.total_bytes += bytes_sent
        self.per_scan[scan] = self.per_scan.get(scan, 0) + bytes_sent

    def bytes_for_scan(self, scan: int) -> int:
        return self.per_scan.get(scan, 0)

    def mean_bytes_per_scan(self, n_scans: int) -> float:
        if n_scans <= 0:
            raise InputError("n_scans must be positive")
        return self.total_bytes / n_scans

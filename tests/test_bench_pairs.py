"""Summary flags of tools/bench_pairs.py on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "mc_run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def runs(**series):
    n = len(next(iter(series.values())))
    return [{"metrics": {name: {"value": values[k]} for name, values in series.items()}}
            for k in range(n)]


def summary(base, head):
    return bench_pairs.summarize(SPEC, runs(**base), runs(**head))


def flags(entry):
    return entry["gain_shown"], entry["regressed"], entry["unresolved"]


def test_clear_gain_is_shown_and_nothing_else_flagged():
    base = {"mc_run_s": [11.2 + 0.01 * k for k in range(10)],
            "peak_rss_mb": [97.0 + 0.1 * (k % 3) for k in range(10)],
            "throughput": [100.0 + k % 2 for k in range(10)]}
    head = {"mc_run_s": [9.6 + 0.01 * k for k in range(10)],
            "peak_rss_mb": [99.9 + 0.1 * (k % 3) for k in range(10)],
            "throughput": [99.5 + k % 2 for k in range(10)]}
    out = summary(base, head)
    assert flags(out["mc_run_s"]) == (True, False, False)
    assert out["mc_run_s"]["head_wins"] == 10
    assert out["mc_run_s"]["change"] == pytest.approx(9.645 / 11.245 - 1)
    assert flags(out["peak_rss_mb"]) == (False, False, False)
    assert flags(out["throughput"]) == (False, False, False)


def test_worse_median_beyond_bound_is_regressed():
    # the unstacked prototype's peak memory: +27.7% against a 10% bound
    base = {"mc_run_s": [10.0] * 10, "peak_rss_mb": [97.0] * 10,
            "throughput": [100.0] * 10}
    head = {"mc_run_s": [12.6] * 10, "peak_rss_mb": [97.0 * 1.277] * 10,
            "throughput": [89.0] * 10}
    out = summary(base, head)
    assert out["mc_run_s"]["regressed"]
    assert out["peak_rss_mb"]["regressed"]
    assert out["throughput"]["regressed"]
    # inside the bound is no regression
    head = {"mc_run_s": [12.4] * 10, "peak_rss_mb": [106.0] * 10,
            "throughput": [91.0] * 10}
    assert not any(e["regressed"] for e in summary(base, head).values())


def test_wide_spread_is_unresolved_unless_head_beats_every_run():
    base = {"mc_run_s": [6.0, 8.0, 10.0, 12.0, 14.0] * 2,
            "peak_rss_mb": [97.0] * 10, "throughput": [100.0] * 10}
    head = {"mc_run_s": [5.0, 7.5, 10.0, 12.5, 15.0] * 2,
            "peak_rss_mb": [90.0, 97.0, 104.0, 111.0, 83.0] * 2,
            "throughput": [100.0] * 10}
    out = summary(base, head)
    assert flags(out["mc_run_s"]) == (False, False, True)
    assert out["peak_rss_mb"]["unresolved"]
    assert not out["throughput"]["unresolved"]
    # every head run better than every base run resolves the spread
    head["mc_run_s"] = [1.0, 2.0, 3.0, 4.0, 5.5] * 2
    assert summary(base, head)["mc_run_s"]["unresolved"] is False


def test_missing_run_loses_its_pair():
    base = {"mc_run_s": [10.0] * 10, "peak_rss_mb": [97.0] * 10,
            "throughput": [100.0] * 10}
    head = {"mc_run_s": [9.0] * 10, "peak_rss_mb": [96.0] * 10,
            "throughput": [101.0] * 10}
    head_runs = runs(**head)
    head_runs[3] = None
    out = bench_pairs.summarize(SPEC, runs(**base), head_runs)
    assert out["mc_run_s"]["pairs"] == 10
    assert out["mc_run_s"]["head_wins"] == 9
    assert out["mc_run_s"]["gain_shown"]
    assert out["mc_run_s"]["head"]["runs"][3] is None


def test_untraced_and_traced_runs_alternate_sides(tmp_path, monkeypatch):
    # Machine drift between blocks of runs must not land on one side, so
    # the traced runs alternate like the untraced pairs.
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (head / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": SPEC["end_to_end"]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        return {"failed": 0, "correct": True,
                "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                            for m in SPEC["end_to_end"]}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "out.json"
    bench_pairs.main(["--base", str(base), "--head", str(head), "--out", str(out),
                      "--pairs", "3", "--first-seed", "5", "--traced", "3"])
    assert calls == [("base", 5, 0), ("head", 5, 0), ("head", 6, 0), ("base", 6, 0),
                     ("base", 7, 0), ("head", 7, 0),
                     ("base", 0, 1), ("head", 0, 1), ("head", 0, 1), ("base", 0, 1),
                     ("base", 0, 1), ("head", 0, 1)]
    report = json.loads(out.read_text())["workloads"]["w"]
    assert report["correct"] == {"base": [True] * 6, "head": [True] * 6}

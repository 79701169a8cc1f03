"""The paired timing harness of scripts/bench_*.py, on synthetic samples: its
pairing of the trees, its summary and its digest gate (no git, no child)."""

import hashlib
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_harness as harness  # noqa: E402


def test_each_sample_takes_the_next_order_of_the_trees():
    seen = []
    harness.time_calls({side: lambda _, s=side: seen.append(s) for side in harness.TREES}, 6)
    # after one untimed call per tree, six samples in six distinct orders
    assert {tuple(seen[3 * i : 3 * i + 3]) for i in range(1, 7)} == set(harness.ORDERS)


def test_summary_of_synthetic_pairs():
    # change/parent is 0.8 + 0.001 k for k in -5..5, ten times each, so its
    # median is 0.8; the A/A copy runs exactly as fast as the change
    samples = []
    for i in range(110):
        parent = 1.0 + 0.01 * (i % 7)
        change = parent * (0.8 + 0.001 * (i % 11 - 5))
        samples.append({"parent": parent, "change": change, "aa": change})
    row = harness.summary(samples, unit="mb", scale=10)
    assert row["parent_mb"] == pytest.approx(statistics.median(t["parent"] for t in samples) / 10)
    assert row["change_mb"] == pytest.approx(statistics.median(t["change"] for t in samples) / 10)
    assert row["ratio"] == pytest.approx(0.8, rel=1e-12)
    low, high = row["ratio_ci95"]
    assert low <= row["ratio"] <= high
    assert 0.798 < low and high < 0.802
    assert row["aa_ratio"] == 1.0
    assert row["aa_ci95"] == [1.0, 1.0]


def test_trees_that_disagree_write_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", str(tmp_path))
    report = tmp_path / "BENCH_test.json"
    digest = {side: hashlib.sha256(b"same output") for side in harness.TREES}
    harness.write_report(report.name, "abc1234", "test", {"samples": 1}, digest, "output_sha256")
    assert report.read_text().count(digest["aa"].hexdigest()) == 1
    report.unlink()

    digest["parent"].update(b" and more")
    with pytest.raises(SystemExit, match="output differs between the trees"):
        harness.write_report(report.name, "abc1234", "test", {"samples": 1}, digest, "output_sha256")
    assert list(tmp_path.iterdir()) == []

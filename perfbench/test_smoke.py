"""Smoke test of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench

Both workloads run through every command and every output check, untraced
and traced; every metric that BENCHMARK.json names must come out with its
unit, and a corrupted output must count as a failed operation.
"""

import json
import statistics
import time
from pathlib import Path

import lgsqe.pipeline
import lgsqe.saab
import pytest

import bench
import tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return WORKLOADS[name].scaled(train_count=60, bulk_count=40, pool_count=30, rounds=3)


def run(name, work, trace=False, seed=1):
    return bench.run_workload(tiny(name), seed, 0.0, trace, ROOT, work, SPEC, time.monotonic())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    for trace in (False, True):  # the traced run must reproduce the untraced run's bytes
        record = run(name, tmp_path, trace)
        result = record["result"]
        assert result["correct"], record["errors"]
        commands = bench.FITS + 3 + bench.SETUPS_PER_CYCLE
        assert result["failed"] == 0 and result["attempted"] == (2 if trace else 1) * commands
        section = SPEC["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {e["name"]: e["unit"] for e in section}
        assert record["not_measured"] == [] and record["missing_spans"] == []
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
            wall, factor = record["samples"]["wall_s"], record["speed_factor"]
            assert len(wall["fit"]) == bench.FITS
            assert result["metrics"]["eval_s"]["value"] == pytest.approx(statistics.median(wall["eval"]) / factor)


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    original = bench.check_scores

    def drop_last_row_then_check(path, n):
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        return original(path, n)

    monkeypatch.setattr(bench, "check_scores", drop_last_row_then_check)
    record = run("mnist-default", tmp_path)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] >= 1
    assert any(error.startswith("score:") for error in record["errors"])


def test_tracer_restores_functions_and_reports_missing_ones(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "saab.renamed_away", ("saab", "renamed_away"))
    monkeypatch.setitem(tracer.TRACED, "gone.load", ("gone", "Model.load"))
    original = lgsqe.pipeline.build_representation
    spans = tracer.Tracer()
    with spans.installed():
        assert lgsqe.pipeline.build_representation is not original
        assert lgsqe.saab.build_representation is lgsqe.pipeline.build_representation
    assert lgsqe.pipeline.build_representation is original
    assert lgsqe.saab.build_representation is original
    assert spans.missing == ["saab.renamed_away", "gone.load"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 5.0, 0],  # overlaps a: the children cover [1, 5]
        ["c", 1.5, 2.0, 1],
    ]
    times = tracer.self_times(spans)
    assert times["root"] == pytest.approx((6.0, 1))
    assert times["a"] == pytest.approx((2.5, 1))
    assert times["b"] == pytest.approx((2.0, 1))

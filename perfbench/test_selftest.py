"""Self-tests of the benchmark's own rules.

Collected by ``python -m pytest`` from the repository root; they use tiny
inputs and sub-second loops, so they check the benchmark's machinery, not
the program's speed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench.runner import run_workload
from perfbench.stats import InsufficientSamples, percentile
from perfbench.workloads import WORKLOADS, DblpLookup, DblpReadWrite

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class SmallLookup(DblpLookup):
    papers = 120
    setup_repeats = 1
    min_reads = 40


class SmallReadWrite(DblpReadWrite):
    papers = 120
    setup_repeats = 1
    min_reads = 40
    min_writes = 10


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1000))
    assert percentile(values, 0.99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 0.99)
    assert percentile(values[:20], 0.5) == 9
    with pytest.raises(InsufficientSamples):
        percentile(values[:19], 0.5)


@pytest.mark.parametrize("workload", [SmallLookup, SmallReadWrite])
def test_clean_run_has_no_failed_ops(workload, tmp_path):
    data = run_workload(workload(seed=3, workdir=tmp_path), seconds=0.2, trace=False)
    assert data.attempted > 40
    assert data.failed_op_frac == 0, data.errors
    if workload.durable:
        assert data.latencies["write"] and data.finish["durability_error"] is None


def test_injected_wrong_answer_raises_failed_op_frac(tmp_path):
    def tamper(op, outcome):
        result, rows = outcome
        # every paper-star answer gains a row the oracle never produces
        return (result, rows + [("wrong", "wrong", "wrong")]) if op.label == "star" else outcome

    data = run_workload(SmallLookup(seed=3, workdir=tmp_path), seconds=0.2, trace=False,
                        tamper=tamper)
    assert 0.4 < data.failed_op_frac < 0.8
    assert all(error.startswith("star(") for error in data.errors)


def test_metric_names_and_catalog_agree_with_benchmark_json():
    catalog = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in catalog[group]]
        assert all(NAME.fullmatch(name) for name in names)
        assert len(set(names)) == len(names)
        # a catalog entry without a unit of its own is a result metric of BENCHMARK.json
        result = [m["name"] for m in catalog[group] if "unit" not in m]
        assert result == [m["name"] for m in bench[group]]
    assert sorted(catalog["workloads"]) == sorted(w["name"] for w in bench["workloads"])
    assert sorted(catalog["workloads"]) == sorted(WORKLOADS)

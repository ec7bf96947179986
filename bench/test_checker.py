"""Tests of the benchmark's checker and tracer.

    python3 -m pytest bench/test_checker.py -q

An untouched reference must give no failures on every workload, and a
reference with one altered record must make failures show.  The tracer must
report a wrapped name that no longer exists instead of crashing, and must
restore every binding it replaced.  Takes about thirty seconds.
"""

from __future__ import annotations

import json

import pytest

import run
import tracer as tracing
from harness import ROOT, load_reference, quatcurves, sample_order

SEED = 7
TINY = 1e-9  # one timed chunk or invocation after the warm-up


def failed_frac(workload: str, reference) -> float:
    tally = run.Tally()
    if workload == run.CLI_WORKLOAD:
        run.run_cli_workload(SEED, TINY, reference, tally)
    else:
        run.run_sampled(workload, SEED, TINY, reference, tally)
    assert tally.attempted > 0
    return tally.failed / tally.attempted


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untouched_reference_has_no_failures(workload):
    assert failed_frac(workload, load_reference(workload)) == 0


@pytest.mark.parametrize("workload", run.SAMPLED)
def test_one_altered_record_fails(workload):
    reference = load_reference(workload)
    first = sample_order(reference, SEED)[0]
    reference[first] = "0" * 16
    assert failed_frac(workload, reference) > 0


@pytest.mark.parametrize("field", ["stdout_sha256", "cache_sha256"])
def test_altered_cli_record_fails_every_instance(field):
    reference = load_reference(run.CLI_WORKLOAD)
    reference[field] = "0" * 64
    assert failed_frac(run.CLI_WORKLOAD, reference) == 1


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_missing_name_is_reported_and_bindings_restored(monkeypatch):
    gone = tracing.Target("polyring.gone", ((quatcurves.polyring, "no_such_function"),))
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + (gone,))

    def bindings():
        return [tracing._bound(ns, attr)
                for target in tracing.SPAN_TARGETS + tracing.COUNTER_TARGETS
                for ns, attr in target.bindings]

    before = bindings()
    original = quatcurves.shimura.residue_symbol
    with tracing.Tracer() as tracer:
        assert quatcurves.shimura.residue_symbol is not original
    assert tracer.missing == ["polyring.gone"]
    assert bindings() == before


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

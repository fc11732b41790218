"""Tests of the benchmark itself (collected by the tier-1 ``pytest -x -q``).

The smoke runs drive all four workloads end to end at a tiny scale; the
rest pins the span arithmetic, the wrapper restore and the agreement of
``BENCHMARK.json`` with what the runner prints.
"""

from __future__ import annotations

import json
import re
import types
from pathlib import Path

import pytest

from bench import compare, metrics, run, spans

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def clock(monkeypatch):
    """Replace the recorder's clock by a list of scripted readings."""
    readings: list[float] = []
    monkeypatch.setattr(spans, "perf_counter", lambda: readings.pop(0))
    return readings


# -- spans ---------------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children(clock):
    clock.extend([0, 1, 2, 3, 4, 5, 9, 10])
    recorder = spans.Recorder()
    with recorder.span("root", op="op-1"):
        with recorder.span("a"):
            with recorder.span("leaf"):
                pass
        with recorder.span("b"):
            pass
    assert [s[spans.NAME] for s in recorder.spans] == ["root", "a", "leaf", "b"]
    assert [s[spans.PARENT] for s in recorder.spans] == [-1, 0, 1, 0]
    assert {s[spans.OP] for s in recorder.spans} == {"op-1"}
    # root 0..10 minus a (1..4) and b (5..9); a minus leaf (2..3).
    assert spans.self_times(recorder.spans) == [3, 2, 1, 4]
    assert sum(spans.self_times(recorder.spans)) == 10


def test_attribute_is_exclusive_and_phases_absorb_descendants(clock):
    clock.extend([0, 1, 2, 3, 4, 5, 6, 8, 9, 10])
    recorder = spans.Recorder()
    with recorder.span("root"):
        with recorder.span("query"):
            pass
        with recorder.span("phase"):
            with recorder.span("query"):
                pass
            with recorder.span("query"):
                pass
    layers = spans.attribute(
        recorder.spans, lambda name, parent: None if name == "root" else name, ("phase",)
    )
    # The two queries under the phase are the phase's time, not query time.
    assert layers == {
        "query": {"self_s": 1, "calls": 1},
        "phase": {"self_s": 6, "calls": 1},
    }
    assert layers["query"]["self_s"] + layers["phase"]["self_s"] == 10 - 3


def test_wrap_records_and_restore_puts_originals_back():
    def plain(x):
        return x + 1

    def numbers():
        yield 1
        yield 2

    class Thing:
        def method(self, x):
            return x * 2

        @classmethod
        def build(cls):
            return cls()

    module = types.SimpleNamespace(plain=plain, numbers=numbers, _hidden=plain)
    originals = (vars(Thing)["method"], vars(Thing)["build"])
    recorder = spans.Recorder()
    recorder.wrap(module, "plain", extract=lambda result: result * 10)
    recorder.wrap(module, "numbers")
    recorder.wrap(Thing, "method", "thing.method")
    recorder.wrap(Thing, "build")
    with pytest.raises(ValueError):
        recorder.wrap(module, "_hidden")

    with recorder.span("root"):
        assert module.plain(1) == 2
        assert list(module.numbers()) == [1, 2]
        assert Thing.build().method(4) == 8
    names = [s[spans.NAME] for s in recorder.spans]
    # One generator span per resumption, the last one ending in StopIteration.
    assert names == ["root", "plain", "numbers", "numbers", "numbers", "build", "thing.method"]
    assert all(s[spans.PARENT] == 0 for s in recorder.spans[1:])
    assert all(s[spans.END] is not None for s in recorder.spans)
    assert recorder.extracted == [(1, 20)]

    recorder.restore()
    assert module.plain is plain and module.numbers is numbers
    assert (vars(Thing)["method"], vars(Thing)["build"]) == originals
    before = len(recorder.spans)
    module.plain(1), Thing.build().method(1)
    assert len(recorder.spans) == before


# -- declared surface ----------------------------------------------------------------


def test_manifest_matches_benchmark_json_and_the_contract_limits():
    manifest = metrics.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in manifest[key]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in manifest["workloads"])
    for row in manifest["end_to_end"] + manifest["per_layer"]:
        assert unit.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    assert all(0 <= row["bound"] <= 0.25 for row in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in manifest[
        "end_to_end"
    ]
    assert 1 <= manifest["run_seconds"] <= 60 and manifest["paths"] == ["bench"]


# -- compare -------------------------------------------------------------------------


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1]
    assert compare.verdict(base, [10.3, 10.0, 10.4, 10.1], "lower", 0.1) == "same"
    assert compare.verdict(base, [12.0, 12.2, 11.9, 12.1], "lower", 0.1) == "worse"
    assert compare.verdict(base, [8.0, 8.2, 7.9, 8.1], "lower", 0.1) == "better"
    assert compare.verdict(base, [12.0, 12.2, 11.9, 12.1], "higher", 0.1) == "better"
    assert compare.verdict(base, [8.0, 8.2, 7.9, 8.1], "higher", 0.1) == "worse"
    # Spread wider than the bound and the sides overlap: the runs cannot tell.
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [9.0, 11.0, 13.0, 15.0], "lower", 0.1) == (
        "unresolved"
    )
    # ... unless every new run beats every base run.
    assert compare.verdict([8.0, 10.0, 12.0, 14.0], [4.0, 5.0, 6.0, 7.0], "lower", 0.1) == "better"
    # Counts that repeat exactly compare at a zero spread.
    assert compare.verdict([1.5] * 3, [1.5] * 3, "higher", 0.05) == "same"


# -- smoke: every workload end to end ------------------------------------------------


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    argv = ["--workload", workload, "--smoke", "--seconds", "0", "--seed", "3"]
    assert run.main(argv + ["--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _, _ in metrics.END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    (record,) = [json.loads(path.read_text()) for path in tmp_path.glob("*.json")]
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["times"]["cold_s"]
    assert not list(tmp_path.glob("work-*"))


def test_smoke_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    argv = ["--workload", "analyze_tree", "--smoke", "--trace", "1", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in metrics.PER_LAYER]
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["symbex.states_explored"] > 0 and values["symbex.search_self_s"] > 0
    assert values["hashing.rainbow_build_s"] == 0  # trees have no havocs
    assert 0 <= values["trace.unattributed_share"] < 0.5

"""Tests of the benchmark itself: the generator, the output checks and the
tracer. Run with ``python3 -m pytest perfbench/tests -q`` from the repo root."""

from __future__ import annotations

import functools
import itertools
import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import kgravity
import kgravity.cli  # noqa: F401
import gen
import run
import workloads
from tracing import Tracer

SMALL = dict(n_kos=120, edges_per_ko=3.0, dim=8, n_entities=20, n_domains=4,
             cycles=3, retrievals_per_cycle=20, queries=30)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a small corpus and a short history."""
    monkeypatch.setattr(gen, "serve_plan", functools.partial(gen.serve_plan, shape=SMALL))
    monkeypatch.setattr(gen, "churn_plan", functools.partial(gen.churn_plan, shape=SMALL))
    monkeypatch.setattr(gen, "cli_plan", functools.partial(gen.cli_plan, shape=SMALL))


def generated_bytes(seed: int) -> bytes:
    serve = gen.serve_plan(seed, SMALL)
    churn, steps = gen.churn_plan(seed, SMALL)
    cli, rounds = gen.cli_plan(seed, SMALL)
    return b"".join([
        gen.serialize(serve), gen.serialize(churn), gen.serialize(cli),
        gen.serialize(list(itertools.islice(steps, 12))),
        *(r["ingest"] + gen.serialize(r["queries"]) for r in itertools.islice(rounds, 3)),
    ])


def test_same_seed_gives_identical_bytes():
    assert generated_bytes(7) == generated_bytes(7)
    assert generated_bytes(7) != generated_bytes(8)


def test_corpus_covers_the_vocabulary():
    plan = gen.serve_plan(3, SMALL)
    kos = [r for r in plan["corpus"] if r["kind"] == "ko"]
    edges = [r for r in plan["corpus"] if r["kind"] == "edge"]
    assert {r["class"] for r in kos} == set(gen.CLASSES)
    assert {r["type"] for r in edges} == set(gen.EDGE_TYPES)
    questions = [r for r in kos if r["class"] == "QUESTION"]
    assert questions and all("stakes" in r for r in questions)
    assert {op[0] for op in plan["history"]} >= {"supersede", "resolve", "retrieve", "cycle"}
    assert any(r["anchors"] for r in kos)
    assert {len(r["embedding"]) for r in kos if r["embedding"] is not None} == {SMALL["dim"]}
    counts = Counter(r["koc"]["entity"] for r in kos).most_common()
    assert counts[0][1] >= 4 * len(kos) / len(counts)  # Zipf-skewed entities
    queries = plan["queries"]
    assert any(q["embedding"] is None for q in queries)
    assert any(q["anchor_koc"] is not None for q in queries)


def test_generated_operations_are_accepted_and_time_is_monotone():
    plan, steps = gen.churn_plan(5, SMALL)
    store = workloads.build_store(kgravity, plan)
    planted = 0
    for st in itertools.islice(steps, 20):
        planted += sum(op[0].startswith("reject_") for op in st["batch"])
        assert workloads.apply_ops(kgravity, store, st["batch"]) == 0
        snapshot, _ = store.apply_cycle()
        assert snapshot.cycle_at == st["cycle_at"]
        assert len(snapshot.kos) == st["n_kos"]
    assert planted == 4
    times = [e.at for e in store.events]
    assert times == sorted(times)


def test_planted_rejection_that_is_accepted_counts_as_bad():
    plan, _ = gen.churn_plan(5, SMALL)
    store = workloads.build_store(kgravity, plan)
    fresh = gen.World(99, n_entities=3, n_domains=2, dim=SMALL["dim"]).ko_fields("fresh-id")
    assert workloads.apply_ops(kgravity, store, [["reject_ko", fresh]]) == 1


def test_rank_checks():
    rows = [("a", 0.5, 1.0, 0.5), ("b", 0.25, 0.5, 0.5), ("c", 0.25, 0.5, 0.5)]
    assert workloads.rank_ok(rows, 3, 10)
    assert not workloads.rank_ok(rows, 5, 10)  # too short for min(top_k, eligible)
    assert not workloads.rank_ok(rows[::-1], 3, 10)  # wrong order
    assert not workloads.rank_ok([("a", 0.5, 1.0, 0.4)], 1, 1)  # R != H * K_eff
    assert workloads.eligible({"CORE": 5, "DORMANT": 2, "PERIPHERAL": 1}, False, True) == 5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_and_digest_is_stable(name, small, tmp_path):
    digests = []
    for rep in range(2):
        wl = workloads.WORKLOADS[name](kgravity, 11, tmp_path / f"rep{rep}")
        wl.workdir.mkdir()
        wl.setup()
        ops = run.run_phase(wl, 0)
        assert len(ops.ok) >= wl.prefix_ops and all(ops.ok)
        assert wl.final_check()
        digests.append(ops.digest)
    assert digests[0] == digests[1]


def test_cli_final_check_catches_divergent_export(small, tmp_path):
    wl = workloads.CliHistory(kgravity, 2, tmp_path)
    wl.setup()
    run.run_phase(wl, 0)
    assert wl.final_check()
    wl.corpus.write_text(wl.corpus.read_text().replace('"CORE"', '"WORKING"', 1))
    assert not wl.final_check()


def test_churn_final_check_catches_divergent_state(small, tmp_path):
    wl = workloads.CycleChurn(kgravity, 2, tmp_path)
    wl.setup()
    run.run_phase(wl, 0)
    wl.store.record_retrieval(next(iter(wl.store.snapshot().kos)), wl.store.latest_event_at())
    wl.store._events.pop()  # live state now has a retrieval the log lacks
    assert not wl.final_check()


def test_tracer_sees_only_the_layers_a_workload_uses(small, tmp_path):
    results = {}
    for name in ("serve_queries", "cycle_churn"):
        wl = workloads.WORKLOADS[name](kgravity, 4, tmp_path / name)
        wl.workdir.mkdir()
        wl.setup()
        tracer = Tracer()
        tracer.install(kgravity)
        try:
            ops = run.run_phase(wl, 0, tracer)
        finally:
            tracer.uninstall()
        results[name] = (tracer.metrics(), ops)
    serve, serve_ops = results["serve_queries"]
    assert serve["retrieval.rank.calls"] == len(serve_ops.ok)
    assert 0 < serve["retrieval.rank.returned"] <= serve["retrieval.rank.scored"]
    assert all(v == 0 for k, v in serve.items() if k.startswith("engine."))
    churn, churn_ops = results["cycle_churn"]
    assert churn["engine.run_cycle.calls"] == len(churn_ops.ok) // 2
    assert churn["store.rejections"] >= 0 and churn["model.ko_constructed"] > 0
    assert all(v == 0 for k, v in churn.items() if k.startswith("retrieval."))
    # Uninstalling restores the original functions.
    assert kgravity.store.CorpusStore.apply_cycle.__module__ == "kgravity.store"
    assert kgravity.cli.rank is kgravity.retrieval.rank


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_result_line_has_every_metric_of_benchmark_json(small, capsys, monkeypatch,
                                                        tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "cycle_churn", "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(m["unit"] == units[n] for n, m in result["metrics"].items())


@pytest.mark.parametrize("trace", [0, 1])
def test_digest_mismatch_fails_the_run(trace, small, capsys, monkeypatch, tmp_path):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"serve_queries": {"3": "0" * 64}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    assert run.main(["--workload", "serve_queries", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert not result["correct"]
    # A traced run checks its plain phase as well as its traced one.
    assert result["failed"] == (1 + trace) * workloads.ServeQueries.prefix_ops
    assert "MISMATCH" in out[-2]

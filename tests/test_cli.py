from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kgravity.cli as cli_module
from kgravity.cli import main
from kgravity.engine import EngineParams

CLASSES_CYCLE = ["DECISION", "CONSTRAINT", "EVIDENCE", "NARRATIVE", "PLAN",
                 "EVALUATION", "OBSERVATION", "HYPOTHESIS", "QUESTION", "PLAN"]


def ko_rec(i: int, cls: str = "OBSERVATION", entity: str | None = None) -> dict:
    return {
        "kind": "ko",
        "id": f"k{i:03d}",
        "class": cls,
        "koc": {"entity": entity or f"e{i}", "domain": "ops", "class": cls,
                "epoch": "q1", "depth": "l1", "author": "ana", "variant": "v1"},
        "content": f"record {i}",
        "created_at": "2024-01-01T00:00:00Z",
        "embedding": [1.0, 0.0],
    }


def edge_rec(source: str, target: str, edge_type: str = "SUPPORTS") -> dict:
    return {"kind": "edge", "source": source, "target": target,
            "type": edge_type, "created_at": "2024-01-02T00:00:00Z"}


def write_input(path, records) -> None:
    lines = [json.dumps({"kind": "header", "format_version": 1,
                         "embedding_dim": 2, "params_fingerprint": "input"})]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def cli(tmp_path, capsys):
    """Run the CLI against state files scoped to this test."""
    def run(*argv: str, expect: int = 0) -> str:
        base = ["--corpus", str(tmp_path / "corpus.jsonl"),
                "--log", str(tmp_path / "events.jsonl")]
        code = main(base + list(argv))
        out = capsys.readouterr().out
        assert code == expect, out
        return out
    run.tmp_path = tmp_path
    return run


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_valid_file(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [ko_rec(i, cls) for i, cls in enumerate(CLASSES_CYCLE)])
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert "10 KOs, 0 edges ingested; 0 rejected" in out


def test_ingest_partial_on_unknown_class(cli, tmp_path):
    records = [ko_rec(i) for i in range(9)] + [ko_rec(9, cls="FACT")]
    write_input(tmp_path / "in.jsonl", records)
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert "9 KOs, 0 edges ingested; 1 rejected" in out
    assert "FACT" in out
    assert "line 11" in out


def test_ingest_empty_file(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [])
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert "0 KOs, 0 edges ingested; 0 rejected" in out


def test_ingest_with_edges(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [ko_rec(0, "DECISION"), ko_rec(1, "EVIDENCE"),
                 edge_rec("k001", "k000")])
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert "2 KOs, 1 edges ingested; 0 rejected" in out


def test_ingest_reports_mistyped_fields_per_line(cli, tmp_path):
    bad_koc = dict(ko_rec(1), koc="e1/ops")
    records = [ko_rec(0), dict(ko_rec(1), created_at=1700000000), bad_koc,
               dict(ko_rec(2), **{"class": 4}), dict(ko_rec(3), stakes="high"),
               ko_rec(4), dict(edge_rec("k000", "k004"), created_at=5),
               dict(edge_rec("k000", "k004"), type=3)]
    write_input(tmp_path / "in.jsonl", records)
    summary = json.loads(cli("--format", "records", "ingest", str(tmp_path / "in.jsonl")))
    assert (summary["kos"], summary["edges"]) == (2, 0)
    errors = {r["line"]: r["error"] for r in summary["rejections"]}
    assert sorted(errors) == [3, 4, 5, 6, 8, 9]
    for line, field in [(3, "created_at"), (4, "koc"), (5, "class"),
                        (6, "stakes"), (8, "created_at"), (9, "edge type")]:
        assert field in errors[line]


def test_ingest_reports_non_object_lines_per_line(cli, tmp_path):
    path = tmp_path / "in.jsonl"
    write_input(path, [ko_rec(0)])
    with open(path, "a", encoding="utf-8") as f:
        f.write("[1, 2]\n7\n")
    summary = json.loads(cli("--format", "records", "ingest", str(path)))
    assert summary["kos"] == 1
    assert [(r["line"], r["error"]) for r in summary["rejections"]] == [
        (3, "expected a JSON object, got list"), (4, "expected a JSON object, got int")]


def test_ingest_warns_on_stderr_about_fields_it_ignores(cli, tmp_path, capsys):
    records = [ko_rec(0), dict(ko_rec(1), retrieved_at=["2024-01-03T00:00:00Z"]),
               dict(ko_rec(2, "QUESTION"), resolved=True, retrieved_at=[]),
               dict(ko_rec(3), resolved=False)]
    write_input(tmp_path / "in.jsonl", records)
    base = ["--corpus", str(tmp_path / "corpus.jsonl"),
            "--log", str(tmp_path / "events.jsonl")]
    assert main(base + ["ingest", str(tmp_path / "in.jsonl")]) == 0
    captured = capsys.readouterr()
    assert captured.out == "4 KOs, 0 edges ingested; 0 rejected\n"
    assert captured.err.splitlines() == [
        "warning: line 3: ignored field(s) retrieved_at",
        "warning: line 4: ignored field(s) retrieved_at, resolved",
        "warning: line 5: ignored field(s) resolved",
    ]
    # the fields were dropped: the objects start unretrieved and unresolved
    from kgravity import CorpusStore, read_events
    kos = CorpusStore.replay(read_events(tmp_path / "events.jsonl")).snapshot().kos
    assert kos["k001"].retrieved_at == () and not kos["k002"].resolved
    # a rejected record is reported on stdout only
    assert main(base + ["ingest", str(tmp_path / "in.jsonl")]) == 0
    assert capsys.readouterr().err == ""


def test_ingest_rejects_a_second_embedding_dimension(cli, tmp_path):
    write_input(tmp_path / "first.jsonl", [ko_rec(0), ko_rec(1)])
    cli("ingest", str(tmp_path / "first.jsonl"))
    write_input(tmp_path / "second.jsonl",
                [dict(ko_rec(2), embedding=[1.0, 0.0, 0.0]), ko_rec(3)])
    out = cli("ingest", str(tmp_path / "second.jsonl"))
    assert out.splitlines() == [
        "1 KOs, 0 edges ingested; 1 rejected",
        "  line 2: embedding of 'k002' has 3 dimensions; the store's embeddings have 2"]
    # the log holds only accepted objects, so every later command works
    assert "cycle 1:" in cli("cycle", "1")
    out = cli("query", "x", "--entity", "e3", "--embedding", "1.0,0.0")
    assert "k003" in out and "k002" not in out
    cli("verify-log")
    assert '"embedding_dim":2' in (tmp_path / "corpus.jsonl").read_text().splitlines()[0]


def test_ingest_rejects_an_embedding_whose_norm_overflows(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [dict(ko_rec(0), embedding=[1e200, 1e200]), dict(ko_rec(1), embedding=[1.0, 0.0])])
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert out.splitlines() == [
        "1 KOs, 0 edges ingested; 1 rejected",
        "  line 2: embedding for 'k000' has a norm too large to compute"]
    out = cli("--format", "records", "query", "x", "--embedding", "1.0,0.0")
    assert [json.loads(line)["ko_id"] for line in out.splitlines()] == ["k001"]
    cli("query", "x", "--embedding", "1e200,1e200", expect=1)


def test_ingest_missing_file_is_contract_violation(cli, tmp_path):
    cli("ingest", str(tmp_path / "nope.jsonl"), expect=1)


# ---------------------------------------------------------------------------
# cycle
# ---------------------------------------------------------------------------

def test_cycle_zero_changes_nothing(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    log_before = (tmp_path / "events.jsonl").read_bytes()
    out = cli("cycle", "0")
    assert "no cycles run" in out
    assert (tmp_path / "events.jsonl").read_bytes() == log_before


def test_cycle_isolated_question_converges_to_class_fixed_point(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0, "QUESTION")])
    cli("--preset", "simulation", "ingest", str(tmp_path / "in.jsonl"))
    cli("--preset", "simulation", "cycle", "28")
    corpus = (tmp_path / "corpus.jsonl").read_text()
    record = json.loads(corpus.splitlines()[1])
    # class seed 0.30 pulls the isolated question toward 0.1*0.3/0.09
    assert float(record["scores"]["k"]) == pytest.approx(0.331, abs=1e-3)
    assert float(record["scores"]["urgency"]) == pytest.approx(0.28, abs=1e-9)


def test_cycle_summaries_deterministic(cli, tmp_path, capsys):
    write_input(tmp_path / "in.jsonl", [ko_rec(i) for i in range(4)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    snap = tmp_path / "snap"
    snap.mkdir()
    for name in ("corpus.jsonl", "events.jsonl"):
        shutil.copy(tmp_path / name, snap / name)

    out_a = cli("--format", "records", "cycle", "3")
    code = main(["--corpus", str(snap / "corpus.jsonl"),
                 "--log", str(snap / "events.jsonl"),
                 "--format", "records", "cycle", "3"])
    out_b = capsys.readouterr().out
    assert code == 0
    assert out_a == out_b


def test_cycle_reports_zone_counts(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [ko_rec(0, "DECISION"), ko_rec(1, "OBSERVATION")])
    cli("ingest", str(tmp_path / "in.jsonl"))
    # the observation starts on the core boundary and decays just below it
    out = cli("cycle", "1")
    assert "core 1 working 1" in out and "max |dK|" in out


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_empty_corpus(cli):
    out = cli("query", "anything")
    assert "no results" in out


def test_query_breakdown_recombines(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [ko_rec(0, "DECISION"), ko_rec(1, "EVIDENCE"),
                 edge_rec("k001", "k000")])
    cli("ingest", str(tmp_path / "in.jsonl"))
    out = cli("--format", "records", "query", "pilot",
              "--entity", "e0", "--domain", "ops", "--embedding", "1.0,0.0")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows
    for row in rows:
        assert row["rank_score"] == pytest.approx(row["hybrid"] * row["k_eff"],
                                                  abs=1e-9)


def test_query_surfaces_unresolved_question_urgency(cli, tmp_path):
    write_input(tmp_path / "in.jsonl",
                [dict(ko_rec(0, "QUESTION"), stakes="0.900000000")])
    cli("--preset", "simulation", "ingest", str(tmp_path / "in.jsonl"))
    cli("--preset", "simulation", "cycle", "2")
    out = cli("--format", "records", "query", "open risk", "--entity", "e0",
              "--domain", "ops")
    row = json.loads(out.strip().splitlines()[0])
    assert row["urgency"] > 0.4
    assert row["zone"] == "WORKING"


def test_query_rejects_bad_top_k(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    cli("query", "x", "--top-k", "0", expect=1)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_question_matches_reference_series(cli):
    out = cli("simulate", "QUESTION", "28")
    rows = out.strip().splitlines()
    assert rows[0] == "day,class,k"
    assert len(rows) == 30
    final = float(rows[-1].split(",")[2])
    assert final == pytest.approx(0.552, abs=2e-3)


def test_simulate_observation_final(cli):
    out = cli("simulate", "OBSERVATION", "28")
    final = float(out.strip().splitlines()[-1].split(",")[2])
    assert final == pytest.approx(0.437, abs=2e-3)


def test_simulate_day_zero_single_row(cli):
    out = cli("simulate", "EVIDENCE", "0")
    assert len(out.strip().splitlines()) == 2


def test_simulate_writes_file(cli, tmp_path):
    out_file = tmp_path / "traj.csv"
    cli("simulate", "QUESTION", "7", "--out", str(out_file))
    assert out_file.exists()
    assert len(out_file.read_text().strip().splitlines()) == 9


def test_simulate_ends_lines_with_line_feeds(cli, tmp_path):
    out = cli("simulate", "QUESTION", "2")
    assert "\r" not in out and out.count("\n") == 4
    cli("simulate", "QUESTION", "2", "--out", str(tmp_path / "traj.csv"))
    assert (tmp_path / "traj.csv").read_bytes() == out.encode()


def test_simulate_unknown_class(cli):
    cli("simulate", "FACT", "5", expect=1)


# ---------------------------------------------------------------------------
# check-convergence
# ---------------------------------------------------------------------------

def test_check_convergence_empty(cli):
    out = cli("check-convergence")
    assert "max degree: 0" in out
    assert "sufficient condition met: yes" in out
    assert "7.1429" in out and "5.0000" in out


def test_check_convergence_star_graph(cli, tmp_path):
    records = [ko_rec(0, "DECISION")] + [ko_rec(i) for i in range(1, 9)]
    records += [edge_rec(f"k{i:03d}", "k000") for i in range(1, 9)]
    write_input(tmp_path / "in.jsonl", records)
    cli("ingest", str(tmp_path / "in.jsonl"))
    out = cli("check-convergence", "--empirical")
    assert "max degree: 8" in out
    assert "sufficient condition met: no" in out
    assert "empirically converged: yes" in out


# ---------------------------------------------------------------------------
# verify-t2 and configuration
# ---------------------------------------------------------------------------

def test_verify_t2_passes_from_fresh_checkout(cli):
    out = cli("verify-t2")
    assert out.count("ok") == 5
    assert "FAIL" not in out


def test_unknown_set_key_rejected(cli):
    cli("--set", "bogus=1", "verify-t2", expect=1)


def test_set_overrides_apply(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("--set", "eta=0.2", "--set", "alpha=0.5", "--set", "beta=0.3",
        "ingest", str(tmp_path / "in.jsonl"))


def test_bad_weight_override_rejected(cli):
    cli("--set", "alpha=0.9", "verify-t2", expect=1)


def test_explicit_preset_persists_across_invocations(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0, "QUESTION")])
    cli("--preset", "simulation", "ingest", str(tmp_path / "in.jsonl"))
    # no --preset here: the logged parameter change must carry over
    cli("cycle", "100")
    record = json.loads((tmp_path / "corpus.jsonl").read_text().splitlines()[1])
    assert float(record["scores"]["k"]) == pytest.approx(1 / 3, abs=1e-3)


def test_query_csv_format(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0, "EVIDENCE")])
    cli("ingest", str(tmp_path / "in.jsonl"))
    out = cli("--format", "csv", "query", "x", "--entity", "e0",
              "--domain", "ops", "--embedding", "1.0,0.0")
    lines = out.strip().splitlines()
    assert lines[0].startswith("ko_id,rank_score,hybrid,k_eff")
    assert lines[1].startswith("k000,")


def test_query_csv_quotes_ids_a_csv_reader_reads_back(cli, tmp_path):
    ids = ["a,b", 'q"x', "line\nbreak", "cr\rx"]
    write_input(tmp_path / "in.jsonl",
                [{**ko_rec(i), "id": ko_id} for i, ko_id in enumerate(ids)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    out = cli("--format", "csv", "query", "x", "--embedding", "1.0,0.0")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert out.endswith("\n") and "\r\n" not in out
    assert rows[0][0] == "ko_id" and {len(row) for row in rows} == {11}
    assert sorted(row[0] for row in rows[1:]) == sorted(ids)


def test_set_typed_overrides(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("--set", "gravity_radius=2", "--set", "lambda_profile=simulation",
        "--set", "koc_axis_weights=0.4,0.1,0.1,0.1,0.1,0.1,0.1",
        "ingest", str(tmp_path / "in.jsonl"))
    out = cli("cycle", "1")
    assert "cycle 1" in out


def test_set_requires_key_value_form(cli):
    cli("--set", "eta", "verify-t2", expect=1)


def test_cycle_rejects_negative_count(cli):
    cli("cycle", "-1", expect=1)


def test_simulate_rejects_negative_days_cli(cli):
    cli("simulate", "PLAN", "-3", expect=1)


@pytest.mark.parametrize("argv", [
    ["cycle", "abc"],
    ["--no-such-flag", "cycle", "1"],
    ["cycle", "1", "--no-such-flag"],
    [],
    ["no-such-command"],
    ["query", "x", "--embedding", "a,b"],
    ["check-convergence", "--empirical", "--tol", "0"],
    ["check-convergence", "--empirical", "--tol", "nan"],
    ["check-convergence", "--empirical", "--tol", "inf"],
    ["check-convergence", "--empirical", "--max-iters", "0"],
    ["simulate", "PLAN", "3", "--k0", "2"],
    ["simulate", "PLAN", "3", "--k0", "nan"],
])
def test_a_usage_error_is_a_contract_violation(argv, tmp_path, capsys):
    code = main(["--corpus", str(tmp_path / "corpus.jsonl"),
                 "--log", str(tmp_path / "events.jsonl"), *argv])
    captured = capsys.readouterr()
    assert code == 1, argv
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "events.jsonl").exists()  # nothing ran


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["cycle", "--help"])
    assert exited.value.code == 0 and "usage: kgravity cycle" in capsys.readouterr().out


def test_ingest_reads_edge_records_by_the_object_rules(cli, tmp_path):
    no_source = {k: v for k, v in edge_rec("k000", "k001").items() if k != "source"}
    no_time = {k: v for k, v in edge_rec("k001", "k000").items() if k != "created_at"}
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1), no_source,
                                        dict(edge_rec("k000", "k001"), created_at=None),
                                        no_time])
    out = cli("ingest", str(tmp_path / "in.jsonl"))
    assert out.splitlines() == [
        "2 KOs, 1 edges ingested; 2 rejected",
        "  line 4: missing field 'source'",
        "  line 5: created_at must be a timestamp like 2024-01-01T00:00:00Z, got None"]
    assert '"created_at":"1970-01-01T00:00:00Z"' in (tmp_path / "corpus.jsonl").read_text()


def test_preset_switch_logged_on_replay(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("--preset", "simulation", "ingest", str(tmp_path / "in.jsonl"))
    cli("--preset", "production", "cycle", "1")
    from kgravity import CorpusStore, read_events
    store = CorpusStore.replay(read_events(tmp_path / "events.jsonl"))
    assert store.params.eta == 0.15


def test_ingest_records_format(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1, cls="FACT")])
    out = cli("--format", "records", "ingest", str(tmp_path / "in.jsonl"))
    summary = json.loads(out)
    assert summary["kos"] == 1
    assert summary["rejections"][0]["line"] == 3


def test_cycle_csv_format(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    out = cli("--format", "csv", "cycle", "2")
    lines = out.strip().splitlines()
    assert lines[0] == "cycle,core,working,peripheral,dormant,max_delta_k"
    assert len(lines) == 3


def test_a_log_line_dated_after_its_payload_is_a_contract_error(cli, tmp_path, capsys):
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    log = tmp_path / "events.jsonl"
    lines = log.read_text().splitlines()
    record = json.loads(lines[-1])
    record["at"] = "2999-01-01T00:00:00Z"  # its payload still says 2024
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")
    (tmp_path / "events.jsonl.checkpoint").unlink()
    for argv in (["cycle", "1"], ["query", "x"]):
        code = main(["--corpus", str(tmp_path / "corpus.jsonl"), "--log", str(log)]
                    + argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "corrupt event at position 2" in err and "differs from its payload" in err
        assert "Traceback" not in err
    assert log.read_text().splitlines()[-1] == lines[-1]  # nothing appended


def test_query_on_non_object_log_line_is_a_contract_error(cli, tmp_path, capsys):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    with open(tmp_path / "events.jsonl", "a", encoding="utf-8") as f:
        f.write("[1,2]\n")
    code = main(["--corpus", str(tmp_path / "corpus.jsonl"),
                 "--log", str(tmp_path / "events.jsonl"), "query", "x"])
    assert code == 1
    assert "error: corrupt event log line 2" in capsys.readouterr().err


DEEP_LINE = "[" * 200_000


def run_main(workdir: Path, *argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--corpus", str(workdir / "corpus.jsonl"),
                     "--log", str(workdir / "events.jsonl"), *argv])
    return code, out.getvalue(), err.getvalue()


def test_verify_log_replays_the_log_when_no_checkpoint_is_beside_it(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    log = tmp_path / "events.jsonl"
    (tmp_path / "events.jsonl.checkpoint").unlink()
    assert cli("verify-log") == "no checkpoint: a full replay of 2 events succeeds\n"
    lines = log.read_text().splitlines()
    record = json.loads(lines[-1])
    record["at"] = "2999-01-01T00:00:00Z"  # its payload still says 2024
    lines[-1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run_main(tmp_path, "verify-log")
    assert (code, out) == (1, "")
    assert "corrupt event at position 2" in err and "Traceback" not in err


@pytest.mark.parametrize("change", [{"gravity_radius": 1.5}, {"gravity_radius": True},
                                    {"cycle_period_s": 21600.0}, {"cycle_period_s": -1}])
def test_a_logged_non_integer_radius_or_period_is_a_corrupt_event(cli, tmp_path, change):
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    cli("cycle", "1")
    log = tmp_path / "events.jsonl"
    last = json.loads(log.read_text().splitlines()[-1])
    params = {**EngineParams.production().to_dict(), **change}
    event = {"seq": last["seq"] + 1, "at": last["at"], "kind": "PARAMS_CHANGED",
             "payload": {"params": params}}
    with open(log, "a", encoding="utf-8") as f:
        f.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")
    code, out, err = run_main(tmp_path, "cycle", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"corrupt event at position {event['seq']}" in err
    assert "must be an integer" in err and "Traceback" not in err


def test_an_ingest_line_that_is_too_deep_or_not_utf8_names_its_line(tmp_path):
    header = json.dumps({"kind": "header", "format_version": 1}).encode()
    record = json.dumps(ko_rec(0)).encode()
    (tmp_path / "deep.jsonl").write_bytes(
        b"\n".join([header, DEEP_LINE.encode(), record]) + b"\n")
    code, out, _ = run_main(tmp_path, "ingest", str(tmp_path / "deep.jsonl"))
    assert code == 0
    assert out.splitlines() == ["1 KOs, 0 edges ingested; 1 rejected",
                                "  line 2: invalid JSON: nested too deeply to parse"]
    (tmp_path / "bytes.jsonl").write_bytes(
        b"\n".join([header, record.replace(b"k000", b"k\xff01")]) + b"\n")
    code, out, err = run_main(tmp_path, "ingest", str(tmp_path / "bytes.jsonl"))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 2: not UTF-8: invalid start byte")


def test_a_deep_line_in_the_log_or_checkpoint_is_reported(cli, tmp_path):
    write_input(tmp_path / "in.jsonl", [ko_rec(0), ko_rec(1)])
    cli("ingest", str(tmp_path / "in.jsonl"))
    log, checkpoint = tmp_path / "events.jsonl", tmp_path / "events.jsonl.checkpoint"
    good_log, good_checkpoint = log.read_bytes(), checkpoint.read_bytes()
    with open(log, "a", encoding="utf-8") as f:
        f.write(DEEP_LINE + "\n")
    for argv in (["query", "x"], ["cycle", "1"], ["verify-log"]):
        code, _, err = run_main(tmp_path, *argv)
        assert code == 1, argv
        assert err == "error: corrupt event log line 3: nested too deeply to parse\n"
    log.write_bytes(good_log)
    checkpoint.write_text(DEEP_LINE + "\n")  # a full replay stands in for it
    assert run_main(tmp_path, "query", "x")[0] == 0
    code, out, _ = run_main(tmp_path, "verify-log")
    assert code == 2 and out.startswith("checkpoint mismatch")
    assert checkpoint.read_bytes() != good_checkpoint  # not rewritten by a query


FUZZ_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                         suppress_health_check=[HealthCheck.too_slow])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
KO_LIKE = st.fixed_dictionaries(
    {"kind": st.sampled_from(["ko", "edge"])},
    optional={name: JSON_VALUES | st.sampled_from(list(ko_rec(0).values()))
              for name in list(ko_rec(0))[1:] + ["source", "target", "type", "scores"]})
CORPUS_LINES = st.lists(
    st.text(max_size=40).map(str.encode) | st.binary(max_size=40)
    | JSON_VALUES.map(json.dumps).map(str.encode)
    | KO_LIKE.map(json.dumps).map(str.encode),
    max_size=6)


@FUZZ_SETTINGS
@given(CORPUS_LINES)
@example([DEEP_LINE.encode()])
@example([json.dumps(ko_rec(0)).encode().replace(b"k000", b"k\xff01")])
@example([b"\x80", json.dumps(ko_rec(1)).encode()])
def test_ingest_of_arbitrary_lines_exits_0_or_1(lines):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        header = json.dumps({"kind": "header", "format_version": 1}).encode()
        (workdir / "in.jsonl").write_bytes(b"\n".join([header, *lines]) + b"\n")
        assert run_main(workdir, "ingest", str(workdir / "in.jsonl"))[0] in (0, 1)
        assert run_main(workdir, "query", "x")[0] in (0, 1)


@pytest.fixture(scope="module")
def session_files(tmp_path_factory):
    """The files of a short valid session: an ingest and two cycles."""
    workdir = tmp_path_factory.mktemp("session")
    write_input(workdir / "in.jsonl",
                [ko_rec(i, cls) for i, cls in enumerate(CLASSES_CYCLE)]
                + [edge_rec("k000", "k001"), edge_rec("k002", "k001", "CONTRADICTS")])
    assert run_main(workdir, "ingest", str(workdir / "in.jsonl"))[0] == 0
    assert run_main(workdir, "cycle", "2")[0] == 0
    return {name: (workdir / name).read_bytes()
            for name in ("events.jsonl", "events.jsonl.checkpoint", "corpus.jsonl")}


@FUZZ_SETTINGS
@given(tail=st.binary(max_size=60) | st.text(max_size=60).map(str.encode),
       command=st.sampled_from([("query", "x"), ("cycle", "1"), ("verify-log",)]))
@example(tail=DEEP_LINE.encode(), command=("query", "x"))
@example(tail=DEEP_LINE.encode(), command=("cycle", "1"))
@example(tail=DEEP_LINE.encode(), command=("verify-log",))
@example(tail=b"\xff\n", command=("verify-log",))
def test_commands_after_arbitrary_bytes_appended_to_the_log_exit_0_or_1(
        session_files, tail, command):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, data in session_files.items():
            (workdir / name).write_bytes(data)
        with open(workdir / "events.jsonl", "ab") as f:
            f.write(tail)
        assert run_main(workdir, *command)[0] in (0, 1)


# ---------------------------------------------------------------------------
# the cyclic collector
# ---------------------------------------------------------------------------

@pytest.fixture
def gc_state():
    """Sets the collector on or off for one test, and back as it was."""
    was = gc.isenabled()

    def set_to(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()
    yield set_to
    set_to(was)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_leaves_it_as_it_found_it(
        cli, tmp_path, gc_state, monkeypatch, enabled):
    write_input(tmp_path / "in.jsonl", [ko_rec(0)])
    gc_state(enabled)
    seen, collections, ended = [], [], []
    real = cli_module.cmd_ingest

    def ingest(*args):
        seen.append(gc.isenabled())
        start = len(collections)
        code = real(*args)
        seen.append(len(collections) - start)  # none ran during the command
        ended.append(len(collections))
        return code

    def count(phase, info):
        if phase == "stop":
            collections.append(info["generation"])
    monkeypatch.setattr(cli_module, "cmd_ingest", ingest)
    gc.callbacks.append(count)
    try:
        cli("ingest", str(tmp_path / "in.jsonl"))  # exit 0
    finally:
        gc.callbacks.remove(count)
    # the young generation, with the parser, is collected once it resumes
    assert seen == [False, 0]
    assert collections[ended[0]:ended[0] + 1] == ([0] if enabled else [])
    assert gc.isenabled() is enabled
    cli("cycle", "abc", expect=1)  # a ConfigError
    assert gc.isenabled() is enabled

    def fail(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("a handler that raises")
    monkeypatch.setattr(cli_module, "cmd_query", fail)
    with pytest.raises(RuntimeError, match="a handler that raises"):
        cli("query", "x")
    assert seen[-1] is False and gc.isenabled() is enabled

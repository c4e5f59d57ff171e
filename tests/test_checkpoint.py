"""Checkpointed startup: restoring the corpus export and replaying only the
log's tail must be indistinguishable from replaying the whole log."""

from __future__ import annotations

import base64
import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

import kgravity.cli as cli
import kgravity.store as store_module
from kgravity import (
    CorpusStore,
    EdgeType,
    EngineParams,
    EpistemicClass,
    ValidationError,
    append_events,
    read_events,
    write_corpus,
)
from kgravity.model import zone_for
from kgravity.store import (
    CheckpointError,
    EventKind,
    EventRecord,
    LogPosition,
    ReplayError,
    Workspace,
    checkpoint_path,
    corpus_lines,
    iso_to_ts,
    load_corpus,
    read_events_from,
    restore_checkpoint,
    write_checkpoint,
)
from tests.conftest import assert_kept_structure_is_fresh, make_koc, random_scenario

CLASSES = ["DECISION", "CONSTRAINT", "EVIDENCE", "NARRATIVE", "PLAN",
           "EVALUATION", "OBSERVATION", "HYPOTHESIS", "QUESTION"]


def ko_rec(i: int, cls: str, day: int = 1) -> dict:
    return {"kind": "ko", "id": f"k{i:03d}", "class": cls,
            "koc": {"entity": f"e{i % 4}", "domain": "ops", "class": cls,
                    "epoch": "q1", "depth": "l1", "author": "ana",
                    "variant": f"v{i}"},
            "content": f"record {i}", "stakes": 0.6,
            "created_at": f"2024-01-{day:02d}T00:00:00Z",
            "anchors": [f"a{i % 3}"], "embedding": [1.0, i / 10]}


def edge_rec(source: int, target: int, edge_type: str, day: int = 2) -> dict:
    return {"kind": "edge", "source": f"k{source:03d}", "target": f"k{target:03d}",
            "type": edge_type, "created_at": f"2024-01-{day:02d}T00:00:00Z"}


def write_input(path: Path, records: list[dict]) -> Path:
    lines = [json.dumps({"kind": "header", "format_version": 1, "embedding_dim": 2})]
    path.write_text("\n".join(lines + [json.dumps(r) for r in records]) + "\n",
                    encoding="utf-8")
    return path


def first_batch(path: Path) -> Path:
    records = [ko_rec(i, CLASSES[i % len(CLASSES)]) for i in range(12)]
    records += [edge_rec(0, 1, "SUPPORTS"), edge_rec(2, 1, "CONTRADICTS"),
                edge_rec(3, 8, "BLOCKS"), edge_rec(4, 0, "BASED_ON"),
                edge_rec(5, 6, "SUPPORTS")]
    return write_input(path, records)


def second_batch(path: Path) -> Path:
    records = [ko_rec(i, CLASSES[i % len(CLASSES)], day=9) for i in range(12, 18)]
    records += [edge_rec(12, 1, "SUPPORTS", day=9), edge_rec(13, 12, "REFINES", day=9)]
    return write_input(path, records)


def run(workdir: Path, *argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["--corpus", str(workdir / "corpus.jsonl"),
                         "--log", str(workdir / "events.jsonl"), *argv])
    return code, out.getvalue(), err.getvalue()


def files(workdir: Path) -> dict[str, bytes]:
    return {name: (workdir / name).read_bytes()
            for name in ("corpus.jsonl", "events.jsonl") if (workdir / name).exists()}


def without_checkpoint(workdir: Path, tmp_path: Path) -> Path:
    """A copy of ``workdir`` minus the checkpoint file."""
    copy = tmp_path / "plain"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(workdir, copy)
    checkpoint_path(copy / "events.jsonl").unlink(missing_ok=True)
    return copy


def run_both(workdir: Path, tmp_path: Path, *argv: str) -> tuple[int, str, str]:
    """Run ``argv`` on ``workdir`` and on a copy without its checkpoint;
    both must print the same and leave the same corpus and log."""
    plain = without_checkpoint(workdir, tmp_path)
    result = run(workdir, *argv)
    assert run(plain, *argv) == result
    assert files(plain) == files(workdir)
    return result


@pytest.fixture
def starts(monkeypatch):
    """How each CLI startup went: ("restored", position, tail events) or
    ("replayed", reason, events)."""
    seen: list[tuple] = []
    pending: list[tuple] = []
    real_restore, real_read = store_module.restore_checkpoint, store_module.read_events_from

    def restore(log, corpus):
        try:
            result = real_restore(log, corpus)
        except CheckpointError as exc:
            pending.append(("replayed", str(exc)))
            raise
        pending.append(("restored", result[1]))
        return result

    def read(path, start):
        events, end = real_read(path, start)
        if pending:
            seen.append(pending.pop() + (len(events),))
        return events, end

    monkeypatch.setattr(store_module, "restore_checkpoint", restore)
    monkeypatch.setattr(store_module, "read_events_from", read)
    return seen


@pytest.fixture
def session(tmp_path) -> Path:
    workdir = tmp_path / "state"
    workdir.mkdir()
    assert run(workdir, "ingest", str(first_batch(tmp_path / "in1.jsonl")))[0] == 0
    assert run(workdir, "cycle", "2")[0] == 0
    return workdir


def append_by_library(workdir: Path, operate) -> int:
    """Apply ``operate`` to the replayed store and append its events to the
    log without touching the corpus or the checkpoint."""
    log = workdir / "events.jsonl"
    store = CorpusStore.replay(read_events(log))
    before = store.last_seq
    operate(store)
    append_events(log, store.events_after(before))
    return store.last_seq - before


# ---------------------------------------------------------------------------
# The same bytes with the checkpoint and without it
# ---------------------------------------------------------------------------

def test_cli_session_is_byte_identical_with_and_without_checkpoint(tmp_path, starts):
    workdir = tmp_path / "state"
    workdir.mkdir()
    query = ("query", "pilot", "--entity", "e1", "--domain", "ops",
             "--anchors", "a1", "--embedding", "1.0,0.3", "--top-k", "5")

    run_both(workdir, tmp_path, "ingest", str(first_batch(tmp_path / "in1.jsonl")))
    assert starts == []  # no log yet: nothing to restore
    outputs = [run_both(workdir, tmp_path, "cycle", "2"),
               run_both(workdir, tmp_path, *query)]

    at = 1_705_000_000
    added = append_by_library(workdir, lambda s: (
        s.resolve_question("k008", "k000", at=at),
        s.record_retrieval("k001", at=at + 60)))
    outputs += [run_both(workdir, tmp_path, "--format", "records", *query),
                run_both(workdir, tmp_path, "--preset", "simulation", "cycle", "1"),
                run_both(workdir, tmp_path, "--set", "eta=0.2", "ingest",
                         str(second_batch(tmp_path / "in2.jsonl"))),
                run_both(workdir, tmp_path, "--set", "eta=0.2", "--format", "csv",
                         "cycle", "3"),
                run_both(workdir, tmp_path, "--format", "csv", *query),
                run_both(workdir, tmp_path, "check-convergence", "--empirical")]
    assert all(code == 0 and out for code, out, _ in outputs)

    restored = [s for s in starts if s[0] == "restored"]
    assert len(restored) == 8  # every start after the first ingest
    assert restored[2][2] == added  # the library's events were the tail
    assert [s[0] for s in starts].count("replayed") == 8  # every plain copy
    kinds = [e.kind.value for e in read_events(workdir / "events.jsonl")]
    assert kinds.count("PARAMS_CHANGED") == 2
    assert "QUESTION_RESOLVED" in kinds
    assert run(workdir, "verify-log")[0] == 0


def test_library_events_after_the_checkpoint_are_the_tail(session, tmp_path, starts):
    added = append_by_library(session, lambda s: [
        s.record_retrieval(f"k{i:03d}", at=1_705_000_000 + i) for i in range(5)])
    code, out, _ = run_both(session, tmp_path, "--format", "records", "query", "x")
    assert code == 0
    assert starts[0][0] == "restored" and starts[0][2] == added == 5


# ---------------------------------------------------------------------------
# Falling back to a full replay
# ---------------------------------------------------------------------------

def _edit_json(path: Path, **changes) -> None:
    record = json.loads(path.read_text())
    record.update(changes)
    path.write_text(json.dumps(record) + "\n")


def _rewrite_last_line(log: Path) -> None:
    # The same seq, a different cycle time: a restore would disagree with
    # the log, so it must not be used.
    lines = log.read_bytes().splitlines(keepends=True)
    event = json.loads(lines[-1])
    assert event["kind"] == "CYCLE_APPLIED"
    event["payload"]["at"] += 3600
    event["at"] = store_module.ts_to_iso(event["payload"]["at"])
    lines[-1] = (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()
    log.write_bytes(b"".join(lines))


def _truncate_log(log: Path) -> None:
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:-2]))


def _edit_corpus(corpus: Path) -> None:
    corpus.write_text(corpus.read_text().replace('"record 3"', '"record three"'))


DOCTORS = {
    "missing checkpoint": lambda d: checkpoint_path(d / "events.jsonl").unlink(),
    "corrupt checkpoint JSON": lambda d: checkpoint_path(d / "events.jsonl").write_text("{"),
    "checkpoint not an object": lambda d: checkpoint_path(d / "events.jsonl").write_text("[]"),
    "edited corpus": lambda d: _edit_corpus(d / "corpus.jsonl"),
    "missing corpus": lambda d: (d / "corpus.jsonl").unlink(),
    "truncated log": lambda d: _truncate_log(d / "events.jsonl"),
    "log line at the offset rewritten": lambda d: _rewrite_last_line(d / "events.jsonl"),
    "seq changed": lambda d: _edit_json(checkpoint_path(d / "events.jsonl"), seq=3),
    "fingerprint mismatch": lambda d: _edit_json(
        checkpoint_path(d / "events.jsonl"),
        params=EngineParams.production(eta=0.2).to_dict()),
}


@pytest.mark.parametrize("doctor", sorted(DOCTORS))
def test_a_checkpoint_that_does_not_match_falls_back_to_full_replay(
        session, tmp_path, starts, doctor):
    DOCTORS[doctor](session)
    for argv in (("--format", "records", "query", "x", "--entity", "e2"),
                 ("--format", "records", "cycle", "1"),
                 ("--format", "records", "query", "x", "--entity", "e2")):
        code, out, err = run_both(session, tmp_path, *argv)
        assert code == 0, err
    assert starts[0][0] == "replayed"
    assert starts[2][0] == "replayed"  # the query alone wrote no checkpoint
    assert starts[4][0] == "restored" and starts[4][2] == 0  # the cycle did
    assert run(session, "verify-log")[0] == 0


def test_corrupt_tail_line_keeps_its_line_number(session, tmp_path, starts):
    log = session / "events.jsonl"
    n_lines = len(log.read_bytes().splitlines())
    with open(log, "a", encoding="utf-8") as f:
        f.write("[1,2]\n")
    code, _, err = run(session, "query", "x")
    assert code == 1
    assert f"error: corrupt event log line {n_lines + 1}" in err
    assert starts == []  # the tail failed to parse
    assert run(without_checkpoint(session, tmp_path), "query", "x") == (code, "", err)


def test_append_after_a_torn_final_newline_starts_a_new_line(session, tmp_path):
    twin = tmp_path / "twin"
    shutil.copytree(session, twin)
    log = session / "events.jsonl"
    log.write_bytes(log.read_bytes()[:-1])  # as a crash during an append can leave it
    for argv in (("cycle", "1"), ("query", "x", "--entity", "e2"), ("verify-log",)):
        result = run(session, *argv)
        assert result[0] == 0, result[2]
        assert result == run(twin, *argv)
    assert files(session) == files(twin)


def test_tail_must_continue_the_checkpoint_seq(session, tmp_path):
    log = session / "events.jsonl"
    last = json.loads(log.read_bytes().splitlines()[-1])
    last["seq"] += 2
    with open(log, "a", encoding="utf-8") as f:
        f.write(json.dumps(last) + "\n")
    result = run(session, "query", "x")
    assert result[0] == 1 and "seq gap at position" in result[2]
    assert run(without_checkpoint(session, tmp_path), "query", "x") == result


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class _TornFile:
    """A file whose first ``intact`` writes succeed; the next writes half
    its data and fails."""

    def __init__(self, f, intact: int = 0):
        self._f, self._intact, self.writes = f, intact, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes <= self._intact:
            return self._f.write(text)
        self._f.write(text[: len(text) // 2])
        raise OSError("no space left on device")


@pytest.mark.parametrize("failure", ["write", "later write", "replace"])
def test_failed_corpus_write_keeps_the_previous_corpus(
        session, tmp_path, monkeypatch, starts, failure):
    corpus = session / "corpus.jsonl"
    before = corpus.read_bytes()
    torn = []
    with monkeypatch.context() as patch:
        if failure in ("write", "later write"):
            # "later write": the corpus spans several batches, and the
            # failure comes after the first batch was written
            intact = 1 if failure == "later write" else 0
            patch.setattr(store_module, "_WRITE_BATCH", 1000)

            def torn_open(path, mode="r", *args, **kwargs):
                f = open(path, mode, *args, **kwargs)
                if not str(path).endswith(".tmp"):
                    return f
                torn.append(_TornFile(f, intact))
                return torn[-1]
            patch.setattr(store_module, "open", torn_open, raising=False)
        else:
            def no_replace(src, dst):
                raise OSError("device busy")
            patch.setattr(store_module.os, "replace", no_replace)
        code, _, err = run(session, "cycle", "1")
    assert code == 1 and "error:" in err
    assert corpus.read_bytes() == before
    if failure != "replace":
        assert len(before) > 3 * 1000 and [f.writes for f in torn] == [
            2 if failure == "later write" else 1]
    assert sorted(p.name for p in session.iterdir()) == [
        "corpus.jsonl", "events.jsonl", "events.jsonl.checkpoint"]

    starts.clear()
    code, out, _ = run_both(session, tmp_path, "--format", "records", "cycle", "1")
    assert code == 0
    # the cycle logged before the failed export is the tail
    assert starts[0][0] == "restored" and starts[0][2] == 1
    assert json.loads(out)["cycle"] == 1
    assert run(session, "verify-log")[0] == 0


# ---------------------------------------------------------------------------
# verify-log
# ---------------------------------------------------------------------------

def test_verify_log_passes_on_a_consistent_checkpoint(session):
    code, out, _ = run(session, "verify-log")
    assert code == 0 and out.startswith("ok: the checkpoint at seq")


def test_verify_log_without_checkpoint_passes(session, tmp_path):
    assert run(tmp_path, "verify-log") == (0, "no checkpoint: nothing to verify\n", "")
    checkpoint_path(session / "events.jsonl").unlink()
    assert run(session, "verify-log")[0] == 0


def _doctor_corpus_and_rehash(workdir: Path, edit=_edit_corpus) -> None:
    # The checkpoint vouches for the edited corpus, so only a full replay
    # shows that it is wrong.
    corpus = workdir / "corpus.jsonl"
    edit(corpus)
    _edit_json(checkpoint_path(workdir / "events.jsonl"),
               corpus_sha256=store_module._sha256(corpus.read_bytes()))


def _edit_corpus_record(corpus: Path, index: int, edit) -> None:
    """Apply ``edit`` to the record on body line ``index`` of the corpus and
    write it back in the form ``write_corpus`` writes."""
    lines = corpus.read_text().splitlines()
    record = json.loads(lines[index + 1])
    edit(record)
    lines[index + 1] = store_module._dump_line(record)
    corpus.write_text("\n".join(lines) + "\n")


def _edit_k(corpus: Path) -> None:
    # Well-formed: every field is there and of its type, only the value of
    # one object's k differs from what the log gives it.
    def edit(record):
        assert record["kind"] == "ko" and record["scores"]["k"] != "0.000000001"
        record["scores"]["k"] = "0.000000001"
    _edit_corpus_record(corpus, 3, edit)


def _respace_corpus(corpus: Path) -> None:
    # The same JSON, other bytes: a restore accepts it and would re-emit it.
    lines = corpus.read_text().splitlines()
    lines[1] = json.dumps(json.loads(lines[1]), sort_keys=True)
    corpus.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("doctor", [
    lambda d: _edit_json(checkpoint_path(d / "events.jsonl"), latest_event_at=5),
    lambda d: _edit_json(checkpoint_path(d / "events.jsonl"), seq=2),
    lambda d: checkpoint_path(d / "events.jsonl").write_text("{"),
    lambda d: _edit_corpus(d / "corpus.jsonl"),
    _doctor_corpus_and_rehash,
    lambda d: _doctor_corpus_and_rehash(d, _respace_corpus),
    lambda d: _doctor_corpus_and_rehash(d, _edit_k),
], ids=["latest time", "seq", "corrupt", "corpus", "corpus rehashed",
        "corpus re-spaced and rehashed", "k edited and rehashed"])
def test_verify_log_fails_on_a_doctored_checkpoint_or_corpus(session, doctor):
    doctor(session)
    code, out, _ = run(session, "verify-log")
    assert code == cli.EXIT_VERIFICATION and out.startswith("checkpoint mismatch")


# ---------------------------------------------------------------------------
# The trusted restore
# ---------------------------------------------------------------------------

def varied_store(seed: int) -> CorpusStore:
    """A seeded store after several cycles, with every class (QUESTIONs
    resolved and open among them), anchors, objects with and without
    embeddings, retrievals and every edge type."""
    rng = random.Random(seed)
    store = CorpusStore()
    random_scenario(store, seed, n_events=120)
    clock = max(store.latest_event_at(), store.last_cycle_at or 0)
    for i in range(11):
        cls = list(EpistemicClass)[i % 9] if i < 9 else EpistemicClass.QUESTION
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"plain{i % 3}", variant=f"p{i}"),
                        content=f"no embedding {i}", created_at=clock + i,
                        stakes=0.5, anchors=[f"a{i % 4}"] if i % 2 else [])
    ids = sorted(store.snapshot().kos)
    for edge_type in EdgeType:
        while True:
            source, target = rng.sample(ids, 2)
            try:
                store.add_edge(source, target, edge_type, at=clock + 20)
                break
            except ValidationError:
                pass
    kos = store.snapshot().kos
    questions = [i for i in ids if kos[i].cls is EpistemicClass.QUESTION
                 and not kos[i].resolved]
    resolver = next(i for i in ids if kos[i].cls is EpistemicClass.DECISION)
    store.resolve_question(questions[0], resolver, at=clock + 30)
    for n in range(20):
        store.record_retrieval(rng.choice(ids), at=clock + 40 + n)
    store.apply_cycle()
    store.apply_cycle()
    return store


def checkpointed(store: CorpusStore, workdir: Path) -> tuple[Path, Path]:
    """Persist ``store``'s log, corpus and checkpoint as the CLI does."""
    log, corpus = workdir / "events.jsonl", workdir / "corpus.jsonl"
    append_events(log, store.events)
    end = LogPosition(log.stat().st_size, len(store.events))
    write_checkpoint(log, write_corpus(store, corpus), store, end)
    return log, corpus


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trusted_restore_equals_the_validating_load(tmp_path, seed):
    store = varied_store(seed)
    kos = store.snapshot().kos.values()
    assert {ko.cls for ko in kos} == set(EpistemicClass)
    assert any(ko.resolved for ko in kos)
    assert any(ko.cls is EpistemicClass.QUESTION and not ko.resolved for ko in kos)
    assert any(ko.anchors for ko in kos) and any(not ko.anchors for ko in kos)
    assert any(ko.embedding is None for ko in kos)
    assert any(ko.embedding is not None for ko in kos)
    assert any(ko.retrieved_at for ko in kos)
    assert {e.edge_type for e in store.snapshot().edges} == set(EdgeType)
    log, corpus = checkpointed(store, tmp_path)

    restored, _ = restore_checkpoint(log, corpus)
    loaded = load_corpus(corpus, params=restored.params)
    assert list(restored._kos) == list(loaded._kos)
    for ko_id, ko in loaded._kos.items():
        # repr tells a bool from an int and an int from a float
        assert restored._kos[ko_id] == ko and repr(restored._kos[ko_id]) == repr(ko)
    assert restored._edges == loaded._edges
    assert [repr(e) for e in restored._edges] == [repr(e) for e in loaded._edges]
    assert restored._edge_keys == loaded._edge_keys
    assert restored._edge_keys == CorpusStore.replay(read_events(log))._edge_keys
    # each key's type is an EdgeType member, which hashes as its value string
    assert {type(key[2]) for key in restored._edge_keys} == {EdgeType}
    assert EdgeType.__hash__ is str.__hash__
    assert restored._embedding_dim == loaded._embedding_dim is not None
    assert restored._last_cycle_at == loaded._last_cycle_at is not None
    # each object keeps its own line, and the store's objects are the log's
    lines = corpus.read_text().splitlines()
    assert {line for _, line in restored._ko_lines.values()} | set(
        restored._edge_lines) == set(lines[1:])
    for ko_id, (ko, line) in restored._ko_lines.items():
        assert ko is restored._kos[ko_id] and json.loads(line)["id"] == ko_id
    assert restored.snapshot().kos == store.snapshot().kos
    assert restored.snapshot().edges == store.snapshot().edges


def test_a_restore_reads_times_at_the_range_ends_as_iso_to_ts(tmp_path):
    first, before_1970, leap_day, last = (iso_to_ts(text) for text in (
        "1000-01-01T00:00:00Z", "1969-07-20T20:17:40Z", "2024-02-29T12:00:00Z",
        "9999-12-31T23:59:59Z"))
    store = CorpusStore()
    a, b = (store.ingest_ko(cls=EpistemicClass.EVIDENCE, content=name, created_at=first,
                            koc=make_koc(EpistemicClass.EVIDENCE, variant=name))
            for name in "ab")
    store.add_edge(a, b, EdgeType.SUPPORTS, at=before_1970)
    for at in (before_1970, leap_day, last):
        store.record_retrieval(a, at=at)
    store.apply_cycle(now=last)
    restored, _ = restore_checkpoint(*checkpointed(store, tmp_path))
    assert restored._kos[a].created_at == first
    assert restored._kos[a].retrieved_at == (before_1970, leap_day, last)
    assert [e.created_at for e in restored._edges] == [before_1970]
    assert restored.last_cycle_at == last
    assert restored.snapshot().kos == store.snapshot().kos


def _drop(name: str, nested: str | None = None):
    def edit(record):
        del (record[nested] if nested else record)[name]
    return edit


def _set_field(name: str, value):
    def edit(record):
        record[name] = value
    return edit


def _in_record(index: int, edit):
    """A corpus edit: ``edit`` applied to the record on body line ``index``,
    counted from the end when negative."""
    def doctor(corpus: Path) -> None:
        body_lines = len(corpus.read_text().splitlines()) - 1
        _edit_corpus_record(corpus, index % body_lines, edit)
    return doctor


def _repeat_last_line(corpus: Path) -> None:
    lines = corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines + lines[-1:]) + "\n")


def _move_last_edge_line(above: int):
    """A corpus edit: the last (edge) line moved to body line ``above``, so
    that object lines follow it; both of its ends are still in the corpus."""
    def doctor(corpus: Path) -> None:
        lines = corpus.read_text().splitlines()
        assert json.loads(lines[-1])["kind"] == "edge"
        lines.insert(above + 1, lines.pop())
        corpus.write_text("\n".join(lines) + "\n")
    return doctor


def _self_loop(record: dict) -> None:
    assert record["kind"] == "edge"
    record["target"] = record["source"]


MALFORMED = {
    "ko missing stakes": _in_record(3, _drop("stakes")),
    "ko missing resolved": _in_record(3, _drop("resolved")),
    "ko missing a koc axis": _in_record(3, _drop("variant", "koc")),
    "ko missing a score": _in_record(3, _drop("k", "scores")),
    "edge missing created_at": _in_record(-1, _drop("created_at")),
    "scores a list": _in_record(3, _set_field("scores", [1, 2])),
    "retrieved_at a number": _in_record(3, _set_field("retrieved_at", 5)),
    "created_at a number": _in_record(3, _set_field("created_at", 5)),
    "anchors a number": _in_record(3, _set_field("anchors", 7)),
    "koc a string": _in_record(3, _set_field("koc", "acme")),
    "unknown class": _in_record(3, _set_field("class", "RUMOUR")),
    "stakes not a number": _in_record(3, _set_field("stakes", "high")),
    "unknown edge type": _in_record(-1, _set_field("type", "LIKES")),
    "kind a list": _in_record(3, _set_field("kind", [1])),
    # well-formed records that break a rule on the store's state
    "repeated edge line": _repeat_last_line,
    "edge to an unknown id": _in_record(-1, _set_field("target", "ghost")),
    "repeated object id": _in_record(3, _set_field("id", "k002")),
    "edge line above the object lines": _move_last_edge_line(0),
    "self-loop edge": _in_record(-1, _self_loop),
    "empty corpus": lambda corpus: corpus.write_bytes(b""),
}


@pytest.mark.parametrize("doctor", sorted(MALFORMED))
def test_a_vouched_for_malformed_corpus_falls_back_to_full_replay(
        session, tmp_path, starts, doctor):
    query = ("--format", "records", "query", "x", "--entity", "e2", "--top-k", "20")
    before = run(without_checkpoint(session, tmp_path), *query)
    _doctor_corpus_and_rehash(session, MALFORMED[doctor])
    with pytest.raises(CheckpointError):
        restore_checkpoint(session / "events.jsonl", session / "corpus.jsonl")
    code, out, err = run(session, *query)
    assert (code, out, err) == before and code == 0 and out
    assert starts[-1][0] == "replayed"


def _edit_checkpoint(edit):
    """A checkpoint edit: ``edit`` applied to the checkpoint's record."""
    def doctor(workdir: Path) -> None:
        path = checkpoint_path(workdir / "events.jsonl")
        record = json.loads(path.read_text())
        edit(record, workdir)
        path.write_text(json.dumps(record) + "\n")
    return doctor


def _truncate_image(record: dict, workdir: Path) -> None:
    # Whole base64 groups, rehashed: the marshal data itself ends early.
    record["image"] = record["image"][:len(record["image"]) // 8 * 4]
    record["image_sha256"] = store_module._sha256(base64.b64decode(record["image"]))


def _change_image_character(record: dict, workdir: Path) -> None:
    image, middle = record["image"], len(record["image"]) // 2
    swapped = "B" if image[middle] == "A" else "A"
    record["image"] = image[:middle] + swapped + image[middle + 1:]


def _image_of(grow: bool, corpus_sha256: str | None = None):
    """A checkpoint edit: the image, with its SHA-256, of the restored store,
    grown by one object if ``grow``, naming ``corpus_sha256`` if given."""
    def edit(record: dict, workdir: Path) -> None:
        store, _ = restore_checkpoint(workdir / "events.jsonl", workdir / "corpus.jsonl")
        if grow:
            store.ingest_record(ko_rec(40, "EVIDENCE", day=20))
        image = store_module._image(store, corpus_sha256 or record["corpus_sha256"])
        record["image"] = base64.b64encode(image).decode("ascii")
        record["image_sha256"] = store_module._sha256(image)
    return edit


BROKEN_IMAGES = {
    "no image": _edit_checkpoint(lambda record, _: record.pop("image")),
    "truncated base64": _edit_checkpoint(_truncate_image),
    "one base64 character changed": _edit_checkpoint(_change_image_character),
    "wrong image_sha256": _edit_checkpoint(
        lambda record, _: record.update(image_sha256="0" * 64)),
    "image of another corpus": _edit_checkpoint(_image_of(False, "0" * 64)),
    "one object more than the corpus lines": _edit_checkpoint(_image_of(True)),
}


@pytest.mark.parametrize("doctor", sorted(BROKEN_IMAGES))
def test_a_broken_checkpoint_image_falls_back_to_full_replay(
        session, tmp_path, starts, doctor):
    query = ("--format", "records", "query", "x", "--entity", "e2", "--top-k", "20")
    before = run(without_checkpoint(session, tmp_path), *query)
    BROKEN_IMAGES[doctor](session)
    with pytest.raises(CheckpointError):
        restore_checkpoint(session / "events.jsonl", session / "corpus.jsonl")
    code, out, err = run(session, *query)
    assert (code, out, err) == before and code == 0 and out
    assert starts[-1][0] == "replayed"


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_live_replayed_and_restored_stores_write_the_same_checkpoint(tmp_path, seed):
    store = varied_store(seed)
    log, corpus = checkpointed(store, tmp_path)
    written = checkpoint_path(log).read_bytes()
    assert {"image", "image_sha256"} <= json.loads(written).keys()
    replayed = CorpusStore.replay(read_events(log))
    restored, end = restore_checkpoint(log, corpus)
    assert state_of(restored) == state_of(replayed) == state_of(store)
    for other in (replayed, restored):
        write_checkpoint(log, write_corpus(other, corpus), other, end)
        assert checkpoint_path(log).read_bytes() == written


def test_a_state_marshal_cannot_hold_is_saved_without_an_image(tmp_path, starts):
    class Number(float):
        pass

    class Text(str):
        pass

    log, corpus = tmp_path / "events.jsonl", tmp_path / "corpus.jsonl"
    workspace = Workspace(log, corpus)
    store = workspace.open()
    cls = EpistemicClass.EVIDENCE
    a = store.ingest_ko(cls=cls, koc=make_koc(cls, variant="a"), content="a",
                        created_at=1_700_000_000, embedding=[Number(0.5), 1, True])
    # a float subclass is held as the float the log gives back
    assert list(map(type, store.snapshot().kos[a].embedding)) == [float, int, bool]
    workspace.save()
    assert "image" in json.loads(checkpoint_path(log).read_text())
    store.ingest_ko(cls=cls, koc=make_koc(cls, variant="b"), content=Text("b"),
                    created_at=1_700_000_000)
    workspace.save()
    assert "image" not in json.loads(checkpoint_path(log).read_text())
    with pytest.raises(CheckpointError, match=r"KeyError\('image'\)"):
        restore_checkpoint(log, corpus)
    assert state_of(Workspace(log, corpus).open()) == state_of(store)
    assert [s[0] for s in starts] == ["replayed"]


def test_a_restored_store_rejects_an_edge_it_holds(session):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    store, _ = restore_checkpoint(log, corpus)
    edge, at = store.snapshot().edges[0], store.latest_event_at()
    for edge_type in (edge.edge_type, edge.edge_type.value):
        with pytest.raises(ValidationError, match="duplicate edge"):
            store.add_edge(edge.source_id, edge.target_id, edge_type, at=at)
    # the same ends under another type are another edge
    other = next(t for t in EdgeType if (edge.source_id, edge.target_id, t.value)
                 not in store._edge_keys)
    store.add_edge(edge.source_id, edge.target_id, other, at=at)

    # A log tail that creates a restored edge again is corrupt.
    payload = {"source": edge.source_id, "target": edge.target_id,
               "type": edge.edge_type.value, "at": at}
    seq = restore_checkpoint(log, corpus)[0].last_seq + 1
    append_events(log, [EventRecord(seq, at, EventKind.EDGE_CREATED, payload)])
    base, start = restore_checkpoint(log, corpus)
    with pytest.raises(ReplayError, match=f"corrupt event at position {seq}.*duplicate edge"):
        CorpusStore.replay(read_events_from(log, start)[0], base=base)
    code, _, err = run(session, "query", "x")
    assert code == 1 and "duplicate edge" in err


@pytest.mark.parametrize("batch", [100, 2000, None], ids=["line", "lines", "default"])
def test_a_batched_export_is_the_corpus_lines_and_their_hash(
        tmp_path, monkeypatch, batch):
    store = varied_store(1)
    if batch is None:  # enough objects for several default batches
        for i in range(200):
            cls = list(EpistemicClass)[i % 9]
            store.ingest_ko(cls=cls, koc=make_koc(cls, variant=f"bulk{i}"),
                            content="x" * 400, created_at=store.latest_event_at())
    else:
        monkeypatch.setattr(store_module, "_WRITE_BATCH", batch)
    lines, writes = corpus_lines(store), []
    limit = store_module._WRITE_BATCH

    def recording_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        real_write = f.write
        f.write = lambda data: writes.append(data) or real_write(data)
        return f
    monkeypatch.setattr(store_module, "open", recording_open, raising=False)
    path = tmp_path / "corpus.jsonl"
    digest = write_corpus(store, path)

    data = path.read_bytes()
    assert digest == store_module._sha256(data)
    assert data.decode("utf-8") == "".join(line + "\n" for line in lines)
    assert len(writes) > 2 and b"".join(writes) == data
    for chunk in writes:
        chunk_lines = chunk.decode("utf-8").split("\n")[:-1]
        # a batch is one line, or lines that together fit the limit
        assert len(chunk_lines) == 1 or sum(map(len, chunk_lines)) <= limit
    if batch == 100:  # every line is longer than a batch: one write each
        assert min(map(len, lines)) > batch and len(writes) == len(lines)


# ---------------------------------------------------------------------------
# Exports that re-emit the restored corpus lines
# ---------------------------------------------------------------------------

def test_export_after_restore_equals_full_replay_export(session, tmp_path):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    base, start = restore_checkpoint(log, corpus)
    store = CorpusStore.replay(read_events_from(log, start)[0], base=base)
    before = store.last_seq
    store.ingest_record(ko_rec(40, "EVIDENCE", day=20))
    store.add_edge("k040", "k001", "SUPPORTS", at=store.latest_event_at())
    store.record_retrieval("k002", at=store.latest_event_at() + 60)
    store.apply_cycle()
    append_events(log, store.events_after(before))
    exported = tmp_path / "exported.jsonl"
    write_corpus(store, exported)

    replayed = CorpusStore.replay(read_events(log))
    assert exported.read_text() == "\n".join(corpus_lines(replayed)) + "\n"
    kept = store._ko_lines
    reused = [i for i, ko in store.snapshot().kos.items()
              if i in kept and kept[i][0] is ko]
    assert reused and "k002" not in reused and "k040" not in kept
    assert len(store._edge_lines) == 5  # the restored edges; the new one is not


# Content that could fool a splice that looked for the score tail's key
# instead of checking the tail: the key itself, quotes, backslashes,
# non-ASCII text and U+2028, which JSON holds raw.
TRICKY_TEXT = st.lists(st.sampled_from(
    [',"scores":{', '"', "\\", "é", "中", "\u2028", "x", " ", "}"]),
    min_size=1, max_size=6).map("".join)
DRAWN_CLASSES = [EpistemicClass.QUESTION, EpistemicClass.DECISION,
                 EpistemicClass.HYPOTHESIS, EpistemicClass.OBSERVATION]


def drawn_ingest(store: CorpusStore, data, at: int) -> str:
    n = len(store.snapshot().kos)
    cls = data.draw(st.sampled_from(DRAWN_CLASSES))
    return store.ingest_ko(
        cls=cls, koc=make_koc(cls, entity=data.draw(TRICKY_TEXT), variant=f"v{n}"),
        content=data.draw(TRICKY_TEXT), created_at=at,
        stakes=data.draw(st.sampled_from([0.0, 0.4, 1.0])),
        anchors=data.draw(st.lists(TRICKY_TEXT, max_size=2)),
        embedding=data.draw(st.sampled_from([None, [1.0, 0.5], [-0.25, 3.0]])))


def assert_export_is_fresh(store: CorpusStore) -> list[str]:
    """``store``'s export equals, byte for byte, the export of the same
    state with no kept object lines; returns it."""
    exported, kept = corpus_lines(store), dict(store._ko_lines)
    store._ko_lines.clear()
    try:
        assert exported == corpus_lines(store)
    finally:
        store._ko_lines.update(kept)
    return exported


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_spliced_export_equals_a_fresh_one(data):
    clock = 1_700_000_000
    store = CorpusStore()
    ids = [drawn_ingest(store, data, clock) for _ in range(data.draw(st.integers(2, 6)))]
    question = store.ingest_ko(cls=EpistemicClass.QUESTION, content="open?",
                               koc=make_koc(EpistemicClass.QUESTION, variant="open"),
                               created_at=clock, stakes=0.8)
    ids.append(question)
    store.add_edge(ids[0], question, EdgeType.SUPPORTS, at=clock)
    store.apply_cycle(now=clock + 86400)
    with tempfile.TemporaryDirectory() as workdir:
        log, corpus = checkpointed(store, Path(workdir))
        restored, _ = restore_checkpoint(log, corpus)
    ops = data.draw(st.lists(st.sampled_from(["cycle", "resolve", "retrieve", "ingest"]),
                             max_size=6))
    for op in ops:
        clock = max(clock, restored.last_cycle_at) + data.draw(st.sampled_from([0, 3600, 86400]))
        pick = data.draw(st.sampled_from(ids))
        try:
            if op == "cycle":
                restored.apply_cycle(now=clock)
            elif op == "resolve":
                restored.resolve_question(pick, data.draw(st.sampled_from(ids)), at=clock)
            elif op == "retrieve":
                restored.record_retrieval(pick, at=clock)
            else:
                ids.append(drawn_ingest(restored, data, clock))
        except ValidationError:
            pass
    restored.apply_cycle(now=max(clock, restored.last_cycle_at) + 86400)
    assert_export_is_fresh(restored)
    # resolved (urgency 0) or a day older: either way its urgency moved
    assert (restored.snapshot().kos[question].scores.urgency
            != store.snapshot().kos[question].scores.urgency)


def test_a_rescored_object_keeps_its_line_but_for_a_new_score_tail(
        session, monkeypatch):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    store, _ = restore_checkpoint(log, corpus)
    store.apply_cycle()
    assert any(store._ko_lines[ko_id][0] is not ko
               for ko_id, ko in store.snapshot().kos.items())
    monkeypatch.setattr(store_module, "_ko_head", lambda ko: pytest.fail(ko.id))
    exported = corpus_lines(store)  # no object serialized afresh
    monkeypatch.undo()
    assert assert_export_is_fresh(store) == exported


def _shorten_confidence(record: dict) -> None:
    # The same value as a shorter decimal: the line no longer ends with the
    # tail its object formats.
    assert record["kind"] == "ko" and record["scores"]["confidence"] == "1.000000000"
    record["scores"]["confidence"] = "1"


def test_a_kept_line_whose_tail_was_edited_is_serialized_afresh(
        session, monkeypatch):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    store, _ = restore_checkpoint(log, corpus)
    store.apply_cycle()
    index = next(i for i, (ko_id, (ko, _)) in enumerate(sorted(store._ko_lines.items()))
                 if store._kos[ko_id] is not ko)  # the first object the cycle rescores
    # A doctored and rehashed corpus no longer matches the checkpoint image,
    # so the edited line is planted in the restored store itself.
    store, _ = restore_checkpoint(log, corpus)
    ko_id = sorted(store._kos)[index]
    ko, line = store._ko_lines[ko_id]
    record = json.loads(line)
    _shorten_confidence(record)
    store._ko_lines[ko_id] = (ko, store_module._dump_line(record))
    assert '"scores":{"confidence":"1",' in store._ko_lines[ko_id][1]
    store.apply_cycle()
    serialized = []
    head = store_module._ko_head
    monkeypatch.setattr(store_module, "_ko_head",
                        lambda ko: serialized.append(ko.id) or head(ko))
    exported = corpus_lines(store)
    assert serialized == [ko_id]
    assert '"scores":{"confidence":"1.000000000",' in exported[index + 1]
    assert assert_export_is_fresh(store) == exported


def test_events_after_a_restored_seq_are_the_new_events(session):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    store, _ = restore_checkpoint(log, corpus)
    seq = store.last_seq
    assert seq > 0 and store.events == ()
    store.record_retrieval("k002", at=store.latest_event_at() + 60)
    (event,) = store.events_after(seq)
    assert (event.seq, event.kind, event.payload["id"]) == (
        seq + 1, EventKind.KO_RETRIEVED, "k002")
    assert store.events_after(seq + 1) == ()
    with pytest.raises(ValueError, match="not held"):
        store.events_after(seq - 1)
    assert store.events[seq:] == ()  # why a count cannot slice a restored store


# ---------------------------------------------------------------------------
# Stateful: live == replay == checkpoint restore + tail, after every step
# ---------------------------------------------------------------------------

def state_of(store: CorpusStore) -> tuple:
    snapshot = store.snapshot()
    return (snapshot.kos, snapshot.edges, corpus_lines(store),
            store.params.to_dict(), store.last_seq, store.latest_event_at())


def assert_kept_index_is_fresh(store: CorpusStore) -> None:
    """The store's edge structure, kept across its cycles, reads its last
    cycle as one built from scratch does, and the zones its snapshot hands
    over, carried from its last cycle, are its objects' zones in id order."""
    snapshot = store.snapshot()
    if store._structure is not None:
        assert_kept_structure_is_fresh(store._structure, snapshot, store.last_cycle_at)
    kos = snapshot.kos
    assert list(snapshot.zones.items()) == \
        [(i, zone_for(kos[i].scores.k)) for i in sorted(kos)]


class CheckpointedStore(RuleBasedStateMachine):
    """Drives a live store through every operation, persisting its log as
    the CLI does and checkpointing now and then."""

    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="kgravity-ckpt-"))
        self.log, self.corpus = self.dir / "events.jsonl", self.dir / "corpus.jsonl"
        self.store = CorpusStore()
        self.clock = 1_700_000_000
        self.end = LogPosition()

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _ids(self) -> list[str]:
        return sorted(self.store.snapshot().kos)

    def _pick(self, n: int) -> str:
        ids = self._ids()
        return ids[n % len(ids)]

    def _attempt(self, operation) -> None:
        before = self.store.last_seq
        try:
            operation()
        except ValidationError:
            assert self.store.last_seq == before

    @rule(cls=st.sampled_from(CLASSES), entity=st.integers(0, 3),
          advance=st.integers(0, 3 * 86400), stakes=st.sampled_from([0.0, 0.25, 0.9]))
    def ingest(self, cls, entity, advance, stakes):
        self.clock += advance
        n = len(self._ids())
        self._attempt(lambda: self.store.ingest_ko(
            cls=cls, koc=make_koc(EpistemicClass(cls), entity=f"e{entity}",
                                  variant=f"v{n}"),
            content=f"object {n}", created_at=self.clock, stakes=stakes,
            anchors=[f"a{entity}"], embedding=[1.0, entity / 4]))

    @rule(cls=st.sampled_from(CLASSES), advance=st.integers(0, 86400))
    def ingest_first(self, cls, advance):
        """An id sorting before every id so far: the store drops the zones
        its cycles kept, and its next snapshot sorts the ids again."""
        self.clock += advance
        n = len(self._ids())
        self._attempt(lambda: self.store.ingest_ko(
            cls=cls, koc=make_koc(EpistemicClass(cls), variant=f"v{n}"),
            content=f"object {n}", ko_id=f"a{999 - n:03d}", created_at=self.clock,
            embedding=[0.0, 1.0]))

    @rule(a=st.integers(0, 50), b=st.integers(0, 50),
          edge_type=st.sampled_from(list(EdgeType)), advance=st.integers(0, 86400))
    def add_edge(self, a, b, edge_type, advance):
        if self._ids():
            self.clock += advance
            self._attempt(lambda: self.store.add_edge(
                self._pick(a), self._pick(b), edge_type, at=self.clock))

    @rule(a=st.integers(0, 50), at=st.sampled_from(["now", "past", "unloggable"]))
    def retrieve(self, a, at):
        if self._ids():
            ts = {"now": self.clock, "past": self.clock - 86400, "unloggable": 10**12}[at]
            self._attempt(lambda: self.store.record_retrieval(self._pick(a), at=ts))

    @rule(a=st.integers(0, 50), b=st.integers(0, 50))
    def supersede(self, a, b):
        if self._ids():
            self._attempt(lambda: self.store.supersede(
                self._pick(a), self._pick(b), at=self.clock))

    @rule(a=st.integers(0, 50), b=st.integers(0, 50))
    def resolve(self, a, b):
        if self._ids():
            self._attempt(lambda: self.store.resolve_question(
                self._pick(a), self._pick(b), at=self.clock))

    @rule(advance=st.sampled_from([None, 0, 3600, 86400, 10**12]))
    def cycle(self, advance):
        if advance is None:
            self._attempt(self.store.apply_cycle)
        else:
            self.clock = max(self.clock, self.store.last_cycle_at or 0)
            self._attempt(lambda: self.store.apply_cycle(now=self.clock + advance))

    @rule(preset=st.sampled_from(["production", "simulation"]))
    def set_params(self, preset):
        self.store.set_params(getattr(EngineParams, preset)())

    @rule()
    def checkpoint(self):
        self._persist()
        if self.store.last_seq:
            write_checkpoint(self.log, write_corpus(self.store, self.corpus),
                             self.store, self.end)

    def _persist(self) -> None:
        new = self.store.events[self.end.lines:]
        if new:
            append_events(self.log, new)
            self.end = LogPosition(self.log.stat().st_size, self.end.lines + len(new))

    @invariant()
    def live_equals_replay_equals_restore_plus_tail(self):
        self._persist()
        live = state_of(self.store)
        assert_kept_index_is_fresh(self.store)
        events = read_events(self.log) if self.log.exists() else []
        replayed = CorpusStore.replay(events)
        assert state_of(replayed) == live
        assert_kept_index_is_fresh(replayed)
        if checkpoint_path(self.log).exists():
            base, start = restore_checkpoint(self.log, self.corpus)
            tail, end = read_events_from(self.log, start)
            assert end == self.end
            restored = CorpusStore.replay(tail, base=base)
            assert state_of(restored) == live
            assert_kept_index_is_fresh(restored)


CheckpointedStore.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_live_replay_and_checkpoint_restore_agree = CheckpointedStore.TestCase


# ---------------------------------------------------------------------------
# Workspace: open, change, save
# ---------------------------------------------------------------------------

def all_files(workdir: Path) -> dict[str, bytes]:
    """Every file in ``workdir``, the checkpoint among them, by name."""
    return {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}


@pytest.mark.parametrize("seed", [3, 11])
def test_workspace_reopens_what_it_saved(tmp_path, starts, seed):
    log, corpus = tmp_path / "events.jsonl", tmp_path / "corpus.jsonl"
    workspace = Workspace(log, corpus)
    store = workspace.open()
    # dated before random_scenario's clock, which starts at 1,700,000,000
    for i, cls in enumerate(EpistemicClass):
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"h{i % 3}", variant=f"h{i}"),
                        content=f"head {i}", created_at=1_690_000_000 + i, stakes=0.5)
    store.apply_cycle(now=1_690_100_000)
    workspace.save()
    random_scenario(store, seed, n_events=store.last_seq + 80)
    workspace.save()
    workspace.save()  # nothing new to append
    assert [e.seq for e in read_events(log)] == list(range(1, store.last_seq + 1))

    reopened = Workspace(log, corpus)
    restored = reopened.open()
    assert starts == [("restored", LogPosition(log.stat().st_size, store.last_seq), 0)]
    full = CorpusStore.replay(read_events(log))
    assert state_of(restored) == state_of(store) == state_of(full)

    # A restored store's own events are saved after the checkpoint's.
    restored.record_retrieval(sorted(restored.snapshot().kos)[0],
                              at=restored.latest_event_at() + 60)
    restored.apply_cycle()
    restored.apply_cycle()
    reopened.save()
    again = Workspace(log, corpus).open()
    full = CorpusStore.replay(read_events(log))
    assert state_of(again) == state_of(restored) == state_of(full)
    assert Workspace(log, corpus).verify() == (
        True, f"ok: the checkpoint at seq {again.last_seq} plus 0 tail events "
              f"equals a full replay of {again.last_seq} events")


def test_workspace_logs_params_chosen_for_a_new_log_or_changed(tmp_path):
    log, corpus = tmp_path / "events.jsonl", tmp_path / "corpus.jsonl"
    default = EngineParams.production()
    assert Workspace(log, corpus).open().events == ()
    workspace = Workspace(log, corpus)
    store = workspace.open(default)
    assert [e.kind for e in store.events] == [EventKind.PARAMS_CHANGED]
    assert all_files(tmp_path) == {}  # open writes no file
    store.ingest_record(ko_rec(0, "PLAN"))
    workspace.save()
    saved = all_files(tmp_path)
    for params, logged in [(None, 0), (default, 0),
                           (EngineParams.production(gravity_radius=2), 1),
                           (EngineParams.simulation(), 1)]:
        reopened = Workspace(log, corpus).open(params)
        assert reopened.last_seq == 2 + logged
        assert reopened.params == (params or default)
        assert all_files(tmp_path) == saved


@pytest.mark.parametrize("saved_first", [False, True])
def test_a_save_onto_a_log_another_writer_grew_is_refused(tmp_path, saved_first):
    log, corpus = tmp_path / "events.jsonl", tmp_path / "corpus.jsonl"
    if saved_first:
        workspace = Workspace(log, corpus)
        workspace.open().ingest_record(ko_rec(0, "PLAN"))
        workspace.save()
    first, second = Workspace(log, corpus), Workspace(log, corpus)
    for workspace in (first, second):
        workspace.open().ingest_record(ko_rec(1, "DECISION"))
    first.save()
    saved = all_files(tmp_path)
    with pytest.raises(ReplayError, match="changed since it was opened"):
        second.save()
    assert all_files(tmp_path) == saved
    seqs = [e.seq for e in read_events(log)]
    assert seqs == list(range(1, len(seqs) + 1))


def test_cli_refuses_a_save_after_another_writer_saved(session, tmp_path, monkeypatch):
    real_read_corpus = cli.read_corpus
    saved: dict[str, bytes] = {}

    def another_writer_first(path):
        assert run(session, "cycle", "1")[0] == 0
        saved.update(all_files(session))
        return real_read_corpus(path)

    monkeypatch.setattr(cli, "read_corpus", another_writer_first)
    code, out, err = run(session, "ingest", str(second_batch(tmp_path / "in2.jsonl")))
    assert (code, out) == (cli.EXIT_CONTRACT, "")
    assert err.startswith("error: the event log ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert all_files(session) == saved
    monkeypatch.undo()
    assert run(session, "verify-log")[0] == cli.EXIT_OK

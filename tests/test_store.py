from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kgravity import (
    CorpusStore,
    Edge,
    EdgeType,
    EngineParams,
    EpistemicClass,
    EventKind,
    EventRecord,
    Query,
    ReplayError,
    ValidationError,
    append_events,
    load_corpus,
    rank,
    read_corpus,
    read_events,
    write_corpus,
)
from kgravity.store import corpus_lines, iso_to_ts, ts_to_iso
from tests.conftest import SECONDS_PER_DAY, make_koc, random_scenario

SIM = EngineParams.simulation()


def seeded_store(params=None) -> CorpusStore:
    store = CorpusStore(params=params or SIM)
    store.ingest_ko(cls=EpistemicClass.DECISION,
                    koc=make_koc(EpistemicClass.DECISION, entity="alpha"),
                    content="ship the pilot", ko_id="dec1", created_at=1000)
    store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                    koc=make_koc(EpistemicClass.EVIDENCE, entity="beta"),
                    content="pilot metrics", ko_id="ev1", created_at=1100,
                    embedding=[0.5, 0.5], anchors=["pilot"])
    store.ingest_ko(cls=EpistemicClass.QUESTION,
                    koc=make_koc(EpistemicClass.QUESTION, entity="gamma"),
                    content="regulatory risk?", ko_id="q1", created_at=1200,
                    stakes=0.8)
    return store


def states_equal(a: CorpusStore, b: CorpusStore) -> bool:
    return (a.snapshot() == b.snapshot()
            and a.params.to_dict() == b.params.to_dict()
            and a.events == b.events)


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_seeds_initial_score():
    store = seeded_store()
    kos = store.snapshot().kos
    assert kos["dec1"].scores.k == 1.00
    assert kos["ev1"].scores.k == 0.80
    assert kos["q1"].scores.k == 0.30


def test_ingest_question_urgency_from_stakes():
    store = seeded_store()
    assert store.snapshot().kos["q1"].scores.urgency == pytest.approx(0.4)
    store.ingest_ko(cls=EpistemicClass.QUESTION,
                    koc=make_koc(EpistemicClass.QUESTION, entity="delta"),
                    content="no stakes", ko_id="q2", created_at=1300)
    assert store.snapshot().kos["q2"].scores.urgency == 0.0


def test_ingest_rejects_unknown_class():
    store = CorpusStore()
    with pytest.raises(ValidationError, match="FACT"):
        store.ingest_record({"kind": "ko", "id": "x", "class": "FACT",
                             "koc": {}, "content": ""})


def test_ingest_rejects_class_coordinate_mismatch():
    store = CorpusStore()
    with pytest.raises(ValidationError):
        store.ingest_ko(cls=EpistemicClass.DECISION,
                        koc=make_koc(EpistemicClass.EVIDENCE),
                        content="mismatched")


def test_ingest_rejects_duplicate_id():
    store = seeded_store()
    with pytest.raises(ValidationError):
        store.ingest_ko(cls=EpistemicClass.PLAN,
                        koc=make_koc(EpistemicClass.PLAN),
                        content="again", ko_id="dec1")


def test_ingest_generates_sequential_ids():
    store = CorpusStore()
    first = store.ingest_ko(cls=EpistemicClass.PLAN,
                            koc=make_koc(EpistemicClass.PLAN), content="a")
    second = store.ingest_ko(cls=EpistemicClass.PLAN,
                             koc=make_koc(EpistemicClass.PLAN, entity="other"),
                             content="b")
    assert first == "ko000001" and second == "ko000002"


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------

def test_add_edge_and_rejections():
    store = seeded_store()
    store.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=2000)
    with pytest.raises(ValidationError, match="duplicate"):
        store.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=2001)
    with pytest.raises(ValidationError, match="self-loop"):
        store.add_edge("ev1", "ev1", EdgeType.REFINES, at=2002)
    with pytest.raises(ValidationError, match="unknown"):
        store.add_edge("ev1", "ghost", EdgeType.SUPPORTS, at=2003)
    with pytest.raises(ValidationError, match="unknown edge type"):
        store.add_edge("ev1", "dec1", "LIKES", at=2004)
    with pytest.raises(ValidationError, match="unknown"):  # an id that is no string
        store.add_edge(["ev1"], "dec1", EdgeType.REFINES, at=2005)


def test_new_supports_edge_raises_next_cycle_k():
    with_edge = seeded_store()
    with_edge.add_edge("dec1", "ev1", EdgeType.SUPPORTS, at=2000)
    without = seeded_store()
    s1, _ = with_edge.apply_cycle(now=3000)
    s2, _ = without.apply_cycle(now=3000)
    delta = s1.kos["ev1"].scores.k - s2.kos["ev1"].scores.k
    assert delta == pytest.approx(SIM.eta * SIM.a_e, abs=1e-9)


def test_contradicts_edge_applies_penalty_next_cycle():
    with_edge = seeded_store()
    with_edge.add_edge("dec1", "ev1", EdgeType.CONTRADICTS, at=2000)
    without = seeded_store()
    s1, _ = with_edge.apply_cycle(now=3000)
    s2, _ = without.apply_cycle(now=3000)
    delta = s2.kos["ev1"].scores.k - s1.kos["ev1"].scores.k
    assert delta == pytest.approx(SIM.a_c, abs=1e-9)


# ---------------------------------------------------------------------------
# Supersession and resolution
# ---------------------------------------------------------------------------

def test_supersede_demotes_without_deleting():
    store = seeded_store()
    store.ingest_ko(cls=EpistemicClass.DECISION,
                    koc=make_koc(EpistemicClass.DECISION, entity="alpha2"),
                    content="ship the pilot, revised", ko_id="dec2",
                    created_at=5000)
    edge = store.supersede("dec2", "dec1", at=5100)
    assert edge.edge_type is EdgeType.SUPERSEDES
    snapshot = store.snapshot()
    assert "dec1" in snapshot.kos  # demoted, not deleted
    assert store.events[-1].kind is EventKind.KO_SUPERSEDED
    # the old decision keeps cycling and stays retrievable
    store.apply_cycle()
    results = rank(Query(primary_entity="alpha", top_k=10), store.snapshot())
    assert any(r.ko_id == "dec1" for r in results)


def test_supersede_missing_target_rejected():
    store = seeded_store()
    with pytest.raises(ValidationError):
        store.supersede("dec1", "ghost", at=5100)


def test_resolve_question_flow():
    store = seeded_store()
    before = store.snapshot().kos["q1"]
    assert before.scores.urgency == pytest.approx(0.4)
    store.resolve_question("q1", "dec1", at=6000)
    mid = store.snapshot().kos["q1"]
    assert mid.resolved is True
    assert mid.scores.urgency == pytest.approx(0.4)  # pinned at next cycle
    assert any(e.edge_type is EdgeType.IMPLEMENTS for e in store.snapshot().edges)
    store.apply_cycle(now=6000 + SECONDS_PER_DAY)
    assert store.snapshot().kos["q1"].scores.urgency == 0.0


def test_resolved_question_decays_in_subsequent_cycles():
    store = seeded_store()
    store.resolve_question("q1", "dec1", at=6000)
    ks = []
    now = 6000
    for _ in range(10):
        now += SECONDS_PER_DAY
        snapshot, _ = store.apply_cycle(now=now)
        ks.append(snapshot.kos["q1"].scores.k)
    assert all(b < a for a, b in zip(ks, ks[1:]))


def test_resolve_rejects_non_question_and_double_resolution():
    store = seeded_store()
    with pytest.raises(ValidationError, match="not QUESTION"):
        store.resolve_question("ev1", "dec1", at=6000)
    store.resolve_question("q1", "dec1", at=6000)
    with pytest.raises(ValidationError, match="already resolved"):
        store.resolve_question("q1", "dec1", at=6100)


# ---------------------------------------------------------------------------
# Retrievals
# ---------------------------------------------------------------------------

def test_retrieval_feeds_usage_force():
    retrieved = seeded_store()
    retrieved.record_retrieval("ev1", at=2500)
    idle = seeded_store()
    s1, _ = retrieved.apply_cycle(now=3000)
    s2, _ = idle.apply_cycle(now=3000)
    assert s1.kos["ev1"].scores.k > s2.kos["ev1"].scores.k


def test_retrieval_of_missing_ko_rejected():
    store = seeded_store()
    with pytest.raises(ValidationError):
        store.record_retrieval("ghost", at=2500)


def test_logged_retrievals_read_back_as_applied(tmp_path):
    # A store holds the retrievals it logs without their payload dicts;
    # events, events_after and the log file give each back as applied.
    store = seeded_store()
    store.record_retrieval("ev1", at=1500)
    before = store.last_seq
    store.record_retrieval("dec1", at=1600)
    store.apply_cycle(now=5000)
    assert [(e.seq, e.at, e.kind, e.payload) for e in store.events[3:]] == [
        (4, 1500, EventKind.KO_RETRIEVED, {"id": "ev1", "at": 1500}),
        (5, 1600, EventKind.KO_RETRIEVED, {"id": "dec1", "at": 1600}),
        (6, 5000, EventKind.CYCLE_APPLIED, {"at": 5000})]
    assert store.events_after(before)[0] == EventRecord(
        5, 1600, EventKind.KO_RETRIEVED, {"id": "dec1", "at": 1600})
    assert store.latest_event_at() == 5000
    path = tmp_path / "events.jsonl"
    append_events(path, store.events)
    assert path.read_text().splitlines()[4] == (
        '{"at":"1970-01-01T00:26:40Z","kind":"KO_RETRIEVED",'
        '"payload":{"at":1600,"id":"dec1"},"seq":5}')
    replayed = CorpusStore.replay(read_events(path), params=SIM)
    assert states_equal(replayed, store)
    replayed.record_retrieval("q1", at=5100)
    assert replayed.events[-1] == EventRecord(
        7, 5100, EventKind.KO_RETRIEVED, {"id": "q1", "at": 5100})


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def test_replay_empty_log():
    store = CorpusStore.replay([])
    assert store.snapshot().kos == {}
    assert store.events == ()


def test_replay_reconstructs_live_state():
    store = seeded_store()
    store.add_edge("dec1", "ev1", EdgeType.SUPPORTS, at=2000)
    store.record_retrieval("ev1", at=2500)
    store.apply_cycle(now=3000)
    store.resolve_question("q1", "dec1", at=4000)
    store.apply_cycle(now=4000 + SECONDS_PER_DAY)
    replayed = CorpusStore.replay(store.events, params=SIM)
    assert states_equal(store, replayed)


def test_replay_twice_is_bit_identical():
    store = seeded_store()
    store.apply_cycle(now=9000)
    once = CorpusStore.replay(store.events, params=SIM)
    twice = CorpusStore.replay(store.events, params=SIM)
    assert states_equal(once, twice)


def test_replay_halts_on_gap_with_position():
    store = seeded_store()
    events = list(store.events)
    del events[1]
    with pytest.raises(ReplayError, match="position 2"):
        CorpusStore.replay(events)


def test_replay_halts_on_corrupt_record():
    store = seeded_store()
    events = list(store.events)
    events[1] = dataclasses.replace(events[1], payload={"garbage": True})
    with pytest.raises(ReplayError, match="position 2"):
        CorpusStore.replay(events)


def test_randomized_scenario_replay_equivalence():
    store = CorpusStore(params=SIM)
    random_scenario(store, seed=42, n_events=200)
    assert len(store.events) >= 200
    replayed = CorpusStore.replay(store.events, params=SIM)
    assert states_equal(store, replayed)


def test_params_change_is_an_event():
    store = seeded_store()
    store.set_params(EngineParams.production())
    assert store.events[-1].kind is EventKind.PARAMS_CHANGED
    replayed = CorpusStore.replay(store.events, params=SIM)
    assert replayed.params.to_dict() == EngineParams.production().to_dict()


def test_store_exposes_no_delete_path():
    assert not any("delete" in name or "remove" in name
                   for name in dir(CorpusStore) if not name.startswith("_"))


# ---------------------------------------------------------------------------
# Corpus file round trips
# ---------------------------------------------------------------------------

def test_corpus_round_trip_bytes(tmp_path):
    store = seeded_store()
    store.add_edge("dec1", "ev1", EdgeType.SUPPORTS, at=2000)
    store.record_retrieval("ev1", at=2500)
    store.apply_cycle(now=3000)
    path1, path2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(store, path1)
    loaded = load_corpus(path1, params=SIM)
    write_corpus(loaded, path2)
    assert path1.read_bytes() == path2.read_bytes()
    assert loaded.snapshot() == store.snapshot()


def test_corpus_scores_serialized_as_fixed_decimals(tmp_path):
    store = seeded_store()
    lines = corpus_lines(store)
    assert '"k":"1.000000000"' in lines[1]
    header = lines[0]
    assert '"embedding_dim":2' in header
    assert '"format_version":1' in header


def test_corpus_rejects_unknown_edge_type(tmp_path):
    store = seeded_store()
    path = tmp_path / "c.jsonl"
    write_corpus(store, path)
    bad = path.read_text().rstrip() + (
        '\n{"kind":"edge","source":"dec1","target":"ev1",'
        '"type":"LIKES","created_at":"2024-01-01T00:00:00Z"}\n')
    path.write_text(bad)
    with pytest.raises(ValidationError, match="unknown edge type"):
        load_corpus(path)


# A ko record that is whole up to its created_at, which is a number.
NUMERIC_CREATED_AT = (
    '{"kind":"ko","id":"x","retrieved_at":[],"created_at":5,"scores":'
    '{"k":"0.5","confidence":"1","freshness":"1","urgency":"0","contradiction":"0"}}')


def corpus_ko_line(**fields) -> str:
    """A whole ko record as write_corpus writes one, with ``fields`` set."""
    record = {"kind": "ko", "id": "x", "class": "PLAN",
              "koc": {"entity": "e", "domain": "d", "class": "PLAN", "epoch": "q1",
                      "depth": "l1", "author": "ana", "variant": "v1"},
              "content": "c", "created_at": "2024-01-01T00:00:00Z", "retrieved_at": [],
              "scores": {"k": "0.5", "confidence": "1", "freshness": "1", "urgency": "0",
                         "contradiction": "0"},
              "resolved": False, "stakes": "0", "anchors": [], "embedding": None}
    record.update(fields)
    return json.dumps(record)


MISSING_OR_MISTYPED = {
    '{"kind":"ko","id":"x"}': "missing field 'scores'",
    '{"kind":"edge","source":"a"}': "missing field 'target'",
    NUMERIC_CREATED_AT: "created_at must be a timestamp",
    corpus_ko_line(embedding=[float("nan"), 1.0]): "embedding for 'x' has non-finite values",
    # the norm overflows too, but the infinite element is what is wrong
    corpus_ko_line(embedding=[1e200, 1e200, float("-inf")]):
        "embedding for 'x' has non-finite values",
    corpus_ko_line(anchors=["ok", ""]): "anchors for 'x' must be non-empty strings",
    corpus_ko_line(id=5): "id must be a string, got 5",
    corpus_ko_line(content=5): "content must be a string, got 5",
}


@pytest.mark.parametrize("line", ['{"kind":"ko",', '[1]', '{"kind":"note"}', None,
                                  *MISSING_OR_MISTYPED])
def test_load_corpus_rejects_a_bad_line_by_number(tmp_path, line):
    path = tmp_path / "c.jsonl"
    write_corpus(seeded_store(), path)
    lines = path.read_text().splitlines()
    if line is None:  # line 2's object again: a duplicate id
        line = lines[1]
    path.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
    with pytest.raises(ValidationError, match="line 3: ") as raised:
        load_corpus(path)
    assert MISSING_OR_MISTYPED.get(line, "") in str(raised.value)


def test_corpus_header_required(tmp_path):
    path = tmp_path / "noheader.jsonl"
    path.write_text('{"kind":"ko","id":"x"}\n')
    with pytest.raises(ValidationError, match="header"):
        read_corpus(path)


def test_corpus_collects_per_line_errors(tmp_path):
    store = seeded_store()
    path = tmp_path / "mixed.jsonl"
    lines = corpus_lines(store)
    lines.insert(2, "this is not json")
    path.write_text("\n".join(lines) + "\n")
    _, records, errors = read_corpus(path)
    assert len(records) == 3
    assert errors and errors[0][0] == 3


#: Line separators that JSON allows raw inside a string.
RAW_SEPARATORS = "one\u2028two\u2029three\x85four"


def test_a_raw_line_separator_inside_a_string_keeps_its_line(tmp_path):
    """Only "\\n" ends a corpus line: a record whose content holds a raw
    U+2028, U+2029 or U+0085 is accepted whole, and the lines after it keep
    their numbers."""
    lines = corpus_lines(seeded_store())
    record = json.loads(lines[1])
    record["content"] = RAW_SEPARATORS
    lines[1] = json.dumps(record, ensure_ascii=False)
    lines.insert(2, "this is not json")
    path = tmp_path / "raw.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, records, errors = read_corpus(path)
    assert [lineno for lineno, _ in records] == [2, 4, 5]
    assert records[0][1]["content"] == RAW_SEPARATORS
    assert [lineno for lineno, _ in errors] == [3]
    del lines[2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_corpus(path, params=SIM).snapshot().kos[record["id"]].content == \
        RAW_SEPARATORS


def test_a_crlf_corpus_reads_as_its_lf_twin(tmp_path):
    store = seeded_store()
    lines = corpus_lines(store)
    lines.insert(2, "this is not json")
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    assert read_corpus(crlf) == read_corpus(lf)
    assert [lineno for lineno, _ in read_corpus(crlf)[2]] == [3]
    del lines[2]
    crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert load_corpus(crlf, params=SIM).snapshot() == store.snapshot()


# ---------------------------------------------------------------------------
# Event log files
# ---------------------------------------------------------------------------

def test_event_log_file_round_trip(tmp_path):
    store = seeded_store()
    store.apply_cycle(now=9000)
    path = tmp_path / "events.jsonl"
    append_events(path, store.events[:2])
    append_events(path, store.events[2:])  # append-only across batches
    assert read_events(path) == list(store.events)
    replayed = CorpusStore.replay(read_events(path), params=SIM)
    assert states_equal(store, replayed)


def test_event_log_rejects_corrupt_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"seq":1,"at":"2024-01-01T00:00:00Z","kind":"NOPE","payload":{}}\n')
    with pytest.raises(ReplayError, match="line 1"):
        read_events(path)


@pytest.mark.parametrize("line", [
    '[1, 2]', '7', '"text"', 'null',
    '{"seq":"1","at":"2024-01-01T00:00:00Z","kind":"PARAMS_CHANGED","payload":{}}',
    '{"seq":1,"at":0,"kind":"PARAMS_CHANGED","payload":{}}',
    '{"seq":1,"at":"2024-01-01T00:00:00Z","kind":["KO_CREATED"],"payload":{}}',
    '{"seq":1,"at":"2024-01-01T00:00:00Z","kind":"PARAMS_CHANGED","payload":[]}',
])
def test_event_log_rejects_mistyped_line(tmp_path, line):
    store = seeded_store()
    path = tmp_path / "events.jsonl"
    append_events(path, store.events[:1])
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")
    with pytest.raises(ReplayError, match="line 2"):
        read_events(path)


def test_event_log_rejects_invalid_utf8_line(tmp_path):
    store = seeded_store()
    path = tmp_path / "events.jsonl"
    append_events(path, store.events[:1])
    with open(path, "ab") as f:
        f.write(b'{"seq":2,"at":"2024-01-01T00:00:00Z","kind":"\xff"}\n')
    with pytest.raises(ReplayError, match="line 2"):
        read_events(path)


def test_ingest_rejects_non_finite_embedding():
    store = CorpusStore()
    with pytest.raises(ValidationError, match="non-finite"):
        store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                        koc=make_koc(EpistemicClass.EVIDENCE),
                        content="bad vector", embedding=[1.0, float("nan")])


def test_ingest_rejects_an_embedding_whose_norm_overflows():
    store = CorpusStore()
    store.ingest_ko(cls=EpistemicClass.EVIDENCE, koc=make_koc(EpistemicClass.EVIDENCE),
                    content="fine", ko_id="b", embedding=[1.0, 0.0])
    # each component is finite, but the sum of their squares is not
    with pytest.raises(ValidationError, match="norm"):
        store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                        koc=make_koc(EpistemicClass.EVIDENCE, variant="v2"),
                        content="huge vector", ko_id="a", embedding=[1e200, 1e200])
    assert list(store.snapshot().kos) == ["b"] and store.last_seq == 1
    store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                    koc=make_koc(EpistemicClass.EVIDENCE, variant="v3"),
                    content="large but fine", ko_id="c", embedding=[1e150, 1e150])


def test_ingest_reads_an_embedding_iterator_once():
    store = CorpusStore()
    store.ingest_ko(cls=EpistemicClass.EVIDENCE, koc=make_koc(EpistemicClass.EVIDENCE),
                    content="from a generator", ko_id="a",
                    embedding=(x for x in [1.0, 2.0]))
    assert store.snapshot().kos["a"].embedding == (1.0, 2.0)
    store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                    koc=make_koc(EpistemicClass.EVIDENCE, variant="v2"),
                    content="a list", ko_id="b", embedding=[0.0, 1.0])


def test_ingest_rejects_bad_anchor_tokens():
    store = CorpusStore()
    with pytest.raises(ValidationError, match="anchors"):
        store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                        koc=make_koc(EpistemicClass.EVIDENCE),
                        content="bad anchors", anchors=["ok", ""])


def valid_record(**fields) -> dict:
    record = {"kind": "ko", "id": "x", "class": "EVIDENCE",
              "koc": {"entity": "e", "domain": "d", "class": "EVIDENCE",
                      "epoch": "q1", "depth": "l1", "author": "ana", "variant": "v1"},
              "content": "c", "created_at": "2024-01-01T00:00:00Z"}
    record.update(fields)
    return record


@pytest.mark.parametrize("field, value", [
    ("created_at", 1700000000), ("created_at", None), ("created_at", "yesterday"),
    ("koc", "acme/ops"), ("koc", ["acme"]), ("class", 3), ("class", None),
    ("stakes", "high"), ("stakes", None), ("scores", [0.5]), ("id", 7),
    ("content", 7), ("anchors", 7), ("anchors", "ab"), ("embedding", 7),
])
def test_ingest_record_rejects_mistyped_field(field, value):
    store = CorpusStore()
    name = "epistemic class" if field == "class" else field
    with pytest.raises(ValidationError, match=name):
        store.ingest_record(valid_record(**{field: value}))
    assert store.events == ()
    assert store.ingest_record(valid_record()) == "x"


@pytest.mark.parametrize("scores", [{"confidence": "x"}, {"freshness": [1]}])
def test_ingest_record_rejects_mistyped_score(scores):
    with pytest.raises(ValidationError, match=next(iter(scores))):
        CorpusStore().ingest_record(valid_record(scores=scores))


def test_ingest_record_rejects_mistyped_koc_axis():
    koc = dict(valid_record()["koc"], entity=5)
    with pytest.raises(ValidationError, match="entity"):
        CorpusStore().ingest_record(valid_record(koc=koc))


def test_cycle_time_never_runs_backwards():
    store = seeded_store()
    store.apply_cycle(now=100000)
    events = store.events
    with pytest.raises(ValidationError, match="earlier than the last cycle"):
        store.apply_cycle(now=50)
    assert store.last_cycle_at == 100000 and store.events == events
    store.apply_cycle(now=100000)  # the same time again is allowed
    assert store.last_cycle_at == 100000


def test_replay_rejects_a_cycle_that_runs_backwards():
    store = seeded_store()
    store.apply_cycle(now=100000)
    events = list(store.events)
    events.append(dataclasses.replace(events[-1], seq=len(events) + 1,
                                      at=50, payload={"at": 50}))
    with pytest.raises(ReplayError, match=f"position {len(events)}"):
        CorpusStore.replay(events, params=SIM)


# An object the seeded store has not got, as ``ingest_ko`` arguments.
NEW_KO = dict(cls=EpistemicClass.PLAN, koc=make_koc(EpistemicClass.PLAN, entity="new"),
              content="new plan", ko_id="new", created_at=200000)


def bad_ko(**fields):
    """The rule a field of a new object breaks: ``ingest_ko`` of NEW_KO with
    ``fields``, and the payload it logs with the same values in them."""
    def event(_):
        fresh = CorpusStore(params=SIM)
        fresh.ingest_ko(**NEW_KO)
        payload = dict(fresh.events[0].payload)
        payload.update({"id" if k == "ko_id" else k: v for k, v in fields.items()})
        return EventKind.KO_CREATED, payload
    return lambda s: s.ingest_ko(**dict(NEW_KO, **fields)), event


# Each rule, on the store's state, a field or an event time: the live
# operation that breaks it, and the kind and payload of the event that
# carries the same change in a log.
STATE_RULES = {
    "duplicate id": (
        lambda s: s.ingest_ko(cls=EpistemicClass.DECISION,
                              koc=make_koc(EpistemicClass.DECISION, entity="alpha"),
                              content="ship the pilot", ko_id="dec1", created_at=1000),
        lambda s: (EventKind.KO_CREATED, s.events[0].payload)),
    "unknown edge endpoint": (
        lambda s: s.add_edge("ev1", "ghost", EdgeType.SUPPORTS, at=200000),
        lambda s: (EventKind.EDGE_CREATED, {"source": "ev1", "target": "ghost",
                                            "type": "SUPPORTS", "at": 200000})),
    "self-loop edge": (
        lambda s: s.add_edge("ev1", "ev1", EdgeType.REFINES, at=200000),
        lambda s: (EventKind.EDGE_CREATED, {"source": "ev1", "target": "ev1",
                                            "type": "REFINES", "at": 200000})),
    "duplicate edge": (
        lambda s: s.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=200000),
        lambda s: (EventKind.EDGE_CREATED, {"source": "ev1", "target": "dec1",
                                            "type": "SUPPORTS", "at": 200000})),
    "unknown superseded object": (
        lambda s: s.supersede("dec1", "ghost", at=200000),
        lambda s: (EventKind.KO_SUPERSEDED, {"new": "dec1", "old": "ghost",
                                             "at": 200000})),
    "unknown question": (
        lambda s: s.resolve_question("ghost", "dec1", at=200000),
        lambda s: (EventKind.QUESTION_RESOLVED, {"question": "ghost",
                                                 "resolver": "dec1", "at": 200000})),
    "non-QUESTION question": (
        lambda s: s.resolve_question("ev1", "dec1", at=200000),
        lambda s: (EventKind.QUESTION_RESOLVED, {"question": "ev1",
                                                 "resolver": "dec1", "at": 200000})),
    "already-resolved question": (
        lambda s: s.resolve_question("q1", "ev1", at=200000),
        lambda s: (EventKind.QUESTION_RESOLVED, {"question": "q1",
                                                 "resolver": "ev1", "at": 200000})),
    "unknown retrieval": (
        lambda s: s.record_retrieval("ghost", at=200000),
        lambda s: (EventKind.KO_RETRIEVED, {"id": "ghost", "at": 200000})),
    "backwards cycle": (
        lambda s: s.apply_cycle(now=50),
        lambda s: (EventKind.CYCLE_APPLIED, {"at": 50})),
    "NaN embedding": bad_ko(embedding=[float("nan"), 1.0]),
    "embedding norm overflows": bad_ko(embedding=[1e200, 1e200]),
    "embedding a string": bad_ko(embedding="ab"),
    "embedding element a string": bad_ko(embedding=[1.0, "2"]),
    "infinite embedding beside large values": bad_ko(embedding=[1e200, 1e200, float("inf")]),
    "empty anchor": bad_ko(anchors=["ok", ""]),
    "anchors a string": bad_ko(anchors="ab"),
    "id an int": bad_ko(ko_id=5),
    "content an int": bad_ko(content=5),
    "created_at a float": bad_ko(created_at=200000.0),
    "created_at out of range": bad_ko(created_at=10**12),
    "confidence above 1": bad_ko(confidence=2.0),
    "float edge time": (
        lambda s: s.add_edge("ev1", "q1", EdgeType.SUPPORTS, at=200000.0),
        lambda s: (EventKind.EDGE_CREATED, {"source": "ev1", "target": "q1",
                                            "type": "SUPPORTS", "at": 200000.0})),
    "float retrieval time": (
        lambda s: s.record_retrieval("ev1", at=200000.0),
        lambda s: (EventKind.KO_RETRIEVED, {"id": "ev1", "at": 200000.0})),
    "float cycle time": (
        lambda s: s.apply_cycle(now=200000.0),
        lambda s: (EventKind.CYCLE_APPLIED, {"at": 200000.0})),
}


@pytest.mark.parametrize("rule", sorted(STATE_RULES))
def test_live_and_replay_enforce_the_same_state_rules(tmp_path, rule):
    store = seeded_store()
    store.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=2000)
    store.resolve_question("q1", "dec1", at=2500)
    store.apply_cycle(now=100000)
    events = store.events
    operation, event = STATE_RULES[rule]
    with pytest.raises(ValidationError) as live:
        operation(store)
    assert store.events == events
    write_corpus(store, tmp_path / "corpus.jsonl")  # what it holds still exports

    kind, payload = event(store)
    log = tmp_path / "events.jsonl"
    append_events(log, events + (EventRecord(seq=len(events) + 1, at=200000,
                                             kind=kind, payload=payload),))
    with pytest.raises(ReplayError, match=f"position {len(events) + 1}") as replayed:
        CorpusStore.replay(read_events(log), params=SIM)
    assert isinstance(replayed.value.__cause__, ValidationError)
    assert str(replayed.value.__cause__) == str(live.value)


def test_ingest_record_requires_a_known_kind():
    store = CorpusStore()
    with pytest.raises(ValidationError, match="unknown record kind 'header'"):
        store.ingest_record({"kind": "header"})
    assert store.events == ()


def test_ingest_record_reads_edge_records_by_the_object_rules():
    store = CorpusStore()
    for ko_id in ("a", "b", "c"):
        store.ingest_record(valid_record(id=ko_id, koc=dict(valid_record()["koc"], entity=ko_id)))
    edge = {"kind": "edge", "source": "a", "target": "b", "type": "SUPPORTS",
            "created_at": "2024-01-02T00:00:00Z"}
    for field in ("source", "target", "type"):
        missing = {name: value for name, value in edge.items() if name != field}
        with pytest.raises(ValidationError, match=f"^missing field '{field}'$"):
            store.ingest_record(missing)
    with pytest.raises(ValidationError, match="created_at must be a timestamp"):
        store.ingest_record(dict(edge, created_at=None))
    assert len(store.events) == 3  # nothing logged for a rejected edge
    assert store.ingest_record(edge) == Edge("a", "b", EdgeType.SUPPORTS, 1704153600)
    absent = {name: value for name, value in edge.items() if name != "created_at"}
    assert store.ingest_record(dict(absent, target="c")).created_at == 0


def test_store_rejects_a_second_embedding_dimension():
    store = CorpusStore()
    store.ingest_ko(cls=EpistemicClass.EVIDENCE,
                    koc=make_koc(EpistemicClass.EVIDENCE),
                    content="2d", embedding=[1.0, 0.0], ko_id="two")
    with pytest.raises(ValidationError, match="'three' has 3 dimensions; "
                                              "the store's embeddings have 2"):
        store.ingest_ko(cls=EpistemicClass.PLAN,
                        koc=make_koc(EpistemicClass.PLAN, entity="other"),
                        content="3d", embedding=[1.0, 0.0, 0.0], ko_id="three")
    assert list(store.snapshot().kos) == ["two"] and len(store.events) == 1
    assert '"embedding_dim":2' in corpus_lines(store)[0]
    # a log that holds two lengths cannot replay
    event = store.events[0]
    mixed = [event, dataclasses.replace(event, seq=2, payload=dict(
        event.payload, id="three", embedding=(1.0, 0.0, 0.0)))]
    with pytest.raises(ReplayError, match="position 2.*3 dimensions"):
        CorpusStore.replay(mixed)


def test_embedding_of_ints_bools_and_floats_is_accepted():
    store = CorpusStore()
    store.ingest_ko(cls=EpistemicClass.PLAN, koc=make_koc(EpistemicClass.PLAN),
                    content="c", ko_id="x", embedding=[1, True, 0.5, 1e150])
    assert store.snapshot().kos["x"].embedding == (1, True, 0.5, 1e150)


def two_event_log(tmp_path):
    """A log of an object created at 1700000000 and retrieved 100 s later."""
    store = CorpusStore()
    store.ingest_ko(cls=EpistemicClass.PLAN, koc=make_koc(EpistemicClass.PLAN),
                    content="c", ko_id="x", created_at=1_700_000_000)
    store.record_retrieval("x", at=1_700_000_100)
    log = tmp_path / "events.jsonl"
    append_events(log, store.events)
    return log


def rewrite_line(log, number: int, **fields) -> None:
    lines = log.read_text().splitlines()
    record = json.loads(lines[number - 1])
    record.update(fields)
    lines[number - 1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n")


def test_an_event_time_that_disagrees_with_its_payload_is_rejected(tmp_path):
    log = two_event_log(tmp_path)
    assert CorpusStore.replay(read_events(log)).latest_event_at() == 1_700_000_100
    # the payload unchanged, the next default cycle would run in 2999
    rewrite_line(log, 2, at="2999-01-01T00:00:00Z")
    with pytest.raises(ReplayError, match="position 2") as raised:
        CorpusStore.replay(read_events(log))
    assert str(raised.value.__cause__) == (
        "event time 32472144000 differs from its payload's time 1700000100")


@pytest.mark.parametrize("kind", ["KO_CREATED", "EDGE_CREATED", "KO_SUPERSEDED",
                                  "QUESTION_RESOLVED", "CYCLE_APPLIED",
                                  "PARAMS_CHANGED"])
def test_every_event_kind_has_its_line_time_checked(kind):
    store = seeded_store()
    store.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=2000)
    store.supersede("ev1", "q1", at=2100)
    store.resolve_question("q1", "dec1", at=2500)
    store.apply_cycle(now=100000)
    store.set_params(SIM)
    events = list(store.events)
    assert CorpusStore.replay(events, params=SIM).events == store.events
    i = next(i for i, e in enumerate(events) if e.kind.value == kind)
    events[i] = dataclasses.replace(events[i], at=events[i].at + 1)
    with pytest.raises(ReplayError, match=f"position {i + 1}: .*differs from its payload"):
        CorpusStore.replay(events, params=SIM)


def test_corpus_rejects_unsupported_version(tmp_path):
    path = tmp_path / "v9.jsonl"
    path.write_text('{"kind":"header","format_version":9}\n')
    with pytest.raises(ValidationError, match="version"):
        read_corpus(path)


def test_read_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    header, records, errors = read_corpus(path)
    assert records == [] and errors == []


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

ISO = "%Y-%m-%dT%H:%M:%SZ"
FIRST_SECOND = -62135596800  # 0001-01-01T00:00:00Z
LAST_SECOND = 253402300799   # 9999-12-31T23:59:59Z
YEAR_1000 = -30610224000     # 1000-01-01T00:00:00Z, the first the log holds


def strptime_ts(text: str) -> int:
    """The reference parser ``iso_to_ts`` must agree with."""
    return int(datetime.strptime(text, ISO).replace(tzinfo=timezone.utc).timestamp())


def outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@given(st.integers(FIRST_SECOND, LAST_SECOND))
def test_iso_to_ts_equals_strptime_on_every_second(ts):
    dt = datetime(1, 1, 1) + timedelta(seconds=ts - FIRST_SECOND)
    text = (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
            f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")
    assert iso_to_ts(text) == strptime_ts(text) == ts


@given(st.integers(YEAR_1000, LAST_SECOND))
@example(YEAR_1000)
@example(LAST_SECOND)
def test_ts_to_iso_equals_strftime_on_every_second(ts):
    expected = datetime.fromtimestamp(ts, tz=timezone.utc).strftime(ISO)
    assert ts_to_iso(ts) == expected
    assert iso_to_ts(expected) == ts


@pytest.mark.parametrize("text", [
    "2024-13-01T00:00:00Z", "2023-02-30T00:00:00Z", "2024-01-01T24:00:00Z",
    "2024-01-01T00:00:60Z", "2024-01-01 00:00:00Z", "0000-01-01T00:00:00Z",
    "2024-01-01T00:00:00", " 2024-01-01T00:00:00Z", "",
])
def test_iso_to_ts_rejects_what_strptime_rejects(text):
    with pytest.raises(ValueError):
        strptime_ts(text)
    with pytest.raises(ValueError):
        iso_to_ts(text)


@pytest.mark.parametrize("text", [
    "\uff12\uff10\uff12\uff14-01-01T00:00:00Z",  # full-width digits
    "2024-01-01t00:00:00z", "2024-1-1T0:0:0Z", "0999-01-01T00:00:00Z",
])
def test_iso_to_ts_accepts_what_strptime_accepts(text):
    assert iso_to_ts(text) == strptime_ts(text)


@given(st.text(alphabet="0123456789-:TZ t\uff12\u0663", max_size=22))
def test_iso_to_ts_agrees_with_strptime_on_near_misses(text):
    assert outcome(iso_to_ts, text) == outcome(strptime_ts, text)


def timestamp_ops(store: CorpusStore):
    """Each store operation that takes a timestamp, as ts -> call."""
    store.ingest_ko(cls=EpistemicClass.DECISION, ko_id="dec2",
                    koc=make_koc(EpistemicClass.DECISION, entity="delta"),
                    content="resolve it", created_at=1300)
    return {
        "ingest_ko": lambda ts: store.ingest_ko(
            cls=EpistemicClass.PLAN, koc=make_koc(EpistemicClass.PLAN),
            content="late", created_at=ts),
        "add_edge": lambda ts: store.add_edge("ev1", "dec1", EdgeType.SUPPORTS, at=ts),
        "supersede": lambda ts: store.supersede("dec2", "dec1", at=ts),
        "resolve_question": lambda ts: store.resolve_question("q1", "dec1", at=ts),
        "record_retrieval": lambda ts: store.record_retrieval("ev1", at=ts),
        "apply_cycle": lambda ts: store.apply_cycle(now=ts),
    }


@pytest.mark.parametrize("ts", [10**12, -10**12, LAST_SECOND + 1, YEAR_1000 - 1,
                                1_700_000_000.5, 1_700_000_000.0, True,
                                "2024-01-01T00:00:00Z", [0]])
@pytest.mark.parametrize("op", ["ingest_ko", "add_edge", "supersede",
                                "resolve_question", "record_retrieval",
                                "apply_cycle"])
def test_timestamp_the_log_cannot_hold_is_rejected(tmp_path, op, ts):
    store = seeded_store()
    call = timestamp_ops(store)[op]
    events = store.events
    with pytest.raises(ValidationError, match="timestamp the event log can hold"):
        call(ts)
    assert store.events == events
    append_events(tmp_path / "events.jsonl", store.events)
    write_corpus(store, tmp_path / "corpus.jsonl")
    call(1_700_000_000)  # a timestamp the log holds still works


def test_default_cycle_time_past_year_9999_is_rejected():
    store = seeded_store()
    store.apply_cycle(now=LAST_SECOND - 10)
    with pytest.raises(ValidationError, match="cycle time"):
        store.apply_cycle()
    assert store.last_cycle_at == LAST_SECOND - 10


def test_first_and_last_loggable_seconds_round_trip(tmp_path):
    store = seeded_store()
    store.record_retrieval("ev1", at=YEAR_1000)
    store.record_retrieval("ev1", at=LAST_SECOND)
    path = tmp_path / "events.jsonl"
    append_events(path, store.events)
    assert read_events(path) == list(store.events)
    write_corpus(store, tmp_path / "corpus.jsonl")
    loaded = load_corpus(tmp_path / "corpus.jsonl", params=SIM)
    assert loaded.snapshot().kos["ev1"].retrieved_at == (YEAR_1000, LAST_SECOND)

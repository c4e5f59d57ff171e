"""A checkpoint restore keeps the corpus text it checked, counting its lines
without splitting them, and splits it only when an export first reads the
lines: a command that never exports never splits the corpus."""

from __future__ import annotations

import base64
import hashlib
import json
import marshal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgravity.store as store_module
from kgravity import CorpusStore, read_events
from kgravity.store import (
    CheckpointError,
    checkpoint_path,
    corpus_lines,
    restore_checkpoint,
)
from tests.test_checkpoint import (  # noqa: F401  (session and starts are fixtures)
    first_batch,
    run,
    second_batch,
    session,
    starts,
    without_checkpoint,
)

HEADER = '{"kind":"header","format_version":1,"embedding_dim":2}'
KO = '{"kind":"ko","id":"a","content":"x"}'
EDGE = '{"kind":"edge","source":"a","target":"b"}'


def assert_counted_as_split(text: str) -> None:
    data = text.encode("utf-8")
    header, body = store_module._split_corpus(data)
    assert store_module._corpus_head(store_module._corpus_text(data)) == (header, len(body))


@pytest.mark.parametrize("text", [
    f"{HEADER}\n{KO}\n{EDGE}\n",                      # LF
    f"{HEADER}\r\n{KO}\r\n{EDGE}\r\n",                # CRLF
    f"{HEADER}\n{KO}\n{EDGE}",                        # no final newline
    f"{HEADER}\r\n{KO}\r\n{EDGE}\r",                  # a lone final carriage return
    f"{HEADER}\n",                                    # header only
    HEADER,                                           # header only, no newline
    f"{HEADER}\n{KO}\n\n{EDGE}\n",                    # a blank body line
    f"{HEADER}\n{KO}\n\n",                            # a blank last line
    f"{HEADER}\n" + KO.replace('"x"', '"x\u2028y\u2029z\x85"') + "\n",  # raw U+2028
    "",                                               # empty: the default header
    "\r",
], ids=["lf", "crlf", "no-final-newline", "final-cr", "header-only",
        "header-only-no-newline", "blank-body-line", "blank-last-line", "u2028",
        "empty", "lone-cr"])
def test_a_restore_counts_the_lines_split_corpus_gives(text):
    assert_counted_as_split(text)


@given(st.lists(st.sampled_from(["\n", "\r", "\r\n", "\u2028", "\x85", "x", " ", KO]),
                max_size=12).map("".join))
def test_the_count_agrees_with_the_split_on_any_body(body):
    for text in (f"{HEADER}\n{body}", f"{HEADER}\r\n{body}\n"):
        assert_counted_as_split(text)


def test_a_query_on_a_restored_workspace_never_splits_the_corpus(
        session, starts, monkeypatch):
    def split(*args):
        raise AssertionError("the corpus was split")
    for name in ("_text_lines", "_split_corpus"):
        monkeypatch.setattr(store_module, name, split)
    code, out, err = run(session, "query", "x", "--entity", "e1")
    assert code == 0 and out and not err
    assert [start[0] for start in starts] == ["restored"]
    monkeypatch.undo()
    assert run(without_checkpoint(session, session.parent), "query", "x",
               "--entity", "e1") == (code, out, err)


def test_the_first_read_of_the_kept_lines_splits_the_text_once(session):
    log, corpus = session / "events.jsonl", session / "corpus.jsonl"
    store, _ = restore_checkpoint(log, corpus)
    assert store._kept_text == corpus.read_text() and store._kept_ko_lines == {}
    lines = corpus.read_text().splitlines()
    assert store._edge_lines == lines[1 + len(store._kos):]
    assert store._kept_text is None and store._restored_kos == ()
    ko_lines = store._ko_lines
    assert [line for _, line in ko_lines.values()] == lines[1:1 + len(store._kos)]
    assert all(ko is store._kos[ko_id] for ko_id, (ko, _) in ko_lines.items())
    assert store._ko_lines is ko_lines and corpus_lines(store) == lines


def test_a_restore_zones_its_rows_for_the_first_snapshot(session):
    store, _ = restore_checkpoint(session / "events.jsonl", session / "corpus.jsonl")
    snapshot = store.snapshot()
    assert "zones" in vars(snapshot)
    assert list(snapshot.zones.items()) == [(ko_id, ko.zone) for ko_id, ko
                                            in sorted(snapshot.kos.items())]
    replayed = CorpusStore.replay(read_events(session / "events.jsonl")).snapshot()
    assert list(snapshot.zones.items()) == list(replayed.zones.items())


@pytest.mark.parametrize("argv", [("ingest", "second"), ("cycle", "2")])
def test_after_a_restore_an_export_equals_a_full_replays(session, starts, tmp_path, argv):
    if argv[0] == "ingest":
        argv = ("ingest", str(second_batch(tmp_path / "in2.jsonl")))
    assert run(session, *argv)[0] == 0
    assert [start[0] for start in starts] == ["restored"]
    replayed = CorpusStore.replay(read_events(session / "events.jsonl"))
    assert (session / "corpus.jsonl").read_text() == "\n".join(corpus_lines(replayed)) + "\n"


def _vouch(session, corpus: bytes) -> None:
    """Write ``corpus`` and a checkpoint that vouches for it: its hash, and
    an image naming it, otherwise as saved."""
    path = checkpoint_path(session / "events.jsonl")
    record = json.loads(path.read_text())
    sha = hashlib.sha256(corpus).hexdigest()
    image = list(marshal.loads(base64.b64decode(record["image"])))
    image[0] = sha
    data = marshal.dumps(tuple(image), 2)
    record.update(corpus_sha256=sha, image=base64.b64encode(data).decode("ascii"),
                  image_sha256=hashlib.sha256(data).hexdigest())
    (session / "corpus.jsonl").write_bytes(corpus)
    path.write_text(json.dumps(record))


def test_a_line_count_mismatch_falls_back_to_a_full_replay(session, starts):
    before = run(session, "query", "x", "--entity", "e1")
    corpus = (session / "corpus.jsonl").read_bytes()
    _vouch(session, corpus.replace(b"\n", b"\n\n", 1))  # one blank body line
    with pytest.raises(CheckpointError, match="other than the 18 objects and edges"):
        restore_checkpoint(session / "events.jsonl", session / "corpus.jsonl")
    assert run(session, "query", "x", "--entity", "e1") == before
    assert starts[-1][0] == "replayed"
    _vouch(session, corpus)  # the same bytes again restore
    assert run(session, "query", "x", "--entity", "e1") == before
    assert starts[-1][0] == "restored"


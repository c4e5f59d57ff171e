"""The same bits on every supported Python (3.10-3.13).

Python 3.12 made the built-in ``sum`` of floats compensate its rounding, so
scores summed with it differ in their last bits between 3.11 and 3.12. The
library sums left to right (``kgravity.model.left_sum``); the values below
were recorded with it and must hold on every version in the CI matrix. So
must the saved files' bytes, whose checkpoint image is marshal version 2.
"""

from __future__ import annotations

import hashlib
import math
import operator

from kgravity import CorpusStore, EdgeType, EpistemicClass, Query, rank
from kgravity.store import Workspace, checkpoint_path
from tests.conftest import make_koc

QUERY = (-0.63, 0.02, 0.26, 0.59, -0.81, -0.39)
EMBEDDINGS = {
    "a": (-0.62, -0.52, -0.94, -0.07, -0.12, 0.68),
    "b": (1.0, 0.99, 0.68, 0.42, -0.37, -0.54),
    "c": (-0.8, -0.88, 0.59, -0.64, 0.12, -0.11),
}


def _cycled_store(store: CorpusStore | None = None,
                  retrieved_at: int | None = None) -> CorpusStore:
    """The three objects and two edges, a retrieval of ``a`` if
    ``retrieved_at`` is given, then three daily cycles."""
    store = CorpusStore() if store is None else store
    for ko_id, cls, entity in (("a", EpistemicClass.EVIDENCE, "acme"),
                               ("b", EpistemicClass.DECISION, "acme"),
                               ("c", EpistemicClass.HYPOTHESIS, "zeta")):
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=entity), content=ko_id,
                        ko_id=ko_id, embedding=list(EMBEDDINGS[ko_id]),
                        anchors=[] if ko_id == "c" else ["m"])
    store.add_edge("a", "b", EdgeType.SUPPORTS, at=100)
    store.add_edge("c", "a", EdgeType.CONTRADICTS, at=100)
    if retrieved_at is not None:
        store.record_retrieval("a", at=retrieved_at)
    for day in range(1, 4):
        store.apply_cycle(now=day * 86400)
    return store


def test_scores_have_the_recorded_bits():
    snapshot = _cycled_store().snapshot()
    assert {ko_id: ko.scores.k.hex() for ko_id, ko in snapshot.kos.items()} == {
        "a": "0x1.765869118049dp-1",
        "b": "0x1.0000000000000p+0",
        "c": "0x1.3078986d1ebc6p-2",
    }
    q = Query(embedding=QUERY, primary_entity="acme", domain="ops",
              active_anchors=frozenset({"m"}))
    assert [(r.ko_id, r.s_sem.hex(), r.hybrid.hex(), r.rank_score.hex())
            for r in rank(q, snapshot)] == [
        ("b", "0x1.2565afad546ebp-1", "0x1.5f7fa4a377042p-1", "0x1.5f7fa4a377042p-1"),
        ("a", "0x1.eb348ed39cf04p-2", "0x1.7acd23b4e73c0p-1", "0x1.14f542134c8ccp-1"),
        ("c", "0x1.1c30c5bddfadfp-1", "0x1.0e1862deefd6fp-1", "0x1.c1baabec2ac20p-5"),
    ]


def test_saved_files_have_the_recorded_sha256(tmp_path):
    log, corpus = tmp_path / "events.jsonl", tmp_path / "corpus.jsonl"
    workspace = Workspace(log, corpus)
    _cycled_store(workspace.open(), retrieved_at=200)
    workspace.save()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (log, corpus, checkpoint_path(log))} == {
        "events.jsonl": "e3f9b35ea4ba9b05bda11757ae00be29ee3f53e0fe4096ab49f9bc6b8e1bee1e",
        "corpus.jsonl": "c13422c2c84c377df143ed2cf7fec3e56aa4b00121c15b374764665f3d416662",
        "events.jsonl.checkpoint":
            "d764d8f6fcf36e07c86f5ec7511fcb893a37d30e3e5d8123d5f5548ad675307f",
    }


def test_the_recorded_bits_tell_left_to_right_from_compensated_sums():
    """The fixture catches a switch to compensated summation: summed
    correctly rounded, object a's S_sem has other bits than recorded."""
    a = EMBEDDINGS["a"]
    cosine = math.fsum(map(operator.mul, QUERY, a)) / (
        math.sqrt(math.fsum(x * x for x in QUERY)) * math.sqrt(math.fsum(x * x for x in a)))
    assert ((cosine + 1.0) / 2.0).hex() != "0x1.eb348ed39cf04p-2"

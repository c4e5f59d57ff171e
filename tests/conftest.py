"""Shared builders for the test suite."""

from __future__ import annotations

import random

from kgravity import (
    CorpusStore,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    Koc,
    ScoreVector,
    class_profile,
)
from kgravity.engine import EdgeStructure

SECONDS_PER_DAY = 86400


def make_koc(cls: EpistemicClass, entity: str = "acme", domain: str = "ops",
             epoch: str = "q1", depth: str = "l1", author: str = "ana",
             variant: str = "v1") -> Koc:
    return Koc(entity=entity, domain=domain, cls=cls, epoch=epoch,
               depth=depth, author=author, variant=variant)


def make_ko(ko_id: str, cls: EpistemicClass, k: float | None = None,
            created_at: int = 0, **kwargs) -> KnowledgeObject:
    koc = kwargs.pop("koc", None) or make_koc(cls, entity=f"e-{ko_id}")
    scores = ScoreVector(k=class_profile(cls).seed_k if k is None else k,
                         urgency=kwargs.pop("urgency", 0.0))
    return KnowledgeObject(id=ko_id, koc=koc, cls=cls,
                           content=kwargs.pop("content", f"content of {ko_id}"),
                           scores=scores, created_at=created_at, **kwargs)


def snapshot_of(kos, edges=(), cycle_at=None) -> GraphSnapshot:
    return GraphSnapshot(kos={ko.id: ko for ko in kos}, edges=tuple(edges),
                         cycle_at=cycle_at)


def assert_kept_structure_is_fresh(kept: EdgeStructure, snapshot: GraphSnapshot,
                                   now: int | None) -> None:
    """``kept``, an edge structure grown across cycles, advanced to ``now``
    gives the dormant set, entries and BLOCKS counts of one built from the
    snapshot's edges alone."""
    fresh = EdgeStructure(snapshot.edges)
    assert kept.advance(snapshot, now) == fresh.advance(snapshot, now)
    assert kept.inputs == fresh.inputs
    assert kept.outbound_blocks == fresh.outbound_blocks


def random_scenario(store: CorpusStore, seed: int, n_events: int = 200) -> None:
    """Drive a store through a seeded mix of every operation kind.

    Used to check that replaying the resulting log reproduces the live state
    exactly. Operations that would be rejected are skipped, so every event in
    the log is valid.
    """
    rng = random.Random(seed)
    classes = list(EpistemicClass)
    edge_types = list(EdgeType)
    clock = 1_700_000_000

    while len(store.events) < n_events:
        clock += rng.randint(60, 6 * 3600)
        ids = sorted(store.snapshot().kos)
        op = rng.random()
        if op < 0.35 or len(ids) < 3:
            cls = rng.choice(classes)
            store.ingest_ko(
                cls=cls,
                koc=make_koc(cls, entity=f"e{rng.randint(0, 20)}",
                             domain=f"d{rng.randint(0, 4)}",
                             variant=f"v{len(ids)}"),
                content=f"event {len(store.events)}",
                created_at=clock,
                stakes=round(rng.random(), 3),
                anchors=[f"a{rng.randint(0, 5)}" for _ in range(rng.randint(0, 3))],
                embedding=[round(rng.uniform(-1, 1), 6) for _ in range(4)])
        elif op < 0.60:
            source, target = rng.sample(ids, 2)
            edge_type = rng.choice(edge_types)
            try:
                store.add_edge(source, target, edge_type, at=clock)
            except Exception:
                pass
        elif op < 0.72:
            store.record_retrieval(rng.choice(ids), at=clock)
        elif op < 0.82:
            store.apply_cycle(now=clock)
        elif op < 0.90:
            questions = [i for i in ids
                         if store.snapshot().kos[i].cls is EpistemicClass.QUESTION
                         and not store.snapshot().kos[i].resolved]
            others = [i for i in ids if i not in questions]
            if questions and others:
                try:
                    store.resolve_question(rng.choice(questions),
                                           rng.choice(others), at=clock)
                except Exception:
                    pass
        else:
            new, old = rng.sample(ids, 2)
            try:
                store.supersede(new, old, at=clock)
            except Exception:
                pass

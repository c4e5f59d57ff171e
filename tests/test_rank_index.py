"""``rank`` over the cached snapshot index against a reference oracle, and
the index's freshness across store operations."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import deque

import pytest

from kgravity import (
    CorpusStore,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    MemoryZone,
    Query,
    RankedResult,
    RetrievalError,
    RetrievalWeights,
    ScoreVector,
    contextual_attention,
    k_eff,
    rank,
    structural_sim,
)
from kgravity.dynamics import random_graph
from tests.conftest import make_koc

W = RetrievalWeights()


def oracle_rank(q, snapshot, w=W, koc_weights=None):
    """Score every eligible object, sort by (-R, id), truncate: the
    reference that ``rank`` must reproduce exactly."""
    kos = snapshot.kos
    if not kos:
        return []
    ids = sorted(kos)
    focus = None
    if q.anchor_koc is not None:
        focus = next((i for i in ids if kos[i].koc == q.anchor_koc), None)
    if focus is None:
        best = -1.0
        for ko_id in ids:
            sim = structural_sim(q, kos[ko_id], koc_weights)
            if sim > best:
                focus, best = ko_id, sim
    adjacency: dict[str, set[str]] = {}
    for e in snapshot.edges:
        adjacency.setdefault(e.source_id, set()).add(e.target_id)
        adjacency.setdefault(e.target_id, set()).add(e.source_id)
    distances = {focus: 0}
    queue = deque([focus])
    while queue:
        node = queue.popleft()
        for neighbor in sorted(adjacency.get(node, ())):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)

    results = []
    for ko_id in ids:
        ko = kos[ko_id]
        if ko.zone is MemoryZone.DORMANT and not q.include_dormant:
            continue
        if ko.zone is MemoryZone.PERIPHERAL and q.exclude_peripheral:
            continue
        s_struct = structural_sim(q, ko, koc_weights)
        degraded = q.embedding is None or ko.embedding is None
        s_sem = 0.0
        if not degraded:
            a, b = q.embedding, ko.embedding
            na = math.sqrt(sum(x * x for x in a))
            nb = math.sqrt(sum(x * x for x in b))
            cosine = 0.0 if na == 0.0 or nb == 0.0 else \
                sum(x * y for x, y in zip(a, b)) / (na * nb)
            s_sem = (cosine + 1.0) / 2.0
        h = distances.get(ko_id)
        s_topo = 0.0 if h is None else 1.0 / (1.0 + h)
        hybrid = w.alpha * s_struct + w.beta * s_sem + w.gamma * s_topo
        phi = contextual_attention(q, ko, w)
        eff = k_eff(ko, phi, w)
        results.append(RankedResult(
            ko_id=ko_id, hybrid=hybrid, k_eff=eff, rank_score=hybrid * eff,
            s_struct=s_struct, s_sem=s_sem, s_topo=s_topo, phi_ctx=phi,
            k_global=ko.scores.k, urgency=ko.scores.urgency, zone=ko.zone,
            degraded=degraded))
    results.sort(key=lambda r: (-r.rank_score, r.ko_id))
    return results[:q.top_k]


ENTITIES = ("e0", "e1", "e2", "e3", "e4", "e5")
DIM = 4
K_BY_ZONE = (0.02, 0.07, 0.2, 0.6)  # one k per zone, DORMANT..CORE


def seeded_graph(seed: int, n: int = 60) -> GraphSnapshot:
    """A ``random_graph`` with shared entities, every zone, embeddings
    (some missing, some zero), anchors, isolated nodes and exact twins."""
    rng = random.Random(seed)
    base = random_graph(n, seed, edge_factor=1.0)
    kos = {}
    for ko_id, ko in base.kos.items():
        embedding = None
        if rng.random() < 0.8:
            embedding = tuple(rng.choice((0.0, 0.5, -1.0, rng.uniform(-1, 1)))
                              for _ in range(DIM))
        if rng.random() < 0.1:
            embedding = (0.0,) * DIM
        kos[ko_id] = dataclasses.replace(
            ko, koc=dataclasses.replace(ko.koc, entity=rng.choice(ENTITIES)),
            scores=ScoreVector(k=rng.choice(K_BY_ZONE)), embedding=embedding,
            anchors=frozenset(rng.sample(("m0", "m1", "m2"), rng.randint(0, 2))))
    # isolated twins: identical in every scored input, so their R ties
    twin = kos[sorted(kos)[rng.randrange(n)]]
    for suffix in ("x", "y", "z"):
        kos[f"zz{suffix}"] = dataclasses.replace(twin, id=f"zz{suffix}")
    return GraphSnapshot(kos=kos, edges=base.edges)


def seeded_queries(seed: int, snapshot: GraphSnapshot) -> list[Query]:
    rng = random.Random(seed)
    ids = sorted(snapshot.kos)
    queries = []
    for _ in range(40):
        r = rng.random()
        anchor = None
        if r < 0.3:
            anchor = snapshot.kos[rng.choice(ids)].koc          # exact match
        elif r < 0.5:
            anchor = make_koc(rng.choice(list(EpistemicClass)),  # no exact match
                              entity=rng.choice(ENTITIES + ("nobody",)),
                              domain=f"d{rng.randint(0, 6)}", epoch="t0",
                              depth="l1", author=rng.choice(("gen", "other")),
                              variant="none")
        embedding = None
        if rng.random() < 0.7:
            embedding = tuple(rng.uniform(-1, 1) for _ in range(DIM))
        elif rng.random() < 0.3:
            embedding = (0.0,) * DIM
        queries.append(Query(
            embedding=embedding,
            primary_entity=rng.choice(ENTITIES + ("nobody",)),
            domain=f"d{rng.randint(0, 6)}",
            active_anchors=frozenset(rng.sample(("m0", "m1", "m2"), rng.randint(0, 2))),
            anchor_koc=anchor,
            top_k=rng.choice((1, 3, 10, 200)),
            include_dormant=rng.random() < 0.3,
            exclude_peripheral=rng.random() < 0.3))
    return queries


@pytest.mark.parametrize("seed", range(8))
def test_rank_equals_oracle(seed):
    snapshot = seeded_graph(seed)
    koc_weights = (0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1) if seed % 2 else None
    for q in seeded_queries(seed, snapshot):
        got = rank(q, snapshot, W, koc_weights)
        assert got == oracle_rank(q, snapshot, W, koc_weights)


def test_oracle_cases_are_covered():
    """The seeded inputs reach every case the equivalence test names."""
    snapshots = [seeded_graph(seed) for seed in range(8)]
    queries = [q for seed, s in enumerate(snapshots) for q in seeded_queries(seed, s)]
    linked = {n for s in snapshots for e in s.edges for n in (e.source_id, e.target_id)}
    assert any(ko_id not in linked for s in snapshots for ko_id in s.kos)
    assert any(q.anchor_koc is None for q in queries)
    assert any(q.anchor_koc is not None and q.anchor_koc.variant == "none" for q in queries)
    assert any(q.anchor_koc is not None and q.anchor_koc.variant != "none" for q in queries)
    assert any(q.embedding is None for q in queries)
    assert any(q.embedding == (0.0,) * DIM for q in queries)
    assert any(ko.embedding == (0.0,) * DIM for s in snapshots for ko in s.kos.values())
    assert any(q.include_dormant for q in queries)
    assert any(q.exclude_peripheral for q in queries)
    assert any(q.top_k > len(snapshots[0].kos) for q in queries)
    ties = [rank(q, s) for seed, s in enumerate(snapshots)
            for q in seeded_queries(seed, s)[:5]]
    assert any(a.rank_score == b.rank_score and a.ko_id < b.ko_id
               for results in ties for a, b in zip(results, results[1:]))


def test_rank_degraded_and_dimension_mismatch():
    snapshot = seeded_graph(1)
    q = Query(embedding=(1.0, 0.0), top_k=5)
    with pytest.raises(RetrievalError, match="dimension mismatch"):
        rank(q, snapshot)
    assert rank(dataclasses.replace(q, embedding=None), snapshot) == \
        oracle_rank(dataclasses.replace(q, embedding=None), snapshot)


# ---------------------------------------------------------------------------
# Index freshness
# ---------------------------------------------------------------------------

def _store() -> CorpusStore:
    store = CorpusStore()
    for i, cls in enumerate((EpistemicClass.DECISION, EpistemicClass.EVIDENCE,
                             EpistemicClass.OBSERVATION)):
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"e{i}"),
                        content=f"ko {i}", ko_id=f"k{i}", created_at=0,
                        embedding=[1.0, float(i)])
    store.add_edge("k0", "k1", EdgeType.SUPPORTS, at=0)
    return store


def test_snapshot_index_follows_store_operations():
    store = _store()
    q = Query(primary_entity="e0", domain="ops", embedding=(1.0, 0.0), top_k=5,
              include_dormant=True)
    before = store.snapshot()
    rank(q, before)
    assert before.neighbors == {"k0": ("k1",), "k1": ("k0",)}

    store.add_edge("k2", "k1", EdgeType.REFINES, at=10)
    after_edge = store.snapshot()
    assert after_edge.neighbors["k1"] == ("k0", "k2")
    assert before.neighbors["k1"] == ("k0",)
    assert rank(q, after_edge) == oracle_rank(q, after_edge)

    store.record_retrieval("k2", at=20)
    after_retrieval = store.snapshot()
    assert after_retrieval.kos["k2"].retrieved_at == (20,)
    assert rank(q, after_retrieval) == oracle_rank(q, after_retrieval)

    for day in range(1, 400):
        store.apply_cycle(now=day * 86400)
    cycled = store.snapshot()
    assert cycled.zones == {i: ko.zone for i, ko in cycled.kos.items()}
    assert cycled.zones != after_retrieval.zones
    assert rank(q, cycled) == oracle_rank(q, cycled)


INDEX = ("zones", "neighbors", "embedding_norms", "first_ids")


def test_index_is_not_part_of_snapshot_value():
    fields = [f.name for f in dataclasses.fields(GraphSnapshot)]
    assert fields == ["kos", "edges", "cycle_at"]
    store = _store()
    ranked, fresh = store.snapshot(), store.snapshot()
    rank(Query(primary_entity="e0", domain="ops", embedding=(1.0, 0.0)), ranked)
    rank(Query(anchor_koc=ranked.kos["k1"].koc), ranked)
    assert set(INDEX) <= set(vars(ranked)) and not set(INDEX) & set(vars(fresh))
    assert ranked == fresh
    assert repr(ranked) == repr(fresh)
    assert dataclasses.replace(ranked) == fresh
    assert not set(INDEX) & set(vars(dataclasses.replace(ranked)))

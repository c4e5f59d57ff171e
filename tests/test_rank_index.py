"""``rank`` over the cached snapshot index against a reference oracle, and
the index's freshness across store operations."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgravity import (
    CorpusStore,
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    MemoryZone,
    ModelError,
    Query,
    RankedResult,
    RetrievalError,
    RetrievalWeights,
    ScoreVector,
    contextual_attention,
    k_eff,
    rank,
)
from kgravity import retrieval
from kgravity.dynamics import random_graph
from tests.conftest import make_ko, make_koc, snapshot_of

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
            sim = _structural(q, kos[ko_id], koc_weights)
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
        s_struct = _structural(q, ko, koc_weights)
        degraded = q.embedding is None or ko.embedding is None
        s_sem = 0.0
        if not degraded:
            a, b = q.embedding, ko.embedding
            if len(a) != len(b):
                raise RetrievalError(f"embedding dimension mismatch: query {len(a)} "
                                     f"vs ko {ko_id!r} {len(b)}")
            na = math.sqrt(_plain_sum(x * x for x in a))
            nb = math.sqrt(_plain_sum(x * x for x in b))
            cosine = 0.0 if na == 0.0 or nb == 0.0 else \
                _plain_sum(x * y for x, y in zip(a, b)) / (na * nb)
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


def _structural(q, ko, koc_weights):
    """S_struct by its definition: with an anchor coordinate, the weighted
    ``fsum`` of the matched axes over the weights' ``fsum``; without one,
    the entity and domain matches averaged."""
    if q.anchor_koc is None:
        return ((q.primary_entity == ko.koc.entity) + (q.domain == ko.koc.domain)) / 2.0
    weights = (1.0 / 7.0,) * 7 if koc_weights is None else koc_weights
    return math.fsum(w for w, x, y in zip(weights, q.anchor_koc.axes(), ko.koc.axes())
                     if x == y) / math.fsum(weights)


def _plain_sum(values):
    """Left to right, as ``sum`` adds before Python 3.12."""
    total = 0
    for x in values:
        total += x
    return total


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
# Bound-pruned rank against the full scan, on generated inputs
# ---------------------------------------------------------------------------

SMALL = (-1.0, 0.0, 0.5, 1.0)  # few values, so k, R and cosines tie
WEIGHTS = (
    W,
    RetrievalWeights(alpha=0.5, beta=0.0, gamma=0.5, w_e=0.0, w_d=0.0, w_a=1.0,
                     k_eff_floor=0.0),
    RetrievalWeights(alpha=1.2, beta=-0.4, gamma=0.2),      # negative similarity weight
    RetrievalWeights(w_e=0.8, w_d=-0.3, w_a=0.5, k_eff_floor=0.3),  # negative attention
)
KOC_WEIGHTS = (None, (0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1),
               (0.5, 0.5, -0.4, 0.1, 0.1, 0.1, 0.1))    # a negative axis weight
CLASSES = (EpistemicClass.DECISION, EpistemicClass.EVIDENCE, EpistemicClass.OBSERVATION)


@st.composite
def kocs(draw, entities=("e0", "e1", "e2"), domains=("d0", "d1")):
    return make_koc(draw(st.sampled_from(CLASSES)),
                    entity=draw(st.sampled_from(entities)),
                    domain=draw(st.sampled_from(domains)),
                    author=draw(st.sampled_from(("ana", "bo"))),
                    variant=draw(st.sampled_from(("v1", "v2"))))


@st.composite
def snapshots(draw):
    n = draw(st.integers(0, 14))
    kos = {}
    for i in range(n):
        koc = draw(kocs())
        embedding = draw(st.none() | st.tuples(*[st.sampled_from(SMALL)] * 3))
        kos[f"k{i:02d}"] = KnowledgeObject(
            id=f"k{i:02d}", koc=koc, cls=koc.cls, content="", created_at=0,
            scores=ScoreVector(k=draw(st.sampled_from((0.0, 0.02, 0.07, 0.2, 0.4, 0.4, 1.0)))),
            anchors=draw(st.frozensets(st.sampled_from(("m0", "m1")))),
            embedding=embedding)
    ids = sorted(kos)
    edges = {}
    if n > 1:
        for a, b in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                  max_size=2 * n)):
            if a != b:
                edges[a, b] = Edge(a, b, EdgeType.SUPPORTS, 0)
    return GraphSnapshot(kos=kos, edges=tuple(edges.values()))


@st.composite
def queries(draw, snapshot):
    anchor = None
    if draw(st.booleans()):
        anchor = draw(st.sampled_from([ko.koc for ko in snapshot.kos.values()])
                      if snapshot.kos and draw(st.booleans()) else kocs())
    return Query(
        embedding=draw(st.none() | st.tuples(*[st.sampled_from(SMALL)] * 3)),
        primary_entity=draw(st.sampled_from(("e0", "e1", "nobody"))),
        domain=draw(st.sampled_from(("d0", "d1", "none"))),
        active_anchors=draw(st.frozensets(st.sampled_from(("m0", "m1", "m2")))),
        anchor_koc=anchor,
        top_k=draw(st.integers(1, 16)),
        include_dormant=draw(st.booleans()),
        exclude_peripheral=draw(st.booleans()))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RetrievalError, ModelError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
@example(data=None)  # the empty snapshot
def test_pruned_rank_equals_full_scan(data):
    if data is None:
        snapshot, q, w, koc_weights = GraphSnapshot(), Query(), W, None
    else:
        snapshot = data.draw(snapshots())
        q = data.draw(queries(snapshot))
        w = data.draw(st.sampled_from(WEIGHTS))
        koc_weights = data.draw(st.sampled_from(KOC_WEIGHTS))
    assert _outcome(rank, q, snapshot, w, koc_weights) == \
        _outcome(oracle_rank, q, snapshot, w, koc_weights)


def _scored_ids(monkeypatch) -> list[str]:
    """The id of every object scored from here on."""
    scored = []
    real_k_eff = retrieval.k_eff
    monkeypatch.setattr(retrieval, "k_eff", lambda ko, phi, w: (
        scored.append(ko.id), real_k_eff(ko, phi, w))[1])
    return scored


def test_rank_scores_only_what_can_reach_the_top_k(monkeypatch):
    """On a graph where most objects share neither the query's entity nor
    its domain, rank scores far fewer objects than are eligible; with a
    negative weight it has no bound and scores them all."""
    snapshot = random_graph(400, seed=3, edge_factor=2.0)
    q = Query(primary_entity=snapshot.kos[sorted(snapshot.kos)[0]].koc.entity,
              domain="d0", top_k=5, include_dormant=True)
    scored = _scored_ids(monkeypatch)

    assert rank(q, snapshot) == oracle_rank(q, snapshot)
    assert len(scored) == len(set(scored)) < len(snapshot.kos) // 4
    scored.clear()
    negative = RetrievalWeights(alpha=1.2, beta=-0.4, gamma=0.2)
    assert rank(q, snapshot, negative) == oracle_rank(q, snapshot, negative)
    assert len(scored) == len(snapshot.kos)


# ---------------------------------------------------------------------------
# The eight groups: entity, domain and anchor overlap
# ---------------------------------------------------------------------------

GROUP_ANCHORS = ("m0", "m1", "m2", "m3")
NON_UNIFORM = (0.05, 0.05, 0.5, 0.1, 0.1, 0.1, 0.1)


def anchored_graph(seed: int) -> GraphSnapshot:
    """``seeded_graph`` with up to three of four anchors per object, so a
    query's anchors are shared by some objects wholly, by some in part and
    by others not at all."""
    rng = random.Random(seed)
    base = seeded_graph(seed)
    return GraphSnapshot(kos={ko_id: dataclasses.replace(
        ko, anchors=frozenset(rng.sample(GROUP_ANCHORS, rng.randint(0, 3))))
        for ko_id, ko in base.kos.items()}, edges=base.edges)


def anchored_queries(seed: int, snapshot: GraphSnapshot) -> list[Query]:
    """Each of ``seeded_queries`` with 0, 1, 2 and 3 active anchors."""
    rng = random.Random(seed)
    return [dataclasses.replace(q, active_anchors=frozenset(rng.sample(GROUP_ANCHORS, n)))
            for q in seeded_queries(seed, snapshot) for n in range(4)]


def _group(q: Query, ko: KnowledgeObject) -> tuple[bool, bool, bool]:
    return (ko.koc.entity == q.primary_entity, ko.koc.domain == q.domain,
            bool(ko.anchors & q.active_anchors))


@pytest.mark.parametrize("seed", range(6))
def test_rank_equals_oracle_in_every_anchor_group(seed):
    snapshot = anchored_graph(seed)
    koc_weights = NON_UNIFORM if seed % 2 else None
    for q in anchored_queries(seed, snapshot):
        for w in (W, *WEIGHTS[2:]):  # with the bound, and both no-bound paths
            assert rank(q, snapshot, w, koc_weights) == oracle_rank(q, snapshot, w, koc_weights)


def test_anchor_group_cases_are_covered():
    """The inputs above put eligible objects in each of the eight groups,
    and reach every case the test names."""
    cases = [(q, s) for seed in range(6) for s in [anchored_graph(seed)]
             for q in anchored_queries(seed, s)]
    groups = {_group(q, ko) for q, s in cases for ko in s.kos.values()
              if ko.zone is not MemoryZone.DORMANT or q.include_dormant}
    assert groups == set(retrieval._GROUPS)
    assert {len(q.active_anchors) for q, _ in cases} == {0, 1, 2, 3}
    assert any(ko.anchors & q.active_anchors and not q.active_anchors <= ko.anchors
               for q, s in cases for ko in s.kos.values())  # some but not all
    assert any(q.active_anchors and q.active_anchors <= ko.anchors
               for q, s in cases for ko in s.kos.values())  # every one
    assert any(q.include_dormant for q, _ in cases)
    assert any(q.exclude_peripheral for q, _ in cases)
    assert any(q.anchor_koc is not None and q.anchor_koc not in s.first_ids
               for q, s in cases)


def test_rank_does_not_score_high_k_objects_that_share_no_anchor(monkeypatch):
    """Three objects share the query's entity, domain and anchor, with R =
    0.3 * 0.3 or more. Twenty more share none of them, but have k = 1 and
    the query's own embedding: an overlap of 0 caps their R at about
    0.6 * (1 * 0.10) = 0.06, so none of them is scored once the top 3 is
    full; an overlap cap of 1 would give 0.6 * (1 * 0.25) = 0.15 and score
    them all."""
    near = [make_ko(f"a{i}", EpistemicClass.DECISION, k=0.3, anchors=frozenset({"m"}),
                    koc=make_koc(EpistemicClass.DECISION, entity="e", domain="d"),
                    embedding=(-1.0, 0.0)) for i in range(3)]
    far = [make_ko(f"z{i:02d}", EpistemicClass.DECISION, k=1.0, embedding=(1.0, 0.0),
                   koc=make_koc(EpistemicClass.DECISION, entity=f"x{i}", domain="y"))
           for i in range(20)]
    snapshot = snapshot_of(near + far)
    q = Query(embedding=(1.0, 0.0), primary_entity="e", domain="d",
              active_anchors=frozenset({"m"}), top_k=3)
    scored = _scored_ids(monkeypatch)
    got = rank(q, snapshot)
    assert got == oracle_rank(q, snapshot)
    assert [r.ko_id for r in got] == ["a0", "a1", "a2"]
    assert sorted(scored) == ["a0", "a1", "a2"]


def test_rank_scores_the_focus_first_as_only_it_has_s_topo_1(monkeypatch):
    """The focus "far" shares nothing with the query; it tops the ranking
    only through S_topo = 1 (R = 0.5 * (1 * 0.10) = 0.05 against about
    0.048 for "near"). Its group's bound, with S_topo at most 1/2, is 0.04,
    so it is reached only because rank scores the focus before any walk."""
    far_koc = make_koc(EpistemicClass.DECISION, entity="x", domain="y")
    far = make_ko("far", EpistemicClass.DECISION, k=1.0, koc=far_koc)
    near = make_ko("near", EpistemicClass.DECISION, k=0.3,
                   koc=make_koc(EpistemicClass.DECISION, entity="e", domain="d"))
    snapshot = snapshot_of([far, near])
    q = Query(primary_entity="e", domain="d", anchor_koc=far_koc, top_k=1)
    scored = _scored_ids(monkeypatch)
    got = rank(q, snapshot)
    assert got == oracle_rank(q, snapshot)
    assert [r.ko_id for r in got] == ["far"] and got[0].s_topo == 1.0
    assert scored[0] == "far"


def test_rank_skips_a_member_by_its_own_s_struct_and_s_topo(monkeypatch):
    """"top" is the focus: R = 0.5 * (0.5 * 0.75) = 0.1875. Its five twins
    have k = 0.7 and no edge, so their group's bound, with S_topo at most
    1/2, is 0.4 * (0.7 * 0.75) = 0.21 and does not stop the walk; but each
    twin's own S_topo is 0, which caps its R at 0.3 * (0.7 * 0.75) = 0.1575,
    so none of them is scored."""
    koc = make_koc(EpistemicClass.DECISION, entity="e", domain="d")
    snapshot = snapshot_of(
        [make_ko("top", EpistemicClass.DECISION, k=0.5, koc=koc)]
        + [make_ko(f"twin{i}", EpistemicClass.DECISION, k=0.7, koc=koc) for i in range(5)])
    q = Query(primary_entity="e", domain="d", top_k=1)
    scored = _scored_ids(monkeypatch)
    got = rank(q, snapshot)
    assert got == oracle_rank(q, snapshot)
    assert [r.ko_id for r in got] == ["top"] and got[0].rank_score == 0.5 * (0.5 * 0.75)
    assert scored == ["top"]


def test_rank_is_exact_for_embeddings_too_small_to_bound():
    """Below 2**-500 a computed cosine can exceed 1 by far (here it is 2),
    so rank drops the bound and scores every eligible object."""
    near = KnowledgeObject(id="near", koc=make_koc(EpistemicClass.DECISION, entity="e"),
                           cls=EpistemicClass.DECISION, content="", created_at=0,
                           scores=ScoreVector(k=0.3), embedding=(0.0,))
    far = dataclasses.replace(
        near, id="far", koc=make_koc(EpistemicClass.DECISION, entity="x", domain="y"),
        scores=ScoreVector(k=1.0), embedding=(1.5 * 2.0 ** -537,))
    snapshot = GraphSnapshot(kos={"near": near, "far": far},
                             edges=(Edge("near", "far", EdgeType.SUPPORTS, 0),))
    q = Query(embedding=(2.0 ** -537,), primary_entity="e", top_k=1)
    got = rank(q, snapshot)
    assert got == oracle_rank(q, snapshot)
    assert [r.ko_id for r in got] == ["far"] and got[0].s_sem == 1.5


#: A query embedding whose left-to-right cosine with 3 times itself is
#: 1 + 2**-52: rank must allow for a cosine rounded above 1.
ROUNDED_UP = (0.107, -0.275, -0.4, -0.054, 0.47, -0.07, -0.475, 0.514, -0.341, 0.808,
              0.045, 0.113, -0.394, -0.77, -0.909, -0.229, 0.73, -0.057, 0.621, -0.753,
              0.939, -0.332, -0.229, -0.264, -0.019, -0.868, -0.094, 0.967, 0.539, 0.328,
              0.683, 0.864)


def test_rank_keeps_a_tie_won_through_a_cosine_rounded_above_1():
    """The object "far" shares nothing with the query but is its anchor and
    focus, so with S_sem above 1 its R exceeds (alpha + beta + gamma) * k * M; it ties
    "near" and wins the tie by id. Without the cosine's margin, rank would
    stop before it."""
    far_koc = make_koc(EpistemicClass.DECISION, entity="x", domain="y")
    far = KnowledgeObject(id="far", koc=far_koc, cls=EpistemicClass.DECISION,
                          content="", created_at=0, scores=ScoreVector(k=1.0),
                          embedding=tuple(3.0 * x for x in ROUNDED_UP))
    near = dataclasses.replace(
        far, id="near", koc=make_koc(EpistemicClass.DECISION, entity="e", domain="z"),
        scores=ScoreVector(k=float.fromhex("0x1.6666666666667p-2")))
    snapshot = GraphSnapshot(kos={"far": far, "near": near})
    q = Query(embedding=ROUNDED_UP, primary_entity="e", domain="d",
              anchor_koc=far_koc, top_k=1)
    full = oracle_rank(dataclasses.replace(q, top_k=2), snapshot)
    assert [r.ko_id for r in full] == ["far", "near"]
    assert full[0].s_sem > 1.0 and full[0].rank_score == full[1].rank_score
    assert rank(q, snapshot) == full[:1]


def test_rank_names_the_first_mismatched_object_even_if_unscored():
    """The error a full scan raises: the smallest eligible id whose
    embedding length differs, though the bound would never score it."""
    base = seeded_graph(2)
    kos = dict(base.kos)
    low = sorted(i for i, ko in kos.items() if ko.zone is MemoryZone.WORKING)
    for ko_id in low[:2]:  # WORKING k=0.2, far below the CORE objects
        kos[ko_id] = dataclasses.replace(
            kos[ko_id], koc=dataclasses.replace(kos[ko_id].koc, entity="lone", domain="lone"),
            embedding=(1.0, 0.0, 0.0, 0.0, 0.0))
    snapshot = GraphSnapshot(kos=kos, edges=base.edges)
    q = Query(embedding=(1.0, 0.0, 0.0, 0.0), primary_entity="e0", domain="d1", top_k=1)
    with pytest.raises(RetrievalError) as raised:
        rank(q, snapshot)
    assert str(raised.value) == (f"embedding dimension mismatch: query 4 vs ko "
                                 f"{low[0]!r} 5")
    with pytest.raises(RetrievalError, match=str(raised.value)):
        oracle_rank(q, snapshot)
    # an ineligible object is not compared, as in a full scan
    dormant = {**kos, low[0]: dataclasses.replace(kos[low[0]], scores=ScoreVector(k=0.0))}
    with pytest.raises(RetrievalError, match=repr(low[1])):
        rank(q, GraphSnapshot(kos=dormant, edges=base.edges))


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


# ---------------------------------------------------------------------------
# The per-focus hop memo
# ---------------------------------------------------------------------------

def _bfs_foci(monkeypatch) -> list[str]:
    """The focus of every BFS run from here on."""
    foci = []
    real = retrieval.hop_distances
    monkeypatch.setattr(retrieval, "hop_distances",
                        lambda snapshot, focus: (foci.append(focus), real(snapshot, focus))[1])
    return foci


@pytest.mark.parametrize("seed", range(4))
def test_memo_serves_repeated_and_interleaved_foci(seed, monkeypatch):
    snapshot = seeded_graph(seed)
    koc_weights = (0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1) if seed % 2 else None
    queries = seeded_queries(seed, snapshot)
    mixed = queries + queries[::-1] + random.Random(seed).sample(queries, len(queries))
    foci = _bfs_foci(monkeypatch)
    for q in mixed:
        assert rank(q, snapshot, W, koc_weights) == oracle_rank(q, snapshot, W, koc_weights)
    distinct = {retrieval.resolve_focus(q, snapshot, koc_weights) for q in queries}
    assert len(distinct) > 5
    assert sorted(foci) == sorted(distinct)  # one BFS per distinct focus
    assert set(snapshot.hop_memo) == distinct


def _component_snapshot() -> GraphSnapshot:
    """Two components, a0-a1-a2 and b0-b1, and an isolated object c0."""
    ids = ("a0", "a1", "a2", "b0", "b1", "c0")
    edges = [Edge(s, t, EdgeType.SUPPORTS, 0) for s, t in (("a0", "a1"), ("a2", "a1"),
                                                            ("b1", "b0"))]
    return snapshot_of([make_ko(i, EpistemicClass.DECISION, k=0.5) for i in ids], edges)


def test_memo_on_disconnected_components_and_an_isolated_focus():
    snapshot = _component_snapshot()
    expected = {"a0": [1, 2, 3, 0, 0, 0], "a1": [2, 1, 2, 0, 0, 0],
                "b1": [0, 0, 0, 2, 1, 0], "c0": [0, 0, 0, 0, 0, 1]}
    for focus, hops in expected.items():
        q = Query(primary_entity=f"e-{focus}", domain="ops", top_k=6)
        got = rank(q, snapshot)
        assert got == oracle_rank(q, snapshot)
        assert snapshot.hop_memo[focus].tolist() == hops
        assert {r.ko_id: r.s_topo for r in got} == {
            ko_id: 1.0 / v if v else 0.0 for ko_id, v in zip(snapshot.zones, hops)}
    assert list(snapshot.hop_memo) == list(expected)


def test_memo_is_exact_beyond_255_hops():
    """On a 300-object path the deepest hop from p045 is 254, which fits a
    byte as 255; from p044 and p000 it is 255 and 299, which do not."""
    ids = [f"p{i:03d}" for i in range(300)]
    snapshot = snapshot_of(
        [make_ko(i, EpistemicClass.DECISION, k=0.5) for i in ids],
        [Edge(a, b, EdgeType.SUPPORTS, 0) for a, b in zip(ids, ids[1:])])
    for focus, typecode in (("p045", "B"), ("p044", "I"), ("p000", "I"), ("p150", "B")):
        q = Query(primary_entity=f"e-{focus}", domain="ops", top_k=300)
        got = rank(q, snapshot)
        assert got == oracle_rank(q, snapshot)
        hops = snapshot.hop_memo[focus]
        assert hops.typecode == typecode
        start = ids.index(focus)
        assert hops.tolist() == [abs(i - start) + 1 for i in range(300)]
    far = {r.ko_id: r.s_topo for r in rank(Query(primary_entity="e-p000", domain="ops",
                                                  top_k=300), snapshot)}
    assert far["p299"] == 1.0 / (1.0 + 299)


def test_memo_holds_the_focus_of_an_anchor_with_no_exact_match(monkeypatch):
    snapshot = seeded_graph(5)
    anchor = make_koc(EpistemicClass.PLAN, entity="e2", domain="d3", epoch="t0",
                      depth="l1", author="other", variant="none")
    assert anchor not in snapshot.first_ids  # so resolve_focus scans every object
    foci = _bfs_foci(monkeypatch)
    for koc_weights in (None, (0.05, 0.05, 0.5, 0.1, 0.1, 0.1, 0.1)):
        q = Query(anchor_koc=anchor, primary_entity="e2", domain="d3", top_k=10)
        for _ in range(2):
            assert rank(q, snapshot, W, koc_weights) == oracle_rank(q, snapshot, W, koc_weights)
        assert foci[-1] == retrieval.resolve_focus(q, snapshot, koc_weights)
        assert foci[-1] in snapshot.hop_memo
    assert len(foci) == len(set(foci)) == len(snapshot.hop_memo)


# ---------------------------------------------------------------------------
# The focus memo of anchors with no exact match
# ---------------------------------------------------------------------------

def _focus_scans(monkeypatch) -> list[tuple]:
    """The (anchor, axis weights) of every full focus scan from here on."""
    scans = []
    real = retrieval._closest
    monkeypatch.setattr(retrieval, "_closest", lambda q, snapshot, koc_weights: (
        scans.append((q.anchor_koc, koc_weights)), real(q, snapshot, koc_weights))[1])
    return scans


@pytest.mark.parametrize("seed", range(3))
def test_focus_scan_runs_once_per_anchor_and_weights(seed, monkeypatch):
    snapshot = seeded_graph(seed)
    queries = seeded_queries(seed, snapshot)
    no_exact = {q.anchor_koc for q in queries
                if q.anchor_koc is not None and q.anchor_koc not in snapshot.first_ids}
    assert len(no_exact) > 3
    scans = _focus_scans(monkeypatch)
    for koc_weights in (None, NON_UNIFORM, list(NON_UNIFORM)):
        for q in queries + queries[::-1]:
            assert rank(q, snapshot, W, koc_weights) == oracle_rank(q, snapshot, W, koc_weights)
    keys = {(anchor, weights) for anchor in no_exact for weights in (None, NON_UNIFORM)}
    assert len(scans) == len(keys)  # a list of weights is keyed as its tuple
    assert set(snapshot.focus_memo) == keys


def _two_way_snapshot() -> GraphSnapshot:
    """An anchor that "ent" matches on its entity alone and "auth" on its
    author and variant: uniform axis weights pick "auth", and weights on
    the entity axis pick "ent"."""
    kos = [make_ko("auth", EpistemicClass.PLAN, k=0.5,
                   koc=make_koc(EpistemicClass.PLAN, entity="x", domain="y", author="bo",
                                variant="v9", epoch="t1", depth="l2")),
           make_ko("ent", EpistemicClass.PLAN, k=0.5,
                   koc=make_koc(EpistemicClass.PLAN, entity="e", domain="z", author="cy",
                                variant="v8", epoch="t2", depth="l3"))]
    return snapshot_of(kos, [Edge("auth", "ent", EdgeType.SUPPORTS, 0)])


TWO_WAY_ANCHOR = make_koc(EpistemicClass.DECISION, entity="e", domain="d", author="bo",
                          variant="v9", epoch="t9", depth="l9")
ENTITY_HEAVY = (0.7, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05)


def test_focus_memo_keeps_one_answer_per_weight_vector(monkeypatch):
    snapshot = _two_way_snapshot()
    q = Query(anchor_koc=TWO_WAY_ANCHOR, primary_entity="e", domain="d", top_k=2)
    scans = _focus_scans(monkeypatch)
    for _ in range(2):
        for koc_weights in (None, ENTITY_HEAVY):
            assert rank(q, snapshot, W, koc_weights) == oracle_rank(q, snapshot, W, koc_weights)
    assert snapshot.focus_memo == {(TWO_WAY_ANCHOR, None): "auth",
                                   (TWO_WAY_ANCHOR, ENTITY_HEAVY): "ent"}
    assert len(scans) == 2
    assert list(snapshot.hop_memo) == ["auth", "ent"]


def test_focus_memo_is_not_part_of_snapshot_value():
    snapshot = _two_way_snapshot()
    q = Query(anchor_koc=TWO_WAY_ANCHOR, top_k=2)
    rank(q, snapshot)
    copy = dataclasses.replace(snapshot)
    assert copy == snapshot and "focus_memo" not in vars(copy)
    rank(q, copy, W, ENTITY_HEAVY)
    assert list(copy.focus_memo.values()) == ["ent"]
    assert list(snapshot.focus_memo.values()) == ["auth"]


def test_focus_memo_stays_within_its_entry_bound(monkeypatch):
    monkeypatch.setattr(retrieval, "_FOCUS_MEMO_ENTRIES", 3)
    snapshot = seeded_graph(4)
    anchors = [make_koc(cls, entity=entity, domain="d1", epoch="t0", depth="l1",
                        author="other", variant="none")
               for cls in CLASSES for entity in ENTITIES[:3]]
    assert not set(anchors) & set(snapshot.first_ids)
    scans = _focus_scans(monkeypatch)
    held = []
    for anchor in anchors * 2:
        q = Query(anchor_koc=anchor, primary_entity="e0", domain="d1", top_k=5)
        assert rank(q, snapshot) == oracle_rank(q, snapshot)
        held.append(len(snapshot.focus_memo))
    assert max(held) == 3 and held.count(1) > 1  # cleared when full, then refilled
    assert len(scans) == len(anchors) * 2  # nine anchors cycle through three places


def test_topological_sim_and_hybrid_score_read_the_memo(monkeypatch):
    snapshot = seeded_graph(3)
    foci = _bfs_foci(monkeypatch)
    for q in seeded_queries(3, snapshot)[:10]:
        everything = dataclasses.replace(q, top_k=len(snapshot.kos), include_dormant=True,
                                         exclude_peripheral=False)
        rows = rank(everything, snapshot)  # every object's S_topo and H
        assert len(rows) == len(snapshot.kos)
        assert rows == oracle_rank(everything, snapshot)
        assert rank(q, snapshot) == oracle_rank(q, snapshot)
    assert sorted(foci) == sorted(snapshot.hop_memo)  # one BFS per focus


def test_hop_memo_is_not_part_of_snapshot_value():
    store = _store()
    ranked, fresh = store.snapshot(), store.snapshot()
    rank(Query(primary_entity="e0", domain="ops"), ranked)
    rank(Query(primary_entity="e2", domain="ops"), ranked)
    assert list(ranked.hop_memo) == ["k0", "k2"] and "hop_memo" not in vars(fresh)
    assert ranked == fresh
    assert repr(ranked) == repr(fresh)
    copy = dataclasses.replace(ranked)
    assert copy == ranked and "hop_memo" not in vars(copy)
    rank(Query(primary_entity="e1", domain="ops"), copy)
    assert list(copy.hop_memo) == ["k1"] and list(ranked.hop_memo) == ["k0", "k2"]


def _memo_bytes(snapshot: GraphSnapshot) -> int:
    return sum(map(sys.getsizeof, snapshot.hop_memo.values()))


def _entry_bytes(snapshot: GraphSnapshot) -> int:
    """The bytes of one memo entry of ``snapshot`` at most 254 hops deep."""
    copy = dataclasses.replace(snapshot)
    rank(Query(), copy)
    (hops,) = copy.hop_memo.values()
    assert hops.typecode == "B"
    return _memo_bytes(copy)


def test_hop_memo_stays_within_its_byte_budget(monkeypatch):
    base = seeded_graph(6)
    queries = seeded_queries(6, base) * 2
    one = _entry_bytes(base)
    for budget, most in ((3 * one, 3), (one - 1, 0)):
        monkeypatch.setattr(retrieval, "_HOP_MEMO_BYTES", budget)
        snapshot = dataclasses.replace(base)
        held = []
        for q in queries:
            assert rank(q, snapshot) == oracle_rank(q, snapshot)
            assert _memo_bytes(snapshot) <= budget
            held.append(len(snapshot.hop_memo))
        assert max(held) == most
        if most:
            assert held.count(1) > 1  # cleared when full, then refilled


@pytest.mark.parametrize("budget", [None, 2])
def test_threads_ranking_one_snapshot_get_the_serial_results(budget, monkeypatch):
    """Eight threads walk one query list, each from its own offset, on one
    snapshot; with a budget of two arrays and two foci they also race on
    clearing the hop and focus memos."""
    base = seeded_graph(7)
    queries = seeded_queries(7, base)
    assert any(q.anchor_koc is not None and q.anchor_koc not in base.first_ids
               for q in queries)
    serial = [rank(q, base) for q in queries]
    if budget is not None:
        one = _entry_bytes(base)
        monkeypatch.setattr(retrieval, "_HOP_MEMO_BYTES", budget * one)
        monkeypatch.setattr(retrieval, "_FOCUS_MEMO_ENTRIES", budget)
    shared = dataclasses.replace(base)
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def run(offset: int) -> None:
        try:
            order = [(i + offset * 5) % len(queries) for i in range(len(queries))] * 3
            results[offset] = [(i, rank(queries[i], shared)) for i in order]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == list(range(8))
    for ranked in results.values():
        assert all(got == serial[i] for i, got in ranked)

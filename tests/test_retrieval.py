from __future__ import annotations

import dataclasses

import pytest

from kgravity import (
    Edge,
    EdgeType,
    EpistemicClass,
    Query,
    RetrievalError,
    RetrievalWeights,
    contextual_attention,
    k_eff,
    rank,
)
from tests.conftest import make_ko, make_koc, snapshot_of

W = RetrievalWeights()


def test_default_weights_valid():
    assert W.alpha + W.beta + W.gamma == pytest.approx(1.0)
    assert W.w_e + W.w_d + W.w_a == pytest.approx(1.0)


@pytest.mark.parametrize("kwargs", [
    {"alpha": 0.4},                      # similarity weights no longer sum to 1
    {"w_e": 0.5},                        # attention weights no longer sum to 1
    {"k_eff_floor": 1.5},
    {"alpha": float("nan")},             # passed the sum checks: NaN compares false
    {"alpha": float("inf"), "beta": float("-inf")},
])
def test_bad_weights_rejected_at_load(kwargs):
    with pytest.raises(RetrievalError):
        RetrievalWeights(**kwargs)


def test_top_k_must_be_positive():
    with pytest.raises(RetrievalError):
        Query(top_k=0)


@pytest.mark.parametrize("top_k", [2.5, "3", None, True])
def test_top_k_must_be_an_int(top_k):
    with pytest.raises(RetrievalError, match="top_k must be an int"):
        Query(top_k=top_k)


# ---------------------------------------------------------------------------
# Similarity layers
# ---------------------------------------------------------------------------

def scored(q, snapshot, w=W):
    """Every object's ``rank`` row, by id: each object eligible, and the top
    k wide enough for all of them."""
    everything = dataclasses.replace(q, top_k=len(snapshot.kos), include_dormant=True,
                                     exclude_peripheral=False)
    return {r.ko_id: r for r in rank(everything, snapshot, w)}


def test_structural_with_anchor():
    ko = make_ko("a", EpistemicClass.EVIDENCE)
    assert scored(Query(anchor_koc=ko.koc), snapshot_of([ko]))["a"].s_struct == 1.0


def test_structural_fallback_two_axes():
    ko = make_ko("a", EpistemicClass.EVIDENCE,
                 koc=make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops"))
    snapshot = snapshot_of([ko])
    assert scored(Query(primary_entity="vesta", domain="elsewhere"),
                  snapshot)["a"].s_struct == 0.5
    assert scored(Query(primary_entity="x", domain="y"), snapshot)["a"].s_struct == 0.0
    assert scored(Query(primary_entity="vesta", domain="ops"), snapshot)["a"].s_struct == 1.0


def test_semantic_endpoints():
    snapshot = snapshot_of([make_ko("a", EpistemicClass.EVIDENCE, embedding=(1.0, 0.0))])
    assert scored(Query(embedding=(1.0, 0.0)), snapshot)["a"].s_sem == pytest.approx(1.0)
    assert scored(Query(embedding=(0.0, 1.0)), snapshot)["a"].s_sem == pytest.approx(0.5)
    assert scored(Query(embedding=(-1.0, 0.0)), snapshot)["a"].s_sem == pytest.approx(0.0)


def test_semantic_missing_embedding_contributes_zero():
    snapshot = snapshot_of([make_ko("a", EpistemicClass.EVIDENCE)])
    assert scored(Query(embedding=(1.0, 0.0)), snapshot)["a"].s_sem == 0.0


def test_semantic_dimension_mismatch_rejected():
    snapshot = snapshot_of([make_ko("a", EpistemicClass.EVIDENCE, embedding=(1.0, 0.0, 0.0))])
    with pytest.raises(RetrievalError):
        scored(Query(embedding=(1.0, 0.0)), snapshot)


def test_topological_distances():
    a = make_ko("a", EpistemicClass.DECISION)
    b = make_ko("b", EpistemicClass.EVIDENCE)
    c = make_ko("c", EpistemicClass.PLAN)
    island = make_ko("island", EpistemicClass.OBSERVATION)
    snapshot = snapshot_of([a, b, c, island],
                           [Edge("a", "b", EdgeType.SUPPORTS, 0),
                            Edge("b", "c", EdgeType.REFINES, 0)])
    rows = scored(Query(anchor_koc=a.koc), snapshot)
    assert rows["a"].s_topo == 1.0
    assert rows["b"].s_topo == 0.5
    assert rows["c"].s_topo == pytest.approx(1 / 3)
    assert rows["island"].s_topo == 0.0


def test_hybrid_blend_perfect_match():
    ko = make_ko("a", EpistemicClass.EVIDENCE, embedding=(1.0, 0.0))
    snapshot = snapshot_of([ko])
    q = Query(anchor_koc=ko.koc, embedding=(1.0, 0.0))
    assert scored(q, snapshot)["a"].hybrid == pytest.approx(1.0)
    assert scored(Query(primary_entity="zz", domain="zz"),
                  snapshot_of([make_ko("b", EpistemicClass.PLAN)]))["b"].hybrid \
        == pytest.approx(0.2)  # only self-topology survives


def test_hybrid_blend_frozen_example():
    # components engineered to (0.5, 0.8, 0.25): entity-only structural match,
    # cosine 0.6, and hop distance 3 from the focus
    focus = make_ko("f", EpistemicClass.DECISION,
                    koc=make_koc(EpistemicClass.DECISION, entity="vesta", domain="ops"))
    a = make_ko("a", EpistemicClass.PLAN)
    b = make_ko("b", EpistemicClass.PLAN, koc=make_koc(EpistemicClass.PLAN, entity="mid"))
    target = make_ko("t", EpistemicClass.EVIDENCE,
                     koc=make_koc(EpistemicClass.EVIDENCE, entity="vesta",
                                  domain="elsewhere"),
                     embedding=(0.6, 0.8))
    snapshot = snapshot_of(
        [focus, a, b, target],
        [Edge("f", "a", EdgeType.PRECEDES, 0), Edge("a", "b", EdgeType.PRECEDES, 0),
         Edge("b", "t", EdgeType.PRECEDES, 0)])
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    row = scored(q, snapshot)["t"]
    assert row.s_struct == pytest.approx(0.5)
    assert row.s_sem == pytest.approx(0.8)
    assert row.s_topo == pytest.approx(0.25)
    assert row.hybrid == pytest.approx(0.60)


def test_attention_values():
    ko = make_ko("a", EpistemicClass.EVIDENCE,
                 koc=make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops"),
                 anchors=frozenset({"m1", "m2"}))
    both = Query(primary_entity="vesta", domain="ops")
    assert contextual_attention(both, ko, W) == pytest.approx(0.75)
    full = Query(primary_entity="vesta", domain="ops",
                 active_anchors=frozenset({"m1", "m2"}))
    assert contextual_attention(full, ko, W) == pytest.approx(1.0)
    none = Query(primary_entity="x", domain="y",
                 active_anchors=frozenset({"zz"}))
    assert contextual_attention(none, ko, W) == 0.0


def test_k_eff_floor():
    ko = make_ko("a", EpistemicClass.EVIDENCE, k=0.8)
    assert k_eff(ko, 0.05, W) == pytest.approx(0.08)   # floor 0.10 applies
    assert k_eff(ko, 0.5, W) == pytest.approx(0.40)
    zero = make_ko("z", EpistemicClass.EVIDENCE, k=0.0)
    assert k_eff(zero, 0.9, W) == 0.0


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def _twin_corpus(k_x: float, k_y: float):
    """Two objects identical in every similarity input, differing only in k."""
    koc = make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops")
    x = make_ko("x", EpistemicClass.EVIDENCE, k=k_x, koc=koc, embedding=(1.0, 0.0))
    y = make_ko("y", EpistemicClass.EVIDENCE, k=k_y,
                koc=dataclasses.replace(koc, variant="v2"), embedding=(1.0, 0.0))
    return snapshot_of([x, y])


def test_rank_empty_corpus():
    assert rank(Query(), snapshot_of([])) == []


def test_rank_monotone_in_k():
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    results = rank(q, _twin_corpus(0.9, 0.5))
    assert [r.ko_id for r in results] == ["x", "y"]
    results = rank(q, _twin_corpus(0.5, 0.9))
    assert [r.ko_id for r in results] == ["y", "x"]


def test_rank_score_recomposes():
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    for r in rank(q, _twin_corpus(0.9, 0.5)):
        assert r.rank_score == pytest.approx(r.hybrid * r.k_eff, abs=1e-12)


def test_floor_guarantee():
    q = Query(primary_entity="none", domain="none", embedding=(1.0, 0.0))
    for r in rank(q, _twin_corpus(0.9, 0.5)):
        assert r.rank_score >= r.hybrid * r.k_global * 0.10 - 1e-12


def test_rank_order_invariant_under_k_rescaling():
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    base = [r.ko_id for r in rank(q, _twin_corpus(0.9, 0.5))]
    scaled = [r.ko_id for r in rank(q, _twin_corpus(0.45, 0.25))]
    assert base == scaled


def test_rank_ties_broken_by_id():
    # hub as focus keeps the topological layer symmetric between the twins
    hub_koc = make_koc(EpistemicClass.DECISION, entity="vesta", domain="ops")
    hub = make_ko("hub", EpistemicClass.DECISION, k=1.0, koc=hub_koc)
    x = make_ko("x", EpistemicClass.EVIDENCE, k=0.7,
                koc=make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops"),
                embedding=(1.0, 0.0))
    y = make_ko("y", EpistemicClass.EVIDENCE, k=0.7,
                koc=make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops"),
                embedding=(1.0, 0.0))
    snapshot = snapshot_of([hub, x, y],
                           [Edge("hub", "x", EdgeType.PRECEDES, 0),
                            Edge("hub", "y", EdgeType.PRECEDES, 0)])
    q = Query(anchor_koc=hub_koc, primary_entity="vesta", domain="ops",
              embedding=(1.0, 0.0))
    results = [r for r in rank(q, snapshot) if r.ko_id != "hub"]
    assert [r.ko_id for r in results] == ["x", "y"]
    assert results[0].rank_score == results[1].rank_score


def test_rank_deterministic():
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    snapshot = _twin_corpus(0.9, 0.5)
    assert rank(q, snapshot) == rank(q, snapshot)


def test_rank_truncates_to_top_k():
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0), top_k=1)
    assert len(rank(q, _twin_corpus(0.9, 0.5))) == 1


def test_dormant_excluded_unless_opted_in():
    snapshot = _twin_corpus(0.9, 0.02)
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    assert [r.ko_id for r in rank(q, snapshot)] == ["x"]
    q_all = dataclasses.replace(q, include_dormant=True)
    assert [r.ko_id for r in rank(q_all, snapshot)] == ["x", "y"]


def test_peripheral_included_by_default_with_opt_out():
    snapshot = _twin_corpus(0.9, 0.07)
    q = Query(primary_entity="vesta", domain="ops", embedding=(1.0, 0.0))
    assert [r.ko_id for r in rank(q, snapshot)] == ["x", "y"]
    q_no_peripheral = dataclasses.replace(q, exclude_peripheral=True)
    assert [r.ko_id for r in rank(q_no_peripheral, snapshot)] == ["x"]


def test_degraded_flag_without_embeddings():
    snapshot = _twin_corpus(0.9, 0.5)
    results = rank(Query(primary_entity="vesta", domain="ops"), snapshot)
    assert all(r.degraded for r in results)
    assert all(r.s_sem == 0.0 for r in results)


def test_urgency_surfaces_in_results():
    question = make_ko("q", EpistemicClass.QUESTION, k=0.33, stakes=1.0,
                       urgency=0.8)
    results = rank(Query(primary_entity="e-q", domain="ops"),
                   snapshot_of([question]))
    assert results[0].urgency == 0.8


def test_contradicted_twin_ranks_below_uncontradicted():
    # identical twins; the only difference is an inbound contradiction edge
    from kgravity import CorpusStore, EngineParams
    store = CorpusStore(params=EngineParams.production())
    anchor_koc = make_koc(EpistemicClass.DECISION, entity="vesta", domain="ops")
    twin_koc = make_koc(EpistemicClass.EVIDENCE, entity="vesta", domain="ops")
    store.ingest_ko(cls=EpistemicClass.DECISION, koc=anchor_koc,
                    content="anchor", ko_id="anchor", embedding=[1.0, 0.0])
    for twin in ("x", "y"):
        store.ingest_ko(cls=EpistemicClass.EVIDENCE, koc=twin_koc,
                        content=f"twin {twin}", ko_id=twin,
                        embedding=[1.0, 0.0])
    store.add_edge("anchor", "x", EdgeType.PRECEDES, at=0)
    store.add_edge("anchor", "y", EdgeType.CONTRADICTS, at=0)
    for _ in range(300):
        store.apply_cycle()
    results = rank(Query(anchor_koc=anchor_koc, primary_entity="vesta",
                         domain="ops", embedding=(1.0, 0.0)),
                   store.snapshot())
    by_id = {r.ko_id: r for r in results}
    assert by_id["x"].hybrid == pytest.approx(by_id["y"].hybrid, abs=1e-12)
    assert by_id["x"].phi_ctx == by_id["y"].phi_ctx
    assert by_id["x"].rank_score > by_id["y"].rank_score


def test_query_rejects_non_finite_embedding():
    with pytest.raises(RetrievalError, match="non-finite"):
        Query(embedding=(1.0, float("inf")))


def test_query_rejects_an_embedding_whose_norm_overflows():
    with pytest.raises(RetrievalError, match="norm"):
        Query(embedding=(1e200, 1e200))
    assert Query(embedding=(1e150, 1e150)).embedding == (1e150, 1e150)

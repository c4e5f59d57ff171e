"""Hybrid retrieval: structural + semantic + topological similarity, modulated
by contextual importance.

The final rank score is R = H * K_eff, where H blends the three similarity
layers and K_eff multiplies the object's global k-score by floored contextual
attention. Everything is read-only over a snapshot, so concurrent queries are
safe.

Queries read the snapshot's cached index (see ``GraphSnapshot``). Threads
racing to build it is harmless, as it is a pure function of the snapshot; a
snapshot must not be mutated once used (``CorpusStore.snapshot()`` copies).
The hop distances from a focus are such a function too, of the snapshot and
the focus, so each focus's BFS runs once per snapshot: its result is kept in
``GraphSnapshot.hop_memo`` as one small integer per object, and the memo is
emptied whenever the next entry would take it over ``_HOP_MEMO_BYTES``.
So is the focus of an anchor coordinate that no object holds exactly, of
the snapshot, the anchor and the axis weights: its full scan runs once per
snapshot, and ``GraphSnapshot.focus_memo`` keeps the answer, emptied
before an entry that would take it past ``_FOCUS_MEMO_ENTRIES``. Racing
queries may both compute one entry or lose an entry to a clear; either way
each reads a complete entry of the same value.

``rank`` scores only the objects that can still reach the top k, as in the
threshold algorithm (Fagin, Lotem and Naor, PODS 2001). It splits the
eligible objects into eight groups by whether they share the query's
entity, its domain and any of its active anchors, and walks each group in
descending k, keeping a min-heap of the top_k best rank scores so far. A
group's walk stops at the first object whose bound is below the k-th best
score. The focus alone has S_topo = 1, so ``rank`` scores it before any
walk and leaves it out of the groups; every other object is at least one
hop away and has S_topo at most 1/2. Within a group the match terms of
S_struct and phi are known, S_struct is at most 1 with an anchor
coordinate, S_sem is at most 1, and anchor overlap is at most 1 for a
member that shares an anchor and exactly 0 for one that shares none, so a
member has

    R <= H_cap * (k * M),  H_cap = alpha * S_struct_cap + beta * S_sem_cap + gamma * 0.5,
                           M = max(k_eff_floor, phi_cap)

where each cap goes through the very float expressions that compute R. On
non-negative values float ``+`` and ``*`` are monotone, so the bound holds
bit for bit; it is monotone in k, so no member after the stop can reach
the top k. A member before the stop is still left unscored when its own
bound, H with its actual S_struct and S_topo and S_sem at its cap, times
k * M, is below the k-th best: both terms are cheap to look up, and only
the cosine and phi are left to compute. Only the cosine's cap is not
exact: rounding can lift a cosine of 1, and ``_COSINE_CAP`` covers that
for embeddings of at most 2**20 dimensions whose nonzero norms lie in
[2**-500, 2**500]. Outside that range, or with a negative weight, there is
no bound and every eligible object is scored. Both tests are strict, so an
object whose R could tie the k-th best is still scored. The result is then
chosen from the scored rows exactly as from a full scan: the same rows,
order and tie-breaks.
"""

from __future__ import annotations

import heapq
import math
import operator
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import (
    GraphSnapshot,
    KnowledgeObject,
    Koc,
    MemoryZone,
    embedding_norm,
    koc_matcher,
    left_sum,
)


class RetrievalError(ValueError):
    """Retrieval contract violation (bad weights, embedding mismatch)."""


@dataclass(frozen=True)
class RetrievalWeights:
    """Blend weights for the hybrid score and contextual attention.

    The similarity weights (alpha, beta, gamma) and the attention weights
    (w_e, w_d, w_a) must each sum to 1; this is enforced at construction so
    a bad configuration is rejected at load time.
    """

    alpha: float = 0.30
    beta: float = 0.50
    gamma: float = 0.20
    w_e: float = 0.40
    w_d: float = 0.35
    w_a: float = 0.25
    k_eff_floor: float = 0.10

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma, self.w_e,
                                        self.w_d, self.w_a, self.k_eff_floor))):
            raise RetrievalError("retrieval weights must be finite")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-9:
            raise RetrievalError(
                f"similarity weights sum to {self.alpha + self.beta + self.gamma}, not 1")
        if abs(self.w_e + self.w_d + self.w_a - 1.0) > 1e-9:
            raise RetrievalError(
                f"attention weights sum to {self.w_e + self.w_d + self.w_a}, not 1")
        if not 0.0 <= self.k_eff_floor <= 1.0:
            raise RetrievalError(f"k_eff_floor {self.k_eff_floor} outside [0, 1]")


@dataclass(frozen=True)
class Query:
    """A retrieval request with a precomputed embedding.

    The engine never calls an embedding service; a query without an embedding
    degrades to structural + topological scoring. ``anchor_koc`` gives the
    structural reference point; without one, structural similarity falls back
    to the entity and domain axes.
    """

    text: str = ""
    embedding: tuple[float, ...] | None = None
    primary_entity: str = ""
    domain: str = ""
    active_anchors: frozenset[str] = frozenset()
    anchor_koc: Koc | None = None
    top_k: int = 10
    include_dormant: bool = False
    exclude_peripheral: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.top_k, bool) or not isinstance(self.top_k, int):
            raise RetrievalError(f"top_k must be an int, got {self.top_k!r}")
        if self.top_k < 1:
            raise RetrievalError(f"top_k must be >= 1, got {self.top_k}")
        if self.embedding is not None and not all(map(math.isfinite, self.embedding)):
            raise RetrievalError("query embedding contains non-finite values")
        if self.embedding is not None and not math.isfinite(embedding_norm(self.embedding)):
            raise RetrievalError("query embedding has a norm too large to compute")


@dataclass(frozen=True)
class RankedResult:
    """One ranked object with its full score breakdown for auditability."""

    ko_id: str
    hybrid: float
    k_eff: float
    rank_score: float
    s_struct: float
    s_sem: float
    s_topo: float
    phi_ctx: float
    k_global: float
    urgency: float
    zone: MemoryZone
    degraded: bool


def structural_sim(q: Query, ko: KnowledgeObject,
                   koc_weights: Sequence[float] | None = None) -> float:
    """Coordinate alignment in O(1).

    With an anchor coordinate this is the full seven-axis similarity;
    otherwise only the entity and domain axes are compared, uniformly.
    """
    return _structural(q, koc_weights)(ko)


def _structural(q: Query, koc_weights: Sequence[float] | None
                ) -> Callable[[KnowledgeObject], float]:
    """``structural_sim`` for one query, with its per-query work done once."""
    if q.anchor_koc is not None:
        similarity = koc_matcher(q.anchor_koc, koc_weights)
        return lambda ko: similarity(ko.koc)
    entity, domain = q.primary_entity, q.domain
    return lambda ko: ((entity == ko.koc.entity) + (domain == ko.koc.domain)) / 2.0


def _rescaled_cosine(a: tuple[float, ...], na: float,
                     ko: KnowledgeObject, nb: float) -> float:
    """Cosine of ``a`` and ``ko``'s embedding from their norms, in [0, 1]."""
    b = ko.embedding
    if len(a) != len(b):
        raise _mismatch(len(a), ko.id, len(b))
    cosine = 0.0 if na == 0.0 or nb == 0.0 else left_sum(map(operator.mul, a, b)) / (na * nb)
    return (cosine + 1.0) / 2.0


def _mismatch(query_dim: int, ko_id: str, ko_dim: int) -> RetrievalError:
    return RetrievalError(
        f"embedding dimension mismatch: query {query_dim} vs ko {ko_id!r} {ko_dim}")


def semantic_sim(q: Query, ko: KnowledgeObject) -> float:
    """Cosine similarity rescaled to [0, 1]; 0 when either embedding is
    missing (the caller flags the result degraded)."""
    if q.embedding is None or ko.embedding is None:
        return 0.0
    return _rescaled_cosine(q.embedding, embedding_norm(q.embedding),
                            ko, embedding_norm(ko.embedding))


def resolve_focus(q: Query, snapshot: GraphSnapshot,
                  koc_weights: Sequence[float] | None = None) -> str | None:
    """The node topological distances are measured from.

    An exact match on the anchor coordinate wins; otherwise the highest
    structural similarity, ties broken by id.
    """
    if not snapshot.kos:
        return None
    if q.anchor_koc is None:
        e, d = q.primary_entity, q.domain
        for keys in (((e, d),), ((e, None), (None, d))):
            found = [snapshot.first_ids[k] for k in keys if k in snapshot.first_ids]
            if found:
                return min(found)
        return next(iter(snapshot.zones))
    exact = snapshot.first_ids.get(q.anchor_koc)
    if exact is not None:
        return exact
    memo = snapshot.focus_memo
    key = (q.anchor_koc, None if koc_weights is None else tuple(koc_weights))
    focus = memo.get(key)
    if focus is None:
        focus = _closest(q, snapshot, koc_weights)
        if len(memo) >= _FOCUS_MEMO_ENTRIES:
            memo.clear()
        memo[key] = focus
    return focus


#: The most entries one snapshot's focus memo may hold.
_FOCUS_MEMO_ENTRIES = 1024


def _closest(q: Query, snapshot: GraphSnapshot,
             koc_weights: Sequence[float] | None) -> str:
    """The id of the highest structural similarity to the query's anchor,
    ties broken by id: a scan of every object."""
    structural = _structural(q, koc_weights)
    best_id, best_sim = "", -1.0
    for ko_id in snapshot.zones:
        sim = structural(snapshot.kos[ko_id])
        if sim > best_sim:
            best_id, best_sim = ko_id, sim
    return best_id


def hop_distances(snapshot: GraphSnapshot, focus_id: str) -> dict[str, int]:
    """Undirected BFS hop distances from the focus node."""
    distances = {focus_id: 0}
    queue = deque([focus_id])
    while queue:
        node = queue.popleft()
        hops = distances[node] + 1
        for neighbor in snapshot.neighbors.get(node, ()):
            if neighbor not in distances:
                distances[neighbor] = hops
                queue.append(neighbor)
    return distances


#: The most bytes (``sys.getsizeof``) one snapshot's hop memo may hold.
_HOP_MEMO_BYTES = 8 * 2 ** 20


def _focus_hops(snapshot: GraphSnapshot, focus_id: str) -> array:
    """The memo entry of ``focus_id``: its ``hop_distances``, computed on a
    miss, as h + 1 per position (0 unreached). The typecode is 'B' while the
    deepest hop is at most 254, else 'I', so every graph stays exact."""
    memo = snapshot.hop_memo
    hops = memo.get(focus_id)
    if hops is not None:
        return hops
    distances = hop_distances(snapshot, focus_id)
    hops = array("B" if max(distances.values()) < 255 else "I",
                 [distances.get(ko_id, -1) + 1 for ko_id in snapshot.zones])
    size = sys.getsizeof(hops)
    # a copy, as another thread may add an entry while this one sums
    if sum(map(sys.getsizeof, memo.copy().values())) + size > _HOP_MEMO_BYTES:
        memo.clear()
    if size <= _HOP_MEMO_BYTES:
        memo[focus_id] = hops
    return hops


def contextual_attention(q: Query, ko: KnowledgeObject, w: RetrievalWeights) -> float:
    """Query-local relevance: entity match, domain match, anchor overlap."""
    entity = 1.0 if ko.koc.entity == q.primary_entity else 0.0
    domain = 1.0 if ko.koc.domain == q.domain else 0.0
    anchors = q.active_anchors
    overlap = len(ko.anchors & anchors) / len(anchors) if anchors else 0.0
    return w.w_e * entity + w.w_d * domain + w.w_a * overlap


def k_eff(ko: KnowledgeObject, phi: float, w: RetrievalWeights) -> float:
    """Global importance modulated by floored attention; the floor keeps
    globally important objects from collapsing out of off-context queries."""
    return ko.scores.k * max(w.k_eff_floor, phi)


def _scorer(q: Query, snapshot: GraphSnapshot, w: RetrievalWeights,
            koc_weights: Sequence[float] | None):
    """The focus, the one scorer and its hybrid cap. The focus, its hop
    distances and the query norm are looked up or computed once. ``score``
    scores one object, given its embedding norm and zone, as a tuple in
    ``RankedResult`` field order; ``hybrid_cap`` gives an object's H with
    S_sem replaced by a cap on it, by the same expression."""
    focus = resolve_focus(q, snapshot, koc_weights)
    hops = b"" if focus is None else _focus_hops(snapshot, focus)
    position = snapshot.positions
    structural = _structural(q, koc_weights)
    qe = q.embedding
    qn = None if qe is None else embedding_norm(qe)

    def topological(ko: KnowledgeObject) -> float:
        i = position.get(ko.id)
        v = 0 if i is None else hops[i]  # h + 1, so 1.0 / v == 1.0 / (1.0 + h)
        return 1.0 / v if v else 0.0

    def score(ko: KnowledgeObject, nb: float | None, zone: MemoryZone) -> tuple:
        s_struct = structural(ko)
        degraded = qe is None or nb is None
        s_sem = 0.0 if degraded else _rescaled_cosine(qe, qn, ko, nb)
        s_topo = topological(ko)
        hybrid = w.alpha * s_struct + w.beta * s_sem + w.gamma * s_topo
        phi = contextual_attention(q, ko, w)
        eff = k_eff(ko, phi, w)
        return (ko.id, hybrid, eff, hybrid * eff, s_struct, s_sem, s_topo, phi,
                ko.scores.k, ko.scores.urgency, zone, degraded)

    def hybrid_cap(ko: KnowledgeObject, s_sem: float) -> float:
        return w.alpha * structural(ko) + w.beta * s_sem + w.gamma * topological(ko)
    return focus, score, hybrid_cap


def _score_one(q: Query, ko: KnowledgeObject, snapshot: GraphSnapshot,
               w: RetrievalWeights) -> RankedResult:
    nb = None if ko.embedding is None else embedding_norm(ko.embedding)
    _, score, _ = _scorer(q, snapshot, w, None)
    return RankedResult(*score(ko, nb, ko.zone))


def topological_sim(q: Query, ko: KnowledgeObject, snapshot: GraphSnapshot) -> float:
    """Inverse hop distance from the query's focus node: 1 / (1 + h).

    Unreachable objects score 0; the focus itself scores 1. The distances
    come from the snapshot's hop memo, which ``rank`` shares: a BFS runs
    only for a focus the snapshot has not met yet.
    """
    return _score_one(q, ko, snapshot, RetrievalWeights()).s_topo


def hybrid_score(q: Query, ko: KnowledgeObject, snapshot: GraphSnapshot,
                 w: RetrievalWeights) -> float:
    """alpha * S_struct + beta * S_sem + gamma * S_topo, as ``rank`` scores it."""
    return _score_one(q, ko, snapshot, w).hybrid


#: No computed cosine exceeds this for embeddings of at most 2**20 dimensions
#: whose nonzero norms lie in [2**-500, 2**500]: the dot product and the
#: norms then round without underflow or overflow, each within 2**20 * 2**-53
#: of its value, which lifts a cosine by less than 4e-10.
_COSINE_CAP = 1.0 + 1e-9
_MAX_DIM = 2 ** 20
_NORMS = (2.0 ** -500, 2.0 ** 500)

#: The groups ``rank`` walks, as (shares the query's entity, shares its
#: domain, shares any of its active anchors), in the order it walks them:
#: by M under the default weights, highest first, so the top k fills early.
_GROUPS = ((True, True, True), (True, True, False), (True, False, True),
           (False, True, True), (True, False, False), (False, True, False),
           (False, False, True), (False, False, False))


def _group_bounds(q: Query, snapshot: GraphSnapshot, w: RetrievalWeights,
                  koc_weights: Sequence[float] | None
                  ) -> tuple[float | None, list[tuple[float, float]]]:
    """The cap on S_sem, and for each of ``_GROUPS``, (H_cap, M) such that
    a member other than the focus has R <= H_cap * (k * M); (None, (inf,
    inf) each) when there is no bound."""
    no_bound = None, [(math.inf, math.inf)] * len(_GROUPS)
    weights = (w.alpha, w.beta, w.gamma, w.w_e, w.w_d, w.w_a, *(koc_weights or ()))
    if not all(x >= 0.0 for x in weights):
        return no_bound
    s_sem = 0.0
    if q.embedding is not None:
        low, high = _NORMS
        qn = embedding_norm(q.embedding)
        norm_low, norm_high = snapshot.norm_range
        if not (len(q.embedding) <= _MAX_DIM and low <= norm_low and norm_high <= high
                and (qn == 0.0 or low <= qn <= high)):
            return no_bound
        s_sem = (_COSINE_CAP + 1.0) / 2.0
    bounds = []
    for entity, domain, shares in _GROUPS:
        # the scorer's own expressions, with each unknown at its cap; S_topo
        # is at most 1.0 / 2 off the focus, and a member that shares no
        # active anchor has an overlap of exactly 0.0
        s_struct = 1.0 if q.anchor_koc is not None else (entity + domain) / 2.0
        phi = w.w_e * float(entity) + w.w_d * float(domain) + w.w_a * float(shares)
        bounds.append((w.alpha * s_struct + w.beta * s_sem + w.gamma * 0.5,
                       max(w.k_eff_floor, phi)))
    return s_sem, bounds


def _check_dimensions(q: Query, snapshot: GraphSnapshot,
                      excluded: frozenset[MemoryZone]) -> None:
    """Raise the error a full scan would meet first: at the smallest
    eligible id whose embedding length differs from the query's."""
    dim, zones = len(q.embedding), snapshot.zones
    first = min(((ko_id, other) for other, ids in snapshot.dimension_ids.items()
                 if other != dim for ko_id in ids if zones[ko_id] not in excluded),
                default=None)
    if first is not None:
        raise _mismatch(dim, *first)


def rank(q: Query, snapshot: GraphSnapshot,
         w: RetrievalWeights | None = None,
         koc_weights: Sequence[float] | None = None) -> list[RankedResult]:
    """Score and order the eligible corpus for a query.

    Dormant objects are skipped unless the query opts in; peripheral objects
    are eligible by default (their low k buries them) with an opt-out. Sorted
    by rank score descending, ties by id ascending, truncated to top_k. Only
    the objects that can still reach the top k are scored (see the module
    docstring); the result is the full scan's.
    """
    w = RetrievalWeights() if w is None else w
    focus, score, hybrid_cap = _scorer(q, snapshot, w, koc_weights)
    excluded = frozenset(
        zone for zone, out in ((MemoryZone.DORMANT, not q.include_dormant),
                               (MemoryZone.PERIPHERAL, q.exclude_peripheral)) if out)
    if q.embedding is not None:
        _check_dimensions(q, snapshot, excluded)
    kos, zones, norms = snapshot.kos, snapshot.zones, snapshot.embedding_norms
    top_k = q.top_k
    rows: list[tuple] = []
    best: list[float] = []  # min-heap of the top_k best rank scores so far

    def take(ko_id: str) -> None:
        row = score(kos[ko_id], norms.get(ko_id), zones[ko_id])
        rows.append(row)
        if len(best) < top_k:
            heapq.heappush(best, row[3])
        else:
            heapq.heappushpop(best, row[3])

    if focus is not None and zones[focus] not in excluded:
        take(focus)  # the one object with S_topo above 1/2
    e, d, anchors = q.primary_entity, q.domain, q.active_anchors
    by_entity = snapshot.entity_ids.get(e, ())
    walks = {(True, True): by_entity, (True, False): by_entity,  # each in descending k
             (False, True): snapshot.domain_ids.get(d, ()), (False, False): snapshot.by_k}
    s_sem_cap, bounds = _group_bounds(q, snapshot, w, koc_weights)
    for (entity, domain, shares), (h_cap, m_cap) in zip(_GROUPS, bounds):
        if shares and not anchors:
            continue  # no object shares an anchor the query lacks
        for ko_id in walks[entity, domain]:
            ko = kos[ko_id]
            full = len(best) == top_k
            # k only falls from here on; strict, so an R that could tie the
            # k-th best is still scored
            if full and h_cap * (ko.scores.k * m_cap) < best[0]:
                break
            if not ((ko.koc.entity == e) == entity and (ko.koc.domain == d) == domain
                    and ko.anchors.isdisjoint(anchors) != shares
                    and zones[ko_id] not in excluded and ko_id != focus):
                continue
            # the same bound with the member's own S_struct and S_topo
            if full and s_sem_cap is not None and (
                    hybrid_cap(ko, s_sem_cap) * (ko.scores.k * m_cap) < best[0]):
                continue
            take(ko_id)
    top = heapq.nsmallest(top_k, rows, key=lambda row: (-row[3], row[0]))
    return [RankedResult(*row) for row in top]

"""Core domain model: knowledge objects, the epistemic taxonomy, coordinates,
typed edges, score vectors, and memory zones.

Everything here is an immutable value. Score updates happen in the engine,
which produces fresh objects rather than mutating existing ones, so snapshots
can be shared freely across threads. The per-object values (coordinates,
edges, score vectors, knowledge objects) are slotted: a replayed log holds
many of them.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import cached_property
from typing import Callable, Iterable, Sequence


class ModelError(ValueError):
    """A domain-model contract violation (bad class, bad coordinate, bad edge)."""


class EpistemicClass(str, Enum):
    """The closed nine-class taxonomy. No user-defined classes exist. Like
    an ``EdgeType``, a member is a string equal to its value and its name:
    it hashes, compares and sorts as that string."""

    DECISION = "DECISION"
    CONSTRAINT = "CONSTRAINT"
    EVIDENCE = "EVIDENCE"
    NARRATIVE = "NARRATIVE"
    PLAN = "PLAN"
    EVALUATION = "EVALUATION"
    OBSERVATION = "OBSERVATION"
    HYPOTHESIS = "HYPOTHESIS"
    QUESTION = "QUESTION"


class DecayKind(Enum):
    NONE = "NONE"
    EXPONENTIAL = "EXPONENTIAL"
    INVERSE = "INVERSE"


@dataclass(frozen=True)
class ClassProfile:
    """Per-class scoring constants.

    ``lambda_per_day`` is the authoritative decay rate used by the engine;
    ``half_life_days`` is documentation only and is never used in computation
    (the two are not mutually consistent for every class, and the stored rate
    wins).

    ``role`` is a short semantic-role tag; it exists so that taxonomy
    adequacy ("every class pair differs on at least two features") is
    mechanically checkable.
    """

    cls: EpistemicClass
    seed_k: float
    decay_kind: DecayKind
    lambda_per_day: float
    half_life_days: float | None
    role: str


def _exp_lambda(half_life_days: float) -> float:
    return math.log(2.0) / half_life_days


#: Operational profiles. Seeds and half-lives are working heuristics; for the
#: exponential classes the decay rate is derived once from the nominal
#: half-life and then stored as the authoritative value.
CLASS_PROFILES: dict[EpistemicClass, ClassProfile] = {
    p.cls: p
    for p in (
        ClassProfile(EpistemicClass.DECISION, 1.00, DecayKind.NONE, 0.0, None,
                     "revocable binding choice"),
        ClassProfile(EpistemicClass.CONSTRAINT, 0.90, DecayKind.NONE, 0.0, None,
                     "structural boundary"),
        ClassProfile(EpistemicClass.EVIDENCE, 0.80, DecayKind.EXPONENTIAL,
                     _exp_lambda(365.0), 365.0, "verifiable supporting data"),
        ClassProfile(EpistemicClass.NARRATIVE, 0.70, DecayKind.NONE, 0.0, None,
                     "persistent contextual anchor"),
        ClassProfile(EpistemicClass.PLAN, 0.65, DecayKind.EXPONENTIAL,
                     _exp_lambda(69.0), 69.0, "timed structured intention"),
        ClassProfile(EpistemicClass.EVALUATION, 0.55, DecayKind.EXPONENTIAL,
                     _exp_lambda(198.0), 198.0, "qualitative assessment"),
        ClassProfile(EpistemicClass.OBSERVATION, 0.40, DecayKind.EXPONENTIAL,
                     _exp_lambda(90.0), 90.0, "uninterpreted signal"),
        ClassProfile(EpistemicClass.HYPOTHESIS, 0.30, DecayKind.EXPONENTIAL,
                     _exp_lambda(50.0), 50.0, "unverified testable claim"),
        ClassProfile(EpistemicClass.QUESTION, 0.30, DecayKind.INVERSE,
                     -0.010, None, "open unknown requiring resolution"),
    )
}

#: Decay rates for the simulation preset. Five classes carry the reference
#: trajectory rates; the remaining four fall back to their operational rates (only the extremes matter for the contraction-diagonal
#: range, and those are OBSERVATION and QUESTION).
SIMULATION_LAMBDAS: dict[EpistemicClass, float] = {
    EpistemicClass.QUESTION: -0.010,
    EpistemicClass.OBSERVATION: 0.015,
    EpistemicClass.EVIDENCE: 0.005,
    EpistemicClass.HYPOTHESIS: 0.008,
    EpistemicClass.DECISION: 0.002,
    EpistemicClass.CONSTRAINT: 0.0,
    EpistemicClass.NARRATIVE: 0.0,
    EpistemicClass.PLAN: _exp_lambda(69.0),
    EpistemicClass.EVALUATION: _exp_lambda(198.0),
}


def class_profile(cls: EpistemicClass) -> ClassProfile:
    """Total lookup: every class has exactly one profile."""
    return CLASS_PROFILES[cls]


def simulation_profile(cls: EpistemicClass) -> ClassProfile:
    """The class profile with its decay rate replaced by the simulation value."""
    base = CLASS_PROFILES[cls]
    return ClassProfile(base.cls, base.seed_k, base.decay_kind,
                        SIMULATION_LAMBDAS[cls], base.half_life_days, base.role)


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

KOC_AXES = ("entity", "domain", "cls", "epoch", "depth", "author", "variant")


@dataclass(frozen=True, slots=True)
class Koc:
    """Seven-axis structural coordinate, assigned at ingestion and immutable.

    Axis values are opaque case-sensitive tokens compared by exact match;
    the class axis is the knowledge object's epistemic class.
    """

    entity: str
    domain: str
    cls: EpistemicClass
    epoch: str
    depth: str
    author: str
    variant: str

    def __post_init__(self) -> None:
        for axis in KOC_AXES:
            value = getattr(self, axis)
            if axis == "cls":
                if not isinstance(value, EpistemicClass):
                    raise ModelError(f"koc class axis must be an EpistemicClass, got {value!r}")
            elif not isinstance(value, str) or not value:
                raise ModelError(f"koc axis {axis!r} must be a non-empty token")

    def axes(self) -> tuple[str, ...]:
        """Axis values in canonical order, class rendered by name."""
        return (self.entity, self.domain, self.cls.value,
                self.epoch, self.depth, self.author, self.variant)


def koc_matcher(anchor: Koc, weights: Sequence[float] | None = None) -> Callable[[Koc], float]:
    """The similarity of ``anchor`` to ``b``, as a function of ``b``: the
    weighted sum of exact axis matches divided by the total weight, in [0,
    1], uniform weights (1/7 each) by default. Symmetric, and exactly 1.0
    for identical coordinates. The weights are checked and summed and the
    anchor's axes taken once."""
    if weights is None:
        weights = UNIFORM_KOC_WEIGHTS
    elif len(weights) != 7:
        raise ModelError(f"expected 7 axis weights, got {len(weights)}")
    total = math.fsum(weights)
    if not 0 < total < math.inf:
        raise ModelError("axis weights must have a positive finite sum")
    weights, axes = tuple(weights), anchor.axes()
    # The similarity depends only on which axes match: at most 128 patterns,
    # each summed once, by the same fsum over the same weights in order.
    by_pattern: dict[tuple[bool, ...], float] = {}

    def similarity(b: Koc) -> float:
        pattern = tuple(map(operator.eq, axes, b.axes()))
        sim = by_pattern.get(pattern)
        if sim is None:
            sim = by_pattern[pattern] = math.fsum(
                w for w, matched in zip(weights, pattern) if matched) / total
        return sim
    return similarity


UNIFORM_KOC_WEIGHTS: tuple[float, ...] = (1.0 / 7.0,) * 7


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------

class EdgeType(str, Enum):
    SUPPORTS = "SUPPORTS"
    BASED_ON = "BASED_ON"
    IMPLEMENTS = "IMPLEMENTS"
    SUPERSEDES = "SUPERSEDES"
    REFINES = "REFINES"
    DERIVES_FROM = "DERIVES_FROM"
    ENABLES = "ENABLES"
    PRECEDES = "PRECEDES"
    BLOCKS = "BLOCKS"
    CONTRADICTS = "CONTRADICTS"


#: Closed vocabulary with fixed signed coefficients. Positive edges propagate
#: importance; negative edges suppress it. CONTRADICTS is deliberately -0.6
#: rather than -1.0: contradicted knowledge is demoted, not erased.
EDGE_COEFFICIENTS: dict[EdgeType, float] = {
    EdgeType.SUPPORTS: 1.0,
    EdgeType.BASED_ON: 0.8,
    EdgeType.IMPLEMENTS: 0.7,
    EdgeType.SUPERSEDES: 0.6,
    EdgeType.REFINES: 0.5,
    EdgeType.DERIVES_FROM: 0.5,
    EdgeType.ENABLES: 0.4,
    EdgeType.PRECEDES: 0.3,
    EdgeType.BLOCKS: -0.4,
    EdgeType.CONTRADICTS: -0.6,
}

NEGATIVE_EDGE_TYPES = frozenset(t for t, c in EDGE_COEFFICIENTS.items() if c < 0)


@dataclass(frozen=True, slots=True)
class Edge:
    """Directed typed relationship: source acts on target.

    ``created_at`` (integer UTC seconds) drives the per-cycle "new inbound
    support" counting window.
    """

    source_id: str
    target_id: str
    edge_type: EdgeType
    created_at: int

    def __post_init__(self) -> None:
        if self.source_id == self.target_id:
            raise ModelError(f"self-loop edge on {self.source_id!r}")


# ---------------------------------------------------------------------------
# Scores and zones
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ScoreVector:
    """Five-component score state, each component in [0, 1].

    Only ``k`` and ``urgency`` have update dynamics; confidence, freshness,
    and contradiction are stored at ingestion and carried through unchanged.
    """

    k: float
    confidence: float = 1.0
    freshness: float = 1.0
    urgency: float = 0.0
    contradiction: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k", "confidence", "freshness", "urgency", "contradiction"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ModelError(f"score component {name}={v!r} outside [0, 1]")


class MemoryZone(IntEnum):
    """Retrieval-eligibility bands over the k-score, ordered by importance."""

    DORMANT = 0
    PERIPHERAL = 1
    WORKING = 2
    CORE = 3


PERIPHERAL_K = 0.05  #: the least k above DORMANT: non-dormant k lies in [it, 1]
_DORMANT, _PERIPHERAL, _WORKING, _CORE = MemoryZone  # zone_for reads no attribute


def zone_for(k: float) -> MemoryZone:
    """Allocate a k-score to its memory zone.

    Bands are lower-inclusive: CORE k >= 0.40, WORKING [0.10, 0.40),
    PERIPHERAL [0.05, 0.10), DORMANT below 0.05.
    """
    if not (0.0 <= k <= 1.0):
        raise ModelError(f"k={k!r} outside [0, 1]; scores are clamped upstream")
    if k >= 0.40:
        return _CORE
    if k >= 0.10:
        return _WORKING
    if k >= PERIPHERAL_K:
        return _PERIPHERAL
    return _DORMANT


# ---------------------------------------------------------------------------
# Knowledge objects and snapshots
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class KnowledgeObject:
    """A typed epistemic unit. Never deleted; it only moves between zones.

    ``retrieved_at`` holds the retrieval timestamps feeding the usage force.
    ``stakes`` and ``resolved`` are only meaningful for QUESTION objects.
    ``embedding`` and ``anchors`` are supplied at ingestion; the engine never
    computes embeddings.
    """

    id: str
    koc: Koc
    cls: EpistemicClass
    content: str
    scores: ScoreVector
    created_at: int
    retrieved_at: tuple[int, ...] = ()
    resolved: bool = False
    stakes: float = 0.0
    anchors: frozenset[str] = frozenset()
    embedding: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.cls is not self.koc.cls:
            raise ModelError(
                f"ko {self.id!r}: class {self.cls.value} does not match "
                f"coordinate class {self.koc.cls.value}")
        if not (0.0 <= self.stakes <= 1.0):
            raise ModelError(f"ko {self.id!r}: stakes {self.stakes!r} outside [0, 1]")
        if self.resolved and self.cls is not EpistemicClass.QUESTION:
            raise ModelError(f"ko {self.id!r}: only QUESTION objects can be resolved")
        if self.scores.urgency > 0 and self.cls is not EpistemicClass.QUESTION:
            raise ModelError(f"ko {self.id!r}: urgency is a QUESTION-only score")

    @property
    def zone(self) -> MemoryZone:
        return zone_for(self.scores.k)

    @property
    def dormant(self) -> bool:
        return self.zone is MemoryZone.DORMANT

    def rescored(self, k: float, urgency: float) -> "KnowledgeObject":
        """This object with a new k and urgency, built without re-validation.

        The trusted constructor of the engine's cycle: the engine clamps and
        quantizes k and clamps urgency (zero outside QUESTION), so every
        check of ``__post_init__`` holds by construction. Any other caller
        uses ``dataclasses.replace``, which validates.
        """
        s = self.scores
        return trusted_ko(
            self.id, self.koc, self.cls, self.content,
            trusted_scores(k, s.confidence, s.freshness, urgency, s.contradiction),
            self.created_at, self.retrieved_at, self.resolved, self.stakes,
            self.anchors, self.embedding)

    def with_retrieval(self, at: int) -> "KnowledgeObject":
        """This object with retrieval time ``at`` appended, built without
        re-validation: ``__post_init__`` checks no field that changes."""
        return trusted_ko(self.id, self.koc, self.cls, self.content, self.scores,
                          self.created_at, self.retrieved_at + (at,), self.resolved,
                          self.stakes, self.anchors, self.embedding)


# ---------------------------------------------------------------------------
# Trusted construction
# ---------------------------------------------------------------------------
#
# The builders below set each field of a frozen, slotted value without
# running its ``__post_init__`` checks. Each caller vouches for the values:
# the engine's cycle and a retrieval (``rescored``, ``with_retrieval``)
# change only fields whose rules hold by construction, and a checkpoint
# restore rebuilds the values from an image whose SHA-256 matches what
# ``write_checkpoint`` wrote from validated objects. Every other caller
# builds through the validating constructors.

_new = object.__new__


def slot_setters(cls, *names: str) -> tuple[Callable[[object, object], None], ...]:
    """The ``__set__`` of the slot descriptor of each named field of a
    slotted dataclass, in the order named; the names must be all of its
    fields, so a trusted builder sets every slot. Calling one stores a
    value in its slot without the frozen ``__setattr__`` or the attribute
    lookup that ``object.__setattr__`` pays on every call. Looked up by
    name, so reordering the class's fields cannot send a value to another
    slot."""
    if sorted(names) != sorted(f.name for f in fields(cls)):
        raise TypeError(f"{cls.__name__} fields are "
                        f"{[f.name for f in fields(cls)]}, not {list(names)}")
    return tuple(cls.__dict__[name].__set__ for name in names)


(_koc_entity, _koc_domain, _koc_cls, _koc_epoch, _koc_depth, _koc_author,
 _koc_variant) = slot_setters(Koc, "entity", "domain", "cls", "epoch",
                              "depth", "author", "variant")
_edge_source, _edge_target, _edge_type, _edge_created_at = slot_setters(
    Edge, "source_id", "target_id", "edge_type", "created_at")
(_scores_k, _scores_confidence, _scores_freshness, _scores_urgency,
 _scores_contradiction) = slot_setters(ScoreVector, "k", "confidence",
                                       "freshness", "urgency", "contradiction")
(_ko_id, _ko_koc, _ko_cls, _ko_content, _ko_scores, _ko_created_at,
 _ko_retrieved_at, _ko_resolved, _ko_stakes, _ko_anchors,
 _ko_embedding) = slot_setters(KnowledgeObject, "id", "koc", "cls", "content",
                               "scores", "created_at", "retrieved_at",
                               "resolved", "stakes", "anchors", "embedding")


def trusted_koc(entity: str, domain: str, cls: EpistemicClass, epoch: str,
                depth: str, author: str, variant: str) -> Koc:
    koc = _new(Koc)
    _koc_entity(koc, entity)
    _koc_domain(koc, domain)
    _koc_cls(koc, cls)
    _koc_epoch(koc, epoch)
    _koc_depth(koc, depth)
    _koc_author(koc, author)
    _koc_variant(koc, variant)
    return koc


def trusted_edge(source_id: str, target_id: str, edge_type: EdgeType,
                 created_at: int) -> Edge:
    edge = _new(Edge)
    _edge_source(edge, source_id)
    _edge_target(edge, target_id)
    _edge_type(edge, edge_type)
    _edge_created_at(edge, created_at)
    return edge


def trusted_scores(k: float, confidence: float, freshness: float,
                   urgency: float, contradiction: float) -> ScoreVector:
    scores = _new(ScoreVector)
    _scores_k(scores, k)
    _scores_confidence(scores, confidence)
    _scores_freshness(scores, freshness)
    _scores_urgency(scores, urgency)
    _scores_contradiction(scores, contradiction)
    return scores


def trusted_ko(id: str, koc: Koc, cls: EpistemicClass, content: str,
               scores: ScoreVector, created_at: int,
               retrieved_at: tuple[int, ...], resolved: bool, stakes: float,
               anchors: frozenset[str],
               embedding: tuple[float, ...] | None) -> KnowledgeObject:
    ko = _new(KnowledgeObject)
    _ko_id(ko, id)
    _ko_koc(ko, koc)
    _ko_cls(ko, cls)
    _ko_content(ko, content)
    _ko_scores(ko, scores)
    _ko_created_at(ko, created_at)
    _ko_retrieved_at(ko, retrieved_at)
    _ko_resolved(ko, resolved)
    _ko_stakes(ko, stakes)
    _ko_anchors(ko, anchors)
    _ko_embedding(ko, embedding)
    return ko


def left_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added strictly left to right, one rounding per
    addition: what the built-in ``sum`` computes before Python 3.12, which
    made it compensate float sums. Scores summed with it have the same bits
    on every supported Python. Like ``sum`` it starts from the integer 0,
    so integers add exactly until the first float."""
    total = 0
    for x in values:
        total += x
    return total


def embedding_norm(embedding: Sequence[float]) -> float:
    """The Euclidean norm, its squares added left to right as in :func:`left_sum`."""
    total = 0
    for x in embedding:
        total += x * x
    return math.sqrt(total)


@dataclass(frozen=True)
class GraphSnapshot:
    """Immutable view of all knowledge objects and edges at a cycle boundary.

    ``cycle_at`` is the timestamp of the cycle that produced this snapshot
    (None before the first cycle); it is the lower bound of the next cycle's
    "new edge" window.

    The cached properties below form the snapshot's index; ``hop_memo`` keeps
    the hop distances retrieval has computed on it, and ``focus_memo`` the
    foci it has found by a full scan. Each is built on first use and stored on
    the instance without being a field, so equality, ``repr`` and ``replace``
    ignore it; a snapshot must therefore not be mutated once it has been used.
    ``zones`` may come filled in by the cycle or store that made the snapshot.
    """

    kos: dict[str, KnowledgeObject] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()
    cycle_at: int | None = None

    @cached_property
    def zones(self) -> dict[str, MemoryZone]:
        """Every id, in sorted order, with its zone."""
        return {ko_id: self.kos[ko_id].zone for ko_id in sorted(self.kos)}

    @cached_property
    def neighbors(self) -> dict[str, tuple[str, ...]]:
        """The undirected adjacency, each node's neighbours sorted."""
        linked: dict[str, set[str]] = {}
        for e in self.edges:
            linked.setdefault(e.source_id, set()).add(e.target_id)
            linked.setdefault(e.target_id, set()).add(e.source_id)
        return {node: tuple(sorted(ids)) for node, ids in linked.items()}

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each id's index in ``zones`` (sorted-id) order."""
        return {ko_id: i for i, ko_id in enumerate(self.zones)}

    @cached_property
    def hop_memo(self) -> dict[str, array]:
        """Hop distances per query focus, filled by retrieval: entry i of a
        focus's array is h + 1 for the object at position i, h hops from the
        focus, and 0 for an object it does not reach."""
        return {}

    @cached_property
    def focus_memo(self) -> dict[tuple, str]:
        """The focus of each anchor coordinate no object holds exactly,
        filled by retrieval, keyed by (anchor, axis weights as a tuple or
        None)."""
        return {}

    @cached_property
    def embedding_norms(self) -> dict[str, float]:
        return {ko_id: embedding_norm(ko.embedding)
                for ko_id, ko in self.kos.items() if ko.embedding is not None}

    @cached_property
    def by_k(self) -> tuple[str, ...]:
        """Every id in descending k, ties by id."""
        kos = self.kos
        return tuple(sorted(self.zones, key=lambda ko_id: -kos[ko_id].scores.k))

    @cached_property
    def entity_ids(self) -> dict[str, tuple[str, ...]]:
        """The ids of each coordinate entity, in descending k, ties by id."""
        return self._grouped(self.by_k, lambda ko: ko.koc.entity)

    @cached_property
    def domain_ids(self) -> dict[str, tuple[str, ...]]:
        """The ids of each coordinate domain, in descending k, ties by id."""
        return self._grouped(self.by_k, lambda ko: ko.koc.domain)

    @cached_property
    def dimension_ids(self) -> dict[int, tuple[str, ...]]:
        """The ids of each embedding length, sorted. A store holds one
        length; a snapshot built by hand may hold several."""
        return self._grouped(self.zones, lambda ko: (
            None if ko.embedding is None else len(ko.embedding)))

    def _grouped(self, ids: Iterable[str], key: Callable[[KnowledgeObject], object]
                 ) -> dict:
        """``ids`` grouped by ``key`` of their object, each group in the
        order of ``ids``; a key of None is left out."""
        groups: dict[object, list[str]] = {}
        for ko_id in ids:
            value = key(self.kos[ko_id])
            if value is not None:
                groups.setdefault(value, []).append(ko_id)
        return {value: tuple(group) for value, group in groups.items()}

    @cached_property
    def norm_range(self) -> tuple[float, float]:
        """The smallest and the largest nonzero embedding norm; (1.0, 1.0)
        when there is none."""
        nonzero = [norm for norm in self.embedding_norms.values() if norm]
        return (min(nonzero), max(nonzero)) if nonzero else (1.0, 1.0)

    @cached_property
    def first_ids(self) -> dict[object, str]:
        """The smallest id holding each exact coordinate (a ``Koc`` key) and
        each (entity, domain), (entity, None) and (None, domain) pair."""
        first: dict[object, str] = {}
        for ko_id in reversed(self.zones):
            koc = self.kos[ko_id].koc
            for key in (koc, (koc.entity, koc.domain), (koc.entity, None), (None, koc.domain)):
                first[key] = ko_id
        return first

    def validate(self) -> None:
        """Raise if any edge endpoint is missing (store corruption)."""
        for e in self.edges:
            if e.source_id not in self.kos or e.target_id not in self.kos:
                raise ModelError(
                    f"dangling edge {e.source_id!r} -> {e.target_id!r}")


# ---------------------------------------------------------------------------
# Taxonomy adequacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairAdequacy:
    """Distinguishing features for one unordered class pair."""

    pair: tuple[EpistemicClass, EpistemicClass]
    differing: tuple[str, ...]

    @property
    def adequate(self) -> bool:
        return len(self.differing) >= 2


def taxonomy_adequacy_report() -> list[PairAdequacy]:
    """Enumerate all 36 unordered class pairs with their differing features.

    A pair is adequate when at least two of {decay kind, seed, decay
    rate/half-life, semantic role} differ. Inadequate pairs are flagged in
    the result rather than raised, so the report doubles as a test oracle.
    """
    classes = list(EpistemicClass)
    report: list[PairAdequacy] = []
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            pa, pb = CLASS_PROFILES[a], CLASS_PROFILES[b]
            differing: list[str] = []
            if pa.decay_kind is not pb.decay_kind:
                differing.append("decay_kind")
            if pa.seed_k != pb.seed_k:
                differing.append("seed_k")
            if pa.lambda_per_day != pb.lambda_per_day or pa.half_life_days != pb.half_life_days:
                differing.append("rate_or_half_life")
            if pa.role != pb.role:
                differing.append("role")
            report.append(PairAdequacy((a, b), tuple(differing)))
    return report

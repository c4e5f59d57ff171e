"""The gravity engine: per-cycle importance updates.

Each cycle recomputes every active knowledge object's k-score as

    k' = clamp((1 - eta) * k + eta * (seed + u + e + g) - lambda * dt * k - c)

where seed is the class baseline, u/e/g are the usage, evidence, and gravity
injection forces, lambda is the class decay rate, and c is the contradiction
penalty. Under stationary forces the update has the closed-form fixed point

    k* = (eta * (seed + u + e + g) - c) / (eta + lambda * dt)

The cycle is synchronous: all forces read the previous snapshot, so two runs
over equal snapshots are bit-identical.

A cycle reads its edges from an ``EdgeStructure``, kept across cycles (the
store keeps one) as edges are only ever added: one entry per target with a
non-dormant source, holding those sources sorted by id with their
coefficients summed, its count of negative edges and its SUPPORTS times;
and the outbound BLOCKS counts. ``EdgeStructure.advance`` brings it to a
cycle's snapshot and time, re-filtering only the targets that gained an
edge or have a source that changed between dormant and not dormant (an edge
dated after ``now`` waits until a cycle reaches its time), and returns the
dormant set. ``gravity_force`` without one builds it for the one snapshot.

``run_cycle`` is one loop over the objects in id order. For each updated
object it looks its entry up once and computes, inline and from locals, the
usage sum over its retrievals, its count of new SUPPORTS edges, its radius-1
gravity, its contradiction term, the update and the decay term: the float
expressions of ``usage_force``, ``evidence_force``, ``gravity_force``,
``contradiction_penalty`` and ``kge_step``, operand for operand, so the
bits are theirs (the tests pin the loop to them); only a neighbour at or
below the mean is skipped, as its term, coeff * tanh(0.0), is a zero that
leaves the sum's bits as they are. The class's seed and decay rate come
from a table built once per cycle and keyed by the class, with one more
entry for a resolved QUESTION. Held inputs (``frozen_usage``,
``frozen_evidence``) and a radius above 1 (``gravity_force`` on the cycle's
structure) are branches of the same loop. A non-finite ``raw`` goes to
``kge_update``, which names the non-finite input and raises. The loop is the
one place a cycle's inputs are computed: the convergence lab in ``dynamics``
holds the usage and evidence of one cycle's breakdowns. The public single-object functions stay for the
library and the tests.

The neighbourhood mean is ``fsum(ks) / n``, as ``statistics.fmean``
computes it. Sigma is the floor, without the exact ``statistics.pstdev``,
when the k values span less than twice ``sigma_floor`` * (1 - 1e-9): a
population standard deviation is at most half the span (Popoviciu). As
non-dormant k lies in [``PERIPHERAL_K``, 1], no span exceeds fl(1 - 0.05) =
0.95; so when 0.95 is below that bound, as under the default floor of 0.5,
the loop takes the floor for every neighbourhood, decided once per cycle,
and only otherwise has ``_spread`` test each span. ``statistics``, whose
import costs a process about 4 ms, is imported at the first exact call. The
loop writes each object's zone as it computes k, the old zone for an
unchanged k, into the new snapshot's ``zones``. Each update's
``ForceBreakdown`` is built by a trusted constructor that sets its slots
directly, skipping the frozen dataclass's ``__init__``; updated objects are
built by ``KnowledgeObject.rescored``, the model's trusted constructor (k
is clamped and quantized, urgency clamped); an object whose k and urgency
did not change is reused as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Mapping

from .model import (
    CLASS_PROFILES,
    EDGE_COEFFICIENTS,
    NEGATIVE_EDGE_TYPES,
    PERIPHERAL_K,
    SIMULATION_LAMBDAS,
    ClassProfile,
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    MemoryZone,
    class_profile,
    trusted_constructor,
    zone_for,
)

SECONDS_PER_DAY = 86400

#: Fraction of a reference EVIDENCE object's converged k suppressed by a
#: single contradiction edge; fixes the penalty scale a_c = 0.22 * eta * seed.
CONTRADICTION_SUPPRESSION_TARGET = 0.22

#: Decimal places of every stored score, in memory and in the corpus file.
SCORE_DECIMALS = 9


def quantize(x: float) -> float:
    """``x`` rounded to ``SCORE_DECIMALS``: scores round-trip through that
    text, so a quantized value equals its serialized form."""
    return round(x, SCORE_DECIMALS)


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


class EngineError(ValueError):
    """Engine contract violation (bad parameter, corrupt force input)."""


@dataclass(frozen=True)
class EngineParams:
    """Every tunable constant of the scoring and cycle machinery.

    Time is measured in days: ``delta_t`` is the cycle step (0.25 = six
    hours), decay rates are per-day, and ``sigma_recency`` scales retrieval
    ages. ``cycle_period_s`` is the simulated wall-clock advance per cycle
    and equals ``delta_t`` days in both presets.

    ``a_c`` defaults to the calibrated value 0.22 * eta * seed(EVIDENCE) so
    that one contradiction edge suppresses a reference object's converged
    k-score by 22%.
    """

    eta: float = 0.15
    delta_t: float = 0.25
    a_u: float = 0.2
    a_e: float = 0.1
    a_g: float = 0.05
    a_c: float | None = None
    sigma_recency: float = 1.0
    g_scale: float = 5.0
    sigma_floor: float = 0.5
    gravity_radius: int = 1
    cycle_period_s: int = 21600
    lambda_profile: str = "operational"
    koc_axis_weights: tuple[float, ...] = (1.0 / 7.0,) * 7

    def __post_init__(self) -> None:
        for name in ("eta", "delta_t", "a_u", "a_e", "a_g", "a_c",
                     "sigma_recency", "g_scale", "sigma_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise EngineError(f"{name}={value} must be finite")
        if not 0.0 < self.eta < 1.0:
            raise EngineError(f"eta={self.eta} outside (0, 1)")
        if self.delta_t <= 0:
            raise EngineError(f"delta_t={self.delta_t} must be positive")
        if self.g_scale <= 0 or self.sigma_floor <= 0 or self.sigma_recency <= 0:
            raise EngineError("g_scale, sigma_floor, and sigma_recency must be positive")
        for name in ("a_u", "a_e", "a_g"):
            if getattr(self, name) < 0:
                raise EngineError(f"{name} must be non-negative")
        for name, least in (("gravity_radius", 1), ("cycle_period_s", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise EngineError(f"{name}={value!r} must be an integer >= {least}")
        if self.lambda_profile not in ("operational", "simulation"):
            raise EngineError(f"unknown lambda_profile {self.lambda_profile!r}")
        weights = self.koc_axis_weights
        if (len(weights) != 7 or not all(map(math.isfinite, weights))
                or abs(math.fsum(weights) - 1.0) > 1e-9):
            raise EngineError("koc_axis_weights must be 7 finite values summing to 1")
        if self.a_c is None:
            derived = (CONTRADICTION_SUPPRESSION_TARGET * self.eta
                       * CLASS_PROFILES[EpistemicClass.EVIDENCE].seed_k)
            object.__setattr__(self, "a_c", derived)
        elif self.a_c < 0:
            raise EngineError("a_c must be non-negative")

    @classmethod
    def production(cls, **overrides) -> "EngineParams":
        """Six-hour cadence: eta 0.15, dt 0.25 days, operational decay rates."""
        return cls(**overrides)

    @classmethod
    def simulation(cls, **overrides) -> "EngineParams":
        """Daily cadence used by the trajectory studies: eta 0.1, dt 1 day."""
        defaults = dict(eta=0.1, delta_t=1.0, cycle_period_s=SECONDS_PER_DAY,
                        lambda_profile="simulation")
        defaults.update(overrides)
        return cls(**defaults)

    def lambda_for(self, cls_: EpistemicClass, resolved: bool = False) -> float:
        """Active decay rate for a class; resolved QUESTIONs decay like
        OBSERVATIONs instead of rising forever."""
        if resolved and cls_ is EpistemicClass.QUESTION:
            cls_ = EpistemicClass.OBSERVATION
        if self.lambda_profile == "simulation":
            return SIMULATION_LAMBDAS[cls_]
        return CLASS_PROFILES[cls_].lambda_per_day

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "EngineParams":
        kwargs = dict(data)
        weights = kwargs.pop("koc_axis_weights", None)
        if weights is not None:
            kwargs["koc_axis_weights"] = tuple(weights)
        return cls(**kwargs)

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True, slots=True)
class ForceBreakdown:
    """Full audit record of one k-score update.

    ``k_after`` is recomputable from the stored components:
    clamp((1 - eta) * k_before + eta * (seed + usage + evidence + gravity)
    + decay_term - contradiction).
    """

    ko_id: str
    seed: float
    usage: float
    evidence: float
    gravity: float
    decay_term: float
    contradiction: float
    k_before: float
    k_after: float


_trusted_breakdown = trusted_constructor(ForceBreakdown)


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def usage_force(retrieval_ages: list[float], params: EngineParams) -> float:
    """Retrieval-driven activation: a_u * sum_j exp(-age_j / sigma).

    Ages are elapsed days since each retrieval; an empty history yields 0.
    """
    total = 0.0
    for age in retrieval_ages:
        if age < 0:
            raise EngineError(f"negative retrieval age {age} (clock skew)")
        total += math.exp(-age / params.sigma_recency)
    return params.a_u * total


def evidence_force(new_supports_count: int, params: EngineParams) -> float:
    """a_e per inbound SUPPORTS edge created since the previous cycle."""
    if new_supports_count < 0:
        raise EngineError(f"negative support count {new_supports_count}")
    return params.a_e * new_supports_count


def contradiction_penalty(inbound: list[Edge], params: EngineParams) -> float:
    """a_c per inbound CONTRADICTS or BLOCKS edge."""
    count = sum(1 for e in inbound if e.edge_type in NEGATIVE_EDGE_TYPES)
    return params.a_c * count


def gravity_force(
    ko_id: str,
    snapshot: GraphSnapshot,
    params: EngineParams,
    now: int | None = None,
    *,
    edges: EdgeStructure | None = None,
) -> float:
    """Signed importance propagation from the neighborhood.

    a_g * sum_j coeff(j) * tanh(g_scale * max(0, z_j) / d(j)), where z_j is
    the neighbor's k-score z-scored against the neighborhood (population
    standard deviation, floored at sigma_floor). A single neighbor always
    contributes 0 because it defines the neighborhood mean. ``edges`` holds
    the snapshot's edges advanced to the cycle's time; without it, they are
    advanced to ``now`` in a structure built for this call.
    """
    if edges is None:
        edges = EdgeStructure(snapshot.edges)
        edges.advance(snapshot, now)
    kos, g_scale = snapshot.kos, params.g_scale
    neighborhood = gravity_neighborhood(ko_id, edges, params.gravity_radius)
    if not neighborhood:
        return 0.0
    ks = [kos[j].scores.k for j in neighborhood]
    mu, sigma = _spread(ks, params.sigma_floor)
    total = 0.0
    for j in sorted(neighborhood):
        distance, coeff = neighborhood[j]
        z = (kos[j].scores.k - mu) / sigma
        k_norm = max(0.0, z)
        total += coeff * math.tanh(g_scale * k_norm / distance)
    return params.a_g * total


def _spread(ks: list[float], floor: float) -> tuple[float, float]:
    """The mean of ``ks`` and their population sigma, floored at ``floor``."""
    mu = math.fsum(ks) / len(ks)
    # Popoviciu: a population sigma is at most half the values' span, so a
    # span below twice the floor (less a margin for rounding) leaves the floor.
    if max(ks) - min(ks) < 2.0 * floor * (1.0 - 1e-9):
        return mu, floor
    return mu, max(_pstdev(ks, mu), floor)


_statistics = None  # the statistics module, once _pstdev has imported it


def _pstdev(ks: list[float], mu: float) -> float:
    """``statistics.pstdev(ks, mu=mu)``, the module imported on the first
    call and looked up, not its function, so a patched ``pstdev`` is seen."""
    global _statistics
    if _statistics is None:
        import statistics as _statistics
    return _statistics.pstdev(ks, mu=mu)


def question_urgency(age_days: float, blocking_count: int, stakes: float,
                     resolved: bool = False) -> float:
    """Urgency of an open question; resolution pins it to zero.

    clamp(age_days / 30 * 0.3 + blocking_count * 0.2 + stakes * 0.5, 0, 1).
    """
    if resolved:
        return 0.0
    raw = age_days / 30.0 * 0.3 + blocking_count * 0.2 + stakes * 0.5
    return quantize(_clamp01(raw))


# ---------------------------------------------------------------------------
# The update
# ---------------------------------------------------------------------------

def kge_update(k: float, seed: float, lam: float,
               u: float, e: float, g: float, c: float,
               params: EngineParams) -> float:
    """One scalar application of the update equation, clamped to [0, 1].

    A non-finite input makes ``raw`` non-finite, so the inputs are searched
    for the offending one only then; a ``raw`` that overflowed from finite
    inputs is clamped like any other.
    """
    raw = ((1.0 - params.eta) * k
           + params.eta * (seed + u + e + g)
           - lam * params.delta_t * k
           - c)
    if not math.isfinite(raw):
        for name, v in (("k", k), ("seed", seed), ("u", u), ("e", e), ("g", g), ("c", c)):
            if not math.isfinite(v):
                raise EngineError(f"non-finite force input {name}={v!r}")
    return quantize(_clamp01(raw))


def kge_step(ko: KnowledgeObject, forces: tuple[float, float, float, float],
             params: EngineParams) -> ForceBreakdown:
    """Apply the update to one knowledge object and return the audit record.

    Deterministic: identical inputs give bit-identical outputs. The seed and
    decay rate come from the object's class profile; a resolved QUESTION uses
    the OBSERVATION rate.
    """
    u, e, g, c = forces
    seed = class_profile(ko.cls).seed_k
    lam = params.lambda_for(ko.cls, resolved=ko.resolved)
    k_before = ko.scores.k
    k_after = kge_update(k_before, seed, lam, u, e, g, c, params)
    return ForceBreakdown(
        ko_id=ko.id, seed=seed, usage=u, evidence=e, gravity=g,
        decay_term=-lam * params.delta_t * k_before,
        contradiction=c, k_before=k_before, k_after=k_after)


def fixed_point(profile: ClassProfile,
                stationary_forces: tuple[float, float, float, float],
                params: EngineParams) -> float:
    """Analytic stationary value of the update under constant forces.

    Returns the pre-clamp value (eta * (seed + u + e + g) - c) /
    (eta + lambda * dt). The decay rate is taken from the given profile, so
    pass ``simulation_profile(cls)`` for simulation-rate fixed points.
    """
    u, e, g, c = stationary_forces
    denominator = params.eta + profile.lambda_per_day * params.delta_t
    if denominator <= 0:
        raise EngineError(
            f"divergent configuration: eta + lambda*dt = {denominator} <= 0")
    return (params.eta * (profile.seed_k + u + e + g) - c) / denominator


# ---------------------------------------------------------------------------
# Whole-graph cycles
# ---------------------------------------------------------------------------

_SOURCE_THEN_TYPE = attrgetter("source_id", "edge_type")


_NO_INPUTS = ((), (), 0, ())  # the entry of a target with no non-dormant source


class EdgeStructure:
    """The edges of a graph as every cycle needs them, grown one edge at a
    time and kept across cycles (edges are only ever added).

    It holds each target's inbound edges, each source's targets, and the
    edges dated after the ``now`` it was last advanced to, which enter once
    a cycle reaches their time. A cycle reads two maps, as of the last
    :meth:`advance`. ``inputs`` maps each target with a non-dormant source
    to ``(sources, coefficients, negatives, supports)``, read from the
    admitted edges whose source is not dormant (dormant objects exert no
    force; this is the one dormant filter): ``sources`` sorted by id,
    ``coefficients`` beside them summing each source's edge coefficients in
    edge-type order, the count of CONTRADICTS and BLOCKS edges, and the
    SUPPORTS edges' creation times, sorted. Any other target reads as
    ``((), (), 0, ())``. ``outbound_blocks`` counts the admitted BLOCKS
    edges from every source, dormant or not. :meth:`advance` rebuilds an
    entry only for the targets that gained an edge or have a source that
    changed between dormant and not dormant.
    """

    def __init__(self, edges: Iterable[Edge] = ()) -> None:
        self._horizon = -math.inf  # edges created by then are admitted
        self._pending: list[Edge] = list(edges)  # the first advance admits them
        self._size = len(self._pending)
        self._inbound: dict[str, list[Edge]] = {}
        self._targets: dict[str, list[str]] = {}
        self._dirty: set[str] = set()
        self._dormant: frozenset[str] = frozenset()
        self.inputs: dict[str, tuple] = {}
        self.outbound_blocks: dict[str, int] = {}

    def add(self, edge: Edge) -> None:
        self._size += 1
        self._admit((edge,))

    def _admit(self, edges: Iterable[Edge]) -> None:
        """Enter each edge created by the horizon; hold the others back."""
        horizon, pending, blocks_type = self._horizon, self._pending, EdgeType.BLOCKS
        inbound, targets, blocks, dirty = (self._inbound, self._targets,
                                           self.outbound_blocks, self._dirty)
        for edge in edges:
            if edge.created_at > horizon:
                pending.append(edge)
                continue
            source, target = edge.source_id, edge.target_id
            into = inbound.get(target)
            if into is None:
                inbound[target] = [edge]
            else:
                into.append(edge)
            out = targets.get(source)
            if out is None:
                targets[source] = [target]
            else:
                out.append(target)
            if edge.edge_type is blocks_type:
                blocks[source] = blocks.get(source, 0) + 1
            dirty.add(target)

    def advance(self, snapshot: GraphSnapshot, now: int | None) -> frozenset[str]:
        """Bring the maps to a cycle at ``now`` (every edge for ``None``)
        over ``snapshot``, which must hold exactly the edges added here, and
        return its dormant set. ``now`` never runs backwards."""
        if len(snapshot.edges) != self._size:
            raise EngineError(f"snapshot has {len(snapshot.edges)} edges, "
                              f"the edge structure {self._size}")
        horizon = math.inf if now is None else now
        if horizon < self._horizon:
            raise EngineError(f"cycle at {now} is earlier than the edge "
                              f"structure's last cycle at {self._horizon}")
        self._horizon = horizon
        pending, self._pending = self._pending, []
        self._admit(pending)
        dormant_zone = MemoryZone.DORMANT
        dormant = frozenset(ko_id for ko_id, zone in snapshot.zones.items()
                            if zone is dormant_zone)
        dirty = self._dirty
        for ko_id in dormant ^ self._dormant:
            dirty.update(self._targets.get(ko_id, ()))
        for target in dirty:
            self._refilter(target, dormant)
        dirty.clear()
        self._dormant = dormant
        return dormant

    def _refilter(self, target: str, dormant: frozenset[str]) -> None:
        edges = self._inbound[target]
        if len(edges) > 1:
            edges = sorted(edges, key=_SOURCE_THEN_TYPE)
        by_source: dict[str, float] = {}
        negatives = 0
        supports, supports_type = [], EdgeType.SUPPORTS
        for e in edges:
            source = e.source_id
            if source in dormant:
                continue
            edge_type = e.edge_type
            coeff = EDGE_COEFFICIENTS[edge_type]
            # A source's first coefficient is kept as it is (0.0 + c == c),
            # so a single edge's sum is the shared constant, not a new float.
            total = by_source.get(source)
            by_source[source] = coeff if total is None else total + coeff
            if edge_type is supports_type:
                supports.append(e.created_at)
            elif edge_type in NEGATIVE_EDGE_TYPES:
                negatives += 1
        if by_source:  # every counted edge has a source here
            supports.sort()
            self.inputs[target] = (tuple(by_source), tuple(by_source.values()),
                                   negatives, tuple(supports))
        else:
            self.inputs.pop(target, None)


def gravity_neighborhood(ko_id: str, edges: EdgeStructure,
                         radius: int) -> dict[str, tuple[int, float]]:
    """Non-dormant sources acting on ``ko_id`` within ``radius`` inbound hops.

    Returns neighbor id -> (hop distance, signed coefficient). Direct
    neighbors sum the coefficients of their edges; deeper neighbors carry the
    signed product along the first id-ordered shortest path.
    """
    found: dict[str, tuple[int, float]] = {}
    frontier: list[tuple[str, float]] = [(ko_id, 1.0)]
    seen = {ko_id}
    for depth in range(1, radius + 1):
        if not frontier:  # nothing deeper: a radius past it costs nothing
            break
        nxt: list[tuple[str, float]] = []
        for node, path_coeff in frontier:
            sources, coefficients, _, _ = edges.inputs.get(node, _NO_INPUTS)
            for src, coeff in zip(sources, coefficients):
                if src in seen:
                    continue
                seen.add(src)
                coeff *= path_coeff
                found[src] = (depth, coeff)
                nxt.append((src, coeff))
        frontier = nxt
    return found


_RESOLVED = "resolved QUESTION"  # equal to no class value


def _class_rates(params: EngineParams) -> dict[str, tuple[float, float, float, float]]:
    """Each class's seed, decay rate, rate times ``delta_t`` and the decay
    term's factor ``-rate * delta_t``, keyed by the class, and once more
    under ``_RESOLVED`` for a resolved QUESTION (the OBSERVATION rate, as
    ``lambda_for`` gives it)."""
    def rates_of(cls: EpistemicClass, resolved: bool = False) -> tuple[float, ...]:
        lam = params.lambda_for(cls, resolved=resolved)
        return (CLASS_PROFILES[cls].seed_k, lam, lam * params.delta_t,
                -lam * params.delta_t)
    rates = {cls: rates_of(cls) for cls in EpistemicClass}
    rates[_RESOLVED] = rates_of(EpistemicClass.QUESTION, resolved=True)
    return rates


def run_cycle(
    snapshot: GraphSnapshot,
    now: int,
    params: EngineParams,
    frozen_usage: Mapping[str, float] | None = None,
    frozen_evidence: Mapping[str, float] | None = None,
    *,
    edges: EdgeStructure | None = None,
) -> tuple[GraphSnapshot, list[ForceBreakdown]]:
    """One synchronous cycle over the whole graph.

    All forces read the previous snapshot's k-scores (Jacobi schedule).
    Dormant objects are retained but skipped - their scores freeze and they
    exert no gravity - unless they were retrieved inside this cycle's window,
    in which case the usage force may revive them. QUESTION urgency is
    recomputed for unresolved questions and pinned to zero for resolved ones.

    ``frozen_usage`` / ``frozen_evidence`` override the per-object usage and
    evidence forces; the convergence lab uses them to iterate the map under
    held inputs.

    ``edges`` is an :class:`EdgeStructure` of the snapshot's edges kept
    across cycles, whose edges were checked as they were added; without
    one, the snapshot's edges are checked and a structure is built for
    this cycle alone.

    Each object's forces and update are computed inline, with the float
    expressions of ``usage_force``, ``evidence_force``, ``gravity_force``
    (a radius above 1 calls it), ``contradiction_penalty`` and ``kge_step``.
    """
    if edges is None:
        snapshot.validate()
        edges = EdgeStructure(snapshot.edges)
    dormant = edges.advance(snapshot, now)
    prev, inputs, outbound_blocks = snapshot.cycle_at, edges.inputs, edges.outbound_blocks
    kos = snapshot.kos
    k = {ko_id: ko.scores.k for ko_id, ko in kos.items()}
    rates = _class_rates(params)
    eta, a_u, a_e, a_g, a_c = params.eta, params.a_u, params.a_e, params.a_g, params.a_c
    keep, sigma_recency, g_scale = 1.0 - eta, params.sigma_recency, params.g_scale
    floor, narrow = params.sigma_floor, params.gravity_radius == 1
    floored = 1.0 - PERIPHERAL_K < 2.0 * floor * (1.0 - 1e-9)  # no span reaches _spread's bound
    exp, tanh, isfinite, fsum = math.exp, math.tanh, math.isfinite, math.fsum
    question = EpistemicClass.QUESTION

    new_kos: dict[str, KnowledgeObject] = {}
    new_zones: dict[str, MemoryZone] = {}
    breakdowns: list[ForceBreakdown] = []
    for ko_id, zone in snapshot.zones.items():
        ko = kos[ko_id]
        retrieved = ko.retrieved_at
        if ko_id in dormant and not any((prev is None or t > prev) and t <= now
                                        for t in retrieved):
            new_kos[ko_id] = ko
            new_zones[ko_id] = zone
            continue
        sources, coefficients, negatives, supports = inputs.get(ko_id, _NO_INPUTS)

        if frozen_usage is None:  # usage_force over the ages up to now
            total = 0.0
            for t in retrieved:
                if t <= now:
                    total += exp(-((now - t) / SECONDS_PER_DAY) / sigma_recency)
            u = a_u * total
        else:
            u = frozen_usage.get(ko_id, 0.0)
        if frozen_evidence is None:  # evidence_force: SUPPORTS since prev
            e = a_e * (len(supports)
                       - (0 if prev is None else bisect_right(supports, prev)))
        else:
            e = frozen_evidence.get(ko_id, 0.0)
        if not narrow:
            g = gravity_force(ko_id, snapshot, params, edges=edges)
        elif not sources:
            g = 0.0
        else:  # gravity_force at radius 1: the sources, each at distance 1
            ks = [k[j] for j in sources]
            mu, sigma = (fsum(ks) / len(ks), floor) if floored else _spread(ks, floor)
            total = 0.0
            for coeff, kj in zip(coefficients, ks):
                z = (kj - mu) / sigma
                if z > 0.0:  # else the term is coeff * tanh(0.0), a zero
                    total += coeff * tanh(g_scale * z)
            g = a_g * total
        c = a_c * negatives  # contradiction_penalty

        # kge_step
        seed, lam, lam_dt, decay = rates[_RESOLVED if ko.resolved else ko.cls]
        scores = ko.scores
        k_before = scores.k
        raw = keep * k_before + eta * (seed + u + e + g) - lam_dt * k_before - c
        if isfinite(raw):
            k_after = round(min(1.0, max(0.0, raw)), SCORE_DECIMALS)
        else:  # finds the non-finite input and raises, or clamps an overflow
            k_after = kge_update(k_before, seed, lam, u, e, g, c, params)
        breakdowns.append(_trusted_breakdown(
            ko_id, seed, u, e, g, decay * k_before, c, k_before, k_after))

        if ko.cls is question:
            urgency = question_urgency(
                (now - ko.created_at) / SECONDS_PER_DAY,
                outbound_blocks.get(ko_id, 0),
                ko.stakes,
                resolved=ko.resolved)
        else:
            urgency = 0.0
        new_zones[ko_id] = zone if k_after == k_before else zone_for(k_after)
        if k_after == k_before and urgency == scores.urgency:
            new_kos[ko_id] = ko
        else:
            new_kos[ko_id] = ko.rescored(k_after, urgency)

    cycled = GraphSnapshot(kos=new_kos, edges=snapshot.edges, cycle_at=now)
    cycled.__dict__["zones"] = new_zones  # the cached index, as it would read
    return cycled, breakdowns

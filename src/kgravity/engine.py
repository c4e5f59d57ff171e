"""The gravity engine: per-cycle importance updates.

Each cycle recomputes every active knowledge object's k-score as

    k' = clamp((1 - eta) * k + eta * (seed + u + e + g) - lambda * dt * k - c)

where seed is the class baseline, u/e/g are the usage, evidence, and gravity
injection forces, lambda is the class decay rate, and c is the contradiction
penalty. Under stationary forces the update has the closed-form fixed point

    k* = (eta * (seed + u + e + g) - c) / (eta + lambda * dt)

The cycle is synchronous: all forces read the previous snapshot, so two runs
over equal snapshots are bit-identical.

A cycle first builds its ``CycleIndex``: the dormant set from one zone
lookup per object, each target's inbound edges from non-dormant sources,
those sources sorted by id with their coefficients summed, and the outbound
BLOCKS counts. ``run_cycle``, ``gravity_force``, ``cycle_inputs`` and the
convergence checks in ``dynamics`` all read it, so no object's zone is
recomputed and no node's edges are re-sorted per force. The neighbourhood
mean is ``fsum(ks) / n``, as ``statistics.fmean`` computes it. Sigma skips
the exact ``statistics.pstdev`` when the neighbourhood's k values span less
than twice ``sigma_floor``: a population standard deviation is at most half
the span (Popoviciu), so the floor wins; under the default floor of 0.5 that
holds for every neighbourhood, as non-dormant k lies in [0.05, 1]. Updated
objects are built by ``KnowledgeObject.rescored``, a trusted constructor
that skips re-validation (k is clamped and quantized, urgency clamped); an
object whose k and urgency did not change is reused as it is.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Mapping

from .model import (
    CLASS_PROFILES,
    NEGATIVE_EDGE_TYPES,
    SIMULATION_LAMBDAS,
    ClassProfile,
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    MemoryZone,
    class_profile,
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
        if not 0.0 < self.eta < 1.0:
            raise EngineError(f"eta={self.eta} outside (0, 1)")
        if self.delta_t <= 0:
            raise EngineError(f"delta_t={self.delta_t} must be positive")
        if self.g_scale <= 0 or self.sigma_floor <= 0 or self.sigma_recency <= 0:
            raise EngineError("g_scale, sigma_floor, and sigma_recency must be positive")
        for name in ("a_u", "a_e", "a_g"):
            if getattr(self, name) < 0:
                raise EngineError(f"{name} must be non-negative")
        if self.gravity_radius < 1:
            raise EngineError("gravity_radius must be >= 1")
        if self.lambda_profile not in ("operational", "simulation"):
            raise EngineError(f"unknown lambda_profile {self.lambda_profile!r}")
        if len(self.koc_axis_weights) != 7 or abs(sum(self.koc_axis_weights) - 1.0) > 1e-9:
            raise EngineError("koc_axis_weights must be 7 values summing to 1")
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
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["koc_axis_weights"] = list(self.koc_axis_weights)
        return data

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
    _index: CycleIndex | None = None,
) -> float:
    """Signed importance propagation from the neighborhood.

    a_g * sum_j coeff(j) * tanh(g_scale * max(0, z_j) / d(j)), where z_j is
    the neighbor's k-score z-scored against the neighborhood (population
    standard deviation, floored at sigma_floor). A single neighbor always
    contributes 0 because it defines the neighborhood mean.
    """
    index = cycle_index(snapshot, now) if _index is None else _index
    neighborhood = gravity_neighborhood(ko_id, index, params.gravity_radius)
    if not neighborhood:
        return 0.0
    k = index.k
    ks = [k[j] for j in neighborhood]
    mu = math.fsum(ks) / len(ks)
    floor = params.sigma_floor
    # Popoviciu: a population sigma is at most half the values' span, so a
    # span below twice the floor (less a margin for rounding) leaves the floor.
    if max(ks) - min(ks) < 2.0 * floor * (1.0 - 1e-9):
        sigma = floor
    else:
        sigma = max(statistics.pstdev(ks, mu=mu), floor)
    total = 0.0
    for j in sorted(neighborhood):
        distance, coeff = neighborhood[j]
        z = (k[j] - mu) / sigma
        k_norm = max(0.0, z)
        total += coeff * math.tanh(params.g_scale * k_norm / distance)
    return params.a_g * total


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

# ``_value_`` is the enum member's plain value attribute; ``value`` is a
# Python-level property, too slow for a per-edge sort key.
_SOURCE_THEN_TYPE = attrgetter("source_id", "edge_type._value_")


@dataclass(frozen=True)
class CycleIndex:
    """A cycle's inputs that depend only on its snapshot and time, built once.

    ``inbound`` keeps each target's edges created by ``now`` from
    non-dormant sources only (dormant objects exert no force; this is the
    one dormant filter), in snapshot order. ``sources`` keeps those sources
    sorted by id, each with the coefficients of its edges summed in
    edge-type order. ``outbound_blocks`` counts BLOCKS edges from every
    source, dormant or not. ``now=None`` admits every edge.
    """

    now: int | None
    prev: int | None
    dormant: frozenset[str]
    k: dict[str, float]
    inbound: dict[str, list[Edge]]
    sources: dict[str, tuple[tuple[str, float], ...]]
    outbound_blocks: dict[str, int]


def cycle_index(snapshot: GraphSnapshot, now: int | None) -> CycleIndex:
    """Index the snapshot for a cycle at ``now``, reading each zone once."""
    dormant = frozenset(ko_id for ko_id, zone in snapshot.zones.items()
                        if zone is MemoryZone.DORMANT)
    inbound: dict[str, list[Edge]] = {}
    outbound_blocks: dict[str, int] = {}
    for e in snapshot.edges:
        if now is not None and e.created_at > now:
            continue
        if e.edge_type is EdgeType.BLOCKS:
            outbound_blocks[e.source_id] = outbound_blocks.get(e.source_id, 0) + 1
        if e.source_id not in dormant:
            inbound.setdefault(e.target_id, []).append(e)
    sources: dict[str, tuple[tuple[str, float], ...]] = {}
    for target, edges in inbound.items():
        by_source: dict[str, float] = {}
        for e in sorted(edges, key=_SOURCE_THEN_TYPE):
            by_source[e.source_id] = by_source.get(e.source_id, 0.0) + e.coefficient
        sources[target] = tuple(by_source.items())
    k = {ko_id: ko.scores.k for ko_id, ko in snapshot.kos.items()}
    return CycleIndex(now=now, prev=snapshot.cycle_at, dormant=dormant, k=k,
                      inbound=inbound, sources=sources,
                      outbound_blocks=outbound_blocks)


def gravity_neighborhood(ko_id: str, index: CycleIndex,
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
        nxt: list[tuple[str, float]] = []
        for node, path_coeff in frontier:
            for src, coeff in index.sources.get(node, ()):
                if src in seen:
                    continue
                seen.add(src)
                coeff *= path_coeff
                found[src] = (depth, coeff)
                nxt.append((src, coeff))
        frontier = nxt
    return found


def cycle_inputs(ko: KnowledgeObject, index: CycleIndex,
                 params: EngineParams) -> tuple[float, float]:
    """The usage and evidence forces on ``ko`` in the indexed cycle: its
    retrievals up to ``now``, and its inbound SUPPORTS edges from non-dormant
    sources created since the previous cycle."""
    now, prev = index.now, index.prev
    ages = [(now - t) / SECONDS_PER_DAY for t in ko.retrieved_at if t <= now]
    new_supports = sum(
        1 for e in index.inbound.get(ko.id, ())
        if e.edge_type is EdgeType.SUPPORTS
        and (prev is None or e.created_at > prev))
    return usage_force(ages, params), evidence_force(new_supports, params)


def run_cycle(
    snapshot: GraphSnapshot,
    now: int,
    params: EngineParams,
    frozen_usage: Mapping[str, float] | None = None,
    frozen_evidence: Mapping[str, float] | None = None,
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
    """
    snapshot.validate()
    index = cycle_index(snapshot, now)
    prev, dormant = index.prev, index.dormant
    held = frozen_usage is not None and frozen_evidence is not None

    new_kos: dict[str, KnowledgeObject] = {}
    breakdowns: list[ForceBreakdown] = []
    for ko_id in snapshot.zones:
        ko = snapshot.kos[ko_id]
        if ko_id in dormant and not any((prev is None or t > prev) and t <= now
                                        for t in ko.retrieved_at):
            new_kos[ko_id] = ko
            continue

        if not held:
            u, e_force = cycle_inputs(ko, index, params)
        if frozen_usage is not None:
            u = frozen_usage.get(ko_id, 0.0)
        if frozen_evidence is not None:
            e_force = frozen_evidence.get(ko_id, 0.0)
        g = gravity_force(ko_id, snapshot, params, _index=index)
        c = contradiction_penalty(index.inbound.get(ko_id, []), params)

        fb = kge_step(ko, (u, e_force, g, c), params)
        breakdowns.append(fb)

        if ko.cls is EpistemicClass.QUESTION:
            urgency = question_urgency(
                (now - ko.created_at) / SECONDS_PER_DAY,
                index.outbound_blocks.get(ko_id, 0),
                ko.stakes,
                resolved=ko.resolved)
        else:
            urgency = 0.0
        if fb.k_after == ko.scores.k and urgency == ko.scores.urgency:
            new_kos[ko_id] = ko
        else:
            new_kos[ko_id] = ko.rescored(fb.k_after, urgency)

    return GraphSnapshot(kos=new_kos, edges=snapshot.edges, cycle_at=now), breakdowns

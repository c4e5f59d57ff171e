"""Convergence analysis and trajectory simulation.

Two views of the same coupled map: an analytic sufficient condition for
contraction (degree bound via Gershgorin rows) and empirical iteration to a
residual tolerance. The stated degree bound uses a 0.7 maximum coefficient;
the edge vocabulary's actual maximum is 1.0, so both bound variants are
reported side by side rather than silently choosing one.

Also houses the per-class trajectory simulator and the seeded random-graph
generator used for convergence sweeps.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import IO, Iterable

from .engine import (
    EdgeStructure,
    EngineParams,
    fixed_point,
    gravity_neighborhood,
    kge_update,
    run_cycle,
)
from .model import (
    EDGE_COEFFICIENTS,
    NEGATIVE_EDGE_TYPES,
    SIMULATION_LAMBDAS,
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    Koc,
    ScoreVector,
    class_profile,
    left_sum,
    simulation_profile,
)

#: Maximum |coefficient| the stated degree bound was derived with.
STATED_MAX_ABS_COEFF = 0.7
#: Maximum |coefficient| actually present in the edge vocabulary.
VOCABULARY_MAX_ABS_COEFF = max(abs(c) for c in EDGE_COEFFICIENTS.values())

#: Stated contraction-diagonal interval; the computed interval differs
#: slightly and both are reported.
STATED_DIAGONAL_RANGE = (0.845, 0.850)


@dataclass
class ConvergenceReport:
    """Static degree-bound check plus optional empirical iteration results."""

    max_degree: int
    bound: float
    bound_vocab: float
    sufficient_condition_met: bool
    per_node_diagonal: list[float]
    per_node_offdiagonal_bound: list[float]
    empirical_converged: bool | None = None
    iterations_to_converge: int | None = None
    residual_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class TrajectoryPoint:
    day: int
    k: float
    cls: EpistemicClass


@dataclass(frozen=True)
class T2Report:
    """Divergence diagnostics for the QUESTION-vs-OBSERVATION pair."""

    divergence_day: int
    k_star_q: float
    k_star_o: float
    gap_asymptotic: float
    gap_day28: float


@dataclass(frozen=True)
class DiagonalRangeReport:
    computed_min: float
    computed_max: float
    stated_min: float
    stated_max: float

    @property
    def delta(self) -> tuple[float, float]:
        return (self.computed_min - self.stated_min,
                self.computed_max - self.stated_max)


def gershgorin_check(snapshot: GraphSnapshot, params: EngineParams) -> ConvergenceReport:
    """Evaluate the contraction sufficient condition on a snapshot.

    max_degree counts edges incident to each non-dormant node (dormant
    endpoints excluded, matching their exclusion from gravity). The row
    off-diagonal mass is bounded by eta * a_g * |coeff| * g_scale / d^2
    summed over the gravity neighborhood.
    """
    edges = EdgeStructure(snapshot.edges)
    active = snapshot.kos.keys() - edges.advance(snapshot, None)
    degree: dict[str, int] = {ko_id: 0 for ko_id in active}
    for e in snapshot.edges:
        if e.source_id in active and e.target_id in active:
            degree[e.source_id] += 1
            degree[e.target_id] += 1
    max_degree = max(degree.values(), default=0)

    bound = params.g_scale / STATED_MAX_ABS_COEFF
    bound_vocab = params.g_scale / VOCABULARY_MAX_ABS_COEFF

    diagonals: list[float] = []
    offdiag: list[float] = []
    for ko_id in sorted(active):
        ko = snapshot.kos[ko_id]
        lam = params.lambda_for(ko.cls, resolved=ko.resolved)
        diagonals.append((1.0 - params.eta) - lam * params.delta_t)
        neighborhood = gravity_neighborhood(ko_id, edges, params.gravity_radius)
        offdiag.append(left_sum(
            params.eta * params.a_g * abs(coeff) * params.g_scale / (d * d)
            for d, coeff in neighborhood.values()))

    return ConvergenceReport(
        max_degree=max_degree,
        bound=bound,
        bound_vocab=bound_vocab,
        sufficient_condition_met=max_degree < bound,
        per_node_diagonal=diagonals,
        per_node_offdiagonal_bound=offdiag)


def empirical_convergence(snapshot: GraphSnapshot, params: EngineParams,
                          tol: float = 1e-6, max_iters: int = 500) -> ConvergenceReport:
    """Iterate the cycle under frozen usage/evidence inputs until the max
    per-node k change drops below tol (or max_iters is hit).

    Non-convergence is reported, not raised. The usage and evidence forces
    of the non-dormant objects are taken from one cycle over the first
    window and then held (a dormant object revived in it is held at 0.0),
    so the iterated map is autonomous in the k vector. That window ends one
    cycle period after the snapshot's last cycle or, if it never cycled,
    after the latest time it holds, as a store's first cycle does after its
    last event, so that no edge is still pending in it.
    """
    if not tol > 0:  # NaN included
        raise ValueError(f"tol must be positive, got {tol}")
    report = gershgorin_check(snapshot, params)

    base = snapshot.cycle_at
    if base is None:
        kos = snapshot.kos.values()
        base = max(chain((ko.created_at for ko in kos),
                         chain.from_iterable(ko.retrieved_at for ko in kos),
                         (edge.created_at for edge in snapshot.edges)), default=0)
    now = base + params.cycle_period_s
    snapshot.validate()
    edges = EdgeStructure(snapshot.edges)  # one structure for every iteration
    _, breakdowns = run_cycle(snapshot, now, params, edges=edges)
    held = [fb for fb in breakdowns if not snapshot.kos[fb.ko_id].dormant]
    if not held:
        report.empirical_converged = True
        report.iterations_to_converge = 0
        return report

    frozen_usage = {fb.ko_id: fb.usage for fb in held}
    frozen_evidence = {fb.ko_id: fb.evidence for fb in held}

    current = snapshot
    for iteration in range(1, max_iters + 1):
        nxt, _ = run_cycle(current, now, params,
                           frozen_usage=frozen_usage,
                           frozen_evidence=frozen_evidence, edges=edges)
        residual = max(abs(nxt.kos[i].scores.k - current.kos[i].scores.k)
                       for i in current.kos)
        report.residual_history.append(residual)
        current = nxt
        now += params.cycle_period_s
        if residual < tol:
            report.empirical_converged = True
            report.iterations_to_converge = iteration
            return report
    report.empirical_converged = False
    report.iterations_to_converge = None
    return report


def simulate_trajectory(cls: EpistemicClass, days: int, k0: float = 0.5,
                        params: EngineParams | None = None) -> list[TrajectoryPoint]:
    """Per-class trajectory under stationary inputs, one point per day.

    Forces are zero and the seed is held at k0, so the curve isolates the
    decay-rate difference between classes (simulation rates). With sub-day
    steps the k value is sampled at each whole day.
    """
    if days < 0:
        raise ValueError(f"days must be >= 0, got {days}")
    if params is None:
        params = EngineParams.simulation()
    lam = SIMULATION_LAMBDAS[cls]
    points = [TrajectoryPoint(0, k0, cls)]
    k = k0
    elapsed = 0.0
    next_day = 1
    while next_day <= days:
        k = kge_update(k, k0, lam, 0.0, 0.0, 0.0, 0.0, params)
        elapsed += params.delta_t
        if elapsed + 1e-9 >= next_day:
            points.append(TrajectoryPoint(next_day, k, cls))
            next_day += 1
    return points


def verify_t2(params: EngineParams | None = None) -> T2Report:
    """Reproduce the QUESTION/OBSERVATION divergence diagnostics.

    Uses the daily preset (eta 0.1, dt 1) with both classes seeded at 0.5 so
    the only difference between the trajectories is the sign of the decay
    rate. Reports the analytic fixed points, the asymptotic and day-28 gaps,
    and the first day the trajectories separate.
    """
    if params is None:
        params = EngineParams.simulation()
    k0 = 0.5
    profile_q = replace(simulation_profile(EpistemicClass.QUESTION), seed_k=k0)
    profile_o = replace(simulation_profile(EpistemicClass.OBSERVATION), seed_k=k0)
    zero = (0.0, 0.0, 0.0, 0.0)
    k_star_q = fixed_point(profile_q, zero, params)
    k_star_o = fixed_point(profile_o, zero, params)

    traj_q = simulate_trajectory(EpistemicClass.QUESTION, 28, k0, params)
    traj_o = simulate_trajectory(EpistemicClass.OBSERVATION, 28, k0, params)
    divergence_day = next(
        (p.day for p, q in zip(traj_q, traj_o) if p.k != q.k), -1)
    return T2Report(
        divergence_day=divergence_day,
        k_star_q=k_star_q,
        k_star_o=k_star_o,
        gap_asymptotic=k_star_q - k_star_o,
        gap_day28=traj_q[28].k - traj_o[28].k)


def diagonal_range(eta: float = 0.15, delta_t: float = 0.25) -> DiagonalRangeReport:
    """Contraction diagonals (1 - eta) - lambda * dt across the nine
    simulation decay rates, compared against the stated interval."""
    diagonals = [(1.0 - eta) - lam * delta_t for lam in SIMULATION_LAMBDAS.values()]
    return DiagonalRangeReport(
        computed_min=min(diagonals), computed_max=max(diagonals),
        stated_min=STATED_DIAGONAL_RANGE[0], stated_max=STATED_DIAGONAL_RANGE[1])


# ---------------------------------------------------------------------------
# Random graphs and sweeps
# ---------------------------------------------------------------------------

_NEGATIVE_TYPES = tuple(t for t in EdgeType if t in NEGATIVE_EDGE_TYPES)
_POSITIVE_TYPES = tuple(t for t in EdgeType if t not in NEGATIVE_EDGE_TYPES)


def random_graph(n_nodes: int, seed: int, *,
                 hub_degree: int | None = None,
                 degree_cap: int | None = None,
                 negative_fraction: float = 0.25,
                 edge_factor: float = 1.5,
                 created_at: int = 0) -> GraphSnapshot:
    """Seeded random snapshot for convergence sweeps.

    Classes are assigned uniformly and each object starts at its class seed.
    ``hub_degree`` forces node 0 to have exactly that many incident edges
    (the graph's maximum); ``degree_cap`` limits every node. Edge types are
    drawn with ``negative_fraction`` probability of a negative type.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if hub_degree is not None and hub_degree > n_nodes - 1:
        raise ValueError("hub_degree larger than available partners")
    rng = random.Random(seed)
    classes = list(EpistemicClass)

    kos: dict[str, KnowledgeObject] = {}
    ids = [f"n{i:03d}" for i in range(n_nodes)]
    for i, ko_id in enumerate(ids):
        cls = rng.choice(classes)
        kos[ko_id] = KnowledgeObject(
            id=ko_id,
            koc=Koc(entity=f"e{i}", domain=f"d{i % 5}", cls=cls, epoch="t0",
                    depth="l1", author="gen", variant="v1"),
            cls=cls,
            content=f"synthetic node {i}",
            scores=ScoreVector(k=class_profile(cls).seed_k),
            created_at=created_at)

    degree = {ko_id: 0 for ko_id in ids}
    existing: set[tuple[str, str, EdgeType]] = set()
    edges: list[Edge] = []

    def pick_type() -> EdgeType:
        if rng.random() < negative_fraction:
            return rng.choice(_NEGATIVE_TYPES)
        return rng.choice(_POSITIVE_TYPES)

    def add(a: str, b: str) -> bool:
        source, target = (a, b) if rng.random() < 0.5 else (b, a)
        edge_type = pick_type()
        if (source, target, edge_type) in existing:
            return False
        existing.add((source, target, edge_type))
        edges.append(Edge(source, target, edge_type, created_at))
        degree[a] += 1
        degree[b] += 1
        return True

    hub_cap = None
    if hub_degree is not None:
        hub = ids[0]
        partners = rng.sample(ids[1:], hub_degree)
        for partner in partners:
            add(hub, partner)
        hub_cap = hub_degree - 1  # keep the hub the unique maximum

    pool = ids[1:] if hub_degree is not None else ids
    target_extra = int(edge_factor * n_nodes) if len(pool) >= 2 else 0
    attempts = 0
    while target_extra > 0 and attempts < 50 * n_nodes:
        attempts += 1
        a, b = rng.sample(pool, 2)
        cap = degree_cap if degree_cap is not None else hub_cap
        if cap is not None and (degree[a] >= cap or degree[b] >= cap):
            continue
        if add(a, b):
            target_extra -= 1

    return GraphSnapshot(kos=kos, edges=tuple(edges), cycle_at=None)


@dataclass(frozen=True)
class SweepEntry:
    graph_id: str
    seed: int
    max_degree: int
    converged: bool
    iterations: int | None
    final_residual: float


@dataclass(frozen=True)
class SweepResult:
    entries: tuple[SweepEntry, ...]
    findings: tuple[str, ...]

    @property
    def all_converged(self) -> bool:
        return all(e.converged for e in self.entries)


def _sweep(graph_prefix: str, n_graphs: int, base_seed: int,
           params: EngineParams | None, tol: float, max_iters: int,
           **graph_kwargs) -> SweepResult:
    """Iterate ``n_graphs`` seeded ``random_graph(**graph_kwargs)`` graphs
    to the residual tolerance, recording each failure as a finding."""
    if params is None:
        params = EngineParams.production()
    entries: list[SweepEntry] = []
    findings: list[str] = []
    for i in range(n_graphs):
        seed = base_seed + i
        snapshot = random_graph(seed=seed, **graph_kwargs)
        report = empirical_convergence(snapshot, params, tol=tol, max_iters=max_iters)
        final = report.residual_history[-1] if report.residual_history else 0.0
        entry = SweepEntry(graph_id=f"{graph_prefix}{i:03d}", seed=seed,
                           max_degree=report.max_degree,
                           converged=bool(report.empirical_converged),
                           iterations=report.iterations_to_converge,
                           final_residual=final)
        entries.append(entry)
        if not entry.converged:
            findings.append(
                f"{entry.graph_id} (seed {seed}, max degree {entry.max_degree}) "
                f"did not reach residual {tol} in {max_iters} iterations "
                f"(final residual {final:.3e})")
    return SweepResult(entries=tuple(entries), findings=tuple(findings))


def conservatism_sweep(n_graphs: int = 20, base_seed: int = 1000,
                       params: EngineParams | None = None,
                       n_nodes: int = 56, hub_degree: int = 43,
                       negative_fraction: float = 0.3,
                       tol: float = 1e-6, max_iters: int = 500) -> SweepResult:
    """Convergence sweep far beyond the sufficient condition.

    Generates seeded graphs whose maximum degree violates the bound (default
    43) and iterates each to the residual tolerance. Failures are recorded as
    findings, never suppressed.
    """
    return _sweep("g", n_graphs, base_seed, params, tol, max_iters,
                  n_nodes=n_nodes, hub_degree=hub_degree,
                  negative_fraction=negative_fraction)


def sufficient_condition_sweep(n_graphs: int = 100, base_seed: int = 5000,
                               params: EngineParams | None = None,
                               n_nodes: int = 14, degree_cap: int = 7,
                               negative_fraction: float = 0.3,
                               tol: float = 1e-6, max_iters: int = 500) -> SweepResult:
    """Soundness sweep: graphs satisfying the degree bound must all converge."""
    if params is None:
        params = EngineParams.production()
    result = _sweep("s", n_graphs, base_seed, params, tol, max_iters,
                    n_nodes=n_nodes, degree_cap=degree_cap,
                    negative_fraction=negative_fraction)
    bound = params.g_scale / STATED_MAX_ABS_COEFF
    for entry in result.entries:
        if entry.max_degree >= bound:
            raise AssertionError(
                f"generator produced max degree {entry.max_degree} >= bound {bound}")
    return result


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def write_trajectory_csv(points: Iterable[TrajectoryPoint], out: IO[str]) -> None:
    """Columns: day, class, k."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["day", "class", "k"])
    for p in points:
        writer.writerow([p.day, p.cls.value, f"{p.k:.9f}"])

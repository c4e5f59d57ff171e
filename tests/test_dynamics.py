from __future__ import annotations

import hashlib
import io
import random

import pytest

import kgravity.dynamics as dynamics
from kgravity import (
    CorpusStore,
    Edge,
    EdgeType,
    EngineParams,
    EpistemicClass,
    conservatism_sweep,
    diagonal_range,
    empirical_convergence,
    gershgorin_check,
    random_graph,
    simulate_trajectory,
    sufficient_condition_sweep,
    verify_t2,
)
from kgravity.dynamics import write_trajectory_csv
from kgravity.engine import SECONDS_PER_DAY, evidence_force, usage_force
from tests.conftest import make_ko, make_koc, snapshot_of

PROD = EngineParams.production()
SIM = EngineParams.simulation()


def chain3():
    kos = [make_ko(i, EpistemicClass.EVIDENCE) for i in ("a", "b", "c")]
    edges = [Edge("a", "b", EdgeType.SUPPORTS, 0),
             Edge("b", "c", EdgeType.SUPPORTS, 0)]
    return snapshot_of(kos, edges)


def star8():
    hub = make_ko("hub", EpistemicClass.DECISION)
    leaves = [make_ko(f"leaf{i}", EpistemicClass.OBSERVATION) for i in range(8)]
    edges = [Edge(leaf.id, "hub", EdgeType.SUPPORTS, 0) for leaf in leaves]
    return snapshot_of([hub] + leaves, edges)


# ---------------------------------------------------------------------------
# Degree-bound checker
# ---------------------------------------------------------------------------

def test_bound_variants():
    report = gershgorin_check(chain3(), PROD)
    assert report.bound == pytest.approx(5.0 / 0.7)
    assert report.bound == pytest.approx(7.14, abs=0.01)
    assert report.bound_vocab == pytest.approx(5.0)


def test_chain3_meets_condition():
    report = gershgorin_check(chain3(), PROD)
    assert report.max_degree == 2
    assert report.sufficient_condition_met


def test_star8_fails_condition():
    report = gershgorin_check(star8(), PROD)
    assert report.max_degree == 8
    assert not report.sufficient_condition_met


def test_empty_graph_check():
    report = gershgorin_check(snapshot_of([]), PROD)
    assert report.max_degree == 0
    assert report.sufficient_condition_met
    assert report.per_node_diagonal == []


def test_per_node_diagonals():
    report = gershgorin_check(chain3(), PROD)
    lam = PROD.lambda_for(EpistemicClass.EVIDENCE)
    assert report.per_node_diagonal == [pytest.approx((1 - 0.15) - lam * 0.25)] * 3


def test_dormant_nodes_excluded_from_degree():
    hub = make_ko("hub", EpistemicClass.DECISION)
    sleeper = make_ko("zz", EpistemicClass.HYPOTHESIS, k=0.01)
    awake = make_ko("aw", EpistemicClass.EVIDENCE)
    edges = [Edge("zz", "hub", EdgeType.SUPPORTS, 0),
             Edge("aw", "hub", EdgeType.SUPPORTS, 0)]
    report = gershgorin_check(snapshot_of([hub, sleeper, awake], edges), PROD)
    assert report.max_degree == 1


# ---------------------------------------------------------------------------
# Empirical convergence
# ---------------------------------------------------------------------------

def test_empty_graph_converges_at_zero():
    report = empirical_convergence(snapshot_of([]), PROD)
    assert report.empirical_converged is True
    assert report.iterations_to_converge == 0


def test_small_graph_converges():
    report = empirical_convergence(chain3(), PROD, tol=1e-6)
    assert report.empirical_converged is True
    assert report.residual_history[-1] < 1e-6
    assert report.iterations_to_converge == len(report.residual_history)


def test_star8_converges_despite_failing_bound():
    report = empirical_convergence(star8(), PROD, tol=1e-6)
    assert not report.sufficient_condition_met
    assert report.empirical_converged is True


@pytest.mark.parametrize("seed", [3, 4])
def test_a_never_cycled_graph_converges_alike_at_any_date(seed):
    # The first window ends one period after the latest time the snapshot
    # holds, so no edge dated later than 1970 is left pending in the map.
    reports = [empirical_convergence(random_graph(
        60, seed=seed, hub_degree=43, negative_fraction=0.3, created_at=at), PROD)
        for at in (0, 1_700_000_000)]
    assert all(report.empirical_converged for report in reports)
    first, shifted = (list(map(float.hex, r.residual_history)) for r in reports)
    assert first == shifted


def test_rejects_non_positive_tolerance():
    with pytest.raises(ValueError):
        empirical_convergence(chain3(), PROD, tol=0.0)


def held_inputs_state():
    """A store state whose next window holds retrievals, SUPPORTS edges
    dated after the last cycle, and a retrieval of a dormant object."""
    store = CorpusStore()
    rng = random.Random(7)
    classes = list(EpistemicClass)
    clock = 1_700_000_000
    for n in range(30):
        cls = classes[n % len(classes)]
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"e{n % 5}"),
                        content=f"object {n}", ko_id=f"o{n:02d}", created_at=clock)
    ids = sorted(store.snapshot().kos)
    for source in ids[10:18]:  # suppress o01, a CONSTRAINT, into dormancy
        store.add_edge(source, "o01", EdgeType.CONTRADICTS, at=clock)
    for source, target in zip(ids[20:], ids[21:]):
        store.add_edge(source, target, EdgeType.SUPPORTS, at=clock)
    period = PROD.cycle_period_s
    for _ in range(12):
        clock += period
        for ko_id in rng.sample(ids[18:], 3):
            store.record_retrieval(ko_id, at=clock - rng.randrange(period))
        store.apply_cycle(now=clock)
    assert store.snapshot().kos["o01"].dormant
    # inside the next window (clock, clock + period]
    store.record_retrieval("o01", at=clock + period // 3)
    for source, target in rng.sample(list(zip(ids[18:], ids[2:14])), 6):
        store.add_edge(source, target, EdgeType.SUPPORTS, at=clock + period // 2)
    for ko_id in rng.sample(ids[18:], 4):
        store.record_retrieval(ko_id, at=clock + rng.randrange(1, period))
    return store.snapshot()


def test_held_inputs_are_the_public_usage_and_evidence_forces(monkeypatch):
    snapshot = held_inputs_state()
    calls = []
    real_run_cycle = dynamics.run_cycle

    def recording(*args, **kwargs):
        result = real_run_cycle(*args, **kwargs)
        calls.append((kwargs.get("frozen_usage"), kwargs.get("frozen_evidence"), result[1]))
        return result

    monkeypatch.setattr(dynamics, "run_cycle", recording)
    report = empirical_convergence(snapshot, PROD, max_iters=3)
    assert len(report.residual_history) == 3
    unheld = calls[0][2]
    usage, evidence = calls[1][0], calls[1][1]
    assert all(call[:2] == (usage, evidence) for call in calls[1:])

    prev = snapshot.cycle_at
    now = prev + PROD.cycle_period_s
    active = sorted(i for i, ko in snapshot.kos.items() if not ko.dormant)
    assert sorted(usage) == sorted(evidence) == active
    assert "o01" in {fb.ko_id for fb in unheld}  # revived in the un-held cycle
    assert "o01" not in usage and "o01" not in evidence  # so held at 0.0
    for ko_id in active:
        ages = [(now - t) / SECONDS_PER_DAY
                for t in snapshot.kos[ko_id].retrieved_at if t <= now]
        new_supports = sum(
            1 for e in snapshot.edges
            if e.target_id == ko_id and e.edge_type is EdgeType.SUPPORTS
            and prev < e.created_at <= now and not snapshot.kos[e.source_id].dormant)
        assert float.hex(usage[ko_id]) == float.hex(usage_force(ages, PROD)), ko_id
        assert float.hex(evidence[ko_id]) == \
            float.hex(evidence_force(new_supports, PROD)), ko_id
    assert sum(u > 0 for u in usage.values()) >= 4
    assert sum(e > 0 for e in evidence.values()) >= 4


#: SHA-256 of the residual histories of ``conservatism_sweep(n_graphs=3)``,
#: each value as ``float.hex``, as computed before the held inputs came from
#: the cycle's own breakdowns.
CONSERVATISM_RESIDUALS_SHA256 = (
    "9f3878b05b5d45ae337f8e05af8c88d5fe697734c632d421793727ad5b04ab36")


def test_conservatism_sweep_keeps_its_residual_histories(monkeypatch):
    histories = []
    real = dynamics.empirical_convergence

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        histories.append(report.residual_history)
        return report

    monkeypatch.setattr(dynamics, "empirical_convergence", recording)
    conservatism_sweep(n_graphs=3)
    text = "\n".join(" ".join(map(float.hex, history)) for history in histories)
    assert hashlib.sha256(text.encode()).hexdigest() == CONSERVATISM_RESIDUALS_SHA256


# ---------------------------------------------------------------------------
# Random graphs and sweeps
# ---------------------------------------------------------------------------

def test_random_graph_deterministic():
    assert random_graph(30, seed=7, hub_degree=12) == random_graph(30, seed=7, hub_degree=12)
    assert random_graph(30, seed=7) != random_graph(30, seed=8)


def test_random_graph_hub_degree():
    snapshot = random_graph(56, seed=3, hub_degree=43)
    degree: dict[str, int] = {}
    for e in snapshot.edges:
        degree[e.source_id] = degree.get(e.source_id, 0) + 1
        degree[e.target_id] = degree.get(e.target_id, 0) + 1
    assert degree["n000"] == 43
    assert max(degree.values()) == 43


def test_random_graph_mixed_signs():
    snapshot = random_graph(56, seed=3, hub_degree=43, negative_fraction=0.3)
    signs = {e.coefficient > 0 for e in snapshot.edges}
    assert signs == {True, False}


def test_conservatism_sweep_smoke():
    result = conservatism_sweep(n_graphs=3, base_seed=100)
    assert len(result.entries) == 3
    assert all(e.max_degree == 43 for e in result.entries)
    assert result.all_converged, result.findings


def test_sufficient_condition_sweep_is_sound():
    result = sufficient_condition_sweep(n_graphs=100)
    assert len(result.entries) == 100
    assert all(e.max_degree < 5.0 / 0.7 for e in result.entries)
    assert result.all_converged, result.findings


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_trajectory_day_zero():
    points = simulate_trajectory(EpistemicClass.PLAN, 0)
    assert len(points) == 1
    assert points[0].day == 0 and points[0].k == 0.5


def test_trajectory_question_day_7():
    points = simulate_trajectory(EpistemicClass.QUESTION, 7)
    assert points[7].k == pytest.approx(0.527, abs=1e-3)


def test_trajectory_observation_day_28():
    points = simulate_trajectory(EpistemicClass.OBSERVATION, 28)
    assert points[28].k == pytest.approx(0.437, abs=1e-3)


def test_trajectory_subday_steps_sample_whole_days():
    params = EngineParams.simulation(delta_t=0.25, cycle_period_s=21600)
    points = simulate_trajectory(EpistemicClass.QUESTION, 5, params=params)
    assert [p.day for p in points] == [0, 1, 2, 3, 4, 5]


def test_verify_t2_report():
    report = verify_t2()
    assert report.divergence_day == 1
    assert report.k_star_q == pytest.approx(0.556, abs=1e-3)
    assert report.k_star_o == pytest.approx(0.435, abs=1e-3)
    assert report.gap_asymptotic == pytest.approx(0.121, abs=1e-3)
    assert report.gap_day28 == pytest.approx(0.115, abs=1e-3)


def test_diagonal_range_report():
    report = diagonal_range()
    assert report.computed_min == pytest.approx(0.84625)
    assert report.computed_max == pytest.approx(0.8525)
    # the stated interval differs slightly; the report carries the delta
    assert report.stated_min == 0.845 and report.stated_max == 0.850
    d_min, d_max = report.delta
    assert d_min == pytest.approx(0.00125, abs=1e-9)
    assert d_max == pytest.approx(0.0025, abs=1e-9)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def test_trajectory_csv():
    points = simulate_trajectory(EpistemicClass.QUESTION, 3)
    out = io.StringIO()
    write_trajectory_csv(points, out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "day,class,k"
    assert len(lines) == 5
    day, cls, k = lines[1].split(",")
    assert (day, cls) == ("0", "QUESTION") and float(k) == 0.5


def test_random_graph_input_validation():
    with pytest.raises(ValueError):
        random_graph(0, seed=1)
    with pytest.raises(ValueError):
        random_graph(5, seed=1, hub_degree=5)


def test_simulate_rejects_negative_days():
    with pytest.raises(ValueError):
        simulate_trajectory(EpistemicClass.PLAN, -1)

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgravity import (
    CLASS_PROFILES,
    Edge,
    EdgeType,
    EngineError,
    EngineParams,
    EpistemicClass,
    ModelError,
    class_profile,
    contradiction_penalty,
    evidence_force,
    fixed_point,
    gravity_force,
    kge_step,
    kge_update,
    question_urgency,
    run_cycle,
    simulation_profile,
    usage_force,
)
from tests.conftest import SECONDS_PER_DAY, make_ko, snapshot_of

PROD = EngineParams.production()
SIM = EngineParams.simulation()


def converge(snapshot, params, cycles=300):
    now = 0
    for _ in range(cycles):
        now += params.cycle_period_s
        snapshot, _ = run_cycle(snapshot, now, params)
    return snapshot


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_presets():
    assert PROD.eta == 0.15 and PROD.delta_t == 0.25
    assert PROD.lambda_profile == "operational"
    assert SIM.eta == 0.1 and SIM.delta_t == 1.0
    assert SIM.lambda_profile == "simulation"
    assert SIM.cycle_period_s == SECONDS_PER_DAY


def test_contradiction_scale_is_calibrated():
    # one edge must suppress a reference EVIDENCE object's converged k by 22%
    assert PROD.a_c == pytest.approx(0.22 * 0.15 * 0.80)
    assert SIM.a_c == pytest.approx(0.22 * 0.1 * 0.80)


@pytest.mark.parametrize("kwargs", [
    {"eta": 0.0}, {"eta": 1.0}, {"delta_t": 0.0}, {"g_scale": -1.0},
    {"a_u": -0.1}, {"gravity_radius": 0}, {"lambda_profile": "bogus"},
    {"koc_axis_weights": (0.5, 0.5)}, {"gravity_radius": 1.5},
    {"gravity_radius": True}, {"cycle_period_s": 21600.0},
])
def test_param_validation(kwargs):
    with pytest.raises(EngineError):
        EngineParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["eta", "delta_t", "g_scale", "sigma_floor",
                                  "sigma_recency", "a_u", "a_e", "a_g", "a_c"])
def test_param_validation_rejects_non_finite_values(name, value):
    with pytest.raises(EngineError, match=name):
        dataclasses.replace(EngineParams.production(), **{name: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_param_validation_rejects_non_finite_axis_weights(bad):
    with pytest.raises(EngineError, match="koc_axis_weights"):
        dataclasses.replace(EngineParams.production(),
                            koc_axis_weights=(bad,) + (1 / 6,) * 6)


def test_uniform_axis_weights_are_accepted():
    # added left to right, seven sevenths make 1 - 2.2e-16; math.fsum gives 1
    weights = (1 / 7,) * 7
    assert EngineParams.production(koc_axis_weights=weights).koc_axis_weights == weights


def test_resolved_question_decays_like_observation():
    assert SIM.lambda_for(EpistemicClass.QUESTION) == -0.010
    assert SIM.lambda_for(EpistemicClass.QUESTION, resolved=True) == 0.015
    assert PROD.lambda_for(EpistemicClass.QUESTION, resolved=True) == \
        CLASS_PROFILES[EpistemicClass.OBSERVATION].lambda_per_day


def test_params_round_trip():
    p = EngineParams.simulation(a_g=0.07)
    assert EngineParams.from_dict(p.to_dict()) == p


# ---------------------------------------------------------------------------
# Forces
# ---------------------------------------------------------------------------

def test_usage_force_empty():
    assert usage_force([], PROD) == 0.0


def test_usage_force_fresh_retrieval():
    assert usage_force([0.0], PROD) == pytest.approx(0.2)


def test_usage_force_kernel_sum():
    sigma = PROD.sigma_recency
    assert usage_force([sigma, sigma], PROD) == pytest.approx(0.2 * 2 * math.exp(-1))


def test_usage_force_rejects_negative_age():
    with pytest.raises(EngineError):
        usage_force([-1.0], PROD)


def test_evidence_force():
    assert evidence_force(0, PROD) == 0.0
    assert evidence_force(3, PROD) == pytest.approx(0.3)
    assert evidence_force(1, EngineParams(a_e=0.0)) == 0.0


def test_contradiction_penalty_counts_negative_edges():
    e_con = Edge("a", "b", EdgeType.CONTRADICTS, 0)
    e_blk = Edge("c", "b", EdgeType.BLOCKS, 0)
    e_sup = Edge("d", "b", EdgeType.SUPPORTS, 0)
    assert contradiction_penalty([], PROD) == 0.0
    assert contradiction_penalty([e_con, e_sup], PROD) == pytest.approx(PROD.a_c)
    assert contradiction_penalty([e_con, e_blk], PROD) == pytest.approx(2 * PROD.a_c)


def test_gravity_no_neighbors():
    ko = make_ko("a", EpistemicClass.EVIDENCE)
    assert gravity_force("a", snapshot_of([ko]), PROD) == 0.0


def test_gravity_single_neighbor_is_zero():
    # one neighbor defines the neighborhood mean, so its z-score is zero
    target = make_ko("t", EpistemicClass.EVIDENCE)
    source = make_ko("s", EpistemicClass.DECISION, k=0.95)
    snapshot = snapshot_of([target, source],
                           [Edge("s", "t", EdgeType.SUPPORTS, 0)])
    assert gravity_force("t", snapshot, PROD) == 0.0


def test_gravity_two_neighbor_value():
    target = make_ko("t", EpistemicClass.EVIDENCE)
    high = make_ko("h", EpistemicClass.EVIDENCE, k=0.9)
    low = make_ko("l", EpistemicClass.EVIDENCE, k=0.1)
    snapshot = snapshot_of(
        [target, high, low],
        [Edge("h", "t", EdgeType.SUPPORTS, 0), Edge("l", "t", EdgeType.SUPPORTS, 0)])
    # sigma = 0.4 floors to 0.5, z_high = 0.8, tanh(5 * 0.8) for the high side
    expected = 0.05 * (math.tanh(4.0) + 0.0)
    assert gravity_force("t", snapshot, PROD) == pytest.approx(expected, abs=1e-9)
    assert gravity_force("t", snapshot, PROD) == pytest.approx(0.04997, abs=1e-4)


def test_gravity_excludes_dormant_neighbors():
    target = make_ko("t", EpistemicClass.EVIDENCE)
    active = make_ko("a", EpistemicClass.DECISION, k=0.9)
    dormant = make_ko("d", EpistemicClass.HYPOTHESIS, k=0.01)
    snapshot = snapshot_of(
        [target, active, dormant],
        [Edge("a", "t", EdgeType.SUPPORTS, 0), Edge("d", "t", EdgeType.SUPPORTS, 0)])
    # dormant source drops out, leaving a single-neighbor (zero) field
    assert gravity_force("t", snapshot, PROD) == 0.0


def test_question_urgency():
    assert question_urgency(0, 0, 0.0) == 0.0
    assert question_urgency(30, 0, 0.0) == pytest.approx(0.3)
    assert question_urgency(90, 2, 1.0) == 1.0  # 0.9 + 0.4 + 0.5 clamps
    assert question_urgency(1000, 5, 1.0, resolved=True) == 0.0


# ---------------------------------------------------------------------------
# The update and its fixed point
# ---------------------------------------------------------------------------

def test_update_day_one_question():
    assert kge_update(0.5, 0.5, -0.010, 0, 0, 0, 0, SIM) == pytest.approx(0.505)


def test_update_day_one_observation():
    assert kge_update(0.5, 0.5, 0.015, 0, 0, 0, 0, SIM) == pytest.approx(0.4925)


def test_update_identity_at_stationary_seed():
    # with zero decay and forces, seed == k is a fixed point for any eta
    for eta in (0.05, 0.15, 0.9):
        params = EngineParams(eta=eta)
        assert kge_update(0.37, 0.37, 0.0, 0, 0, 0, 0, params) == pytest.approx(0.37)


def test_update_rejects_non_finite():
    with pytest.raises(EngineError):
        kge_update(0.5, float("nan"), 0.0, 0, 0, 0, 0, SIM)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["k", "seed", "u", "e", "g", "c"])
def test_update_names_the_non_finite_input(name, bad):
    inputs = dict(k=0.5, seed=0.5, lam=0.0, u=0.0, e=0.0, g=0.0, c=0.0)
    inputs[name] = bad
    with pytest.raises(EngineError, match=f"^non-finite force input {name}="):
        kge_update(**inputs, params=SIM)


def test_update_names_the_first_non_finite_input():
    with pytest.raises(EngineError, match="input u=inf"):
        kge_update(0.5, 0.5, 0.0, math.inf, math.nan, 0.0, 0.0, SIM)


@pytest.mark.parametrize("sign, clamped", [(1.0, 1.0), (-1.0, 0.0)])
def test_update_clamps_a_raw_value_that_overflowed_from_finite_inputs(sign, clamped):
    big = sign * 1e308
    assert kge_update(big, big, 0.0, big, big, big, 0.0, SIM) == clamped


def test_kge_step_uses_class_profile():
    ko = make_ko("q", EpistemicClass.QUESTION, k=0.5)
    fb = kge_step(ko, (0.0, 0.0, 0.0, 0.0), SIM)
    # seed comes from the class (0.30), decay from the simulation profile
    assert fb.seed == 0.30
    assert fb.decay_term == pytest.approx(-(-0.010) * 1.0 * 0.5)
    assert fb.k_after == pytest.approx(0.9 * 0.5 + 0.1 * 0.30 + 0.010 * 0.5)


def test_force_breakdown_recomputable():
    ko = make_ko("e", EpistemicClass.EVIDENCE, k=0.62)
    fb = kge_step(ko, (0.1, 0.2, -0.03, 0.01), PROD)
    recomputed = ((1 - PROD.eta) * fb.k_before
                  + PROD.eta * (fb.seed + fb.usage + fb.evidence + fb.gravity)
                  + fb.decay_term - fb.contradiction)
    assert fb.k_after == pytest.approx(min(1.0, max(0.0, recomputed)), abs=1e-9)


def test_fixed_point_t2_values():
    params = SIM
    q = dataclasses.replace(simulation_profile(EpistemicClass.QUESTION), seed_k=0.5)
    o = dataclasses.replace(simulation_profile(EpistemicClass.OBSERVATION), seed_k=0.5)
    zero = (0.0, 0.0, 0.0, 0.0)
    assert fixed_point(q, zero, params) == pytest.approx(0.5556, abs=1e-4)
    assert fixed_point(o, zero, params) == pytest.approx(0.4348, abs=1e-4)


def test_fixed_point_zero_decay_equals_seed():
    profile = class_profile(EpistemicClass.DECISION)  # operational rate 0
    assert fixed_point(profile, (0, 0, 0, 0), PROD) == profile.seed_k


def test_fixed_point_rejects_divergent_configuration():
    bad = dataclasses.replace(class_profile(EpistemicClass.QUESTION),
                              lambda_per_day=-0.2)
    with pytest.raises(EngineError):
        fixed_point(bad, (0, 0, 0, 0), SIM)  # eta + lambda*dt = -0.1


def _class_id(cls):
    """Name a class case `EpistemicClass.MEMBER`: pytest would name a
    str-valued member by its bare value."""
    return f"EpistemicClass.{cls.name}"


@pytest.mark.parametrize("cls", list(EpistemicClass), ids=_class_id)
@pytest.mark.parametrize("profile_kind", ["operational", "simulation"])
def test_iteration_converges_to_fixed_point(cls, profile_kind):
    params = PROD if profile_kind == "operational" else SIM
    profile = class_profile(cls) if profile_kind == "operational" \
        else simulation_profile(cls)
    rho = abs(1 - params.eta - profile.lambda_per_day * params.delta_t)
    assert rho < 1
    target = fixed_point(profile, (0, 0, 0, 0), params)
    k = 0.5
    for _ in range(200):
        k = kge_update(k, profile.seed_k, profile.lambda_per_day, 0, 0, 0, 0, params)
    assert abs(k - target) < 1e-6


forces = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(st.floats(min_value=0.0, max_value=1.0), forces, forces, forces, forces,
       st.floats(min_value=0.0, max_value=5.0))
def test_update_always_clamps(k, u, e, g, c, seed):
    lam = -0.02
    result = kge_update(k, seed, lam, u, e, g, c, SIM)
    assert 0.0 <= result <= 1.0


# ---------------------------------------------------------------------------
# Whole-graph cycles
# ---------------------------------------------------------------------------

def test_run_cycle_empty_graph():
    snapshot, breakdowns = run_cycle(snapshot_of([]), 1000, PROD)
    assert snapshot.kos == {} and breakdowns == []
    assert snapshot.cycle_at == 1000


def test_run_cycle_rejects_dangling_edges():
    ko = make_ko("a", EpistemicClass.PLAN)
    bad = snapshot_of([ko], [Edge("a", "ghost", EdgeType.SUPPORTS, 0)])
    with pytest.raises(ModelError):
        run_cycle(bad, 1000, PROD)


def test_run_cycle_deterministic():
    kos = [make_ko("a", EpistemicClass.EVIDENCE, k=0.8),
           make_ko("b", EpistemicClass.QUESTION, k=0.3, stakes=0.5),
           make_ko("c", EpistemicClass.DECISION, k=1.0)]
    edges = [Edge("c", "a", EdgeType.SUPPORTS, 500),
             Edge("a", "b", EdgeType.BLOCKS, 600)]
    snapshot = snapshot_of(kos, edges)
    first = run_cycle(snapshot, 100000, PROD)
    second = run_cycle(snapshot, 100000, PROD)
    assert first == second


def test_rising_floor_question_trajectory_monotone():
    # seed held at the 0.5 starting score, isolating the negative decay rate
    k = 0.5
    ks = [k]
    for _ in range(100):
        k = kge_update(k, 0.5, -0.010, 0, 0, 0, 0, SIM)
        ks.append(k)
    assert all(b >= a for a, b in zip(ks, ks[1:]))
    assert ks[-1] == pytest.approx(0.5556, abs=1e-3)
    assert ks[-1] <= 0.5556


def test_divergence_at_first_update():
    k_q = kge_update(0.5, 0.5, -0.010, 0, 0, 0, 0, SIM)
    k_o = kge_update(0.5, 0.5, 0.015, 0, 0, 0, 0, SIM)
    assert k_q > 0.5 > k_o


@pytest.mark.parametrize("cls", list(EpistemicClass), ids=_class_id)
def test_contradiction_suppresses_converged_k(cls):
    baseline = converge(snapshot_of([make_ko("b", cls)]), PROD)
    contradicted = converge(snapshot_of(
        [make_ko("b", cls), make_ko("x", EpistemicClass.OBSERVATION)],
        [Edge("x", "b", EdgeType.CONTRADICTS, 0)]), PROD)
    assert contradicted.kos["b"].scores.k < baseline.kos["b"].scores.k


def test_dormant_ko_is_frozen_and_retained():
    sleeper = make_ko("d", EpistemicClass.HYPOTHESIS, k=0.02)
    active = make_ko("a", EpistemicClass.EVIDENCE)
    snapshot, breakdowns = run_cycle(snapshot_of([sleeper, active]), 50000, PROD)
    assert snapshot.kos["d"].scores.k == 0.02
    assert {fb.ko_id for fb in breakdowns} == {"a"}
    assert "d" in snapshot.kos  # retained, never deleted


def test_targeted_retrieval_revives_dormant_ko():
    sleeper = make_ko("d", EpistemicClass.HYPOTHESIS, k=0.02,
                      retrieved_at=(40000,))
    snapshot, breakdowns = run_cycle(snapshot_of([sleeper]), 50000, PROD)
    assert [fb.ko_id for fb in breakdowns] == ["d"]
    assert snapshot.kos["d"].scores.k > 0.05


def test_resolved_question_urgency_pinned_and_decaying():
    question = make_ko("q", EpistemicClass.QUESTION, k=0.33, stakes=1.0,
                       resolved=True, urgency=0.9)
    snapshot = snapshot_of([question])
    now = 0
    ks = []
    for _ in range(10):
        now += SIM.cycle_period_s
        snapshot, _ = run_cycle(snapshot, now, SIM)
        assert snapshot.kos["q"].scores.urgency == 0.0
        ks.append(snapshot.kos["q"].scores.k)
    assert all(b < a for a, b in zip(ks, ks[1:]))  # decays instead of rising


def test_unresolved_question_urgency_grows_with_age():
    question = make_ko("q", EpistemicClass.QUESTION, stakes=0.0, created_at=0)
    snapshot = snapshot_of([question])
    snapshot, _ = run_cycle(snapshot, 30 * SECONDS_PER_DAY, SIM)
    assert snapshot.kos["q"].scores.urgency == pytest.approx(0.3)


def test_isolated_question_28_cycles_reaches_class_fixed_point():
    # an ingested question starts at its class seed (0.30) and rises toward
    # eta*seed/(eta+lambda*dt); the 0.5-seeded reference trajectory lives in
    # simulate_trajectory, not here
    snapshot = snapshot_of([make_ko("q", EpistemicClass.QUESTION, created_at=0)])
    for day in range(1, 29):
        snapshot, _ = run_cycle(snapshot, day * SECONDS_PER_DAY, SIM)
    assert snapshot.kos["q"].scores.k == pytest.approx(0.331, abs=1e-3)


def test_new_supports_counted_only_in_window():
    target = make_ko("t", EpistemicClass.EVIDENCE)
    source = make_ko("s", EpistemicClass.DECISION)
    edge = Edge("s", "t", EdgeType.SUPPORTS, 1000)
    first, breakdowns = run_cycle(snapshot_of([target, source], [edge]), 2000, PROD)
    fb_t = next(fb for fb in breakdowns if fb.ko_id == "t")
    assert fb_t.evidence == pytest.approx(PROD.a_e)
    second, breakdowns2 = run_cycle(first, 3000, PROD)
    fb_t2 = next(fb for fb in breakdowns2 if fb.ko_id == "t")
    assert fb_t2.evidence == 0.0  # the edge is no longer new


def test_evidence_force_rejects_negative_count():
    with pytest.raises(EngineError):
        evidence_force(-1, PROD)


def test_explicit_negative_a_c_rejected():
    with pytest.raises(EngineError):
        EngineParams(a_c=-0.1)

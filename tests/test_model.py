from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgravity import (
    CLASS_PROFILES,
    EDGE_COEFFICIENTS,
    SIMULATION_LAMBDAS,
    DecayKind,
    Edge,
    EdgeType,
    EpistemicClass,
    Koc,
    MemoryZone,
    ModelError,
    ScoreVector,
    taxonomy_adequacy_report,
    zone_for,
)
from kgravity.model import NEGATIVE_EDGE_TYPES, embedding_norm, koc_matcher, left_sum
from tests.conftest import make_ko, make_koc

EXPECTED_SEEDS = {
    EpistemicClass.DECISION: 1.00,
    EpistemicClass.CONSTRAINT: 0.90,
    EpistemicClass.EVIDENCE: 0.80,
    EpistemicClass.NARRATIVE: 0.70,
    EpistemicClass.PLAN: 0.65,
    EpistemicClass.EVALUATION: 0.55,
    EpistemicClass.OBSERVATION: 0.40,
    EpistemicClass.HYPOTHESIS: 0.30,
    EpistemicClass.QUESTION: 0.30,
}


def test_every_class_has_exactly_one_profile():
    assert set(CLASS_PROFILES) == set(EpistemicClass)
    assert len(EpistemicClass) == 9


def test_seed_values():
    for cls, seed in EXPECTED_SEEDS.items():
        assert CLASS_PROFILES[cls].seed_k == seed


def test_decay_kind_assignment():
    none_classes = {EpistemicClass.DECISION, EpistemicClass.CONSTRAINT,
                    EpistemicClass.NARRATIVE}
    for cls, profile in CLASS_PROFILES.items():
        if cls in none_classes:
            assert profile.decay_kind is DecayKind.NONE
        elif cls is EpistemicClass.QUESTION:
            assert profile.decay_kind is DecayKind.INVERSE
        else:
            assert profile.decay_kind is DecayKind.EXPONENTIAL


def test_operational_lambda_sign_matches_decay_kind():
    for profile in CLASS_PROFILES.values():
        assert (profile.lambda_per_day < 0) == (profile.decay_kind is DecayKind.INVERSE)
        assert (profile.lambda_per_day == 0) == (profile.decay_kind is DecayKind.NONE)


def test_simulation_lambdas_reference_values():
    assert SIMULATION_LAMBDAS[EpistemicClass.QUESTION] == -0.010
    assert SIMULATION_LAMBDAS[EpistemicClass.OBSERVATION] == 0.015
    assert SIMULATION_LAMBDAS[EpistemicClass.EVIDENCE] == 0.005
    assert SIMULATION_LAMBDAS[EpistemicClass.HYPOTHESIS] == 0.008
    assert SIMULATION_LAMBDAS[EpistemicClass.DECISION] == 0.002
    assert set(SIMULATION_LAMBDAS) == set(EpistemicClass)


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

def test_koc_similarity_identical():
    a = make_koc(EpistemicClass.DECISION)
    assert koc_matcher(a)(a) == 1.0


def test_koc_similarity_disjoint():
    a = make_koc(EpistemicClass.DECISION)
    b = Koc(entity="x", domain="y", cls=EpistemicClass.QUESTION, epoch="z",
            depth="w", author="u", variant="t")
    assert koc_matcher(a)(b) == 0.0


def test_koc_similarity_four_of_seven():
    a = make_koc(EpistemicClass.DECISION)
    b = dataclasses.replace(a, entity="other", domain="other2", epoch="other3")
    assert koc_matcher(a)(b) == pytest.approx(4 / 7)


@pytest.mark.parametrize("weights", [
    (0.0,) * 7, (-1.0,) + (0.1,) * 6,
    (float("nan"),) + (0.1,) * 6, (float("inf"),) + (0.1,) * 6,
])
def test_koc_similarity_rejects_weights_without_a_positive_finite_sum(weights):
    a = make_koc(EpistemicClass.DECISION)
    with pytest.raises(ModelError, match="positive finite sum"):
        koc_matcher(a, weights)(a)


def test_koc_rejects_empty_axis():
    with pytest.raises(ModelError):
        Koc(entity="", domain="d", cls=EpistemicClass.PLAN, epoch="e",
            depth="x", author="a", variant="v")


def test_koc_is_immutable():
    a = make_koc(EpistemicClass.PLAN)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.entity = "mutated"


def test_koc_axes_are_case_sensitive():
    a = make_koc(EpistemicClass.PLAN, entity="Acme")
    b = make_koc(EpistemicClass.PLAN, entity="acme")
    assert koc_matcher(a)(b) == pytest.approx(6 / 7)


def test_koc_matcher_equals_the_direct_sum_for_every_match_pattern():
    """The matcher keeps one similarity per pattern of matching axes; each
    of the 128 patterns has the bits of the direct weighted ``fsum``, in
    whichever order the patterns are met and when met again."""
    weights = (0.31, 0.07, 0.2, 0.013, 0.17, 0.11, 0.127)
    anchor = make_koc(EpistemicClass.DECISION)
    other = Koc(entity="x", domain="y", cls=EpistemicClass.QUESTION, epoch="z",
                depth="w", author="u", variant="t")
    names = ("entity", "domain", "cls", "epoch", "depth", "author", "variant")
    patterns = list(itertools.product((False, True), repeat=7))
    for order in (patterns, patterns[::-1]):
        similarity = koc_matcher(anchor, weights)
        for pattern in order * 2:
            b = dataclasses.replace(other, **{name: getattr(anchor, name)
                                              for name, same in zip(names, pattern) if same})
            direct = math.fsum(w for w, x, y in zip(weights, anchor.axes(), b.axes())
                               if x == y) / math.fsum(weights)
            assert similarity(b).hex() == direct.hex()
            assert koc_matcher(anchor, weights)(b).hex() == direct.hex()


_token = st.text(alphabet="abcdef", min_size=1, max_size=3)


@st.composite
def kocs(draw):
    return Koc(entity=draw(_token), domain=draw(_token),
               cls=draw(st.sampled_from(list(EpistemicClass))),
               epoch=draw(_token), depth=draw(_token),
               author=draw(_token), variant=draw(_token))


@given(kocs(), kocs())
def test_koc_similarity_symmetric(a, b):
    assert koc_matcher(a)(b) == koc_matcher(b)(a)


@given(kocs())
def test_koc_similarity_self_is_one(a):
    assert koc_matcher(a)(a) == 1.0


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------

def test_edge_coefficient_table():
    assert EDGE_COEFFICIENTS[EdgeType.SUPPORTS] == 1.0
    assert EDGE_COEFFICIENTS[EdgeType.BASED_ON] == 0.8
    assert EDGE_COEFFICIENTS[EdgeType.IMPLEMENTS] == 0.7
    assert EDGE_COEFFICIENTS[EdgeType.SUPERSEDES] == 0.6
    assert EDGE_COEFFICIENTS[EdgeType.REFINES] == 0.5
    assert EDGE_COEFFICIENTS[EdgeType.DERIVES_FROM] == 0.5
    assert EDGE_COEFFICIENTS[EdgeType.ENABLES] == 0.4
    assert EDGE_COEFFICIENTS[EdgeType.PRECEDES] == 0.3
    assert EDGE_COEFFICIENTS[EdgeType.BLOCKS] == -0.4
    assert EDGE_COEFFICIENTS[EdgeType.CONTRADICTS] == -0.6
    assert len(EDGE_COEFFICIENTS) == 10
    assert max(EDGE_COEFFICIENTS.values()) == 1.0
    assert min(EDGE_COEFFICIENTS.values()) == -0.6
    assert NEGATIVE_EDGE_TYPES == {EdgeType.BLOCKS, EdgeType.CONTRADICTS}


@pytest.mark.parametrize("member", [*EpistemicClass, *EdgeType])
def test_members_are_their_value_strings(member):
    assert type(member).__hash__ is str.__hash__
    assert hash(member) == hash(member.name) == hash(member.value)
    assert member == member.value
    if isinstance(member, EdgeType):
        assert EDGE_COEFFICIENTS[member.value] == EDGE_COEFFICIENTS[member]
    else:
        assert CLASS_PROFILES[member.value] is CLASS_PROFILES[member]


def test_edge_rejects_self_loop():
    with pytest.raises(ModelError):
        Edge("a", "a", EdgeType.SUPPORTS, 0)


# ---------------------------------------------------------------------------
# Scores and zones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,zone", [
    (0.40, MemoryZone.CORE),
    (1.0, MemoryZone.CORE),
    (0.399999, MemoryZone.WORKING),
    (0.10, MemoryZone.WORKING),
    (0.099999, MemoryZone.PERIPHERAL),
    (0.05, MemoryZone.PERIPHERAL),
    (0.049999, MemoryZone.DORMANT),
    (0.0, MemoryZone.DORMANT),
])
def test_zone_boundaries(k, zone):
    assert zone_for(k) is zone


def test_zone_rejects_out_of_range():
    with pytest.raises(ModelError):
        zone_for(1.5)
    with pytest.raises(ModelError):
        zone_for(-0.1)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_zone_monotone(k1, k2):
    if k1 <= k2:
        assert zone_for(k1) <= zone_for(k2)


def test_score_vector_rejects_out_of_range():
    with pytest.raises(ModelError):
        ScoreVector(k=1.2)
    with pytest.raises(ModelError):
        ScoreVector(k=0.5, urgency=-0.1)


def test_ko_rejects_class_coordinate_mismatch():
    koc = make_koc(EpistemicClass.DECISION)
    with pytest.raises(ModelError):
        make_ko("x1", EpistemicClass.QUESTION, koc=koc)


def test_only_questions_can_be_resolved():
    with pytest.raises(ModelError):
        make_ko("x1", EpistemicClass.OBSERVATION, resolved=True)


# ---------------------------------------------------------------------------
# Taxonomy adequacy
# ---------------------------------------------------------------------------

def test_all_36_pairs_have_two_distinguishing_features():
    report = taxonomy_adequacy_report()
    assert len(report) == 36
    inadequate = [r for r in report if not r.adequate]
    assert inadequate == []


def test_closest_pairs():
    report = {frozenset(r.pair): r for r in taxonomy_adequacy_report()}
    hyp_obs = report[frozenset((EpistemicClass.HYPOTHESIS, EpistemicClass.OBSERVATION))]
    assert set(hyp_obs.differing) == {"seed_k", "rate_or_half_life", "role"}
    dec_con = report[frozenset((EpistemicClass.DECISION, EpistemicClass.CONSTRAINT))]
    assert set(dec_con.differing) == {"seed_k", "role"}


def test_urgency_is_question_only():
    with pytest.raises(ModelError, match="urgency"):
        make_ko("x1", EpistemicClass.OBSERVATION, urgency=0.5)


@given(st.lists(st.one_of(st.floats(), st.integers(-2**60, 2**60)), max_size=24))
def test_embedding_norm_adds_its_squares_left_to_right(embedding):
    expected = math.sqrt(left_sum(x * x for x in embedding))
    assert embedding_norm(embedding).hex() == expected.hex()

"""The indexed cycle against an oracle of the unindexed one.

``oracle_cycle`` is the cycle as it was before the per-cycle index: it
rebuilds the inbound lists, re-sorts every node's edges, asks each object
for its zone, takes sigma from ``statistics.pstdev`` and rebuilds objects
with ``dataclasses.replace``. ``run_cycle`` must agree with it exactly:
snapshots and force breakdowns are compared with ``==``, never ``approx``.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
import statistics

import pytest

from kgravity import engine
from kgravity.dynamics import random_graph
from kgravity.engine import (
    SECONDS_PER_DAY,
    EdgeStructure,
    EngineError,
    EngineParams,
    ForceBreakdown,
    contradiction_penalty,
    evidence_force,
    gravity_force,
    gravity_neighborhood,
    kge_step,
    question_urgency,
    run_cycle,
    usage_force,
)
from kgravity.model import (
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    Koc,
    ModelError,
    ScoreVector,
    slot_setters,
    zone_for,
)
from kgravity.store import CorpusStore, EventKind, EventRecord

from tests.conftest import assert_kept_structure_is_fresh, make_ko, make_koc

PROD = EngineParams.production()


# ---------------------------------------------------------------------------
# The oracle: the cycle without an index
# ---------------------------------------------------------------------------

def oracle_inbound(snapshot, now):
    index = {}
    for e in snapshot.edges:
        if now is not None and e.created_at > now:
            continue
        index.setdefault(e.target_id, []).append(e)
    return index


def oracle_neighborhood(ko_id, inbound, snapshot, radius):
    found = {}
    frontier = [(ko_id, 1.0)]
    seen = {ko_id}
    for depth in range(1, radius + 1):
        nxt = []
        for node, path_coeff in frontier:
            edges = sorted(inbound.get(node, ()),
                           key=lambda e: (e.source_id, e.edge_type.value))
            by_source = {}
            for e in edges:
                if snapshot.kos[e.source_id].dormant:
                    continue
                by_source[e.source_id] = by_source.get(e.source_id, 0.0) + e.coefficient
            for src in sorted(by_source):
                if src in seen:
                    continue
                seen.add(src)
                coeff = by_source[src] * path_coeff
                found[src] = (depth, coeff)
                nxt.append((src, coeff))
        frontier = nxt
    return found


def oracle_gravity(ko_id, snapshot, params, inbound):
    neighborhood = oracle_neighborhood(ko_id, inbound, snapshot, params.gravity_radius)
    if not neighborhood:
        return 0.0
    ks = [snapshot.kos[j].scores.k for j in neighborhood]
    mu = statistics.fmean(ks)
    sigma = max(statistics.pstdev(ks, mu=mu), params.sigma_floor)
    total = 0.0
    for j in sorted(neighborhood):
        distance, coeff = neighborhood[j]
        z = (snapshot.kos[j].scores.k - mu) / sigma
        total += coeff * math.tanh(params.g_scale * max(0.0, z) / distance)
    return params.a_g * total


def oracle_cycle(snapshot, now, params, frozen_usage=None, frozen_evidence=None):
    snapshot.validate()
    prev = snapshot.cycle_at
    inbound = oracle_inbound(snapshot, now)
    outbound_blocks = {}
    for e in snapshot.edges:
        if e.created_at <= now and e.edge_type is EdgeType.BLOCKS:
            outbound_blocks[e.source_id] = outbound_blocks.get(e.source_id, 0) + 1
    new_kos = {}
    breakdowns = []
    for ko_id in sorted(snapshot.kos):
        ko = snapshot.kos[ko_id]
        fresh = [t for t in ko.retrieved_at if (prev is None or t > prev) and t <= now]
        if ko.dormant and not fresh:
            new_kos[ko_id] = ko
            continue
        if frozen_usage is not None:
            u = frozen_usage.get(ko_id, 0.0)
        else:
            ages = [(now - t) / SECONDS_PER_DAY for t in ko.retrieved_at if t <= now]
            u = usage_force(ages, params)
        if frozen_evidence is not None:
            e_force = frozen_evidence.get(ko_id, 0.0)
        else:
            new_supports = sum(
                1 for e in inbound.get(ko_id, ())
                if e.edge_type is EdgeType.SUPPORTS
                and (prev is None or e.created_at > prev)
                and not snapshot.kos[e.source_id].dormant)
            e_force = evidence_force(new_supports, params)
        active = [e for e in inbound.get(ko_id, ())
                  if not snapshot.kos[e.source_id].dormant]
        g = oracle_gravity(ko_id, snapshot, params, inbound)
        c = contradiction_penalty(active, params)
        fb = kge_step(ko, (u, e_force, g, c), params)
        breakdowns.append(fb)
        if ko.cls is EpistemicClass.QUESTION:
            urgency = question_urgency((now - ko.created_at) / SECONDS_PER_DAY,
                                       outbound_blocks.get(ko_id, 0), ko.stakes,
                                       resolved=ko.resolved)
        else:
            urgency = 0.0
        scores = dataclasses.replace(ko.scores, k=fb.k_after, urgency=urgency)
        new_kos[ko_id] = dataclasses.replace(ko, scores=scores)
    return GraphSnapshot(kos=new_kos, edges=snapshot.edges, cycle_at=now), breakdowns


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

DAY = SECONDS_PER_DAY
CYCLE_AT = 10 * DAY  # the last cycle before the ones under test


def churned_graph(seed: int, n: int = 60) -> GraphSnapshot:
    """A ``random_graph`` with dormant objects (one revived by a fresh
    retrieval), retrieval histories, resolved and open QUESTIONs, several
    edge types between one pair and edges created after the cycles run."""
    base = random_graph(n, seed, edge_factor=3.0, negative_fraction=0.3)
    rng = random.Random(seed)
    kos = {}
    for ko_id, ko in base.kos.items():
        roll = rng.random()
        k = ko.scores.k
        if roll < 0.2:
            k = round(rng.uniform(0.0, 0.049), 9)
        elif roll < 0.5:
            k = round(rng.uniform(0.05, 1.0), 9)
        changes = {}
        if ko.cls is EpistemicClass.QUESTION:
            changes.update(stakes=round(rng.random(), 3), resolved=rng.random() < 0.5)
        retrievals = sorted(rng.randrange(0, CYCLE_AT + DAY)
                            for _ in range(rng.choice((0, 0, 1, 3))))
        changes["retrieved_at"] = tuple(retrievals)
        kos[ko_id] = dataclasses.replace(ko, scores=ScoreVector(k=k), **changes)
    dormant = sorted(i for i, ko in kos.items() if ko.dormant)
    revived, stays = dormant[0], dormant[1]
    kos[revived] = dataclasses.replace(kos[revived], retrieved_at=(CYCLE_AT + 60,))
    kos[stays] = dataclasses.replace(kos[stays], retrieved_at=(CYCLE_AT - 60,))

    times = (0, CYCLE_AT - DAY, CYCLE_AT, CYCLE_AT + 600, 40 * DAY)
    edges = [Edge(e.source_id, e.target_id, e.edge_type, rng.choice(times))
             for e in base.edges]
    a, b = [i for i in sorted(kos) if i not in (revived, stays)][:2]
    have = {(e.source_id, e.target_id, e.edge_type) for e in edges}
    # Summed in edge-type order these give 1.5000000000000002; other orders
    # can give 1.5, so the order is observable.
    for edge_type in (EdgeType.PRECEDES, EdgeType.BASED_ON, EdgeType.ENABLES):
        if (a, b, edge_type) not in have:
            edges.append(Edge(a, b, edge_type, CYCLE_AT + 600))
    edges.append(Edge(stays, b, EdgeType.SUPPORTS, CYCLE_AT + 600))
    return GraphSnapshot(kos=kos, edges=tuple(edges), cycle_at=CYCLE_AT)


def assert_cycles_agree(snapshot, params, cycles=4, **frozen):
    now = CYCLE_AT + params.cycle_period_s
    for _ in range(cycles):
        got, got_fb = run_cycle(snapshot, now, params, **frozen)
        want, want_fb = oracle_cycle(snapshot, now, params, **frozen)
        assert got == want
        assert got_fb == want_fb
        assert [fb.ko_id for fb in got_fb] == [fb.ko_id for fb in want_fb]
        snapshot = got
        now += params.cycle_period_s


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cycle_matches_oracle(seed):
    snapshot = churned_graph(seed)
    assert_cycles_agree(snapshot, PROD)


def test_churned_graph_covers_its_cases():
    snapshot = churned_graph(1)
    now = CYCLE_AT + PROD.cycle_period_s
    dormant = {i for i, ko in snapshot.kos.items() if ko.dormant}
    updated = {fb.ko_id for fb in run_cycle(snapshot, now, PROD)[1]}
    assert dormant - updated and dormant & updated  # frozen and revived
    assert any(e.source_id in dormant for e in snapshot.edges)
    assert any(e.created_at > now for e in snapshot.edges)
    pairs = [(e.source_id, e.target_id) for e in snapshot.edges]
    assert max(pairs.count(p) for p in set(pairs)) >= 3
    questions = [ko for ko in snapshot.kos.values() if ko.cls is EpistemicClass.QUESTION]
    assert {ko.resolved for ko in questions} == {True, False}


@pytest.mark.parametrize("seed", [5, 6])
def test_cycle_matches_oracle_at_radius_two(seed):
    assert_cycles_agree(churned_graph(seed), EngineParams.production(gravity_radius=2))


def test_cycle_matches_oracle_with_frozen_inputs():
    snapshot = churned_graph(7)
    rng = random.Random(7)
    usage = {i: rng.uniform(0.0, 0.3) for i in sorted(snapshot.kos)[::2]}
    evidence = {i: rng.choice((0.0, 0.1, 0.2)) for i in sorted(snapshot.kos)[1::3]}
    assert_cycles_agree(snapshot, PROD, frozen_usage=usage, frozen_evidence=evidence)
    assert_cycles_agree(snapshot, PROD, frozen_usage=usage)
    assert_cycles_agree(snapshot, PROD, frozen_evidence=evidence)


def count_pstdev_calls(monkeypatch, snapshot, params, cycles=4) -> int:
    calls = []
    pstdev = statistics.pstdev
    with monkeypatch.context() as patch:
        patch.setattr(statistics, "pstdev",
                      lambda *a, **kw: calls.append(1) or pstdev(*a, **kw))
        now = CYCLE_AT + params.cycle_period_s
        for _ in range(cycles):
            snapshot, _ = run_cycle(snapshot, now, params)
            now += params.cycle_period_s
    return len(calls)


def test_cycle_matches_oracle_on_exact_sigma_path(monkeypatch):
    params = EngineParams.production(sigma_floor=0.1)
    snapshot = churned_graph(8)
    assert count_pstdev_calls(monkeypatch, snapshot, params) > 0
    assert_cycles_agree(snapshot, params)


def test_default_floor_never_needs_pstdev(monkeypatch):
    """Non-dormant k >= 0.05 spans less than 1.0 = 2 * sigma_floor."""
    snapshot = churned_graph(9)
    assert count_pstdev_calls(monkeypatch, snapshot, PROD) == 0
    assert_cycles_agree(snapshot, PROD)


def zones_of(snapshot: GraphSnapshot) -> list:
    """Each id in sorted order with the zone of its k, as ``zones`` reads."""
    return [(i, zone_for(snapshot.kos[i].scores.k)) for i in sorted(snapshot.kos)]


@pytest.mark.parametrize("floor, floored", [(0.1, False), (0.3, False), (0.5, True)])
def test_cycle_matches_oracle_bit_for_bit_on_both_sides_of_the_floor_bound(
        floor, floored, monkeypatch):
    """At floors 0.1 and 0.3 a neighbourhood's span, at most 0.95, can reach
    twice the floor, so the loop sends each through ``_spread``; at the
    default floor of 0.5 it takes the floor without it. Either way each k,
    urgency and force is the oracle's, bit for bit, and the zones the cycle
    writes are those of the new k."""
    params = EngineParams.production(sigma_floor=floor)
    snapshot = churned_graph(12)
    calls, spread = [], engine._spread
    monkeypatch.setattr(engine, "_spread", lambda ks, f: calls.append(f) or spread(ks, f))
    now = CYCLE_AT + params.cycle_period_s
    for _ in range(4):
        got, got_fb = run_cycle(snapshot, now, params)
        want, want_fb = oracle_cycle(snapshot, now, params)
        assert_same_bits(got_fb, want_fb)
        assert [(i, ko.scores.k.hex(), ko.scores.urgency.hex()) for i, ko in got.kos.items()] \
            == [(i, ko.scores.k.hex(), ko.scores.urgency.hex()) for i, ko in want.kos.items()]
        assert list(got.zones.items()) == zones_of(want)
        snapshot, now = got, now + params.cycle_period_s
    assert bool(calls) is not floored


def test_cycle_matches_oracle_under_simulation_preset():
    assert_cycles_agree(churned_graph(10), EngineParams.simulation(), cycles=3)


def test_cycle_matches_oracle_on_a_plain_random_graph():
    snapshot = dataclasses.replace(random_graph(120, 11, edge_factor=3.0), cycle_at=None)
    now = PROD.cycle_period_s
    for _ in range(3):
        got = run_cycle(snapshot, now, PROD)
        assert got == oracle_cycle(snapshot, now, PROD)
        snapshot, now = got[0], now + PROD.cycle_period_s


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_gravity_force_view_matches_oracle(radius):
    params = EngineParams.production(gravity_radius=radius)
    snapshot = churned_graph(12)
    inbound = oracle_inbound(snapshot, None)
    edges = EdgeStructure(snapshot.edges)
    edges.advance(snapshot, None)
    for ko_id in sorted(snapshot.kos):
        assert gravity_neighborhood(ko_id, edges, radius) == \
            oracle_neighborhood(ko_id, inbound, snapshot, radius)
        assert gravity_force(ko_id, snapshot, params) == \
            oracle_gravity(ko_id, snapshot, params, inbound)


# ---------------------------------------------------------------------------
# The cycle's loop against the public single-object functions
# ---------------------------------------------------------------------------

def public_breakdowns(snapshot, now, params, frozen_usage=None, frozen_evidence=None):
    """Each updated object's breakdown from ``kge_step`` over the forces of
    ``usage_force``, ``evidence_force``, ``gravity_force`` (which builds a
    structure of the snapshot's edges itself) and ``contradiction_penalty``."""
    prev = snapshot.cycle_at
    breakdowns = []
    for ko_id in sorted(snapshot.kos):
        ko = snapshot.kos[ko_id]
        if ko.dormant and not any((prev is None or t > prev) and t <= now
                                  for t in ko.retrieved_at):
            continue
        inbound = [e for e in snapshot.edges if e.target_id == ko_id
                   and e.created_at <= now and not snapshot.kos[e.source_id].dormant]
        if frozen_usage is None:
            u = usage_force([(now - t) / SECONDS_PER_DAY
                             for t in ko.retrieved_at if t <= now], params)
        else:
            u = frozen_usage.get(ko_id, 0.0)
        if frozen_evidence is None:
            e = evidence_force(sum(1 for e in inbound if e.edge_type is EdgeType.SUPPORTS
                                   and (prev is None or e.created_at > prev)), params)
        else:
            e = frozen_evidence.get(ko_id, 0.0)
        g = gravity_force(ko_id, snapshot, params, now=now)
        c = contradiction_penalty(inbound, params)
        breakdowns.append(kge_step(ko, (u, e, g, c), params))
    return breakdowns


def assert_same_bits(got, want):
    assert [fb.ko_id for fb in got] == [fb.ko_id for fb in want]
    for a, b in zip(got, want):
        for f in dataclasses.fields(ForceBreakdown)[1:]:
            assert float.hex(getattr(a, f.name)) == float.hex(getattr(b, f.name)), \
                (a.ko_id, f.name)


def test_cycle_loop_equals_the_public_per_object_forces():
    """Ten store cycles: objects suppressed into dormancy and one revived by
    a retrieval, open and resolved QUESTIONs, SUPPORTS edges dated between
    cycles and after them, two cycles at radius 2, and at every cycle a
    call with held usage and evidence."""
    store = CorpusStore()
    rng = random.Random(4)
    classes = list(EpistemicClass)
    clock = 1_700_000_000
    for n in range(45):
        cls = classes[n % len(classes)]
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"e{n % 6}"),
                        content=f"object {n}", ko_id=f"o{n:02d}", created_at=clock,
                        stakes=0.6 if cls is EpistemicClass.QUESTION else 0.0)
    ids = sorted(store.snapshot().kos)
    questions = [i for i in ids if store.snapshot().kos[i].cls is EpistemicClass.QUESTION]
    suppressed = ["o01", "o02"]  # CONSTRAINT and EVIDENCE
    for target in suppressed:
        for source in ids[10:18]:
            store.add_edge(source, target, EdgeType.CONTRADICTS, at=clock)
    for source, target in zip(ids[20:], ids[21:]):
        store.add_edge(source, target, rng.choice(list(EdgeType)), at=clock)
    period = PROD.cycle_period_s
    revived = updated_dormant = frozen_dormant = supported = 0
    for cycle in range(10):
        if cycle == 1:
            store.resolve_question(questions[0], ids[3], at=clock + 60)
        if cycle in (4, 6):
            store.set_params(EngineParams.production(gravity_radius=2)
                             if cycle == 4 else PROD)
        for _ in range(4):  # between the last cycle and this one, or later
            source, target = rng.sample(ids[20:], 2)
            try:
                store.add_edge(source, target, EdgeType.SUPPORTS,
                               at=clock + rng.choice((period // 2, period // 2, 2 * period)))
            except ValueError:
                pass  # a duplicate edge
        if cycle == 7:
            store.record_retrieval(suppressed[0], at=clock + period // 3)
        for ko_id in rng.sample(ids[20:], 3):
            store.record_retrieval(ko_id, at=clock + rng.randrange(period))
        before, now = store.snapshot(), clock + period
        params = store.params
        got = store.apply_cycle(now=now)[1]
        assert_same_bits(got, public_breakdowns(before, now, params))
        held = {"frozen_usage": {i: rng.uniform(0.0, 0.3) for i in ids[::2]},
                "frozen_evidence": {i: rng.choice((0.0, 0.1)) for i in ids[::3]}}
        for frozen in (held, {"frozen_usage": held["frozen_usage"]}):
            assert_same_bits(run_cycle(before, now, params, **frozen)[1],
                             public_breakdowns(before, now, params, **frozen))
        dormant = {i for i, ko in before.kos.items() if ko.dormant}
        updated = {fb.ko_id for fb in got}
        updated_dormant += len(dormant & updated)
        frozen_dormant += len(dormant - updated)
        revived += suppressed[0] in dormant & updated
        supported += sum(fb.evidence > 0 for fb in got)
        clock = now
    assert revived and updated_dormant and frozen_dormant and supported
    kos = store.snapshot().kos.values()
    assert {ko.resolved for ko in kos if ko.cls is EpistemicClass.QUESTION} == {True, False}


@pytest.mark.parametrize("force", ["u", "e"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_force_input_raises(force, value):
    snapshot = churned_graph(1)
    now = CYCLE_AT + PROD.cycle_period_s
    ko_id = run_cycle(snapshot, now, PROD)[1][0].ko_id
    held = {"frozen_usage" if force == "u" else "frozen_evidence": {ko_id: value}}
    message = f"non-finite force input {force}={value!r}"
    with pytest.raises(EngineError, match=re.escape(message)):
        run_cycle(snapshot, now, PROD, **held)
    forces = (value, 0.0, 0.0, 0.0) if force == "u" else (0.0, value, 0.0, 0.0)
    with pytest.raises(EngineError, match=re.escape(message)):
        kge_step(snapshot.kos[ko_id], forces, PROD)


# ---------------------------------------------------------------------------
# The edge structure kept across cycles
# ---------------------------------------------------------------------------

def with_k(snapshot, changes):
    kos = dict(snapshot.kos)
    for ko_id, k in changes.items():
        kos[ko_id] = dataclasses.replace(
            kos[ko_id], scores=dataclasses.replace(kos[ko_id].scores, k=k))
    return dataclasses.replace(snapshot, kos=kos)


def kept_scenario(seed):
    """A churned graph held back by a fifth of its edges, and for each of
    six cycles the edges to add and the k values to set before it."""
    full = churned_graph(seed)
    rng = random.Random(seed)
    held = set(rng.sample(range(len(full.edges)), len(full.edges) // 5))
    start = dataclasses.replace(
        full, edges=tuple(e for i, e in enumerate(full.edges) if i not in held))
    later = [full.edges[i] for i in sorted(held)]
    period = PROD.cycle_period_s
    first = CYCLE_AT + period
    ids = sorted(full.kos)
    sources = sorted({e.source_id for e in full.edges})
    # awake stay awake and asleep stay asleep (frozen, never retrieved in
    # a cycle's window) until step 4 sets their k
    awake = [i for i in sources if full.kos[i].scores.k >= 0.2]
    asleep = [i for i in sources if full.kos[i].dormant
              and all(t <= CYCLE_AT for t in full.kos[i].retrieved_at)]
    a, b, c = ids[-3:]
    steps = [
        ([], {}),
        # dated between this cycle and the next: admitted one cycle later
        ([Edge(e.source_id, e.target_id, e.edge_type, first + period + period // 2)
          for e in later[:8]], {}),
        # backdated, added after the cycles that would have seen it
        ([Edge(e.source_id, e.target_id, e.edge_type, CYCLE_AT - DAY)
          for e in later[8:16]], {}),
        # three edge types between one pair, in an order other than their own
        ([Edge(a, c, t, first) for t in
          (EdgeType.SUPPORTS, EdgeType.BASED_ON, EdgeType.CONTRADICTS)]
         + [Edge(b, c, EdgeType.PRECEDES, first)], {}),
        # one source goes dormant and one revives
        (later[16:], {awake[0]: 0.01, awake[1]: 0.02, asleep[0]: 0.3}),
        ([], {awake[0]: 0.6}),
    ]
    return start, steps


def assert_kept_cycles_agree(seed, params):
    snapshot, steps = kept_scenario(seed)
    structure = EdgeStructure(snapshot.edges)
    now = CYCLE_AT + params.cycle_period_s
    for added, ks in steps:
        for edge in added:
            structure.add(edge)
        snapshot = with_k(dataclasses.replace(
            snapshot, edges=snapshot.edges + tuple(added)), ks)
        got = run_cycle(snapshot, now, params, edges=structure)
        assert got == oracle_cycle(snapshot, now, params)
        assert_kept_structure_is_fresh(structure, snapshot, now)
        snapshot = got[0]
        now += params.cycle_period_s


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kept_structure_matches_oracle_and_fresh_index(seed):
    assert_kept_cycles_agree(seed, PROD)


@pytest.mark.parametrize("radius", [2, 3])
def test_kept_structure_matches_oracle_at_larger_radius(radius):
    assert_kept_cycles_agree(4, EngineParams.production(gravity_radius=radius))


def test_kept_scenario_covers_its_cases():
    snapshot, steps = kept_scenario(1)
    structure = EdgeStructure(snapshot.edges)
    now = CYCLE_AT + PROD.cycle_period_s
    sources = {e.source_id for e in snapshot.edges}
    admitted_later = 0
    for i, (added, ks) in enumerate(steps):
        for edge in added:
            structure.add(edge)
        snapshot = with_k(dataclasses.replace(
            snapshot, edges=snapshot.edges + tuple(added)), ks)
        before, pending = structure._dormant, len(structure._pending)
        dormant = structure.advance(snapshot, now)
        if i == 4:  # a source goes dormant and one revives
            assert dormant - before & sources and before - dormant & sources
        if i:
            admitted_later += pending - len(structure._pending)
        snapshot = run_cycle(snapshot, now, PROD, edges=structure)[0]
        now += PROD.cycle_period_s
    assert admitted_later > 0 and structure._pending  # 40-day edges still wait
    a, _, c = sorted(snapshot.kos)[-3:]
    assert sum((e.source_id, e.target_id) == (a, c) for e in snapshot.edges) >= 3


def test_kept_structure_refuses_time_running_backwards():
    snapshot = churned_graph(1)
    structure = EdgeStructure(snapshot.edges)
    structure.advance(snapshot, CYCLE_AT + DAY)
    with pytest.raises(EngineError):
        structure.advance(snapshot, CYCLE_AT)
    with pytest.raises(EngineError):  # edges the structure does not hold
        EdgeStructure(snapshot.edges[1:]).advance(snapshot, CYCLE_AT)


def test_store_cycles_match_oracle_across_params_changes():
    store = CorpusStore()
    rng = random.Random(5)
    classes = list(EpistemicClass)
    clock = 1_700_000_000
    for n in range(40):
        cls = classes[n % len(classes)]
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"e{n}"),
                        content=f"object {n}", created_at=clock, stakes=0.5)
    ids = sorted(store.snapshot().kos)
    presets = [EngineParams.production(gravity_radius=2), EngineParams.simulation(),
               EngineParams.production(sigma_floor=0.1), PROD]
    for round_ in range(8):
        for _ in range(12):
            source, target = rng.sample(ids, 2)
            clock += 600
            try:
                store.add_edge(source, target, rng.choice(list(EdgeType)),
                               at=clock + rng.choice((0, 0, -DAY, 2 * DAY)))
            except ValueError:
                pass  # a duplicate edge
            store.record_retrieval(rng.choice(ids), at=clock)
        if round_ % 2:
            store.set_params(presets[round_ // 2])
        before, now = store.snapshot(), clock + 3600
        want = oracle_cycle(before, now, store.params)
        assert store.apply_cycle(now=now) == want
        assert_kept_structure_is_fresh(store._structure, before, now)


def test_store_hands_over_the_zones_its_cycle_made():
    """The cycle's own snapshot and the store's next ones carry the zones
    the cycle wrote; an ingested id that sorts last joins them, any other
    drops them until the next cycle, and a snapshot handed out keeps its
    own."""
    store = CorpusStore()
    for n in range(1, 7):
        cls = list(EpistemicClass)[n]
        store.ingest_ko(cls=cls, koc=make_koc(cls, entity=f"e{n}"), content=f"object {n}",
                        ko_id=f"m{n}", created_at=0)
    store.add_edge("m1", "m2", EdgeType.CONTRADICTS, at=0)
    assert "zones" not in vars(store.snapshot())
    cycled, _ = store.apply_cycle(now=DAY)
    assert cycled == store.snapshot() and "zones" in vars(store.snapshot())
    assert list(cycled.zones.items()) == zones_of(cycled)
    store.ingest_ko(cls="PLAN", koc=make_koc(EpistemicClass.PLAN), content="last",
                    ko_id="z1", created_at=DAY)
    joined = store.snapshot()
    assert "zones" in vars(joined) and list(joined.zones.items()) == zones_of(joined)
    assert "z1" not in cycled.zones
    store.ingest_ko(cls="PLAN", koc=make_koc(EpistemicClass.PLAN), content="first",
                    ko_id="a1", created_at=DAY)
    dropped = store.snapshot()
    assert "zones" not in vars(dropped) and list(dropped.zones.items()) == zones_of(dropped)
    assert "a1" not in joined.zones
    for now in (2 * DAY, 3 * DAY):
        cycled, _ = store.apply_cycle(now=now)
        assert list(store.snapshot().zones.items()) == zones_of(cycled)
        assert list(cycled.zones.items()) == zones_of(cycled)


def test_a_failed_store_cycle_drops_the_structure_it_advanced(monkeypatch):
    import kgravity.store as store_module
    store = CorpusStore()
    for n in range(3):
        store.ingest_ko(cls="EVIDENCE", koc=make_koc(EpistemicClass.EVIDENCE, entity=f"e{n}"),
                        content=f"object {n}", created_at=0)
    ids = sorted(store.snapshot().kos)
    store.add_edge(ids[0], ids[1], EdgeType.SUPPORTS, at=DAY)
    store.apply_cycle(now=DAY)

    def failing(snapshot, now, params, *, edges):
        edges.advance(snapshot, now)
        raise EngineError("fails after advancing")
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "run_cycle", failing)
        with pytest.raises(EngineError):
            store.apply_cycle(now=3 * DAY)
    assert store._structure is None and store.last_cycle_at == DAY
    store.add_edge(ids[2], ids[1], EdgeType.SUPPORTS, at=2 * DAY)
    before = store.snapshot()
    assert store.apply_cycle(now=2 * DAY) == oracle_cycle(before, 2 * DAY, PROD)


def test_unchanged_objects_are_reused():
    ko = make_ko("a", EpistemicClass.CONSTRAINT, k=0.9)
    snapshot = GraphSnapshot(kos={"a": ko})
    fresh = make_ko("b", EpistemicClass.CONSTRAINT, k=0.5)
    moved, _ = run_cycle(GraphSnapshot(kos={"a": ko, "b": fresh}), DAY, PROD)
    assert run_cycle(snapshot, DAY, PROD)[0].kos["a"] is ko  # at its fixed point
    assert moved.kos["b"] is not fresh and moved.kos["b"].scores.k != 0.5
    # k pinned at 1.0 by heavy use while the question's urgency grows
    question = GraphSnapshot(kos={"q": make_ko("q", EpistemicClass.QUESTION, k=1.0,
                                               retrieved_at=(DAY - 1,) * 20)})
    got = run_cycle(question, DAY, PROD)
    assert got == oracle_cycle(question, DAY, PROD)
    assert got[0].kos["q"].scores.k == 1.0 and got[0].kos["q"].scores.urgency > 0.0


def test_with_retrieval_equals_a_validated_replace():
    ko = make_ko("q", EpistemicClass.QUESTION, k=0.3, stakes=0.5,
                 retrieved_at=(5, 9), anchors=frozenset({"x"}), embedding=(1.0, 0.5))
    got = ko.with_retrieval(12)
    want = dataclasses.replace(ko, retrieved_at=(5, 9, 12))
    assert got == want and hash(got) == hash(want)
    assert [getattr(got, f.name) for f in dataclasses.fields(got)] == \
        [getattr(want, f.name) for f in dataclasses.fields(want)]
    assert got.scores is ko.scores and ko.retrieved_at == (5, 9)


def test_rescored_equals_a_validated_replace():
    ko = make_ko("q", EpistemicClass.QUESTION, k=0.3, stakes=0.5,
                 retrieved_at=(5, 9), anchors=frozenset({"x"}), embedding=(1.0, 0.5))
    ko = dataclasses.replace(ko, scores=ScoreVector(0.3, 0.7, 0.6, 0.2, 0.1))
    want = dataclasses.replace(
        ko, scores=dataclasses.replace(ko.scores, k=0.25, urgency=0.4))
    got = ko.rescored(0.25, 0.4)
    assert got == want and hash(got) == hash(want)
    assert [getattr(got, f.name) for f in dataclasses.fields(got)] == \
        [getattr(want, f.name) for f in dataclasses.fields(want)]


# ---------------------------------------------------------------------------
# Slotted values behave as before
# ---------------------------------------------------------------------------

SLOTTED = {
    Koc: ("entity", "domain", "cls", "epoch", "depth", "author", "variant"),
    Edge: ("source_id", "target_id", "edge_type", "created_at"),
    ScoreVector: ("k", "confidence", "freshness", "urgency", "contradiction"),
    KnowledgeObject: ("id", "koc", "cls", "content", "scores", "created_at",
                      "retrieved_at", "resolved", "stakes", "anchors", "embedding"),
    ForceBreakdown: ("ko_id", "seed", "usage", "evidence", "gravity", "decay_term",
                     "contradiction", "k_before", "k_after"),
    EventRecord: ("seq", "at", "kind", "payload"),
}


def slotted_examples():
    ko = make_ko("a", EpistemicClass.EVIDENCE, k=0.5, anchors=frozenset({"x"}))
    return {
        Koc: ko.koc,
        Edge: Edge("a", "b", EdgeType.SUPPORTS, 3),
        ScoreVector: ScoreVector(0.5, 0.9),
        KnowledgeObject: ko,
        ForceBreakdown: ForceBreakdown("a", 0.8, 0.1, 0.0, 0.02, -0.001, 0.0, 0.5, 0.52),
        EventRecord: EventRecord(1, 0, EventKind.KO_RETRIEVED, {"id": "a", "at": 0}),
    }


@pytest.mark.parametrize("cls", list(SLOTTED), ids=lambda c: c.__name__)
def test_slotted_dataclasses_keep_their_behaviour(cls):
    value = slotted_examples()[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == SLOTTED[cls]
    assert not hasattr(value, "__dict__")
    copy = dataclasses.replace(value)
    assert copy == value and copy is not value
    if cls is not EventRecord:  # its payload is a dict
        assert hash(copy) == hash(value)
    first = SLOTTED[cls][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))


def test_slot_setters_are_looked_up_by_name():
    # A trusted builder names each field it sets, so its setters do not
    # depend on the order of the class's fields, and it must name all.
    set_target, set_source, set_type, set_at = slot_setters(
        Edge, "target_id", "source_id", "edge_type", "created_at")
    edge = object.__new__(Edge)
    set_target(edge, "b")
    set_source(edge, "a")
    set_type(edge, EdgeType.SUPPORTS)
    set_at(edge, 3)
    assert edge == Edge("a", "b", EdgeType.SUPPORTS, 3)
    with pytest.raises(TypeError, match="Edge fields are"):
        slot_setters(Edge, "source_id", "target_id", "edge_type")
    with pytest.raises(TypeError, match="Edge fields are"):
        slot_setters(Edge, "source_id", "target_id", "edge_type", "created")


def test_replace_still_validates_slotted_values():
    ko = slotted_examples()[KnowledgeObject]
    with pytest.raises(ModelError):
        dataclasses.replace(ko.scores, k=1.5)
    with pytest.raises(ModelError):
        dataclasses.replace(ko, stakes=2.0)
    with pytest.raises(ModelError):
        dataclasses.replace(slotted_examples()[Edge], target_id="a")

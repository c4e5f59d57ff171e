"""Seeded workload generator for the kgravity benchmark.

Everything here is plain data derived from ``random.Random(seed)``: corpus
records in the corpus-file format, library operations (ingest, edges,
supersede, resolve, retrievals, cycles), ingest files and query lists. The
generator never imports kgravity, so the program under test receives only
generated inputs. The same seed always gives byte-identical output
(``serialize`` is the canonical byte form the tests compare).

The generator keeps its own model of the corpus (ids, classes, edge keys,
open questions and the event clock) so that every operation it emits is
valid against the store's state when applied in order. The only rejections
it plants are the two per-line rejections the README documents for
``ingest``: a duplicate object id and an edge with a dangling endpoint.
Records with mistyped fields are left out: ``kgravity ingest`` crashes on
them today instead of rejecting the line.
"""

from __future__ import annotations

import json
import random
from bisect import bisect
from datetime import datetime, timezone
from itertools import accumulate
from typing import Iterator

#: 2026-01-01T00:00:00Z; every generated timestamp is at or after it.
T0 = 1_767_225_600
#: The production preset's cycle period; ``apply_cycle()`` and ``cycle 1``
#: advance the clock by exactly this much.
CYCLE_PERIOD_S = 21600

CLASSES = ("DECISION", "CONSTRAINT", "EVIDENCE", "NARRATIVE", "PLAN",
           "EVALUATION", "OBSERVATION", "HYPOTHESIS", "QUESTION")
CLASS_WEIGHTS = (8, 6, 22, 6, 10, 8, 18, 12, 10)

EDGE_TYPES = ("SUPPORTS", "BASED_ON", "IMPLEMENTS", "SUPERSEDES", "REFINES",
              "DERIVES_FROM", "ENABLES", "PRECEDES", "BLOCKS", "CONTRADICTS")
EDGE_WEIGHTS = (24, 12, 8, 3, 10, 10, 8, 10, 6, 9)

EPOCHS = ("2025Q1", "2025Q2", "2025Q3", "2025Q4", "2026Q1")
DEPTHS = ("summary", "detail", "raw")
VARIANTS = ("v1", "v2")
N_AUTHORS = 16
N_ANCHORS = 48
ZIPF_EXPONENT = 1.1


def iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def serialize(obj) -> bytes:
    """Canonical bytes of generated data (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class World:
    """Generator-side model of a corpus and its event clock.

    ``clock`` is the timestamp of the latest event; every emitted event
    advances it, so event time in the log is monotone. ``cycle()`` mirrors
    ``CorpusStore.apply_cycle()`` without an explicit time: the first cycle
    runs one period after the latest event, each later one a period after
    the previous cycle.
    """

    def __init__(self, seed: int, *, n_entities: int, n_domains: int, dim: int,
                 embed_frac: float = 0.9) -> None:
        self.rng = random.Random(seed)
        rng = self.rng
        self.dim = dim
        self.embed_frac = embed_frac
        self.entities = [f"ent{i:04d}" for i in range(n_entities)]
        self.entity_cum = list(accumulate(
            1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n_entities)))
        self.domains = [f"dom{i:02d}" for i in range(n_domains)]
        self.home_domain = {e: rng.choice(self.domains) for e in self.entities}
        self.centroids = {d: [rng.gauss(0.0, 1.0) for _ in range(dim)]
                          for d in self.domains}
        self.anchors = [f"anc{i:02d}" for i in range(N_ANCHORS)]
        self.class_cum = list(accumulate(CLASS_WEIGHTS))
        self.edge_cum = list(accumulate(EDGE_WEIGHTS))

        self.clock = T0
        self.last_cycle_at: int | None = None
        self.ids: list[str] = []
        self.koc: dict[str, dict] = {}
        self.by_entity: dict[str, list[str]] = {}
        self.edge_keys: set[tuple[str, str, str]] = set()
        self.open_questions: list[str] = []

    # -- draws ------------------------------------------------------------

    def entity(self) -> str:
        x = self.rng.random() * self.entity_cum[-1]
        return self.entities[min(bisect(self.entity_cum, x), len(self.entities) - 1)]

    def domain_for(self, entity: str) -> str:
        if self.rng.random() < 0.7:
            return self.home_domain[entity]
        return self.rng.choice(self.domains)

    def embedding(self, domain: str) -> list[float]:
        c = self.centroids[domain]
        return [round(x + self.rng.gauss(0.0, 0.6), 6) for x in c]

    def popular_id(self) -> str:
        """An existing object, skewed towards popular entities."""
        for _ in range(8):
            ids = self.by_entity.get(self.entity())
            if ids:
                return self.rng.choice(ids)
        return self.rng.choice(self.ids)

    def tick(self, step: int = 1) -> int:
        self.clock += step
        if self.last_cycle_at is not None and \
                self.clock >= self.last_cycle_at + CYCLE_PERIOD_S:
            raise RuntimeError("generator clock ran past the next cycle")
        return self.clock

    # -- records ------------------------------------------------------------

    def ko_fields(self, ko_id: str, cls: str | None = None) -> dict:
        """A valid corpus-format KO record; does not register the object."""
        rng = self.rng
        if cls is None:
            cls = CLASSES[bisect(self.class_cum, rng.random() * self.class_cum[-1])]
        entity = self.entity()
        domain = self.domain_for(entity)
        koc = {"entity": entity, "domain": domain, "class": cls,
               "epoch": rng.choice(EPOCHS), "depth": rng.choice(DEPTHS),
               "author": f"au{rng.randrange(N_AUTHORS):02d}",
               "variant": rng.choice(VARIANTS)}
        record = {
            "kind": "ko", "id": ko_id, "class": cls, "koc": koc,
            "content": f"{cls.lower()} on {entity}/{domain} #{len(self.ids)}",
            "created_at": iso(self.tick(rng.randint(1, 20))),
            "anchors": sorted(rng.sample(self.anchors, rng.randint(0, 3))),
            "embedding": (self.embedding(domain)
                          if rng.random() < self.embed_frac else None),
            "scores": {"confidence": round(rng.uniform(0.5, 1.0), 3),
                       "freshness": round(rng.uniform(0.3, 1.0), 3)},
        }
        if cls == "QUESTION":
            record["stakes"] = round(rng.random(), 3)
        return record

    def ko_record(self, ko_id: str, cls: str | None = None) -> dict:
        """A valid KO record for a new object; registers the object."""
        record = self.ko_fields(ko_id, cls)
        koc = record["koc"]
        if record["class"] == "QUESTION":
            self.open_questions.append(ko_id)
        self.ids.append(ko_id)
        self.koc[ko_id] = koc
        self.by_entity.setdefault(koc["entity"], []).append(ko_id)
        return record

    def edge_type(self) -> str:
        return EDGE_TYPES[bisect(self.edge_cum, self.rng.random() * self.edge_cum[-1])]

    def edge_record(self, source: str, target: str, edge_type: str) -> dict:
        self.edge_keys.add((source, target, edge_type))
        return {"kind": "edge", "source": source, "target": target,
                "type": edge_type, "created_at": iso(self.tick(self.rng.randint(0, 3)))}

    def pick_edge(self, source: str | None = None,
                  edge_type: str | None = None) -> tuple[str, str, str] | None:
        """A new, valid (source, target, type) triple, or None."""
        rng = self.rng
        for _ in range(20):
            src = source if source is not None else self.popular_id()
            if rng.random() < 0.6:
                peers = self.by_entity[self.koc[src]["entity"]]
                dst = rng.choice(peers)
            else:
                dst = self.popular_id()
            et = edge_type if edge_type is not None else self.edge_type()
            if src != dst and (src, dst, et) not in self.edge_keys:
                return src, dst, et
        return None

    # -- library operations ------------------------------------------------

    def supersede_op(self) -> list | None:
        for _ in range(20):
            new, old = self.popular_id(), self.popular_id()
            if new != old and (new, old, "SUPERSEDES") not in self.edge_keys:
                self.edge_keys.add((new, old, "SUPERSEDES"))
                return ["supersede", new, old, self.tick()]
        return None

    def resolve_op(self) -> list | None:
        rng = self.rng
        while self.open_questions:
            q = self.open_questions.pop(rng.randrange(len(self.open_questions)))
            for _ in range(20):
                resolver = self.popular_id()
                if resolver != q and (resolver, q, "IMPLEMENTS") not in self.edge_keys:
                    self.edge_keys.add((resolver, q, "IMPLEMENTS"))
                    return ["resolve", q, resolver, self.tick()]
        return None

    def retrieve_ops(self, n: int) -> list[list]:
        return [["retrieve", self.popular_id(), self.tick(self.rng.randint(0, 30))]
                for _ in range(n)]

    def cycle_op(self) -> list:
        base = self.last_cycle_at if self.last_cycle_at is not None else self.clock
        self.last_cycle_at = self.clock = base + CYCLE_PERIOD_S
        return ["cycle", self.clock]

    # -- composite ----------------------------------------------------------

    def corpus(self, n_kos: int, edges_per_ko: float) -> list[dict]:
        """The initial corpus: ``n_kos`` objects, then about
        ``edges_per_ko * n_kos`` edges covering every edge type."""
        # The first nine objects and edges take every class and edge type
        # once, so even a small corpus covers the whole vocabulary.
        records = [self.ko_record(f"k{i:05d}", CLASSES[i] if i < len(CLASSES) else None)
                   for i in range(n_kos)]
        for et in EDGE_TYPES:
            triple = self.pick_edge(edge_type=et)
            if triple is not None:
                records.append(self.edge_record(*triple))
        for _ in range(int(edges_per_ko * n_kos) - len(EDGE_TYPES)):
            triple = self.pick_edge()
            if triple is not None:
                records.append(self.edge_record(*triple))
        return records

    def history(self, cycles: int, retrievals_per_cycle: int) -> list[list]:
        """Library operations after the initial ingest: a few supersedes and
        resolves, then ``cycles`` cycles each preceded by retrievals."""
        ops: list[list] = []
        for _ in range(max(2, len(self.ids) // 100)):
            for op in (self.supersede_op(), self.resolve_op()):
                if op is not None:
                    ops.append(op)
        for _ in range(cycles):
            ops += self.retrieve_ops(retrievals_per_cycle)
            ops.append(self.cycle_op())
        return ops

    def query(self) -> dict:
        """A retrieval request; about 80% carry an embedding."""
        rng = self.rng
        entity = self.entity()
        domain = self.domain_for(entity)
        anchor_koc = None
        r = rng.random()
        if r < 0.15:
            anchor_koc = self.koc[self.popular_id()]
        elif r < 0.20:
            anchor_koc = {"entity": entity, "domain": domain, "class": "EVIDENCE",
                          "epoch": rng.choice(EPOCHS), "depth": "summary",
                          "author": "au00", "variant": "v1"}
        return {
            "text": f"about {entity} in {domain}",
            "embedding": self.embedding(domain) if rng.random() < 0.8 else None,
            "entity": entity, "domain": domain,
            "anchors": sorted(rng.sample(self.anchors, rng.randint(0, 2))),
            "anchor_koc": anchor_koc,
            "top_k": rng.choice((5, 10, 10, 20, 50)),
            "include_dormant": rng.random() < 0.10,
            "exclude_peripheral": rng.random() < 0.10,
        }


def plant_duplicate(world: World) -> dict:
    """A KO record reusing an existing id: rejected as a duplicate id."""
    return world.ko_fields(world.rng.choice(world.ids))


def plant_dangling(world: World, tag: str) -> dict:
    """An edge record whose target does not exist: rejected per line."""
    return {"kind": "edge", "source": world.popular_id(), "target": f"missing-{tag}",
            "type": "SUPPORTS", "created_at": iso(world.tick())}


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------

SERVE = dict(n_kos=3000, edges_per_ko=3.0, dim=32, n_entities=300, n_domains=12,
             cycles=3, retrievals_per_cycle=200, queries=600)
CHURN = dict(n_kos=1500, edges_per_ko=3.0, dim=32, n_entities=150, n_domains=10,
             cycles=24, retrievals_per_cycle=40)
CLI = dict(n_kos=200, edges_per_ko=3.0, dim=16, n_entities=40, n_domains=6,
           cycles=30, retrievals_per_cycle=100)


def base_plan(seed: int, shape: dict) -> tuple[World, dict]:
    world = World(seed, n_entities=shape["n_entities"],
                  n_domains=shape["n_domains"], dim=shape["dim"])
    corpus = world.corpus(shape["n_kos"], shape["edges_per_ko"])
    history = world.history(shape["cycles"], shape["retrievals_per_cycle"])
    return world, {"corpus": corpus, "history": history}


def serve_plan(seed: int, shape: dict = SERVE) -> dict:
    """Corpus, set-up history and the query list for ``serve_queries``."""
    world, plan = base_plan(seed, shape)
    plan["queries"] = [world.query() for _ in range(shape["queries"])]
    return plan


def churn_steps(world: World, retrievals: int) -> Iterator[dict]:
    """Endless ``cycle_churn`` steps: a library batch, then one cycle.

    A batch holds two new objects, three SUPPORTS and one CONTRADICTS edge,
    a resolve every fifth step, a supersede every seventh, ``retrievals``
    retrievals and, every tenth step, one planted duplicate id and one
    dangling edge that the store must reject. Growth per step is kept small
    because a faster run does more steps: the graph a run ends on should not
    depend much on how fast the machine was.
    """
    step = 0
    while True:
        step += 1
        ops: list[list] = []
        new_ids = []
        for i in range(2):
            ko_id = f"s{step:05d}-{i}"
            ops.append(["ko", world.ko_record(ko_id)])
            new_ids.append(ko_id)
        for i in range(4):
            triple = world.pick_edge(source=new_ids[i] if i < 2 else None,
                                     edge_type="CONTRADICTS" if i == 3 else "SUPPORTS")
            if triple is not None:
                ops.append(["edge", world.edge_record(*triple)])
        if step % 5 == 0 and (op := world.resolve_op()) is not None:
            ops.append(op)
        if step % 7 == 0 and (op := world.supersede_op()) is not None:
            ops.append(op)
        if step % 10 == 0:
            ops.append(["reject_ko", plant_duplicate(world)])
            ops.append(["reject_edge", plant_dangling(world, f"s{step}")])
        ops += world.retrieve_ops(retrievals)
        yield {"batch": ops, "cycle_at": world.cycle_op()[1], "n_kos": len(world.ids)}


def churn_plan(seed: int, shape: dict = CHURN) -> tuple[dict, Iterator[dict]]:
    """Set-up plan for ``cycle_churn`` and the generator of its steps."""
    world, plan = base_plan(seed, shape)
    return plan, churn_steps(world, shape["retrievals_per_cycle"])


def cli_rounds(world: World, queries_per_round: int = 3) -> Iterator[dict]:
    """Endless ``cli_history`` rounds: an ingest file, one cycle, queries.

    The ingest file is a corpus-format file with four new objects and eight
    edges; it also carries one duplicate id and one dangling edge, which
    ``ingest`` reports as rejected lines. ``expect`` gives the counts and
    line numbers ``ingest --format records`` must print.
    """
    rnd = 0
    while True:
        rnd += 1
        lines: list[dict] = [{"kind": "header", "format_version": 1,
                              "embedding_dim": world.dim}]
        new_ids = []
        for i in range(4):
            ko_id = f"r{rnd:04d}-{i}"
            lines.append(world.ko_record(ko_id))
            new_ids.append(ko_id)
        dup_line = len(lines) + 1
        lines.append(plant_duplicate(world))
        edges = 0
        for i in range(8):
            triple = world.pick_edge(source=new_ids[i % 4] if i < 4 else None)
            if triple is not None:
                lines.append(world.edge_record(*triple))
                edges += 1
        dangling_line = len(lines) + 1
        lines.append(plant_dangling(world, f"r{rnd}"))
        ingest = b"\n".join(serialize(x) for x in lines) + b"\n"
        yield {"ingest": ingest,
               "expect": {"kos": 4, "edges": edges,
                          "rejected_lines": sorted([dup_line, dangling_line])},
               "cycle_at": world.cycle_op()[1],
               "queries": [world.query() for _ in range(queries_per_round)]}


def cli_plan(seed: int, shape: dict = CLI) -> tuple[dict, Iterator[dict]]:
    """Set-up plan for ``cli_history`` and the generator of its rounds."""
    world, plan = base_plan(seed, shape)
    return plan, cli_rounds(world)

"""Out-of-program tracing for the kgravity benchmark.

The tracer wraps kgravity's public functions at the names they are looked
up by (module globals and class attributes), so no file of the program
changes. Entry points record spans (name, start, end, parent span, op id);
per-object functions only add to counters (calls, total ns) so the trace
stays small. Every wrapped call also charges its duration to the wrapped
call that encloses it, which gives each function its self time.

Recording is off unless ``Tracer.active`` is set; the benchmark sets it only
around timed operations, so set-up and output checks leave no trace.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns

# (module attr path, attribute, metric name, kind). Kinds: "span" records a
# span and timing; "timed" records timing only; "count" only counts calls.
TARGETS = [
    ("cli", "main", "cli.main", "span"),
    ("cli", "read_events", "store.read_events", "span"),
    ("cli", "append_events", "store.append_events", "span"),
    ("cli", "write_corpus", "store.write_corpus", "span"),
    ("cli", "read_corpus", "store.read_corpus", "span"),
    ("cli", "rank", "retrieval.rank", "span"),
    ("retrieval", "rank", "retrieval.rank", "span"),
    ("store.CorpusStore", "replay", "store.replay", "span"),
    ("store.CorpusStore", "apply_cycle", "store.apply_cycle", "span"),
    ("store.CorpusStore", "snapshot", "store.snapshot", "timed"),
    ("store.CorpusStore", "ingest_record", "store.ingest_record", "timed"),
    ("store.CorpusStore", "add_edge", "store.add_edge", "timed"),
    ("store.CorpusStore", "supersede", "store.supersede", "timed"),
    ("store.CorpusStore", "resolve_question", "store.resolve_question", "timed"),
    ("store.CorpusStore", "record_retrieval", "store.record_retrieval", "timed"),
    ("store", "run_cycle", "engine.run_cycle", "span"),
    ("store", "question_urgency", "engine.question_urgency", "count"),
    ("engine", "run_cycle", "engine.run_cycle", "span"),
    ("engine", "gravity_force", "engine.gravity_force", "timed"),
    ("engine", "usage_force", "engine.usage_force", "timed"),
    ("engine", "evidence_force", "engine.evidence_force", "timed"),
    ("engine", "contradiction_penalty", "engine.contradiction_penalty", "timed"),
    ("engine", "kge_step", "engine.kge_step", "timed"),
    ("engine", "question_urgency", "engine.question_urgency", "count"),
    ("retrieval", "resolve_focus", "retrieval.resolve_focus", "timed"),
    ("retrieval", "hop_distances", "retrieval.hop_distances", "timed"),
    ("retrieval", "structural_sim", "retrieval.structural_sim", "timed"),
    ("retrieval", "semantic_sim", "retrieval.semantic_sim", "timed"),
    ("retrieval", "contextual_attention", "retrieval.contextual_attention", "timed"),
    ("retrieval", "k_eff", "retrieval.k_eff", "count"),
    ("model", "zone_for", "model.zone_for", "count"),
    ("model.KnowledgeObject", "__post_init__", "model.ko_constructed", "count"),
    ("model.ScoreVector", "__post_init__", "model.scores_constructed", "count"),
]

REJECTING = ("store.ingest_record", "store.add_edge", "store.supersede",
             "store.resolve_question", "store.record_retrieval")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Stat:
    __slots__ = ("calls", "ns", "child_ns", "errors")

    def __init__(self) -> None:
        self.calls = self.ns = self.child_ns = self.errors = 0


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = 0
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.work: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self._stack: list[list] = []  # [child_ns, nearest span index or -1]
        self._undo: list[tuple[object, str, object]] = []

    def enabled(self, fn):
        """``fn`` with recording switched on for the length of the call."""
        def run(*args, **kwargs):
            self.active = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.active = False
        return run

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        for path, attr, name, kind in TARGETS:
            owner = package
            for part in path.split("."):
                owner = getattr(owner, part)
            raw = vars(owner).get(attr)
            if raw is None:
                continue  # renamed or removed: its metrics read 0
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapper = self._wrap(fn, name, kind)
            setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, name: str, kind: str):
        stat = self.stats[name]
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        if kind == "count":
            def counted(*args, **kwargs):
                if self.active:
                    stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack, spans = self._stack, self.spans
        record_span = kind == "span"

        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            ctx = before(args) if before is not None else None
            parent = stack[-1][1] if stack else -1
            if record_span:
                frame = [0, len(spans)]
                spans.append([name, 0, 0, parent, self.op_id])
            else:
                frame = [0, parent]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.ns += dur
                stat.child_ns += frame[0]
                if record_span:
                    spans[frame[1]][1:3] = [t0, t1]
            if after is not None:
                self.active = False
                try:
                    after(self.work, args, result, ctx)
                finally:
                    self.active = True
            return result
        return timed

    # -- results ------------------------------------------------------------

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics in the names BENCHMARK.json lists; times are
        multiplied by ``scale`` (the run's calibration factor)."""
        s, w = self.stats, self.work

        def ms(name):
            return s[name].ns * scale / 1e6

        def self_ms(name):
            return (s[name].ns - s[name].child_ns) * scale / 1e6

        def per(name, key):  # microseconds per object or edge seen
            return ms(name) * 1e3 / w[key] if w[key] else 0.0

        return {
            "cli.main.calls": s["cli.main"].calls,
            "cli.main.ms": ms("cli.main"),
            "cli.main.self_ms": self_ms("cli.main"),
            "store.read_events.ms": ms("store.read_events"),
            "store.read_events.events": w["read_events.events"],
            "store.read_events.bytes": w["read_events.bytes"],
            "store.replay.ms": ms("store.replay"),
            "store.replay.self_ms": self_ms("store.replay"),
            "store.replay.events": w["replay.events"],
            "store.replay.cycles": w["replay.cycles"],
            "store.replay.us_per_ko": per("store.replay", "replay.kos"),
            "store.replay.us_per_edge": per("store.replay", "replay.edges"),
            "store.append_events.ms": ms("store.append_events"),
            "store.append_events.bytes": w["append_events.bytes"],
            "store.write_corpus.ms": ms("store.write_corpus"),
            "store.write_corpus.bytes": w["write_corpus.bytes"],
            "store.read_corpus.ms": ms("store.read_corpus"),
            "store.ingest_record.calls": s["store.ingest_record"].calls,
            "store.ingest_record.ms": ms("store.ingest_record"),
            "store.add_edge.calls": s["store.add_edge"].calls,
            "store.add_edge.ms": ms("store.add_edge"),
            "store.rejections": sum(s[n].errors for n in REJECTING),
            "store.record_retrieval.calls": s["store.record_retrieval"].calls,
            "store.record_retrieval.ms": ms("store.record_retrieval"),
            "store.apply_cycle.calls": s["store.apply_cycle"].calls,
            "store.apply_cycle.ms": ms("store.apply_cycle"),
            "store.apply_cycle.self_ms": self_ms("store.apply_cycle"),
            "store.snapshot.calls": s["store.snapshot"].calls,
            "store.snapshot.ms": ms("store.snapshot"),
            "engine.run_cycle.calls": s["engine.run_cycle"].calls,
            "engine.run_cycle.ms": ms("engine.run_cycle"),
            "engine.run_cycle.self_ms": self_ms("engine.run_cycle"),
            "engine.run_cycle.us_per_ko": per("engine.run_cycle", "run_cycle.kos"),
            "engine.run_cycle.us_per_edge": per("engine.run_cycle", "run_cycle.edges"),
            "engine.kos_updated": w["run_cycle.updated"],
            "engine.kos_frozen": w["run_cycle.kos"] - w["run_cycle.updated"],
            "engine.gravity_force.calls": s["engine.gravity_force"].calls,
            "engine.gravity_force.ms": ms("engine.gravity_force"),
            "engine.usage_force.calls": s["engine.usage_force"].calls,
            "engine.usage_force.ms": ms("engine.usage_force"),
            "engine.usage_force.ages": w["usage_force.ages"],
            "engine.evidence_force.ms": ms("engine.evidence_force"),
            "engine.contradiction_penalty.ms": ms("engine.contradiction_penalty"),
            "engine.kge_step.ms": ms("engine.kge_step"),
            "engine.question_urgency.calls": s["engine.question_urgency"].calls,
            "retrieval.rank.calls": s["retrieval.rank"].calls,
            "retrieval.rank.ms": ms("retrieval.rank"),
            "retrieval.rank.self_ms": self_ms("retrieval.rank"),
            "retrieval.rank.us_per_ko": per("retrieval.rank", "rank.kos"),
            "retrieval.rank.us_per_edge": per("retrieval.rank", "rank.edges"),
            "retrieval.rank.scored": s["retrieval.k_eff"].calls,
            "retrieval.rank.returned": w["rank.returned"],
            "retrieval.resolve_focus.ms": ms("retrieval.resolve_focus"),
            "retrieval.hop_distances.ms": ms("retrieval.hop_distances"),
            "retrieval.hop_distances.reached": w["hop_distances.reached"],
            "retrieval.structural_sim.calls": s["retrieval.structural_sim"].calls,
            "retrieval.structural_sim.ms": ms("retrieval.structural_sim"),
            "retrieval.semantic_sim.calls": s["retrieval.semantic_sim"].calls,
            "retrieval.semantic_sim.ms": ms("retrieval.semantic_sim"),
            "retrieval.contextual_attention.ms": ms("retrieval.contextual_attention"),
            "model.ko_constructed": s["model.ko_constructed"].calls,
            "model.scores_constructed": s["model.scores_constructed"].calls,
            "model.zone_for.calls": s["model.zone_for"].calls,
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                    "parent": parent, "op": op}) + "\n")


# -- work counts taken from arguments and results ---------------------------

def _replay_after(work, args, store, ctx):
    events = store.events
    work["replay.events"] += len(events)
    work["replay.cycles"] += sum(1 for e in events if e.kind.value == "CYCLE_APPLIED")
    snap = store.snapshot()
    work["replay.kos"] += len(snap.kos)
    work["replay.edges"] += len(snap.edges)


def _run_cycle_after(work, args, result, ctx):
    snapshot = args[0]
    work["run_cycle.kos"] += len(snapshot.kos)
    work["run_cycle.edges"] += len(snapshot.edges)
    work["run_cycle.updated"] += len(result[1])


def _rank_after(work, args, result, ctx):
    snapshot = args[1]
    work["rank.kos"] += len(snapshot.kos)
    work["rank.edges"] += len(snapshot.edges)
    work["rank.returned"] += len(result)


def _read_events_after(work, args, result, ctx):
    work["read_events.events"] += len(result)
    work["read_events.bytes"] += _file_size(args[0])


def _append_after(work, args, result, ctx):
    work["append_events.bytes"] += _file_size(args[0]) - ctx


def _write_corpus_after(work, args, result, ctx):
    work["write_corpus.bytes"] += _file_size(args[1])


def _usage_after(work, args, result, ctx):
    work["usage_force.ages"] += len(args[0])


def _hops_after(work, args, result, ctx):
    work["hop_distances.reached"] += len(result)


_BEFORE = {"store.append_events": lambda args: _file_size(args[0])}
_AFTER = {
    "store.replay": _replay_after,
    "engine.run_cycle": _run_cycle_after,
    "retrieval.rank": _rank_after,
    "store.read_events": _read_events_after,
    "store.append_events": _append_after,
    "store.write_corpus": _write_corpus_after,
    "engine.usage_force": _usage_after,
    "retrieval.hop_distances": _hops_after,
}

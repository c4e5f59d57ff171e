"""The three kgravity workloads: set-up, one timed step, output checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. An instance holds one built state;
``setup`` builds it from the seed, ``step`` runs the next operation(s)
through ``Ops.call`` (which times them) and checks the outputs, and
``final_check`` compares live state with a replay of the log.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import signal
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import gen


#: The calibration loop's duration that times are scaled to (see calibrate).
CAL_REF_NS = 1_150_000
#: How often the calibration loop samples the machine's speed during a call.
SAMPLE_S = 0.05
_CAL_DATA = [float(i) for i in range(4096)]


def calibrate() -> int:
    """Nanoseconds taken by a fixed piece of pure-Python work.

    The machines this runs on are shared, and their speed drifts by up to
    2x over seconds. Timing this loop right before and after each operation
    and scaling the operation's time by ``CAL_REF_NS / loop time`` cancels
    most of that drift. A variant with a second half that chased pointers
    through a 10 MB heap tracked the workloads worse: it over-corrected,
    reading higher when the machine was fast.
    """
    t0 = perf_counter_ns()
    d: dict[int, float] = {}
    s = 0.0
    data = _CAL_DATA
    for i in range(6000):
        k = i & 511
        d[k] = d.get(k, 0.0) + data[(i * 7) & 4095] * 0.5
        s += math.sqrt(i)
    return perf_counter_ns() - t0


def timed(fn, *args, **kwargs):
    """Run ``fn``; returns (result, wall ns, wall ns scaled by calibration).

    The calibration loop runs before and after the call and, every
    ``SAMPLE_S`` seconds, inside it from a SIGALRM handler, so long calls
    are scaled by the machine's speed while they ran. Time spent in the
    handler is taken out of the call's wall time. The handler stays
    installed afterwards, so a signal already on its way when the timer is
    stopped cannot reach the default action, which would end the process.
    """
    cals = [calibrate()]
    spent = 0

    def sample(signum, frame):
        nonlocal spent
        t = perf_counter_ns()
        cals.append(calibrate())
        spent += perf_counter_ns() - t

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    t0 = perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter_ns()
    wall = t1 - t0 - spent
    cals.append(calibrate())
    return result, wall, wall * CAL_REF_NS * len(cals) / sum(cals)


class Ops:
    """Latencies and outcomes of the timed operations of one phase.

    ``lat_ns`` holds calibrated times (see ``calibrate``), ``wall_ns`` the
    raw wall-clock times of the same operations.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.lat_ns: dict[str, list[float]] = defaultdict(list)
        self.wall_ns: dict[str, list[int]] = defaultdict(list)
        self.ok: list[bool] = []
        self.hash = hashlib.sha256()
        self.digest: str | None = None

    def call(self, kind: str, fn, *args, **kwargs):
        """Run one timed operation; the tracer records only inside it."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.ok) + 1
            fn = tracer.enabled(fn)
        result, wall, scaled = timed(fn, *args, **kwargs)
        self.lat_ns[kind].append(scaled)
        self.wall_ns[kind].append(wall)
        return result

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.lat_ns.values()) / 1e9


def apply_ops(kg, store, ops: list[list]) -> int:
    """Apply generated library operations; returns how many did not behave
    as generated (a planted rejection accepted, or a valid op rejected)."""
    ValidationError = kg.store.ValidationError
    iso_to_ts = kg.store.iso_to_ts
    bad = 0
    for op in ops:
        kind = op[0]
        try:
            if kind == "ko":
                store.ingest_record(op[1])
            elif kind == "edge":
                r = op[1]
                store.add_edge(r["source"], r["target"], r["type"],
                               at=iso_to_ts(r["created_at"]))
            elif kind == "retrieve":
                store.record_retrieval(op[1], at=op[2])
            elif kind == "cycle":
                snapshot, _ = store.apply_cycle()
                bad += snapshot.cycle_at != op[1]
            elif kind == "supersede":
                store.supersede(op[1], op[2], at=op[3])
            elif kind == "resolve":
                store.resolve_question(op[1], op[2], at=op[3])
            elif kind == "reject_ko":
                store.ingest_record(op[1])
                bad += 1
            elif kind == "reject_edge":
                r = op[1]
                store.add_edge(r["source"], r["target"], r["type"],
                               at=iso_to_ts(r["created_at"]))
                bad += 1
            else:
                raise ValueError(f"unknown generated op {kind!r}")
        except ValidationError:
            bad += not kind.startswith("reject_")
    return bad


def build_store(kg, plan: dict):
    store = kg.store.CorpusStore()
    bad = apply_ops(kg, store, [["ko" if r["kind"] == "ko" else "edge", r]
                                for r in plan["corpus"]])
    bad += apply_ops(kg, store, plan["history"])
    if bad:
        raise RuntimeError(f"{bad} generated set-up operations were not accepted")
    return store


def rank_ok(rows: list[tuple[str, float, float, float]], top_k: int,
            eligible: int) -> bool:
    """The rank invariants on (id, R, H, K_eff) rows: ordered by (-R, id),
    R == H * K_eff exactly, and min(top_k, eligible) rows."""
    keys = [(-r, ko_id) for ko_id, r, _, _ in rows]
    return (keys == sorted(keys)
            and all(r == h * k for _, r, h, k in rows)
            and len(rows) == min(top_k, eligible))


def eligible(zones: dict[str, int], include_dormant: bool,
             exclude_peripheral: bool) -> int:
    n = sum(zones.values())
    if not include_dormant:
        n -= zones.get("DORMANT", 0)
    if exclude_peripheral:
        n -= zones.get("PERIPHERAL", 0)
    return n


def zone_counts(snapshot) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for ko in snapshot.kos.values():
        counts[ko.zone.name] += 1
    return dict(counts)


def shape_of(kg, store, log_path: Path) -> dict:
    """Workload shape at the end of a run, for spotting drift."""
    snapshot = store.snapshot()
    if not log_path.exists():
        kg.store.append_events(log_path, store.events)
    zones = zone_counts(snapshot)
    return {
        "objects": len(snapshot.kos), "edges": len(snapshot.edges),
        "events": len(store.events), "log_bytes": log_path.stat().st_size,
        "retrievals": sum(len(ko.retrieved_at) for ko in snapshot.kos.values()),
        **{f"zone_{z.name.lower()}": zones.get(z.name, 0)
           for z in kg.model.MemoryZone},
    }


class ServeQueries:
    """``rank`` against one snapshot of a large, cycled graph."""

    name = "serve_queries"
    main_kind = "query"
    prefix_ops = 40

    def __init__(self, kg, seed: int, workdir: Path) -> None:
        self.kg, self.seed, self.workdir = kg, seed, workdir

    def setup(self) -> None:
        kg = self.kg
        plan = gen.serve_plan(self.seed)
        self.store = build_store(kg, plan)
        self.snapshot = self.store.snapshot()
        self.weights = kg.retrieval.RetrievalWeights()
        self.koc_weights = self.store.params.koc_axis_weights
        self.queries = [self._query(q) for q in plan["queries"]]
        self.zones = zone_counts(self.snapshot)
        self.i = 0

    def _query(self, q: dict):
        kg = self.kg
        koc = q["anchor_koc"]
        if koc is not None:
            koc = kg.model.Koc(entity=koc["entity"], domain=koc["domain"],
                               cls=kg.model.EpistemicClass(koc["class"]),
                               epoch=koc["epoch"], depth=koc["depth"],
                               author=koc["author"], variant=koc["variant"])
        emb = q["embedding"]
        return kg.retrieval.Query(
            text=q["text"], embedding=tuple(emb) if emb is not None else None,
            primary_entity=q["entity"], domain=q["domain"],
            active_anchors=frozenset(q["anchors"]), anchor_koc=koc,
            top_k=q["top_k"], include_dormant=q["include_dormant"],
            exclude_peripheral=q["exclude_peripheral"])

    def step(self, ops: Ops) -> bytes:
        q = self.queries[self.i % len(self.queries)]
        self.i += 1
        try:
            results = ops.call("query", self.kg.retrieval.rank, q, self.snapshot,
                               self.weights, self.koc_weights)
        except Exception:
            ops.ok.append(False)
            return b"error\n"
        rows = [(r.ko_id, r.rank_score, r.hybrid, r.k_eff) for r in results]
        ops.ok.append(rank_ok(rows, q.top_k, eligible(
            self.zones, q.include_dormant, q.exclude_peripheral)))
        return "".join(f"{i} {r!r} {h!r} {k!r}\n" for i, r, h, k in rows).encode()

    def state_bytes(self) -> bytes:
        return b""

    def final_check(self) -> bool:
        return True

    def shape(self) -> dict:
        return shape_of(self.kg, self.store, self.workdir / "events.jsonl")


class CycleChurn:
    """Library ingest batches and ``apply_cycle`` on a mid-size graph."""

    name = "cycle_churn"
    main_kind = "cycle"
    prefix_ops = 16

    def __init__(self, kg, seed: int, workdir: Path) -> None:
        self.kg, self.seed, self.workdir = kg, seed, workdir

    def setup(self) -> None:
        plan, self.steps = gen.churn_plan(self.seed)
        self.store = build_store(self.kg, plan)

    def step(self, ops: Ops) -> bytes:
        st = next(self.steps)
        try:
            bad = ops.call("ingest", apply_ops, self.kg, self.store, st["batch"])
            ops.ok.append(bad == 0)
        except Exception:
            ops.ok.append(False)
        try:
            snapshot, breakdowns = ops.call("cycle", self.store.apply_cycle)
        except Exception:
            ops.ok.append(False)
            return b"error\n"
        ops.ok.append(snapshot.cycle_at == st["cycle_at"]
                      and len(snapshot.kos) == st["n_kos"]
                      and all(0.0 <= fb.k_after <= 1.0 for fb in breakdowns))
        return "".join(f"{fb.ko_id} {fb.k_after!r}\n" for fb in breakdowns).encode()

    def state_bytes(self) -> bytes:
        return "\n".join(self.kg.store.corpus_lines(self.store)).encode()

    def final_check(self) -> bool:
        st = self.kg.store
        log = self.workdir / "events.jsonl"
        st.append_events(log, self.store.events)
        replayed = st.CorpusStore.replay(st.read_events(log))
        return st.corpus_lines(replayed) == st.corpus_lines(self.store)

    def shape(self) -> dict:
        return shape_of(self.kg, self.store, self.workdir / "events.jsonl")


class CliHistory:
    """``kgravity`` commands against a log with a long history."""

    name = "cli_history"
    main_kind = None  # every command
    prefix_ops = 5

    def __init__(self, kg, seed: int, workdir: Path) -> None:
        self.kg, self.seed, self.workdir = kg, seed, workdir
        self.log = workdir / "events.jsonl"
        self.corpus = workdir / "corpus.jsonl"

    def setup(self) -> None:
        kg = self.kg
        plan, self.rounds = gen.cli_plan(self.seed)
        store = build_store(kg, plan)
        kg.store.append_events(self.log, store.events)
        kg.store.write_corpus(store, self.corpus)
        self.n_kos = len(store.snapshot().kos)
        self.zones: dict[str, int] = {}
        self.commands = self._commands()

    def _commands(self):
        """Endless commands, round after round: ``ingest`` of the round's
        file, ``cycle 1``, then the round's queries."""
        for n, rnd in enumerate(self.rounds, 1):
            path = self.workdir / f"ingest-{n:04d}.jsonl"
            path.write_bytes(rnd["ingest"])
            yield ("ingest", str(path), rnd["expect"])
            yield ("cycle", rnd["cycle_at"])
            for q in rnd["queries"]:
                yield ("query", q)

    def _argv(self, cmd: tuple) -> list[str]:
        argv = ["--log", str(self.log), "--corpus", str(self.corpus),
                "--format", "records"]
        if cmd[0] == "ingest":
            return argv + ["ingest", cmd[1]]
        if cmd[0] == "cycle":
            return argv + ["cycle", "1"]
        q = cmd[1]
        argv += ["query", q["text"], f"--entity={q['entity']}",
                 f"--domain={q['domain']}", f"--anchors={','.join(q['anchors'])}",
                 f"--top-k={q['top_k']}"]
        if q["embedding"] is not None:
            argv.append("--embedding=" + ",".join(repr(x) for x in q["embedding"]))
        if q["include_dormant"]:
            argv.append("--include-dormant")
        if q["exclude_peripheral"]:
            argv.append("--exclude-peripheral")
        return argv

    def step(self, ops: Ops) -> bytes:
        cmd = next(self.commands)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = ops.call(cmd[0], self.kg.cli.main, self._argv(cmd))
            except Exception:
                code = None
        text = out.getvalue()
        ops.ok.append(code == 0 and self._output_ok(cmd, text))
        return text.encode()

    def _output_ok(self, cmd: tuple, text: str) -> bool:
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except ValueError:
            return False
        if cmd[0] == "ingest":
            expect = cmd[2]
            got = records[0] if len(records) == 1 else {}
            self.n_kos += got.get("kos", 0)
            return (got.get("kos") == expect["kos"]
                    and got.get("edges") == expect["edges"]
                    and [r["line"] for r in got.get("rejections", ())]
                    == expect["rejected_lines"])
        if cmd[0] == "cycle":
            if len(records) != 1:
                return False
            self.zones = records[0]["zones"]
            return (records[0]["at"] == cmd[1]
                    and sum(self.zones.values()) == self.n_kos)
        q = cmd[1]
        try:
            rows = [(r["ko_id"], r["rank_score"], r["hybrid"], r["k_eff"])
                    for r in records]
        except (KeyError, TypeError):
            return False
        return rank_ok(rows, q["top_k"], eligible(
            self.zones, q["include_dormant"], q["exclude_peripheral"]))

    def state_bytes(self) -> bytes:
        return self.corpus.read_bytes()

    def final_check(self) -> bool:
        st = self.kg.store
        self.replayed = st.CorpusStore.replay(st.read_events(self.log))
        expected = "\n".join(st.corpus_lines(self.replayed)) + "\n"
        return self.corpus.read_text(encoding="utf-8") == expected

    def shape(self) -> dict:
        return shape_of(self.kg, self.replayed, self.log)


WORKLOADS = {w.name: w for w in (ServeQueries, CycleChurn, CliHistory)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]

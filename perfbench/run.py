"""Run one kgravity benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload serve_queries --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. The workload's state is built ``SETUP_REPS`` times (``setup_s`` is
the median), then one closed-loop client runs operations for ``--seconds``
seconds of calibrated operation time (see ``workloads.calibrate``). Every
output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs twice from identical states, once plain and once traced, and
the metrics are the per-layer ones plus the tracing overhead. Scratch files
live under ``.perfbench/work-<pid>/`` in the checkout and are removed on
exit; a traced run leaves its spans in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Ops, percentile, timed  # noqa: E402

SETUP_REPS = 3
DIGESTS = BENCH / "digests.json"


def import_kgravity():
    """Import the package from this checkout's ``src/``; returns it and the
    calibrated import time in seconds."""
    src = ROOT / "src"
    if not (src / "kgravity" / "__init__.py").is_file():
        raise SystemExit(f"error: no kgravity sources under {src}")
    sys.path.insert(0, str(src))

    def load():
        import kgravity
        import kgravity.cli  # noqa: F401  (not imported by the package itself)
        return kgravity

    kg, _, scaled = timed(load)
    return kg, scaled / 1e9


def run_phase(wl, seconds: float, tracer=None) -> Ops:
    """Run steps until their calibrated time adds up to ``seconds``, and at
    least until the digest prefix is complete; the digest covers the first
    ``prefix_ops`` outputs and the state right after them.

    The phase is measured on the calibrated clock, not the wall clock, so
    the number of steps, and with it the size the graph and history grow
    to, does not depend on how fast the machine happened to be.
    """
    ops = Ops(tracer)
    gc.collect()
    while ops.busy_s < seconds or ops.digest is None:
        out = wl.step(ops)
        if ops.digest is None:
            ops.hash.update(out)
            if len(ops.ok) >= wl.prefix_ops:
                ops.hash.update(wl.state_bytes())
                ops.digest = ops.hash.hexdigest()
    return ops


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def timed_setup(wl, import_s: float) -> float:
    """Build the workload's state; returns the calibrated set-up seconds."""
    wl.workdir.mkdir(parents=True)
    _, _, scaled = timed(wl.setup)
    return import_s + scaled / 1e9


def summary_line(wl, ops: Ops, setup_s: list[float], digest_state: str,
                 shape: dict, failed: int, attempted: int) -> str:
    parts = [f"{wl.name} seed={wl.seed}: {len(ops.ok)} ops in {ops.busy_s:.2f} s busy"]
    for kind, lat in sorted(ops.lat_ns.items()):
        ms = [x / 1e6 for x in lat]
        wall = statistics.median(ops.wall_ns[kind]) / 1e6
        text = f"{kind} n={len(ms)} p50={statistics.median(ms):.2f} ms"
        if len(ms) >= 100:
            text += f" p90={percentile(ms, 90):.2f} ms"
        parts.append(text + f" (wall p50={wall:.2f} ms)")
    parts.append("setup " + "/".join(f"{s:.3f}" for s in setup_s) + " s")
    parts.append(f"failed_frac={failed / attempted:.4f}")
    parts.append(f"digest {ops.digest[:16]} ({digest_state})")
    parts.append("shape " + json.dumps(shape, sort_keys=True))
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kg, import_s = import_kgravity()
    wl_cls = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    keep = 2 if args.trace else 1
    try:
        kept, setup_s = [], []
        for rep in range(SETUP_REPS):
            del kept[:len(kept) - keep + 1]  # at most `keep` states alive
            kept.append(wl_cls(kg, args.seed, workdir / f"rep{rep}"))
            setup_s.append(timed_setup(kept[-1], import_s))

        if args.trace:
            plain = run_phase(kept[0], args.seconds)
            tracer = Tracer()
            tracer.install(kg)
            try:
                ops = run_phase(kept[1], args.seconds, tracer)
            finally:
                tracer.uninstall()
            wl = kept[1]
        else:
            wl = kept[0]
            ops = run_phase(wl, args.seconds)

        # In a traced run the plain phase is checked too: its outputs count
        # in `attempted` and must match the same record.
        phases = [plain, ops] if args.trace else [ops]
        expected = recorded_digest(args.workload, args.seed)
        if expected is None:
            digest_state = "unrecorded"
        elif all(p.digest == expected for p in phases):
            digest_state = "matches record"
        else:
            digest_state = "MISMATCH with record"
            for p in phases:
                if p.digest != expected:
                    p.ok[:wl.prefix_ops] = [False] * wl.prefix_ops
        if not wl.final_check():
            digest_state += "; live state differs from replay"
            ops.ok = [False] * len(ops.ok)
        shape = wl.shape()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.ok) for p in phases)
    failed = sum(p.ok.count(False) for p in phases)
    print(summary_line(wl, ops, setup_s, digest_state, shape, failed, attempted))
    ops_per_s = len(ops.ok) / ops.busy_s
    if args.trace:
        wall_s = sum(sum(v) for v in ops.wall_ns.values()) / 1e9
        metrics = tracer.metrics(scale=ops.busy_s / wall_s)
        metrics.update({f"shape.{k}": v for k, v in shape.items()})
        plain_ops_per_s = len(plain.ok) / plain.busy_s
        metrics["trace.ops_per_s"] = ops_per_s
        metrics["trace.untraced_ops_per_s"] = plain_ops_per_s
        metrics["trace.overhead_ops_per_s"] = ops_per_s - plain_ops_per_s
        scratch.mkdir(exist_ok=True)
        tracer.write_spans(scratch / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        main_ns = (ops.lat_ns[wl.main_kind] if wl.main_kind
                   else [x for v in ops.lat_ns.values() for x in v])
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p50": statistics.median(main_ns) / 1e6,
            "ops_per_s": ops_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface binding the store, engine, convergence lab, and
retrieval into reproducible runs.

State lives in the append-only event log (authoritative), the corpus
snapshot and the checkpoint beside the log, which every command opens, and
every mutating one saves, through :class:`kgravity.store.Workspace`;
``verify-log`` prints what ``Workspace.verify`` finds. Every command is a
pure function of its inputs: same state + same flags gives byte-identical
output. No interactive mode. The convergence lab (``dynamics``) is imported
only by the three commands that use it, so every other command starts
without it.

Exit codes: 0 success, 1 contract violation, 2 verification failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import fields

from .engine import EngineError, EngineParams
from .model import EpistemicClass, ModelError, MemoryZone
from .retrieval import Query, RetrievalError, RetrievalWeights, rank
from .store import ReplayError, ValidationError, Workspace, read_corpus

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_VERIFICATION = 2

#: Expected divergence diagnostics checked by verify-t2 (fixed points and
#: gaps to three decimals, divergence at the first update).
T2_EXPECTED = {"k_star_q": 0.556, "k_star_o": 0.435,
               "gap_asymptotic": 0.121, "gap_day28": 0.115}
T2_TOLERANCE = 1e-3

_ENGINE_FIELDS = {f.name for f in fields(EngineParams)}
_ENGINE_DEFAULTS = EngineParams()
_WEIGHT_FIELDS = {f.name for f in fields(RetrievalWeights)}
# Corpus-record fields that ``ingest`` reads and drops: a new object starts
# with no retrievals and unresolved.
_INGEST_IGNORED = ("retrieved_at", "resolved")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are contract violations (exit 1), in subparsers too."""

    def error(self, message: str):
        raise ConfigError(message)


def _flag(convert, accept, expected: str):
    """An argparse ``type=`` that converts a flag's text and checks the value."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_COUNT = _flag(int, lambda n: n >= 0, "an integer >= 0")
# An empty --embedding leaves the query without one, as omitting it does.
_NUMBERS = _flag(lambda text: tuple(map(float, text.split(","))) if text else None,
                 lambda _: True, "comma-separated numbers")


def _coerce(key: str, raw: str):
    # A field's type is that of its default (a_c's default is derived, a float).
    default = getattr(_ENGINE_DEFAULTS, key)
    if isinstance(default, tuple):
        return tuple(float(x) for x in raw.split(","))
    return type(default)(raw)


def build_config(preset: str | None, sets: list[str]) -> tuple[EngineParams, RetrievalWeights]:
    """Resolve preset + --set overrides into validated parameter objects.

    Flag keys mirror the parameter field names one-to-one; unknown keys are
    rejected rather than ignored.
    """
    engine_kwargs: dict = {}
    weight_kwargs: dict = {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            if key in _ENGINE_FIELDS:
                engine_kwargs[key] = _coerce(key, raw)
            elif key in _WEIGHT_FIELDS:
                weight_kwargs[key] = float(raw)
            else:
                raise ConfigError(f"unknown parameter {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    if preset == "simulation":
        params = EngineParams.simulation(**engine_kwargs)
    else:
        params = EngineParams.production(**engine_kwargs)
    return params, RetrievalWeights(**weight_kwargs)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(args, params, weights) -> int:
    workspace = Workspace(args.log, args.corpus)
    store = workspace.open(params)
    _, records, errors = read_corpus(args.path)
    rejections = [(lineno, message) for lineno, message in errors]
    ingested = {"ko": 0, "edge": 0}
    # Objects first, so edges may reference objects defined later in the file.
    for kind in ingested:
        for lineno, record in records:
            if record["kind"] != kind:
                continue
            try:
                store.ingest_record(record)
                ingested[kind] += 1
            except (ValidationError, ModelError, ValueError) as exc:
                rejections.append((lineno, str(exc)))
                continue
            ignored = [name for name in _INGEST_IGNORED if name in record]
            if ignored:
                print(f"warning: line {lineno}: ignored field(s) {', '.join(ignored)}",
                      file=sys.stderr)
    rejections.sort()
    workspace.save()

    if args.format == "records":
        print(json.dumps({"kos": ingested["ko"], "edges": ingested["edge"],
                          "rejections": [{"line": ln, "error": msg}
                                         for ln, msg in rejections]},
                         sort_keys=True))
    else:
        print(f"{ingested['ko']} KOs, {ingested['edge']} edges ingested; {len(rejections)} rejected")
        for lineno, message in rejections:
            print(f"  line {lineno}: {message}")
    return EXIT_OK


def cmd_cycle(args, params, weights) -> int:
    workspace = Workspace(args.log, args.corpus)
    store = workspace.open(params)
    summaries = []
    for i in range(args.n):
        snapshot, breakdowns = store.apply_cycle()
        deltas = sorted(((abs(fb.k_after - fb.k_before), fb.ko_id)
                         for fb in breakdowns), reverse=True)
        zone_counts = {zone.name: 0 for zone in MemoryZone}
        for zone in snapshot.zones.values():
            zone_counts[zone.name] += 1
        summaries.append({
            "cycle": i + 1,
            "at": snapshot.cycle_at,
            "max_delta_k": deltas[0][0] if deltas else 0.0,
            "zones": zone_counts,
            "top_movers": [{"id": ko_id, "delta_k": round(d, 9)}
                           for d, ko_id in deltas[:3]],
        })
    workspace.save()

    if args.format == "records":
        for s in summaries:
            print(json.dumps(s, sort_keys=True))
    elif args.format == "csv":
        print("cycle,core,working,peripheral,dormant,max_delta_k")
        for s in summaries:
            z = s["zones"]
            print(f"{s['cycle']},{z['CORE']},{z['WORKING']},{z['PERIPHERAL']},"
                  f"{z['DORMANT']},{s['max_delta_k']:.9f}")
    else:
        for s in summaries:
            z = s["zones"]
            movers = ", ".join(f"{m['id']} ({m['delta_k']:+.4f})"
                               for m in s["top_movers"]) or "none"
            print(f"cycle {s['cycle']}: core {z['CORE']} working {z['WORKING']} "
                  f"peripheral {z['PERIPHERAL']} dormant {z['DORMANT']} "
                  f"max |dK| {s['max_delta_k']:.6f}; movers: {movers}")
        if not summaries:
            print("no cycles run")
    return EXIT_OK


def _csv_row(fields: list) -> str:
    """``fields`` as one CSV row, quoted where the csv module needs it,
    without its line end. The writer ends rows with CRLF, under which
    Python 3.10 to 3.13 quote a field holding a carriage return; with a bare
    line feed, 3.11 leaves one unquoted, which a csv reader then rejects."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


def cmd_query(args, params, weights) -> int:
    store = Workspace(args.log, args.corpus).open(params)
    anchors = frozenset(a for a in (args.anchors or "").split(",") if a)
    query = Query(text=args.text, embedding=args.embedding,
                  primary_entity=args.entity or "", domain=args.domain or "",
                  active_anchors=anchors, top_k=args.top_k,
                  include_dormant=args.include_dormant,
                  exclude_peripheral=args.exclude_peripheral)
    results = rank(query, store.snapshot(), weights,
                   koc_weights=store.params.koc_axis_weights)

    if args.format == "records":
        for r in results:
            print(json.dumps({
                "ko_id": r.ko_id, "rank_score": r.rank_score, "hybrid": r.hybrid,
                "k_eff": r.k_eff, "k": r.k_global, "phi_ctx": r.phi_ctx,
                "s_struct": r.s_struct, "s_sem": r.s_sem, "s_topo": r.s_topo,
                "urgency": r.urgency, "zone": r.zone.name,
                "degraded": r.degraded}, sort_keys=True))
    elif args.format == "csv":
        print(_csv_row(["ko_id", "rank_score", "hybrid", "k_eff", "k", "phi_ctx",
                        "s_struct", "s_sem", "s_topo", "urgency", "zone"]))
        for r in results:
            print(_csv_row([r.ko_id, *(f"{v:.9f}" for v in (
                r.rank_score, r.hybrid, r.k_eff, r.k_global, r.phi_ctx,
                r.s_struct, r.s_sem, r.s_topo, r.urgency)), r.zone.name]))
    else:
        if not results:
            print("no results")
            return EXIT_OK
        print(f"{'ko_id':<10} {'R':>8} {'H':>7} {'K_eff':>7} {'K':>7} "
              f"{'phi':>6} {'S_st':>6} {'S_sem':>6} {'S_top':>6} {'urg':>6} zone")
        for r in results:
            print(f"{r.ko_id:<10} {r.rank_score:>8.4f} {r.hybrid:>7.4f} "
                  f"{r.k_eff:>7.4f} {r.k_global:>7.4f} {r.phi_ctx:>6.3f} "
                  f"{r.s_struct:>6.3f} {r.s_sem:>6.3f} {r.s_topo:>6.3f} "
                  f"{r.urgency:>6.3f} {r.zone.name}")
    return EXIT_OK


def cmd_simulate(args, params, weights) -> int:
    from .dynamics import simulate_trajectory, write_trajectory_csv

    try:
        cls = EpistemicClass(args.cls)
    except ValueError:
        raise ConfigError(f"unknown epistemic class {args.cls!r}") from None
    # Trajectories are defined under the daily preset; --set overrides still apply.
    sim_params, _ = build_config("simulation", args.sets)
    points = simulate_trajectory(cls, args.days, k0=args.k0, params=sim_params)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as f:
            write_trajectory_csv(points, f)
        print(f"wrote {len(points)} points to {args.out}")
    else:
        write_trajectory_csv(points, sys.stdout)
    return EXIT_OK


def cmd_check_convergence(args, params, weights) -> int:
    from .dynamics import diagonal_range, empirical_convergence, gershgorin_check

    store = Workspace(args.log, args.corpus).open(params)
    snapshot = store.snapshot()
    if args.empirical:
        report = empirical_convergence(snapshot, store.params,
                                       tol=args.tol, max_iters=args.max_iters)
    else:
        report = gershgorin_check(snapshot, store.params)
    # the stated interval refers to the production defaults
    diag = diagonal_range()

    print(f"max degree: {report.max_degree}")
    print(f"degree bound (stated 5.0/0.7): {report.bound:.4f}")
    print(f"degree bound (vocabulary max 1.0): {report.bound_vocab:.4f}")
    print(f"sufficient condition met: {'yes' if report.sufficient_condition_met else 'no'}")
    if report.per_node_diagonal:
        print(f"per-node diagonal range: [{min(report.per_node_diagonal):.6f}, "
              f"{max(report.per_node_diagonal):.6f}]")
    else:
        print("per-node diagonal range: n/a (no active objects)")
    print(f"class diagonal range: [{diag.computed_min:.6f}, {diag.computed_max:.6f}] "
          f"(stated [{diag.stated_min:.3f}, {diag.stated_max:.3f}])")
    if args.empirical:
        status = {True: "yes", False: "NO", None: "n/a"}[report.empirical_converged]
        print(f"empirically converged: {status}")
        if report.iterations_to_converge is not None:
            print(f"iterations to converge: {report.iterations_to_converge}")
        if report.residual_history:
            print(f"final residual: {report.residual_history[-1]:.3e}")
    return EXIT_OK


def cmd_verify_t2(args, params, weights) -> int:
    from .dynamics import verify_t2

    report = verify_t2()
    checks = [
        ("fixed point (QUESTION)", report.k_star_q, T2_EXPECTED["k_star_q"]),
        ("fixed point (OBSERVATION)", report.k_star_o, T2_EXPECTED["k_star_o"]),
        ("asymptotic gap", report.gap_asymptotic, T2_EXPECTED["gap_asymptotic"]),
        ("day-28 gap", report.gap_day28, T2_EXPECTED["gap_day28"]),
    ]
    failed = False
    for label, actual, expected in checks:
        ok = abs(actual - expected) <= T2_TOLERANCE
        failed = failed or not ok
        print(f"{label}: {actual:.4f} (expected {expected:.3f} +/- {T2_TOLERANCE}) "
              f"{'ok' if ok else 'FAIL'}")
    day_ok = report.divergence_day == 1
    failed = failed or not day_ok
    print(f"divergence day: {report.divergence_day} (expected 1) "
          f"{'ok' if day_ok else 'FAIL'}")
    return EXIT_VERIFICATION if failed else EXIT_OK


def cmd_verify_log(args, params, weights) -> int:
    same, line = Workspace(args.log, args.corpus).verify()
    print(line)
    return EXIT_OK if same else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgravity",
        description="Epistemic knowledge-graph engine: typed knowledge objects, "
                    "per-cycle importance scoring, and hybrid retrieval.")
    parser.add_argument("--corpus", default="corpus.jsonl",
                        help="corpus snapshot file (default: %(default)s)")
    parser.add_argument("--log", default="events.jsonl",
                        help="append-only event log (default: %(default)s)")
    parser.add_argument("--preset", choices=["production", "simulation"],
                        default=None, help="parameter preset")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override an engine or retrieval parameter "
                             "(repeatable; unknown keys rejected)")
    parser.add_argument("--format", choices=["human", "csv", "records"],
                        default="human", help="output format")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest a corpus-format file")
    p.add_argument("path")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("cycle", help="run n scoring cycles")
    p.add_argument("n", type=_COUNT)
    p.set_defaults(handler=cmd_cycle)

    p = sub.add_parser("query", help="rank the corpus for a query")
    p.add_argument("text", nargs="?", default="")
    p.add_argument("--entity", default="")
    p.add_argument("--domain", default="")
    p.add_argument("--anchors", default="", help="comma-separated anchor tokens")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--embedding", type=_NUMBERS, default=None,
                   help="comma-separated floats (omit to degrade the semantic layer)")
    p.add_argument("--include-dormant", action="store_true")
    p.add_argument("--exclude-peripheral", action="store_true")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("simulate", help="per-class trajectory to CSV")
    p.add_argument("cls", metavar="class")
    p.add_argument("days", type=_COUNT)
    p.add_argument("--k0", type=_flag(float, lambda x: 0.0 <= x <= 1.0, "a number in [0, 1]"),
                   default=0.5)
    p.add_argument("--out", default="")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("check-convergence", help="degree-bound and contraction report")
    p.add_argument("--empirical", action="store_true",
                   help="also iterate the corpus to a residual tolerance")
    p.add_argument("--tol", default=1e-6,
                   type=_flag(float, lambda x: 0.0 < x < math.inf, "a finite number > 0"))
    p.add_argument("--max-iters", default=500, type=_flag(int, lambda n: n >= 1, "an integer >= 1"))
    p.set_defaults(handler=cmd_check_convergence)

    p = sub.add_parser("verify-t2", help="smoke-test the divergence diagnostics")
    p.set_defaults(handler=cmd_verify_t2)

    p = sub.add_parser("verify-log",
                       help="check the checkpointed state against a full log replay")
    p.set_defaults(handler=cmd_verify_log)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params, weights = build_config(args.preset, args.sets)
        # Only params chosen by flag are logged; otherwise the log's hold.
        explicit = args.preset is not None or bool(args.sets)
        return args.handler(args, params if explicit else None, weights)
    except (ConfigError, ValidationError, ModelError, EngineError,
            RetrievalError, ReplayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())

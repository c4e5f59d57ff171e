"""kgravity: a deterministic epistemic knowledge-graph engine.

Typed knowledge objects with class-specific importance dynamics, signed
contradiction propagation, fixed-point convergence analysis, memory-zone
allocation, and hybrid epistemic retrieval.

The names below are re-exported from their modules on first use (PEP 562),
so ``import kgravity`` imports no module and ``import kgravity.cli`` only
the modules the command line needs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "model": (
        "CLASS_PROFILES",
        "EDGE_COEFFICIENTS",
        "SIMULATION_LAMBDAS",
        "ClassProfile",
        "DecayKind",
        "Edge",
        "EdgeType",
        "EpistemicClass",
        "GraphSnapshot",
        "KnowledgeObject",
        "Koc",
        "MemoryZone",
        "ModelError",
        "PairAdequacy",
        "ScoreVector",
        "class_profile",
        "simulation_profile",
        "taxonomy_adequacy_report",
        "zone_for",
    ),
    "engine": (
        "EngineError",
        "EngineParams",
        "ForceBreakdown",
        "contradiction_penalty",
        "evidence_force",
        "fixed_point",
        "gravity_force",
        "kge_step",
        "kge_update",
        "question_urgency",
        "run_cycle",
        "usage_force",
    ),
    "dynamics": (
        "ConvergenceReport",
        "T2Report",
        "TrajectoryPoint",
        "conservatism_sweep",
        "diagonal_range",
        "empirical_convergence",
        "gershgorin_check",
        "random_graph",
        "simulate_trajectory",
        "sufficient_condition_sweep",
        "verify_t2",
    ),
    "retrieval": (
        "Query",
        "RankedResult",
        "RetrievalError",
        "RetrievalWeights",
        "contextual_attention",
        "k_eff",
        "rank",
    ),
    "store": (
        "CorpusStore",
        "EventKind",
        "EventRecord",
        "ReplayError",
        "ValidationError",
        "append_events",
        "load_corpus",
        "read_corpus",
        "read_events",
        "write_corpus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS)

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})

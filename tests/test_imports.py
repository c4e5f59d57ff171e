"""What importing the package costs: ``kgravity`` re-exports its names on
first use, and the command line imports only the modules it needs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgravity

SRC = Path(kgravity.__file__).resolve().parents[1]

# Every name the package re-exports, as its __init__ imported them eagerly.
EXPORTED = {
    "model": [
        "CLASS_PROFILES", "EDGE_COEFFICIENTS", "SIMULATION_LAMBDAS", "ClassProfile",
        "DecayKind", "Edge", "EdgeType", "EpistemicClass", "GraphSnapshot",
        "KnowledgeObject", "Koc", "MemoryZone", "ModelError", "PairAdequacy",
        "ScoreVector", "class_profile", "edge_coefficient", "koc_similarity",
        "simulation_profile", "taxonomy_adequacy_report", "zone_for"],
    "engine": [
        "EngineError", "EngineParams", "ForceBreakdown", "contradiction_penalty",
        "evidence_force", "fixed_point", "gravity_force", "kge_step", "kge_update",
        "question_urgency", "run_cycle", "usage_force"],
    "dynamics": [
        "ConvergenceReport", "T2Report", "TrajectoryPoint", "conservatism_sweep",
        "diagonal_range", "empirical_convergence", "gershgorin_check", "random_graph",
        "simulate_trajectory", "sufficient_condition_sweep", "verify_t2"],
    "retrieval": [
        "Query", "RankedResult", "RetrievalError", "RetrievalWeights",
        "contextual_attention", "hybrid_score", "k_eff", "rank", "semantic_sim",
        "structural_sim", "topological_sim"],
    "store": [
        "CorpusStore", "EventKind", "EventRecord", "ReplayError", "ValidationError",
        "append_events", "load_corpus", "read_corpus", "read_events", "write_corpus"],
}


def fresh_python(code: str):
    """The JSON that ``code`` prints, run by a new interpreter that imports
    the package from this source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


def test_the_cli_imports_neither_the_convergence_lab_nor_statistics():
    loaded = fresh_python(
        "import json, sys, kgravity.cli; print(json.dumps(sorted(sys.modules)))")
    assert "kgravity.cli" in loaded and "kgravity.store" in loaded
    assert "kgravity.dynamics" not in loaded
    assert "statistics" not in loaded


def test_a_bare_package_import_loads_no_module():
    loaded = fresh_python(
        "import json, sys, kgravity; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith("kgravity")] == ["kgravity"]


def test_every_exported_name_imports_from_the_package_and_is_listed():
    code = f"""
import importlib, json, kgravity
listed = dir(kgravity)
found = {{}}
for module, names in {EXPORTED!r}.items():
    for name in names:
        scope = {{}}
        exec(f"from kgravity import {{name}}", scope)
        found[name] = (name in listed and scope[name] is getattr(
            importlib.import_module("kgravity." + module), name))
print(json.dumps(found))
"""
    found = fresh_python(code)
    assert found == {name: True for names in EXPORTED.values() for name in names}


def test_the_submodules_are_attributes_of_a_bare_package_import():
    code = """
import json, kgravity
print(json.dumps([kgravity.retrieval.__name__, kgravity.dynamics.__name__]))
"""
    assert fresh_python(code) == ["kgravity.retrieval", "kgravity.dynamics"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kgravity.no_such_name

"""The command line's bytes, pinned: one seeded session through ``cli.main``.

Each command's exit code, the SHA-256 of its stdout and stderr, and the
SHA-256 of the log, the corpus and the checkpoint after it are recorded
below (the first 16 hex digits of each). A change to scoring, ranking, the
output formats or any saved file changes one of them; a change meant to
keep every byte must leave them all as they are.

The command line has no command that resolves a question, supersedes an
object or records a retrieval, so one library save between the ``ingest``
and the first ``cycle`` does those, through the checkpoint restore every
later command also takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from kgravity.cli import main
from kgravity.model import EdgeType, EpistemicClass
from kgravity.store import Workspace, iso_to_ts

SEED = 2026
N_OBJECTS = 100
ANCHORS = ("m", "n", "ops", "rollout", "audit")


def _records(rng: random.Random) -> list[dict]:
    """About 100 objects of every class, with embeddings and anchors, then
    edges of every type."""
    classes, records = list(EpistemicClass), []
    for i in range(N_OBJECTS):
        cls = classes[i % len(classes)].value
        koc = {"entity": f"e{rng.randrange(12)}", "domain": f"d{rng.randrange(4)}",
               "class": cls, "epoch": f"q{rng.randrange(1, 4)}",
               "depth": f"l{rng.randrange(1, 3)}", "author": rng.choice(["ana", "bo"]),
               "variant": f"v{i}"}
        record = {"kind": "ko", "id": f"g{i:03d}", "class": cls, "koc": koc,
                  "content": f"object {i} of {cls.lower()}",
                  "created_at": f"2024-01-{1 + i % 20:02d}T00:00:00Z",
                  "anchors": rng.sample(ANCHORS, rng.randrange(3)),
                  "embedding": [round(rng.uniform(-1, 1), 3) for _ in range(4)]}
        if cls == "QUESTION":
            record["stakes"] = round(rng.random(), 3)
        records.append(record)
    types, pairs = list(EdgeType), set()
    while len(pairs) < 3 * N_OBJECTS:
        pairs.add(tuple(rng.sample(range(N_OBJECTS), 2)))
    for n, (source, target) in enumerate(sorted(pairs)):
        records.append({"kind": "edge", "source": f"g{source:03d}",
                        "target": f"g{target:03d}", "type": types[n % len(types)].value,
                        "created_at": f"2024-01-{21 + n % 5:02d}T00:00:00Z"})
    return records


def _write_input(path) -> None:
    lines = [json.dumps({"kind": "header", "format_version": 1, "embedding_dim": 4})]
    lines += [json.dumps(r, sort_keys=True) for r in _records(random.Random(SEED))]
    lines.insert(7, '{"kind": "ko", "id": ')  # the one rejected line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_and_supersede(log: str, corpus: str) -> None:
    workspace = Workspace(log, corpus)
    store = workspace.open()
    at = iso_to_ts("2024-01-26T00:00:00Z")
    store.resolve_question("g008", "g000", at=at)  # g017 stays unresolved
    store.supersede("g090", "g081", at=at)
    for n, ko_id in enumerate(("g001", "g002", "g002", "g017", "g050")):
        store.record_retrieval(ko_id, at=at + 60 * n)
    workspace.save()


COMMANDS = [
    ["--preset", "production", "ingest", "in.jsonl"],
    None,  # the library save
    ["cycle", "3"],
    ["--format", "csv", "cycle", "2"],
    ["query", "object", "--entity", "e3", "--domain", "d1", "--anchors", "m,ops",
     "--embedding", "0.5,-0.25,0.1,0.8"],
    ["--format", "csv", "query", "--entity", "e5", "--embedding", "1,0,0,0"],
    ["--format", "records", "query", "--domain", "d2", "--top-k", "5",
     "--include-dormant"],
    ["--set", "koc_axis_weights=0.7,0.05,0.05,0.05,0.05,0.05,0.05", "query",
     "--entity", "e3", "--anchors", "rollout"],
    ["--set", "gravity_radius=2", "query", "--entity", "e7", "--exclude-peripheral"],
    ["check-convergence", "--empirical"],
    ["verify-log"],
    "drop checkpoint",
    ["cycle", "1"],
    ["verify-log"],
]

FILES = ("events.jsonl", "corpus.jsonl", "events.jsonl.checkpoint")


def _digest(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def _session(directory) -> list[tuple]:
    """Run :data:`COMMANDS` in ``directory``; one row per command: exit code,
    stdout, stderr, then each of :data:`FILES` (None if absent), hashed."""
    _write_input(directory / "in.jsonl")
    base = ["--log", "events.jsonl", "--corpus", "corpus.jsonl"]
    rows = []
    for command in COMMANDS:
        if command == "drop checkpoint":
            (directory / FILES[2]).unlink()
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if command is None:
                _resolve_and_supersede("events.jsonl", "corpus.jsonl")
                code = None
            else:
                code = main(base + command)
        files = [(directory / name) for name in FILES]
        rows.append((code, _digest(out.getvalue().encode()), _digest(err.getvalue().encode()),
                     *(_digest(f.read_bytes() if f.exists() else None) for f in files)))
    return rows


GOLDEN = [
    # exit, stdout, stderr, log, corpus, checkpoint
    # ingest
    (0, "88984dbe6be974d0", "e3b0c44298fc1c14",
     "3e6b6a8bcbb7b4ec", "a5d518e25e6fb49b", "be8c446e0a839b80"),
    # the library save
    (None, "e3b0c44298fc1c14", "e3b0c44298fc1c14",
     "1cf6c4aecd124e48", "d549ecdd30b7f9fc", "c63422bb5a546261"),
    # cycle 3
    (0, "404396dee2b4a0ce", "e3b0c44298fc1c14",
     "92ce997e430300d8", "1d15a9074d7fe62a", "02333a961093e97a"),
    # csv cycle 2
    (0, "fe6373054b2d2acb", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # query
    (0, "24d797d365bf10eb", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # csv query
    (0, "dfb6c0ff81fd2cc5", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # records query
    (0, "ff3879bd84a517d7", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # axis-weighted query
    (0, "2efb97f08fb72c9a", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # radius-2 query
    (0, "737c9224e674f5bd", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # check-convergence
    (0, "90817b17c512d7ab", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # verify-log
    (0, "0c43d49f27a4dbcc", "e3b0c44298fc1c14",
     "dde834d2778ccf8b", "a29fe977b7ee2ebf", "42d3e52b009953ef"),
    # cycle 1, no checkpoint
    (0, "1e71169d5f3a5daa", "e3b0c44298fc1c14",
     "97fc0ee1a53cdcec", "968cb088b4b78327", "24a8f8b23f8bab94"),
    # verify-log
    (0, "b48e4a2d0be0436b", "e3b0c44298fc1c14",
     "97fc0ee1a53cdcec", "968cb088b4b78327", "24a8f8b23f8bab94"),
]


def test_the_cli_session_has_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _session(tmp_path) == GOLDEN

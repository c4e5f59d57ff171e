"""Corpus persistence: ingestion, edge management, the append-only event log,
and deterministic replay.

The store is event-sourced: every state change is validated, applied, and
appended to the log as an EventRecord. Replaying the log from empty rebuilds
the exact state, so the log is simultaneously the audit trail and the
canonical persistence medium. Knowledge objects are never deleted.

Public ops parse, ``_apply`` checks: an operation only turns its arguments
into the payload it logs, and every rule is checked once, in ``_apply``,
before any mutation, so a live operation (ValidationError) and a replay
(ReplayError) reject the same events with the same message. Each event
time must survive the log's ISO-8601 round trip (whole seconds, years 1000
to 9999), which runs in C both ways, through ``datetime``'s own methods, and
a log line's own time must be the one its payload records. An
object's fields are checked by :func:`_ko_from_record`, which a corpus
load shares: ``id`` and ``content`` strings, a known class equal to its
coordinate's, ``stakes`` and scores in [0, 1], ``anchors`` non-empty
strings, ``embedding`` absent or finite numbers with a finite norm.

Three file formats (all JSON, documented in the README):

* corpus file - a header line followed by one record per knowledge object
  and per edge; scores are serialized as fixed 9-digit decimal strings so a
  save/load/save round trip is byte-identical. It is written atomically.
  Every reader splits it by one rule (:func:`_split_corpus`), and its lines
  are written in batches (:func:`_batches`).
* event log file - one EventRecord per line in seq order.
* checkpoint file - ``<log>.checkpoint``, one object naming the last log
  line whose state the corpus file holds, with that state as a marshal
  image and the image's SHA-256. :func:`restore_checkpoint` checks it
  cheaply against both files, splits the corpus into lines without
  parsing them, and rebuilds the store from the image through the model's
  trusted constructors, without :func:`load_corpus`'s per-field checks, so
  only the log's tail after that line needs replaying. The edge rules (no
  self-loop, both ends known, no edge twice) are checked once, over the
  restored edge list; any mismatch, or an image that does not hash, decode
  or match the corpus lines, raises :class:`CheckpointError`, and the
  caller replays the whole log instead. The log stays the source of truth;
  ``kgravity verify-log`` compares a restore with a full replay, object by
  object and line by line.

:class:`Workspace` is the one place that opens the three files (a restore,
or a full replay) and orders a save: log append, corpus export, checkpoint.

A restored store keeps the corpus line of each object and edge beside it:
those bytes hash to what :func:`write_corpus` wrote. :func:`corpus_lines`
re-emits the line of an object the store still holds as that very object,
and of every restored edge (edges are never replaced). An object a cycle
rescored shares every other field with the object restored beside its line,
so its line is the kept one with a fresh score tail (scores, stakes and
zone, the last keys), once the kept line is checked to end with the old
object's tail. Only the rest is serialized, so an export costs in
proportion to what changed other than scores since the restore, and its
bytes are those of a fresh serialization.

For its cycles the store keeps an :class:`~kgravity.engine.EdgeStructure`:
built from its edges at its first cycle and then grown by each new edge, so
a store that only ingests, restores or answers queries never builds it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import math
import os
import re
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta
from enum import Enum
from itertools import accumulate, repeat
from operator import attrgetter, eq, is_
from pathlib import Path

from .engine import (
    SCORE_DECIMALS,
    EdgeStructure,
    EngineParams,
    ForceBreakdown,
    quantize,
    question_urgency,
    run_cycle,
)
from .model import (
    Edge,
    EdgeType,
    EpistemicClass,
    GraphSnapshot,
    KnowledgeObject,
    Koc,
    ModelError,
    ScoreVector,
    class_profile,
    embedding_norm,
    trusted_edge,
    trusted_ko,
    trusted_koc,
    trusted_scores,
)

CORPUS_FORMAT_VERSION = 1


class ValidationError(ValueError):
    """A record rejected at the store boundary (closed-world rule)."""


class ReplayError(ValueError):
    """Event log corruption: gap, bad seq, or unparseable record; or a save
    that would append after events it did not read (see :class:`Workspace`)."""


class CheckpointError(ValueError):
    """A checkpoint that does not match the log and corpus beside it."""


_ISO_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_CANONICAL_ISO = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
# The first and last seconds the log's ISO form holds: years 1000 to 9999.
_FIRST_TS, _LAST_TS = -30610224000, 253402300799


def ts_to_iso(ts: int) -> str:
    """The log's form of UTC second ``ts``, like ``2024-01-01T00:00:00Z``.

    ``isoformat`` of a whole-second datetime, which for years 1000 to 9999
    (every timestamp the store holds) is what ``strftime`` with
    ``%Y-%m-%dT%H:%M:%SZ`` gives, at about half the cost.
    """
    return (_EPOCH + timedelta(seconds=ts)).isoformat() + "Z"


def iso_to_ts(text: str) -> int:
    """UTC seconds of a timestamp like ``2024-01-01T00:00:00Z``.

    The canonical form, the only one the store writes, is parsed by
    ``datetime.fromisoformat``, whose range checks reject what ``strptime``
    rejects (day 30 of February, hour 24, year 0). Any other string goes
    through ``strptime``, so the strings accepted and rejected are exactly
    those ``strptime`` accepts and rejects (one-digit fields, a lower-case
    ``t``, non-ASCII digits).
    """
    if _CANONICAL_ISO.fullmatch(text):
        dt = datetime.fromisoformat(text[:19])
    else:
        dt = datetime.strptime(text, _ISO_FORMAT)
    return (dt - _EPOCH) // _SECOND


def _check_ts(name: str, value) -> int:
    """``value``, if it is a timestamp the event log can hold exactly: an
    integer second from 1000-01-01 to 9999-12-31 UTC, the range whose ISO
    form parses back to itself. Anything else is a ValidationError, so no
    event is applied that the log or corpus cannot write."""
    if type(value) is not int or not _FIRST_TS <= value <= _LAST_TS:
        raise ValidationError(
            f"{name} {value!r} is not a timestamp the event log can hold "
            "(whole seconds, years 1000 to 9999)")
    return value


def _check_line_at(line_at: int | None, at: int) -> None:
    """A log line's own time must be the time its payload records (for a
    PARAMS_CHANGED, the latest event's): ``latest_event_at``, and through
    it the next default cycle, reads the line's. Checked last, after every
    rule of the payload. ``None`` is no line: a record of a corpus file."""
    if line_at is not None and line_at != at:
        raise ValidationError(
            f"event time {line_at!r} differs from its payload's time {at!r}")


class EventKind(Enum):
    KO_CREATED = "KO_CREATED"
    EDGE_CREATED = "EDGE_CREATED"
    CYCLE_APPLIED = "CYCLE_APPLIED"
    KO_SUPERSEDED = "KO_SUPERSEDED"
    QUESTION_RESOLVED = "QUESTION_RESOLVED"
    KO_RETRIEVED = "KO_RETRIEVED"
    PARAMS_CHANGED = "PARAMS_CHANGED"


(_KO_CREATED, _EDGE_CREATED, _CYCLE_APPLIED, _KO_SUPERSEDED, _QUESTION_RESOLVED,
 _KO_RETRIEVED, _PARAMS_CHANGED) = EventKind  # in order, bound once for _apply
_KINDS = {kind.value: kind for kind in EventKind}  # the log parse's lookup


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One entry in the append-only log. seq is gap-free from 1."""

    seq: int
    at: int
    kind: EventKind
    payload: dict


class _Retrieval:
    """A KO_RETRIEVED event as a store holds the ones it logs: seq, time and
    object id, without the payload dict ``{"id": ko_id, "at": at}``, which
    costs three times the rest. Most events of a long log are retrievals,
    and a store keeps every event it applied. A replayed store keeps the
    events it was given: they are already built, and while the caller's
    list holds them a compact copy would only add to its memory."""

    __slots__ = ("seq", "at", "ko_id")

    def __init__(self, seq: int, at: int, ko_id: str) -> None:
        self.seq, self.at, self.ko_id = seq, at, ko_id


def _record(held: EventRecord | _Retrieval) -> EventRecord:
    """The event that ``held`` keeps, equal to the one applied."""
    if type(held) is _Retrieval:
        return EventRecord(held.seq, held.at, EventKind.KO_RETRIEVED,
                           {"id": held.ko_id, "at": held.at})
    return held


# Keyed by value, which a member equals: a lookup accepts what
# ``EpistemicClass(...)`` and ``EdgeType(...)`` accept, without their call.
_CLASSES = {c.value: c for c in EpistemicClass}
_EDGE_TYPES = {t.value: t for t in EdgeType}


def _parse_class(name: EpistemicClass | str) -> EpistemicClass:
    try:
        return _CLASSES[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown epistemic class {name!r}") from None


def _parse_edge_type(name: EdgeType | str) -> EdgeType:
    try:
        return _EDGE_TYPES[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown edge type {name!r}") from None


def _parse_koc(data: Koc | dict) -> Koc:
    if isinstance(data, Koc):
        return data
    if not isinstance(data, dict):
        raise ValidationError(f"koc must be an object, got {data!r}")
    try:
        return Koc(entity=data["entity"], domain=data["domain"],
                   cls=_parse_class(data["class"]), epoch=data["epoch"],
                   depth=data["depth"], author=data["author"],
                   variant=data["variant"])
    except KeyError as missing:
        raise ValidationError(f"koc missing axis {missing}") from None
    except ModelError as exc:
        raise ValidationError(str(exc)) from None


def parse_field_ts(name: str, value) -> int:
    """A record's ISO-8601 timestamp field as UTC seconds; anything else is
    a ValidationError naming the field."""
    try:
        return iso_to_ts(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{name} must be a timestamp like 2024-01-01T00:00:00Z, got {value!r}") from None


def _created_at(record: dict) -> int:
    """An ingested record's ``created_at``, 0 when the field is absent."""
    return parse_field_ts("created_at", record["created_at"]) if "created_at" in record else 0


def _is_list(value) -> bool:
    return isinstance(value, Iterable) and not isinstance(value, (str, bytes, dict))


def _number(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def _text(record: dict, name: str) -> str:
    value = record[name]
    if not isinstance(value, str):
        raise ValidationError(f"{name} must be a string, got {value!r}")
    return value


def _anchors(ko_id, value) -> tuple[str, ...]:
    """Anchor tokens in the form the log holds them: each once, sorted."""
    if not _is_list(value):
        raise ValidationError(f"anchors must be a list of strings, got {value!r}")
    anchors = tuple(value)
    if not all(isinstance(a, str) and a for a in anchors):
        raise ValidationError(f"anchors for {ko_id!r} must be non-empty strings")
    return tuple(sorted(set(anchors)))


_PLAIN_NUMBERS = frozenset((int, float, bool))


def _embedding(ko_id, value) -> tuple[float, ...] | None:
    """An embedding as a tuple of finite numbers whose norm is finite too."""
    if value is None:
        return None
    if not _is_list(value):
        raise ValidationError(f"embedding must be a list of numbers, got {value!r}")
    embedding = tuple(value)  # read more than once below; an iterator once
    non_finite = f"embedding for {ko_id!r} has non-finite values"
    if not all(map(isinstance, embedding, repeat((int, float)))):
        raise ValidationError(non_finite)
    if not math.isfinite(embedding_norm(embedding)):
        # A non-finite element makes the norm non-finite, so the elements
        # are searched for one only now.
        if not all(map(math.isfinite, embedding)):
            raise ValidationError(non_finite)
        raise ValidationError(
            f"embedding for {ko_id!r} has a norm too large to compute")
    if not _PLAIN_NUMBERS.issuperset(map(type, embedding)):
        # A subclass's value (numpy's float64, say) as the float or int the
        # log gives back; marshal would write a buffer-like float as bytes.
        embedding = tuple(v if type(v) in _PLAIN_NUMBERS else
                          float(v) if isinstance(v, float) else int(v) for v in embedding)
    return embedding


def _koc_to_dict(koc: Koc) -> dict:
    return {"entity": koc.entity, "domain": koc.domain, "class": koc.cls.value,
            "epoch": koc.epoch, "depth": koc.depth, "author": koc.author,
            "variant": koc.variant}


class CorpusStore:
    """Single-writer store over knowledge objects, edges, and the event log.

    Readers work on immutable snapshots from :meth:`snapshot`; all mutation
    goes through the public operations below, each of which appends exactly
    one event. There is no delete or in-place-update path.

    A store restored from a checkpoint holds only the events after it:
    ``last_seq`` and ``latest_event_at`` carry on from the checkpoint.
    """

    def __init__(self, params: EngineParams | None = None) -> None:
        self._params = params if params is not None else EngineParams.production()
        self._kos: dict[str, KnowledgeObject] = {}
        self._edges: list[Edge] = []
        self._edge_keys: set[tuple[str, str, EdgeType]] = set()
        self._events: list[EventRecord | _Retrieval] = []
        # seq and time of the last event before ``_events`` (a checkpoint's)
        self._base_seq = 0
        self._base_at = 0
        self._last_cycle_at: int | None = None
        # The corpus lines a checkpoint restore verified, which
        # corpus_lines re-emits: each object's line with the object restored
        # beside it, and the lines of the first len(_edge_lines) edges.
        self._ko_lines: dict[str, tuple[KnowledgeObject, str]] = {}
        self._edge_lines: list[str] = []
        # The cycles' edge structure: built from _edges at the first cycle,
        # then grown by _add_edge, so a store that never cycles pays nothing.
        self._structure: EdgeStructure | None = None
        # Each id's zone in id order, as the last cycle and later ingests left it.
        self._zones: dict | None = None
        # The embedding length every object's embedding has, once one has.
        self._embedding_dim: int | None = None

    # -- read side ----------------------------------------------------------

    @property
    def params(self) -> EngineParams:
        return self._params

    @property
    def events(self) -> tuple[EventRecord, ...]:
        """The events this store applied: the whole log for a new or
        replayed store, the events after the checkpoint for a restored one."""
        return tuple(map(_record, self._events))

    @property
    def last_seq(self) -> int:
        return self._base_seq + len(self._events)

    def events_after(self, seq: int) -> tuple[EventRecord, ...]:
        """The events after seq ``seq``: ``events_after(s)``, with ``s``
        the ``last_seq`` taken before some operations, is what they
        appended. Events up to a checkpoint are not held, so a ``seq``
        before a restored store's checkpoint is a ValueError."""
        if seq < self._base_seq:
            raise ValueError(f"events up to seq {self._base_seq} are not held "
                             f"(restored from a checkpoint); asked for after {seq}")
        return tuple(map(_record, self._events[seq - self._base_seq:]))

    @property
    def last_cycle_at(self) -> int | None:
        return self._last_cycle_at

    def snapshot(self) -> GraphSnapshot:
        snapshot = GraphSnapshot(kos=dict(self._kos), edges=tuple(self._edges),
                                 cycle_at=self._last_cycle_at)
        if self._zones is not None:
            snapshot.__dict__["zones"] = dict(self._zones)  # its cached index
        return snapshot

    def latest_event_at(self) -> int:
        return self._events[-1].at if self._events else self._base_at

    # -- operations ---------------------------------------------------------

    def ingest_ko(self, *, cls: EpistemicClass | str, koc: Koc | dict,
                  content: str, ko_id: str | None = None, created_at: int = 0,
                  stakes: float = 0.0, anchors: Iterable[str] = (),
                  embedding: Sequence[float] | None = None,
                  confidence: float = 1.0, freshness: float = 1.0) -> str:
        """Ingest one pre-classified knowledge object.

        Classification happens upstream; the store only accepts the closed
        taxonomy and rejects class/coordinate mismatches. The object starts
        at its class seed score, with urgency computed for questions.
        """
        cls_ = _parse_class(cls)
        koc_ = _parse_koc(koc)
        if ko_id is None:
            ko_id = f"ko{len(self._kos) + 1:06d}"
        payload = {
            "id": ko_id,
            "class": cls_.value,
            "koc": _koc_to_dict(koc_),
            "content": content,
            "created_at": created_at,
            "stakes": quantize(_number("stakes", stakes)),
            "anchors": _anchors(ko_id, anchors),
            "embedding": tuple(embedding) if _is_list(embedding) else embedding,
            "confidence": quantize(_number("confidence", confidence)),
            "freshness": quantize(_number("freshness", freshness)),
        }
        self._append(EventKind.KO_CREATED, payload, at=created_at)
        return ko_id

    def ingest_record(self, record: dict) -> str | Edge:
        """Ingest a parsed corpus-file record (see README for the schema): an
        object, returning its id, or an edge, returning the edge.

        A missing, unknown or wrongly typed field is a ValidationError that
        names the field. Of either kind, an absent ``created_at`` reads as 0.
        """
        kind = record.get("kind")
        if kind == "edge":
            try:
                source, target, edge_type = record["source"], record["target"], record["type"]
            except KeyError as exc:
                raise ValidationError(f"missing field {exc}") from None
            return self.add_edge(source, target, edge_type, at=_created_at(record))
        if kind != "ko":
            raise ValidationError(f"unknown record kind {kind!r}")
        scores = record.get("scores", {})
        if not isinstance(scores, dict):
            raise ValidationError(f"scores must be an object, got {scores!r}")
        return self.ingest_ko(
            cls=record.get("class", ""),
            koc=record.get("koc", {}),
            content=record.get("content", ""),
            ko_id=record.get("id"),
            created_at=_created_at(record),
            stakes=record.get("stakes", 0.0),
            anchors=record.get("anchors", ()),
            embedding=record.get("embedding"),
            confidence=scores.get("confidence", 1.0),
            freshness=scores.get("freshness", 1.0))

    def add_edge(self, source: str, target: str, edge_type: EdgeType | str,
                 at: int) -> Edge:
        """Create a typed edge; duplicates, self-loops, and dangling
        endpoints are rejected so per-cycle edge counts stay well-defined."""
        payload = {"source": source, "target": target,
                   "type": _parse_edge_type(edge_type).value, "at": at}
        return self._append(EventKind.EDGE_CREATED, payload, at=at)

    def supersede(self, new_ko: str, old_ko: str, at: int) -> Edge:
        """Record that one object replaces another.

        The old object is demoted (SUPERSEDES edge), never deleted: it keeps
        cycling and remains retrievable until its score decays away.
        """
        payload = {"new": new_ko, "old": old_ko, "at": at}
        return self._append(EventKind.KO_SUPERSEDED, payload, at=at)

    def resolve_question(self, question: str, resolver: str, at: int) -> KnowledgeObject:
        """Mark a question answered by a resolver (typically a DECISION).

        Adds an IMPLEMENTS edge from the resolver and flags the question
        resolved; from the next cycle on its urgency is zero and its score
        decays instead of rising.
        """
        payload = {"question": question, "resolver": resolver, "at": at}
        self._append(EventKind.QUESTION_RESOLVED, payload, at=at)
        return self._kos[question]

    def record_retrieval(self, ko_id: str, at: int) -> None:
        """Log a retrieval; the timestamp feeds the next cycle's usage force
        (and can revive a dormant object)."""
        self._append(EventKind.KO_RETRIEVED, {"id": ko_id, "at": at}, at=at)

    def set_params(self, params: EngineParams) -> None:
        at = self.latest_event_at()
        self._append(EventKind.PARAMS_CHANGED, {"params": params.to_dict()}, at=at)

    def apply_cycle(self, now: int | None = None) -> tuple[GraphSnapshot, list[ForceBreakdown]]:
        """Run one engine cycle and log it.

        Without an explicit timestamp the cycle time advances from the last
        cycle (or the latest event) by the configured period, keeping
        repeated invocations deterministic. A time earlier than the last
        cycle's is a ValidationError: it would invert the "since the last
        cycle" window.
        """
        if now is None:
            base = self._last_cycle_at if self._last_cycle_at is not None \
                else self.latest_event_at()
            now = base + self._params.cycle_period_s
        return self._append(EventKind.CYCLE_APPLIED, {"at": now}, at=now)

    # -- event machinery ----------------------------------------------------

    def _append(self, kind: EventKind, payload: dict, at: int):
        event = EventRecord(seq=self.last_seq + 1, at=at, kind=kind,
                            payload=payload)
        result = self._apply(event)
        # record_retrieval logs {"id": ..., "at": at}: held as a _Retrieval
        self._events.append(_Retrieval(event.seq, at, payload["id"])
                            if kind is _KO_RETRIEVED else event)
        return result

    def _apply(self, event: EventRecord):
        # Public ops parse, _apply checks every rule, before any mutation,
        # so live ops and replay reject the same events.
        kind, payload = event.kind, event.payload
        if kind is _KO_CREATED:
            cls = _parse_class(payload["class"])
            urgency = (question_urgency(0.0, 0, _number("stakes", payload["stakes"]))
                       if cls is EpistemicClass.QUESTION else 0.0)
            scores = (quantize(class_profile(cls).seed_k),
                      _number("confidence", payload["confidence"]),
                      _number("freshness", payload["freshness"]), urgency, 0.0)
            return self._add_ko(_ko_from_record(
                payload, scores, _check_ts("created_at", payload["created_at"])),
                event.at)
        if kind is _EDGE_CREATED:
            return self._add_edge(payload["source"], payload["target"],
                                  _parse_edge_type(payload["type"]),
                                  _check_ts("edge time", payload["at"]), event.at)
        if kind is _KO_SUPERSEDED:
            return self._add_edge(payload["new"], payload["old"], EdgeType.SUPERSEDES,
                                  _check_ts("supersede time", payload["at"]), event.at)
        if kind is _QUESTION_RESOLVED:
            at = _check_ts("resolution time", payload["at"])
            question = self._known(payload["question"])
            if question.cls is not EpistemicClass.QUESTION:
                raise ValidationError(
                    f"{question.id!r} is {question.cls.value}, not QUESTION")
            if question.resolved:
                raise ValidationError(f"question {question.id!r} already resolved")
            edge = self._add_edge(payload["resolver"], question.id,
                                  EdgeType.IMPLEMENTS, at, event.at)
            self._kos[question.id] = replace(question, resolved=True)
            return edge
        if kind is _KO_RETRIEVED:
            at = _check_ts("retrieval time", payload["at"])
            ko = self._known(payload["id"])
            _check_line_at(event.at, at)
            self._kos[ko.id] = ko.with_retrieval(at)
            return None
        if kind is _CYCLE_APPLIED:
            now = _check_ts("cycle time", payload["at"])
            if self._last_cycle_at is not None and now < self._last_cycle_at:
                raise ValidationError(
                    f"cycle at {now} is earlier than the last cycle at "
                    f"{self._last_cycle_at}; cycle time never runs backwards")
            _check_line_at(event.at, now)
            if self._structure is None:
                self._structure = EdgeStructure(self._edges)
            try:
                new_snapshot, breakdowns = run_cycle(
                    self.snapshot(), now, self._params, edges=self._structure)
            except BaseException:
                self._structure = None  # it may have advanced to ``now``
                raise
            self._kos = dict(new_snapshot.kos)
            self._zones = dict(new_snapshot.zones)
            self._last_cycle_at = now
            return new_snapshot, breakdowns
        if kind is _PARAMS_CHANGED:
            params = EngineParams.from_dict(payload["params"])
            _check_line_at(event.at, self.latest_event_at())
            self._params = params
            return None
        raise ReplayError(f"unknown event kind {kind!r}")

    def _known(self, ko_id: str) -> KnowledgeObject:
        ko = self._kos.get(ko_id) if isinstance(ko_id, str) else None
        if ko is None:
            raise ValidationError(f"unknown knowledge object {ko_id!r}")
        return ko

    def _add_ko(self, ko: KnowledgeObject, line_at: int | None = None) -> str:
        """Store a new object; an id already taken is rejected, since an
        object is never replaced, and so is an embedding of another length
        than the store's, which no query could be compared with. ``line_at``
        is the time of the log line that creates it, if one does."""
        if ko.id in self._kos:
            raise ValidationError(f"duplicate knowledge object id {ko.id!r}")
        dim = None if ko.embedding is None else len(ko.embedding)
        if dim is not None and self._embedding_dim not in (None, dim):
            raise ValidationError(
                f"embedding of {ko.id!r} has {dim} dimensions; "
                f"the store's embeddings have {self._embedding_dim}")
        _check_line_at(line_at, ko.created_at)
        if self._embedding_dim is None:
            self._embedding_dim = dim
        self._kos[ko.id] = ko
        if self._zones is not None and ko.id > next(reversed(self._zones), ""):
            self._zones[ko.id] = ko.zone  # still in id order
        else:
            self._zones = None  # the next snapshot sorts the ids again
        return ko.id

    def _add_edge(self, source: str, target: str, edge_type: EdgeType,
                  at: int, line_at: int | None = None) -> Edge:
        """Store a new edge under the rules :meth:`add_edge` states;
        ``line_at`` is the time of the log line that creates it, if one
        does."""
        if source == target:
            raise ValidationError(f"self-loop edge on {source!r}")
        self._known(source)
        self._known(target)
        key = (source, target, edge_type)
        if key in self._edge_keys:
            raise ValidationError(
                f"duplicate edge {source!r} -{edge_type.value}-> {target!r}")
        _check_line_at(line_at, at)
        edge = trusted_edge(source, target, edge_type, at)  # no self-loop: checked above
        self._edges.append(edge)
        self._edge_keys.add(key)
        if self._structure is not None:
            self._structure.add(edge)
        return edge

    # -- replay -------------------------------------------------------------

    @classmethod
    def replay(cls, events: Iterable[EventRecord],
               params: EngineParams | None = None, *,
               base: "CorpusStore | None" = None) -> "CorpusStore":
        """Rebuild a store from its log. Deterministic: replaying the same
        log twice yields bit-identical state. Halts with the offending
        position on any gap or corrupt record.

        With ``base``, a store restored by :func:`restore_checkpoint`, the
        events are the log's tail: they are applied to ``base`` (``params``
        is then unused) and their seq must continue its ``last_seq``.
        """
        store = base if base is not None else cls(params=params)
        for i, event in enumerate(events, start=store.last_seq + 1):
            if event.seq != i:
                raise ReplayError(f"seq gap at position {i}: got seq {event.seq}")
            try:
                store._apply(event)
            except (ValidationError, ValueError, KeyError, TypeError) as exc:
                raise ReplayError(f"corrupt event at position {i}: {exc!r}") from exc
            store._events.append(event)
        return store


# ---------------------------------------------------------------------------
# Corpus file format
# ---------------------------------------------------------------------------

def _ko_from_record(record: dict, scores: tuple[float, ...], created_at: int,
                    retrieved_at: tuple[int, ...] = (),
                    resolved: bool = False) -> KnowledgeObject:
    """The one record-to-object builder, and the one place an object's
    fields are checked (a bad one is a ValidationError), for a KO_CREATED
    payload and a corpus record alike: both carry ``id``, ``class``, ``koc``,
    ``content``, ``stakes``, ``anchors`` and ``embedding`` in the same shape.
    The caller parses the five scores, in ``ScoreVector`` order, and times."""
    ko_id = _text(record, "id")
    try:
        return KnowledgeObject(
            id=ko_id, koc=_parse_koc(record["koc"]),
            cls=_parse_class(record["class"]), content=_text(record, "content"),
            scores=ScoreVector(*scores), created_at=created_at,
            retrieved_at=retrieved_at, resolved=resolved,
            stakes=_number("stakes", record["stakes"]),
            anchors=frozenset(_anchors(ko_id, record["anchors"])),
            embedding=_embedding(ko_id, record.get("embedding")))
    except ModelError as exc:
        raise ValidationError(str(exc)) from None


def _ko_head(ko: KnowledgeObject) -> dict:
    """An object's corpus record but for the three keys that sort last,
    which :func:`_score_tail` writes."""
    return {
        "kind": "ko",
        "id": ko.id,
        "class": ko.cls.value,
        "koc": _koc_to_dict(ko.koc),
        "content": ko.content,
        "created_at": ts_to_iso(ko.created_at),
        "retrieved_at": [ts_to_iso(t) for t in ko.retrieved_at],
        "resolved": ko.resolved,
        "anchors": sorted(ko.anchors),
        "embedding": list(ko.embedding) if ko.embedding is not None else None,
    }


# The end of an object's corpus line from the comma before its last three
# keys, as ``_dump_line`` writes them: scores and stakes as fixed decimal
# strings, so a save/load/save round trip is byte-identical.
_SCORE = f'"%.{SCORE_DECIMALS}f"'
_SCORE_TAIL = (f',"scores":{{"confidence":{_SCORE},"contradiction":{_SCORE},'
               f'"freshness":{_SCORE},"k":{_SCORE},"urgency":{_SCORE}}},'
               f'"stakes":{_SCORE},"zone":"%s"}}')


def _score_tail(ko: KnowledgeObject) -> str:
    s = ko.scores
    return _SCORE_TAIL % (s.confidence, s.contradiction, s.freshness, s.k,
                          s.urgency, ko.stakes, ko.zone.name)


# Every field of an object but its scores, the only field a cycle's
# ``rescored`` does not share with the object it rescores.
_UNSCORED = attrgetter(*(f.name for f in fields(KnowledgeObject) if f.name != "scores"))


def _ko_line(ko: KnowledgeObject, kept: tuple[KnowledgeObject, str] | None) -> str:
    """``ko``'s corpus line, given the object and line a restore kept for
    its id: the kept line for that very object; for one that differs from
    it only in its scores, the kept line with a new score tail once the
    line is checked to end with the old one; else a fresh serialization."""
    if kept is not None:
        old, line = kept
        if old is ko:
            return line
        if all(map(is_, _UNSCORED(ko), _UNSCORED(old))):
            tail = _score_tail(old)
            if line.endswith(tail):
                return line[:-len(tail)] + _score_tail(ko)
    return _dump_line(_ko_head(ko))[:-1] + _score_tail(ko)


def _edge_record(edge: Edge) -> dict:
    return {"kind": "edge", "source": edge.source_id, "target": edge.target_id,
            "type": edge.edge_type.value, "created_at": ts_to_iso(edge.created_at)}


# One encoder for every line; ``json.dumps`` with these arguments builds one a call.
_dump_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def corpus_lines(store: CorpusStore) -> list[str]:
    """The corpus file's lines: the header, each object in id order, then
    each edge in creation order. A line a checkpoint restore verified is
    re-emitted as it is for each restored edge and, through ``_ko_line``,
    for an object the store still holds unchanged (the very object restored
    beside it), or with a new score tail for one a cycle rescored."""
    header = {
        "kind": "header",
        "format_version": CORPUS_FORMAT_VERSION,
        "embedding_dim": store._embedding_dim,
        "params_fingerprint": store.params.fingerprint(),
        "last_cycle_at": (ts_to_iso(store.last_cycle_at)
                          if store.last_cycle_at is not None else None),
    }
    kos, kept = store._kos, store._ko_lines
    lines = [_dump_line(header)]
    lines += [_ko_line(kos[ko_id], kept.get(ko_id)) for ko_id in sorted(kos)]
    lines += store._edge_lines
    lines += [_dump_line(_edge_record(e))
              for e in store._edges[len(store._edge_lines):]]
    return lines


# Characters of corpus lines (newlines aside) in one batch: what
# _write_atomic encodes, writes and hashes at a time, unless a single line
# is longer, so that an export never builds one buffer of the whole file.
_WRITE_BATCH = 16 * 1024


def _batches(lines: Sequence[str]) -> Iterator[Sequence[str]]:
    """``lines`` in runs of about ``_WRITE_BATCH`` characters, newlines
    aside: as many lines as fit, and at least one."""
    ends = list(accumulate(map(len, lines), initial=0))  # of lines[:i] at i
    start = 0
    while start < len(lines):
        stop = max(start + 1, bisect_right(ends, ends[start] + _WRITE_BATCH) - 1)
        yield lines[start:stop]
        start = stop


def _write_atomic(path: str | Path, lines: Sequence[str]) -> str:
    """Replace ``path`` with ``lines``, each ended by a newline, through a
    temporary file in the same directory, so a reader, or a crash, sees the
    old file or the new one and never a torn one. The lines go out in
    :func:`_batches`, three calls a batch and never one buffer of them all.
    Returns the SHA-256 of the bytes written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as f:
            for batch in _batches(lines):
                data = ("\n".join(batch) + "\n").encode("utf-8")
                f.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def write_corpus(store: CorpusStore, path: str | Path) -> str:
    """Export the store's state as a corpus file, atomically. Returns the
    SHA-256 of the file's bytes."""
    return _write_atomic(path, corpus_lines(store))


def _decoded(text: str | bytes, build=None):
    """``json.loads(text)``, passed to ``build`` if one is given: every JSON
    the store reads is decoded here. Text nested too deeply to parse or to
    build from (a RecursionError) is a ValueError, as any other malformed
    text is, so each reader reports it as its own error."""
    try:
        value = json.loads(text)
        return value if build is None else build(value)
    except RecursionError:
        raise ValueError("nested too deeply to parse") from None


def read_corpus(path: str | Path) -> tuple[dict, list[tuple[int, dict]], list[tuple[int, str]]]:
    """Parse a corpus file into (header, numbered records, per-line errors).

    Unparseable lines are collected as (line number, message) so ingestion
    can proceed with the valid remainder; a file that is not UTF-8 is a
    ValidationError naming the first bad line.
    """
    records: list[tuple[int, dict]] = []
    errors: list[tuple[int, str]] = []
    header, body = _split_corpus(Path(path).read_bytes())
    for lineno, item in _corpus_items(body):
        (errors if isinstance(item, str) else records).append((lineno, item))
    return header, records, errors


def _split_corpus(data: bytes) -> tuple[dict, list[str]]:
    """A corpus file's header and its body lines, for every reader. A file
    that is not UTF-8 is a ValidationError naming the first bad line. Only
    a line feed ends a line, as JSON allows other line separators raw
    inside a string; a carriage return before it is dropped. An empty file
    has the default header and no body."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"line {lineno}: not UTF-8: {exc.reason}") from None
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[-1] == "":
        lines.pop()  # the file's final newline ends a line, it does not start one
    if not lines:
        return {"kind": "header", "format_version": CORPUS_FORMAT_VERSION,
                "embedding_dim": None}, []
    return _corpus_header(lines[0]), lines[1:]


def _corpus_header(line: str) -> dict:
    try:
        header = _decoded(line)
    except ValueError as exc:
        raise ValidationError(f"line 1: corpus header is not valid JSON: {exc}")
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValidationError("line 1: corpus file must start with a header record")
    if header.get("format_version") != CORPUS_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported corpus format version {header.get('format_version')!r}")
    return header


def _corpus_items(body: list[str]) -> Iterator[tuple[int, dict | str]]:
    """The non-blank body lines parsed one at a time, each as (line number,
    record or error message)."""
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        try:
            record = _decoded(line)
        except ValueError as exc:
            yield lineno, f"invalid JSON: {exc}"
            continue
        if not isinstance(record, dict):
            yield lineno, f"expected a JSON object, got {type(record).__name__}"
        elif record.get("kind") not in ("ko", "edge"):
            yield lineno, f"unknown record kind {record.get('kind')!r}"
        else:
            yield lineno, record


def load_corpus(path: str | Path, params: EngineParams | None = None) -> CorpusStore:
    """Restore exact store state from a corpus file (scores included).

    This is the snapshot-restore path: the returned store has the saved
    state but an empty event log. Strict: any bad record raises a
    ValidationError naming its line.
    """
    header, body = _split_corpus(Path(path).read_bytes())
    store = CorpusStore(params=params)
    store._last_cycle_at = _header_cycle_at(header)
    for lineno, record in _corpus_items(body):
        try:
            if isinstance(record, str):
                raise ValidationError(record)
            if record["kind"] == "ko":
                store._add_ko(_corpus_ko(record))
            else:
                store._add_edge(record["source"], record["target"],
                                _parse_edge_type(record["type"]),
                                parse_field_ts("created_at", record["created_at"]))
        except KeyError as exc:
            raise ValidationError(f"line {lineno}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:  # also ValidationError, ModelError
            raise ValidationError(f"line {lineno}: {exc}") from None
    return store


def _header_cycle_at(header: dict) -> int | None:
    """A corpus header's ``last_cycle_at`` as UTC seconds, None if unset."""
    if not header.get("last_cycle_at"):
        return None
    try:
        return parse_field_ts("last_cycle_at", header["last_cycle_at"])
    except ValidationError as exc:
        raise ValidationError(f"line 1: {exc}") from None


def _corpus_ko(record: dict) -> KnowledgeObject:
    scores = record["scores"]
    if not isinstance(scores, dict):
        raise ValidationError(f"scores must be an object, got {scores!r}")
    try:
        retrieved_at = tuple(map(iso_to_ts, record["retrieved_at"]))
    except (TypeError, ValueError):
        raise ValidationError(
            "retrieved_at must be a list of timestamps like 2024-01-01T00:00:00Z, "
            f"got {record['retrieved_at']!r}") from None
    return _ko_from_record(
        record,
        (_number("k", scores["k"]), _number("confidence", scores["confidence"]),
         _number("freshness", scores["freshness"]), _number("urgency", scores["urgency"]),
         _number("contradiction", scores["contradiction"])),
        parse_field_ts("created_at", record["created_at"]),
        retrieved_at,
        bool(record["resolved"]))


# ---------------------------------------------------------------------------
# Event log file format
# ---------------------------------------------------------------------------

def _event_to_dict(event: EventRecord) -> dict:
    return {"seq": event.seq, "at": ts_to_iso(event.at),
            "kind": event.kind.value, "payload": event.payload}


def _event_from_dict(data: dict) -> EventRecord:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    seq, at, payload = data["seq"], data["at"], data["payload"]
    if type(seq) is not int or not isinstance(at, str) or not isinstance(payload, dict):
        raise ValueError("seq must be an integer, at a string and payload an object")
    ts = iso_to_ts(at)
    kind = _KINDS.get(data["kind"]) if type(data["kind"]) is str else None
    kind = kind or EventKind(data["kind"])  # raises the ValueError a bad line reports
    payload = _interned(payload)
    same = payload.get("created_at" if kind is _KO_CREATED else "at")
    if type(same) is int and same == ts:
        ts = same  # one int object for the event's time, not two
    return EventRecord(seq=seq, at=ts, kind=kind, payload=payload)


def _interned(payload: dict) -> dict:
    # A parsed log holds one payload per event; sharing the key strings and
    # the repeated string values (ids, edge types, coordinate axes, anchors)
    # between them keeps a long log's footprint down. A list becomes a
    # tuple, as in the payloads the store builds, which the object built
    # from the payload then shares instead of copying.
    return {sys.intern(key): _interned(value) if type(value) is dict
            else sys.intern(value) if type(value) is str
            else tuple([sys.intern(v) if type(v) is str else v for v in value])
            if type(value) is list else value
            for key, value in payload.items()}


def append_events(path: str | Path, events: Iterable[EventRecord]) -> None:
    """Append events to the log file; existing lines are never rewritten.
    A last line left without its newline by a crashed append is ended first,
    so the new events do not glue onto it."""
    with open(path, "a+b") as f:
        size = f.seek(0, os.SEEK_END)
        if size:
            f.seek(size - 1)
            if f.read(1) != b"\n":
                f.write(b"\n")
        for event in events:
            f.write((_dump_line(_event_to_dict(event)) + "\n").encode("utf-8"))


@dataclass(frozen=True)
class LogPosition:
    """A point in the event log file: the byte offset just after a line, and
    the number of lines before that offset."""

    offset: int = 0
    lines: int = 0


def read_events(path: str | Path) -> list[EventRecord]:
    return read_events_from(path, LogPosition())[0]


def read_events_from(path: str | Path,
                     start: LogPosition) -> tuple[list[EventRecord], LogPosition]:
    """Parse the log from ``start`` to its end; return the events and the
    end position. Error line numbers count from the top of the file."""
    events: list[EventRecord] = []
    offset, lineno = start.offset, start.lines
    with open(path, "rb") as f:
        f.seek(offset)
        for raw in f:
            lineno += 1
            offset += len(raw)
            if not raw.strip():
                continue
            try:
                events.append(_decoded(raw.decode("utf-8"), _event_from_dict))
            except (KeyError, ValueError) as exc:
                raise ReplayError(f"corrupt event log line {lineno}: {exc}") from exc
    return events, LogPosition(offset, lineno)


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------

def checkpoint_path(log: str | Path) -> Path:
    return Path(f"{log}.checkpoint")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line_ending_at(f, offset: int) -> bytes:
    """The log line that ends at byte ``offset`` of the open binary file
    ``f``, read backwards from there (b"" at offset 0)."""
    window = 4096
    while True:
        lo = max(0, offset - window)
        f.seek(lo)
        data = f.read(offset - lo)
        newline = data.rfind(b"\n", 0, len(data) - 1)
        if newline >= 0 or lo == 0:
            return data[newline + 1:]
        window *= 2


# An object's row in a checkpoint image: these fields (the coordinate's
# seven axes second to eighth, the scores from the eleventh in ScoreVector
# order), then its anchors sorted, as a frozenset's order varies with the
# string hash seed, and its embedding.
_IMAGE_ROW = attrgetter(
    "id", "koc.entity", "koc.domain", "koc.cls.value", "koc.epoch", "koc.depth",
    "koc.author", "koc.variant", "cls.value", "content", "scores.k",
    "scores.confidence", "scores.freshness", "scores.urgency",
    "scores.contradiction", "created_at", "retrieved_at", "resolved", "stakes")
_EDGE_COLUMNS = tuple(map(attrgetter, ("source_id", "target_id", "edge_type.value",
                                       "created_at")))


def _image(store: CorpusStore, corpus_sha256: str) -> bytes:
    """``store``'s state as plain values, marshalled: the corpus hash, one
    row per object in id order (its corpus lines' order), then the edges as
    parallel tuples of source, target, type and time. Marshal version 2
    writes no back-references or interned-string flags, which later
    versions take from reference counts, so the bytes depend on the state
    alone. A value marshal cannot hold (a ``str`` subclass) is a ValueError."""
    kos, edges = store._kos, store._edges
    rows = tuple(_IMAGE_ROW(ko) + (tuple(sorted(ko.anchors)), ko.embedding)
                 for ko in map(kos.__getitem__, sorted(kos)))
    return marshal.dumps((corpus_sha256, rows,
                          *(tuple(map(column, edges)) for column in _EDGE_COLUMNS)), 2)


def _image_store(image, corpus_sha256: str, body: list[str], cycle_at: int | None,
                 params: EngineParams) -> CorpusStore:
    """The store an unmarshalled :func:`_image` holds, through the trusted
    constructors, each line of ``body`` (the lines of the corpus hashing to
    ``corpus_sha256``) kept beside its object or edge for :func:`corpus_lines`.
    Its values are trusted as a hash-checked ``.pyc`` is: they were validated
    before the image was written. The store's own rules still run:
    ``_add_ko``'s on each object, ``_add_edge``'s once over all the edges."""
    named, rows, sources, targets, types, times = image
    if named != corpus_sha256:
        raise CheckpointError("the checkpoint image was saved with another corpus")
    n = len(rows)
    if {len(sources), len(targets), len(types), len(times)} != {len(body) - n}:
        raise CheckpointError(f"the checkpoint image holds other than the "
                              f"{len(body)} objects and edges of the corpus lines")
    store = CorpusStore(params=params)
    store._last_cycle_at = cycle_at
    add_ko, ko_lines = store._add_ko, store._ko_lines
    for (ko_id, entity, domain, koc_cls, epoch, depth, author, variant, cls, content,
         k, confidence, freshness, urgency, contradiction, created_at, retrieved_at,
         resolved, stakes, anchors, embedding), line in zip(rows, body):
        koc = trusted_koc(entity, domain, _CLASSES[koc_cls], epoch, depth, author, variant)
        scores = trusted_scores(k, confidence, freshness, urgency, contradiction)
        ko = trusted_ko(ko_id, koc, _CLASSES[cls], content, scores, created_at,
                        retrieved_at, resolved, stakes, frozenset(anchors), embedding)
        add_ko(ko)
        ko_lines[ko_id] = (ko, line)
    store._edge_lines = body[n:]
    types = list(map(_EDGE_TYPES.__getitem__, types))
    keys = set(zip(sources, targets, types))
    if any(map(eq, sources, targets)):
        raise ValueError("a self-loop edge")
    if not store._kos.keys() >= {*sources, *targets}:
        raise ValueError("an edge to an unknown knowledge object")
    if len(keys) != len(sources):
        raise ValueError("a repeated edge")
    store._edges = list(map(trusted_edge, sources, targets, types, times))
    store._edge_keys = keys
    return store


def write_checkpoint(log: str | Path, corpus_sha256: str, store: CorpusStore,
                     position: LogPosition) -> None:
    """Record, atomically, that the corpus file hashing to ``corpus_sha256``
    (as returned by :func:`write_corpus`) holds ``store``'s state, whose
    :func:`_image` it keeps, after the log line ending at ``position``, the
    line of event ``last_seq``.

    Write it after the log append and the corpus write: a crash between
    them leaves a checkpoint that no longer matches the corpus, or one whose
    corpus the log's tail brings up to date.
    """
    with open(log, "rb") as f:
        line = _line_ending_at(f, position.offset)
    record = {
        "seq": store.last_seq,
        "offset": position.offset,
        "lines": position.lines,
        "line_sha256": _sha256(line),
        "latest_event_at": store.latest_event_at(),
        "params": store.params.to_dict(),
        "corpus_sha256": corpus_sha256,
    }
    try:
        image = _image(store, corpus_sha256)
        record.update(image=base64.b64encode(image).decode("ascii"),
                      image_sha256=_sha256(image))
    except ValueError:
        pass  # no image: the next open replays the whole log
    _write_atomic(checkpoint_path(log), [_dump_line(record)])


def restore_checkpoint(log: str | Path,
                       corpus: str | Path) -> tuple[CorpusStore, LogPosition]:
    """The store as of ``log``'s checkpoint, built by :func:`_image_store`
    from its image and the lines of ``corpus``, and the log position its
    tail starts at.

    The checks are cheap: the corpus hashes to the recorded value; the log
    line ending at the recorded offset (a shorter log has none) hashes to
    the recorded value and carries the recorded seq; the corpus header's
    params fingerprint is that of the recorded params; the image hashes to
    the recorded value. Anything else, a missing or unreadable checkpoint,
    one with no image (from before checkpoints held one), or an image that
    does not decode or match the corpus, raises CheckpointError.
    """
    try:
        record = _decoded(checkpoint_path(log).read_bytes())
        seq, offset, lines = record["seq"], record["offset"], record["lines"]
        if not all(type(v) is int and v > 0 for v in (seq, offset, lines)):
            raise CheckpointError("seq, offset and lines must be positive integers")
        params = EngineParams.from_dict(record["params"])
        # The bytes split are the bytes hashed, even if the file is
        # replaced meanwhile.
        data = Path(corpus).read_bytes()
        corpus_sha256 = _sha256(data)
        if corpus_sha256 != record["corpus_sha256"]:
            raise CheckpointError("the corpus file changed since the checkpoint")
        with open(log, "rb") as f:
            line = _line_ending_at(f, offset)
        if not line.endswith(b"\n") or _sha256(line) != record["line_sha256"]:
            raise CheckpointError(f"log line {lines} changed since the checkpoint")
        if _decoded(line, _event_from_dict).seq != seq:
            raise CheckpointError(f"log line {lines} is not event {seq}")
        header, body = _split_corpus(data)
        if header.get("params_fingerprint") != params.fingerprint():
            raise CheckpointError("the corpus was written under other params")
        image = base64.b64decode(record.pop("image"), validate=True)
        if _sha256(image) != record["image_sha256"]:
            raise CheckpointError("the checkpoint image does not match its SHA-256")
        # The build is the peak of a restore's memory: the base64 text, the
        # image bytes and the corpus bytes (its lines are split) go first.
        image = marshal.loads(image)
        del data
        store = _image_store(image, corpus_sha256, body, _header_cycle_at(header), params)
        latest = _check_ts("latest_event_at", record["latest_event_at"])
    except CheckpointError:
        raise
    except (OSError, EOFError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CheckpointError(f"unusable checkpoint: {exc!r}") from exc
    store._base_seq, store._base_at = seq, latest
    return store, LogPosition(offset, lines)


# ---------------------------------------------------------------------------
# Workspace: the log, the corpus and the checkpoint together
# ---------------------------------------------------------------------------

def _restored_state(store: CorpusStore) -> tuple:
    # Everything a checkpoint restores: the objects and edges, the corpus
    # bytes, plus the params, last seq and latest event time the corpus does
    # not carry. A restored store re-emits the line it kept for an object
    # even if the object built from that line is wrong, so the lines alone
    # cannot vouch for the objects.
    snapshot = store.snapshot()
    return (snapshot.kos, snapshot.edges, corpus_lines(store),
            store.params.to_dict(), store.last_seq, store.latest_event_at())


class Workspace:
    """The event log at ``log``, its corpus export at ``corpus`` and the
    checkpoint beside the log, opened as one :attr:`store` and saved back.
    A save onto a log that grew since this workspace read it (a second
    writer) is refused before any file is written: detection, not a lock.
    """

    def __init__(self, log: str | Path, corpus: str | Path) -> None:
        self.log, self.corpus = Path(log), Path(corpus)
        self.store: CorpusStore | None = None
        self._saved_seq = 0
        self._end = LogPosition()  # where the log ended when read or saved

    def _restored(self) -> tuple[CorpusStore, int, LogPosition]:
        # The checkpoint plus the log's tail, the tail's length and the
        # log's end; an unusable checkpoint raises CheckpointError.
        base, start = restore_checkpoint(self.log, self.corpus)
        tail, end = read_events_from(self.log, start)
        return CorpusStore.replay(tail, base=base), len(tail), end

    def open(self, params: EngineParams | None = None) -> CorpusStore:
        """Restore the checkpoint and replay the log's tail, or replay the
        whole log if the checkpoint is unusable. ``params`` are logged if
        they differ from the log's, and always on a log that does not exist
        yet, so later opens replay them. Writes no file."""
        exists = self.log.exists()
        if exists:
            try:
                store, _, end = self._restored()
            except CheckpointError:
                events, end = read_events_from(self.log, LogPosition())
                store = CorpusStore.replay(events)
        else:
            store, end = CorpusStore(), LogPosition()
        self.store, self._saved_seq, self._end = store, store.last_seq, end
        if params is not None and (not exists or
                                   store.params.to_dict() != params.to_dict()):
            store.set_params(params)
        return store

    def save(self) -> None:
        """Append the events the log does not hold yet, export the corpus,
        then write the checkpoint (see :func:`write_checkpoint` for why in
        that order). A log of another size than when last read or saved is
        a ReplayError."""
        size = self.log.stat().st_size if self.log.exists() else 0
        if size != self._end.offset:
            raise ReplayError(f"the event log {self.log} changed since it was opened "
                              f"({size} bytes, not {self._end.offset}); nothing was saved")
        store, end = self.store, self._end
        new_events = store.events_after(self._saved_seq)
        if new_events:
            append_events(self.log, new_events)
            end = LogPosition(self.log.stat().st_size, end.lines + len(new_events))
        corpus_sha256 = write_corpus(store, self.corpus)
        if store.last_seq:
            write_checkpoint(self.log, corpus_sha256, store, end)
        self._saved_seq, self._end = store.last_seq, end

    def verify(self) -> tuple[bool, str]:
        """Whether the checkpoint-restored state equals a full replay, run
        first, of the log (or with no checkpoint, whether the log replays),
        and a line saying so."""
        if not self.log.exists():
            return True, "no checkpoint: nothing to verify"
        events = read_events(self.log)
        replayed = CorpusStore.replay(events)
        if not checkpoint_path(self.log).exists():
            return True, f"no checkpoint: a full replay of {len(events)} events succeeds"
        try:
            restored, tail, _ = self._restored()
        except CheckpointError as exc:
            return False, f"checkpoint mismatch: {exc}"
        same = _restored_state(restored) == _restored_state(replayed)
        return same, (f"{'ok' if same else 'checkpoint mismatch'}: the checkpoint at seq "
                      f"{restored.last_seq - tail} plus {tail} tail events "
                      f"{'equals' if same else 'differs from'} a full replay of "
                      f"{len(events)} events")

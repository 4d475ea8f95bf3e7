"""In-memory span recorder, installed by wrapping public entry points.

The program under test is not edited: :func:`install` replaces each
layer's public functions and methods with timing wrappers *from here*,
the wrappers append spans to a list in memory, and the list is dumped as
JSON lines when the run ends.  A span is ``name, start, end, parent,
request, tag``: the parent is the span that was open on the same thread
when this one started, spans of one HTTP request share its
``X-Trace-Id`` as ``request``, and ``tag`` carries the one extra fact
some roll-ups need (which engine committed).

A layer's *self time* is its spans' duration minus the part their child
spans cover (:func:`rollup`).  Wrappers exist only in the traced run; the
end-to-end numbers come from a run that never imports this module.
"""

from __future__ import annotations

import bisect
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

__all__ = ["Recorder", "install", "load", "rollup", "overlap_with"]

NAME, START, END, PARENT, REQUEST, TAG, THREAD = range(7)


class Recorder:
    """Collects spans; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._local = threading.local()

    # --- recording ----------------------------------------------------------
    def _open(self, name, request=None, tag=None) -> list:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [name, 0.0, 0.0, parent, request, tag, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block (for calls the harness makes itself)."""
        span = self._open(name, tag=tag)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, function, name: str, request=None, tag=None):
        """A wrapper recording one span per call of ``function``.

        ``request`` / ``tag`` are optional callables over the call's
        positional arguments.
        """
        recorder = self

        def traced(*args, **kwargs):
            span = recorder._open(
                name,
                request(*args) if request is not None else None,
                tag(*args) if tag is not None else None,
            )
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(span)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # --- installation -------------------------------------------------------
    def wrap_method(self, module: str, owner: str, method: str, name: str, **how) -> None:
        """Replace ``module.owner.method`` (inherited methods included)."""
        try:
            cls = getattr(importlib.import_module(module), owner)
            original = getattr(cls, method)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{owner}.{method}")
            return
        setattr(cls, method, self.wrap(original, name, **how))

    def wrap_function(self, module: str, function: str, name: str, **how) -> None:
        """Replace a module-level function wherever ``repro`` bound it.

        ``from .wire import parse_patterns`` copies the reference into the
        importing module, so the name is replaced in every loaded
        ``repro`` module that holds the object.
        """
        try:
            original = getattr(importlib.import_module(module), function)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{function}")
            return
        traced = self.wrap(original, name, **how)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, traced)

    # --- output -------------------------------------------------------------
    def records(self) -> list[dict]:
        """Spans as JSON-able dicts with integer ids (finished ones only)."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(span)],
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": None if span[PARENT] is None else ids[id(span[PARENT])],
                "request": span[REQUEST],
                "tag": span[TAG],
                "thread": span[THREAD],
            }
            for span in self.spans
            if span[END]
        ]

    def dump(self, path) -> None:
        """Write a clock header and every finished span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {"clock": {"perf_counter": time.perf_counter(), "time": time.time()},
                      "missing": self.missing}
            handle.write(json.dumps(header) + "\n")
            for record in self.records():
                handle.write(json.dumps(record) + "\n")


def load(path, clock=time.perf_counter) -> tuple[list[dict], list[str]]:
    """Read a dump; span times are shifted onto this process's ``clock``.

    Returns ``(spans, missing)``.  On Linux ``perf_counter`` is
    ``CLOCK_MONOTONIC`` and already shared between processes; the shift
    through wall-clock time keeps the alignment honest elsewhere.
    """
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    theirs = header["clock"]
    shift = (time.time() - clock()) - (theirs["time"] - theirs["perf_counter"])
    for span in spans:
        span["start"] -= shift
        span["end"] -= shift
    return spans, header["missing"]


# --- the wrap list -----------------------------------------------------------
def _header_request(handler) -> str | None:
    return handler.headers.get("X-Trace-Id")


def _engine(engine, *_args) -> int:
    return id(engine)


def _shard_engines(cluster, *_args) -> list[int]:
    return [id(engine) for engine in cluster.engines]


def install(recorder: Recorder, server: bool) -> None:
    """Wrap every layer boundary this benchmark reports on.

    ``server`` adds the serving layers (``repro.server``, sharding,
    tenancy); the in-process workloads leave them unwrapped.
    """
    method, function = recorder.wrap_method, recorder.wrap_function
    function("repro.rdf.ntriples", "parse_ntriples", "rdf.parse")
    method("repro.dictionary.encoder", "TermDictionary", "encode_many", "dictionary.encode")
    method("repro.store.backends.hashdict", "HashDictStore", "add_all", "store.add_all")
    method("repro.reasoner.engine", "Slider", "apply", "reasoner.apply", tag=_engine)
    method("repro.reasoner.engine", "Slider", "snapshot", "persist.snapshot")
    function("repro.reasoner.retraction", "dred_retract", "reasoner.dred")
    method("repro.store.planner.incremental", "IncrementalBGPPlan", "additions",
           "reasoner.subscription")
    method("repro.reasoner.delta", "InferenceReport", "added_matching_encoded",
           "reasoner.subscription")
    method("repro.reasoner.delta", "InferenceReport", "removed_matching",
           "reasoner.subscription")
    method("repro.persist.manager", "PersistenceManager", "journal_commit",
           "persist.journal_commit")
    method("repro.persist.manager", "PersistenceManager", "write_snapshot",
           "persist.snapshot_write")
    method("repro.persist.manager", "PersistenceManager", "load", "persist.recover_load")
    if not server:
        return
    function("repro.store.planner.plan", "plan_bgp", "store.plan")
    function("repro.store.planner.executor", "execute_plan", "store.execute")
    function("repro.store.planner.executor", "execute_encoded", "store.solve")
    function("repro.server.wire", "parse_patterns", "server.wire.parse")
    function("repro.server.wire", "parse_statements", "server.wire.parse")
    function("repro.server.wire", "render_binding", "server.wire.render")
    function("repro.server.wire", "render_triple", "server.wire.render")
    method("repro.server.http", "_Handler", "_send_json", "server.wire.render")
    method("repro.server.views", "ViewRegistry", "advance", "server.views.advance")
    method("repro.server.views", "ViewRegistry", "current", "server.views.lookup")
    method("repro.server.views", "ViewRegistry", "at", "server.views.lookup")
    method("repro.server.coalescer", "WriteCoalescer", "submit", "server.coalescer.submit")
    method("repro.server.coalescer", "PendingWrite", "wait", "server.coalescer.wait")
    method("repro.server.service", "ReasoningService", "apply", "server.service.apply")
    method("repro.server.http", "_Handler", "parse_request", "server.http.parse_request")
    method("repro.server.http", "_Handler", "do_GET", "server.http.handler",
           request=_header_request)
    method("repro.server.http", "_Handler", "do_POST", "server.http.handler",
           request=_header_request)
    method("repro.sharding.cluster", "ShardedReasoner", "apply_many", "sharding.apply_many",
           tag=_shard_engines)
    method("repro.tenancy.admission", "AdmissionController", "admit", "tenancy.admit")
    method("repro.tenancy.fairshare", "FairShareCoalescer", "submit", "tenancy.submit")
    method("repro.tenancy.manager", "TenantManager", "apply", "tenancy.apply")


# --- roll-ups ----------------------------------------------------------------
def rollup(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` seconds, ``self`` seconds and ``count``.

    Self time is a span's duration minus its direct children's; children
    run on the parent's thread inside its interval and never overlap each
    other, so the subtraction is exact.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    layers: dict[str, dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        layer = layers.setdefault(span["name"], {"total": 0.0, "self": 0.0, "count": 0})
        layer["total"] += duration
        layer["self"] += duration - covered.get(span["id"], 0.0)
        layer["count"] += 1
    return layers


def overlap_with(intervals: list[tuple[float, float]]):
    """A function giving how much of ``[start, end]`` the union of
    ``intervals`` covers (used to take the commit out of a writer's wait)."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    starts = [interval[0] for interval in merged]

    def covered(start: float, end: float) -> float:
        total = 0.0
        index = max(0, bisect.bisect_right(starts, start) - 1)
        while index < len(merged) and merged[index][0] < end:
            total += max(0.0, min(end, merged[index][1]) - max(start, merged[index][0]))
            index += 1
        return total

    return covered

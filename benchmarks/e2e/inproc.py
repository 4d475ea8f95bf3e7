"""The two in-process workloads: ``bulk_closure`` and ``stream_commits``.

Each runner is constructed from generated inputs (construction *is* the
set-up that ``setup_s`` times), measures once, checks the outputs
against a reference computation, and is closed.  ``recorder`` is the
traced pass's span recorder; the untraced pass hands in ``None`` and
takes the same path minus the spans.
"""

from __future__ import annotations

import functools
import itertools
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

from repro import Slider, obs
from repro.baselines.batch import SemiNaiveReasoner
from repro.rdf import ntriples
from repro.reasoner.delta import Delta
from repro.server.wire import parse_patterns

from common import Result, scrape_delta, scrape_totals
from workloads import WARMUP_SHARE

__all__ = ["BulkClosure", "StreamCommits"]

FRAGMENT = "rdfs"
WORKERS = 2


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def _window_spans(recorder, start: float, end: float) -> list[dict]:
    return [s for s in recorder.records() if s["start"] >= start and s["end"] <= end]


@functools.lru_cache(maxsize=None)
def _batch_closure(ntriples_bytes: bytes) -> tuple[int, int, int]:
    """``(input, inferred, triples)`` of the batch materializer over one
    file; cached, so the two passes of a traced run compute it once."""
    reference = SemiNaiveReasoner(fragment=FRAGMENT)
    reference.add(ntriples.parse_ntriples(ntriples_bytes.decode("utf-8")))
    reference.materialize()
    return reference.input_count, reference.inferred_count, len(reference)


class BulkClosure:
    """Parse + load + close three N-Triples files, chunk by chunk."""

    def __init__(self, inputs: dict, workdir: Path, recorder=None):
        self.recorder = recorder
        self.chunk = inputs["chunk"]
        self.files = []
        for spec in inputs["files"]:
            path = workdir / f"{spec['name']}.nt"
            path.write_text("".join(line + "\n" for line in spec["lines"]), encoding="utf-8")
            self.files.append((spec["name"], path))

    def _close_file(self, path: Path, result: Result, limit: int | None = None) -> dict:
        """One dataset (its first ``limit`` lines) through a fresh engine;
        commit latencies (ms) go to ``result.major``, parse latencies to
        ``result.minor``."""
        with Slider(fragment=FRAGMENT, workers=WORKERS) as engine, \
                open(path, encoding="utf-8") as handle:
            rules = 0.0
            source = itertools.islice(handle, limit)
            while True:
                lines = list(itertools.islice(source, self.chunk))
                if not lines:
                    break
                started = time.perf_counter()
                triples = ntriples.parse_ntriples("".join(lines))
                parsed = time.perf_counter()
                report = engine.apply(Delta(triples))
                committed = time.perf_counter()
                result.minor.append((parsed - started) * 1000.0)
                result.major.append((committed - parsed) * 1000.0)
                rules += sum(report.timings.values())
            counters = engine.counters().values()
            return {
                "input": engine.input_count,
                "inferred": engine.inferred_count,
                "triples": len(engine.store),
                "terms": len(engine.dictionary),
                "rules_s": rules,
                "derived": sum(c["derived"] for c in counters),
                "duplicates": sum(c["duplicates_filtered"] for c in counters),
            }

    def measure(self) -> Result:
        result = Result()
        # Lazy imports and the rule kernels warm on a tiny closure first;
        # users do not pay that per load.
        self._close_file(self.files[2][1], Result(), limit=40)
        closed: dict[str, dict] = {}
        spans: dict[str, float] = {}
        window_start = time.perf_counter()
        for name, path in self.files:
            started = time.perf_counter()
            closed[name] = self._close_file(path, result)
            spans[name] = time.perf_counter() - started
        window_end = time.perf_counter()
        result.window_s = window_end - window_start
        result.attempted = len(result.major)
        result.detail["closure_s"] = (sum(spans.values()), "s", len(spans))
        for name, seconds in spans.items():
            result.detail[f"closure_s.{name}"] = (seconds, "s", 1)

        # Oracle: the batch materializer over the same files.
        for name, path in self.files:
            expected = _batch_closure(path.read_bytes())
            got = (closed[name]["input"], closed[name]["inferred"], closed[name]["triples"])
            result.check(got == expected,
                         f"{name}: closure (input, inferred, triples) {got} != batch {expected}")

        if self.recorder is not None:
            totals = {key: sum(c[key] for c in closed.values())
                      for key in ("input", "inferred", "terms", "rules_s", "derived", "duplicates")}
            result.layers.update({
                "reasoner.closure_s.bsbm": spans["bsbm"],
                "reasoner.closure_s.wikipedia": spans["wikipedia"],
                "reasoner.closure_s.chain": spans["chain"],
                "reasoner.rules_s": totals["rules_s"],
                "reasoner.inferred_per_input": totals["inferred"] / totals["input"],
                "reasoner.duplicate_share": totals["duplicates"] / max(1, totals["derived"]),
                "dictionary.terms": totals["terms"],
            })
            result.spans = _window_spans(self.recorder, window_start, window_end)
        return result

    def close(self, _result: Result) -> None:
        """Nothing outlives :meth:`measure`; the caller removes the files."""


class StreamCommits:
    """One caller committing small deltas to a durable engine."""

    def __init__(self, inputs: dict, workdir: Path, recorder=None):
        self.recorder = recorder
        self.state = workdir / "state"
        self.base = ntriples.parse_ntriples("\n".join(inputs["base"]))
        self.ops = []
        for op in inputs["ops"]:
            if "snapshot" in op:
                self.ops.append(("snapshot", None))
            else:
                kind = "assert" if "assert" in op else "retract"
                self.ops.append((kind, ntriples.parse_ntriples("\n".join(op[kind]))))
        self.reopens = inputs["reopens"]
        self.engine = self._open()
        self.engine.apply(Delta(self.base))
        self.events = 0
        for text in inputs["subscriptions"]:
            self.engine.subscribe(parse_patterns(text), self._on_event)

    def _open(self) -> Slider:
        return Slider(fragment=FRAGMENT, workers=WORKERS, persist_dir=self.state)

    def _on_event(self, _event) -> None:
        self.events += 1

    def measure(self) -> Result:
        result = Result()
        engine = self.engine
        explicit = set(self.base)
        warmup = int(len(self.ops) * WARMUP_SHARE)
        reports = []
        snapshot_s = window_start = 0.0
        scrape_before: dict[str, float] = {}
        for index, (kind, triples) in enumerate(self.ops):
            if index == warmup:
                scrape_before = scrape_totals(obs.REGISTRY.expose())
                window_start = time.perf_counter()
            started = time.perf_counter()
            if kind == "snapshot":
                engine.snapshot()
                snapshot_s = time.perf_counter() - started
                continue
            if kind == "assert":
                report = engine.apply(Delta(triples))
            else:
                report = engine.apply(Delta(retractions=triples))
            elapsed = (time.perf_counter() - started) * 1000.0
            (explicit.update if kind == "assert" else explicit.difference_update)(triples)
            if index >= warmup:
                (result.major if kind == "assert" else result.minor).append(elapsed)
                reports.append(report)
        commits_end = time.perf_counter()
        moved = scrape_delta(scrape_before, scrape_totals(obs.REGISTRY.expose()))

        # Restart cycles: close, reopen (snapshot load + changelog tail
        # replay).  The state compared across the restart is read outside
        # the timed parts.
        before = (engine.revision, set(engine.graph))
        recover: list[float] = []
        cycles_s = 0.0
        for _ in range(self.reopens):
            started = time.perf_counter()
            engine.close()
            reopening = time.perf_counter()
            with _span(self.recorder, "persist.reopen"):
                engine = self.engine = self._open()
            ended = time.perf_counter()
            recover.append(ended - reopening)
            cycles_s += ended - started
            result.check(engine.revision == before[0],
                         f"reopened at revision {engine.revision}, closed at {before[0]}")
        window_end = time.perf_counter()
        result.window_s = (commits_end - window_start) + cycles_s
        result.attempted = len(result.major) + len(result.minor) + len(recover)
        recover.sort()
        result.detail.update({
            "snapshot_s": (snapshot_s, "s", 1),
            "recover_s": (recover[len(recover) // 2], "s", len(recover)),
            "subscription_events": (self.events, "count", 1),
        })

        # Oracles: the restart lost nothing, and the incremental closure
        # equals the batch closure of the net explicit set.
        after = set(engine.graph)
        result.check(after == before[1],
                     f"reopened store differs from the closed one by "
                     f"{len(after ^ before[1])} triples")
        reference = SemiNaiveReasoner(fragment=FRAGMENT)
        reference.add(explicit)
        reference.materialize()
        expected = set(reference.graph)
        result.check(after == expected,
                     f"final store differs from the batch closure of the net explicit set "
                     f"by {len(after ^ expected)} triples")

        if self.recorder is not None:
            commits = len(reports)
            removed = sum(r.removed_count for r in reports)
            result.layers.update({
                "reasoner.rules_s": sum(sum(r.timings.values()) for r in reports),
                "reasoner.dred_overdeleted_per_removed":
                    sum(r.dred_deleted for r in reports) / max(1, removed),
                "reasoner.dred_rederived": sum(r.dred_rederived for r in reports),
                "dictionary.terms": len(engine.dictionary),
                "persist.fsync_s": moved.get("slider_persist_fsync_seconds_sum", 0.0),
                "persist.fsyncs_per_commit":
                    moved.get("slider_persist_fsync_seconds_count", 0.0) / commits,
                "persist.wal_bytes_per_commit":
                    moved.get("slider_persist_wal_bytes_total", 0.0) / commits,
                "persist.snapshot_bytes": moved.get("slider_persist_snapshot_bytes_total", 0.0),
            })
            result.spans = _window_spans(self.recorder, window_start, window_end)
        return result

    def close(self, _result: Result) -> None:
        """Close the engine and remove its durable state."""
        self.engine.close()
        shutil.rmtree(self.state, ignore_errors=True)

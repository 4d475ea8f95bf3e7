"""Rule modules (paper §2, "Rule Modules").

A :class:`RuleModule` pairs one rule with its buffer and accumulates the
execution statistics the demo GUI displays.  Each *firing* — a batch of
triples leaving the buffer — conceptually creates a new module instance
on the thread pool; here an instance is simply one :meth:`execute` call,
which is reentrant and thread-safe (every store read the rule makes is
atomic — a lock-free point probe or a list copied under the store's
read lock — and the statistics are guarded).

Firings are batch-native: each worker thread reuses one
:class:`~repro.reasoner.rules.OutputBuffer` per module, so a firing
emits into pre-allocated storage instead of building a fresh list and
dedup set — and the batch handed to the distributor is guaranteed free
of intra-firing duplicates.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..dictionary.encoder import EncodedTriple
from ..store.backends.base import TripleStore
from .buffers import TripleBuffer
from .rules import OutputBuffer, Rule, apply_rule_into
from .vocabulary import Vocabulary

__all__ = ["RuleModule"]


class RuleModule:
    """One rule plus its buffer plus execution statistics."""

    def __init__(self, rule: Rule, buffer: TripleBuffer):
        if rule.name != buffer.rule_name:
            raise ValueError(
                f"buffer {buffer.rule_name!r} does not belong to rule {rule.name!r}"
            )
        self.rule = rule
        self.buffer = buffer
        self._stats_lock = threading.Lock()
        self._scratch = threading.local()  # per-thread reusable OutputBuffer
        self.executions = 0
        self.triples_consumed = 0
        self.triples_derived = 0  # raw rule output (pre store-dedup)
        self.triples_kept = 0  # survived store deduplication

    def execute(
        self,
        store: TripleStore,
        batch: Sequence[EncodedTriple],
        vocab: Vocabulary,
    ) -> list[EncodedTriple]:
        """Run one rule-module instance over a buffered batch."""
        out = getattr(self._scratch, "out", None)
        if out is None:
            out = self._scratch.out = OutputBuffer()
        try:
            apply_rule_into(self.rule, store, batch, vocab, out)
        except BaseException:
            out.take()  # discard partial output so the buffer reuses clean
            raise
        derived = out.take()
        with self._stats_lock:
            self.executions += 1
            self.triples_consumed += len(batch)
            self.triples_derived += len(derived)
        return derived

    def record_kept(self, count: int) -> None:
        """Distributor feedback: how many derived triples were new."""
        with self._stats_lock:
            self.triples_kept += count

    def stats(self) -> dict[str, int]:
        """Snapshot of the module's counters (demo GUI panel 2)."""
        with self._stats_lock:
            return {
                "executions": self.executions,
                "consumed": self.triples_consumed,
                "derived": self.triples_derived,
                "kept": self.triples_kept,
                "duplicates_filtered": self.triples_derived - self.triples_kept,
            }

    def __repr__(self):
        return f"<RuleModule {self.rule.name} runs={self.executions} kept={self.triples_kept}>"

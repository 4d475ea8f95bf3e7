"""Distributors (paper §2, "Distributors").

Each rule has a distributor with three tasks: collect the triples the
rule inferred, add them to the triple store, and dispatch the *new* ones
(duplicates are dropped by the store's hash indexes) to the buffers of
dependent rules.  The dependent-buffer list comes from the rules
dependency graph at initialization — it is the paper's Figure 2, self
edges included; actual dispatch is by predicate, so a triple only
reaches the dependents whose input signature matches.  A
closed-inheritance rule's distributor also skips the rule itself for
its own conclusions, other than the edges it must still join (see
:func:`~repro.reasoner.dependency.closed_inheritance`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..dictionary.encoder import EncodedTriple
from ..store.backends.base import TripleStore
from .modules import RuleModule
from .trace import NullTrace

__all__ = ["Distributor"]

DispatchFn = Callable[[Sequence[EncodedTriple]], None]


class Distributor:
    """Collects one rule's inferences and feeds dependents.

    ``dispatch`` is provided by the engine: it routes a batch of
    *already-stored, known-new* triples to every matching buffer and
    schedules any rule firings that result; for a closed-inheritance
    rule the engine passes one that leaves the rule's own closed output
    out.  ``dependents`` is kept for introspection (it is the paper's
    per-distributor buffer list, Figure 2).
    """

    def __init__(
        self,
        module: RuleModule,
        store: TripleStore,
        dispatch: DispatchFn,
        dependents: Sequence[str],
        trace=None,
        on_new: DispatchFn | None = None,
    ):
        self.module = module
        self.store = store
        self.dispatch = dispatch
        self.dependents = tuple(dependents)
        self.on_new = on_new  # engine change-log hook (store-new inferred triples)
        self.trace = trace if trace is not None else NullTrace()

    def collect(self, derived: Sequence[EncodedTriple]) -> list[EncodedTriple]:
        """Insert derived triples; dispatch and return the new ones.

        ``derived`` comes from a module firing's
        :class:`~repro.reasoner.rules.OutputBuffer`, so it is already
        free of intra-batch duplicates — ``add_all`` only pays for
        cross-batch deduplication against the store's indexes.
        """
        if not derived:
            return []
        new_triples = self.store.add_all(derived)
        self.module.record_kept(len(new_triples))
        if self.trace.enabled:
            self.trace.record(
                "store",
                rule=self.module.rule.name,
                derived=len(derived),
                kept=len(new_triples),
                store_size=len(self.store),
            )
        if new_triples:
            if self.on_new is not None:
                self.on_new(new_triples)
            self.dispatch(new_triples)
        return new_triples

    def __repr__(self):
        return f"<Distributor {self.module.rule.name} -> {list(self.dependents)}>"

"""Batch materialization baselines (the OWLIM-SE stand-in).

OWLIM-SE is closed source; what the paper relies on is its *class*: a
batch forward-chaining materializer that computes the full closure at
load time.  Two strategies are provided:

* :class:`BatchReasoner` — **naive iteration**, the "commonly used
  iterative rules scheme" the paper attributes to prior art (§3, citing
  WebPIE): every round re-evaluates every rule against the *entire*
  store until no round adds a triple.  Re-derivation across rounds is
  what makes chained subsumptions produce O(n³) derivations for an
  O(n²) closure.  This is the Table 1 comparator.
* :class:`SemiNaiveReasoner` — **semi-naive (delta) iteration**, the
  strong textbook baseline: each round joins only the previous round's
  new triples against the store, using the very same compiled rule
  firings as Slider's modules.  Used as an upper-bound comparator and in
  the ablation benchmarks.

Both produce exactly the same fixpoint as the Slider engine (tests
assert set equality on randomized ontologies), both share Slider's rule
objects, dictionary and store substrate — so measured differences come
from the evaluation *strategy*, not from unrelated implementation
details.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..dictionary.encoder import EncodedTriple, TermDictionary, encode_batch
from ..rdf.terms import Triple
from ..reasoner.fragments import Fragment, get_fragment
from ..reasoner.rules import OutputBuffer, Rule, apply_rule_into, derive_all
from ..reasoner.vocabulary import Vocabulary
from ..store.backends import TripleStore, create_store
from ..store.graph import Graph

__all__ = ["BatchReasoner", "SemiNaiveReasoner", "BatchStats"]


class BatchStats:
    """Work accounting for a batch run (feeds the duplicates ablation)."""

    __slots__ = ("rounds", "derivations", "kept", "rule_invocations")

    def __init__(self):
        self.rounds = 0
        self.derivations = 0  # rule outputs, duplicates included
        self.kept = 0  # survived store dedup (the actual closure growth)
        self.rule_invocations = 0

    @property
    def duplicate_ratio(self) -> float:
        """Derivations per kept triple (1.0 = no wasted work)."""
        return self.derivations / self.kept if self.kept else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "rounds": self.rounds,
            "derivations": self.derivations,
            "kept": self.kept,
            "rule_invocations": self.rule_invocations,
            "duplicate_ratio": self.duplicate_ratio,
        }

    def __repr__(self):
        return (
            f"<BatchStats rounds={self.rounds} derivations={self.derivations} "
            f"kept={self.kept}>"
        )


class _BaseBatchReasoner:
    """Shared substrate handling for the two batch strategies."""

    def __init__(
        self,
        fragment: str | Fragment = "rhodf",
        dictionary: TermDictionary | None = None,
        store: TripleStore | None = None,
    ):
        self.fragment = fragment if isinstance(fragment, Fragment) else get_fragment(fragment)
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self.store = create_store(store)
        self.vocab = Vocabulary(self.dictionary)
        self.rules: list[Rule] = self.fragment.rules(self.vocab)
        self.stats = BatchStats()
        self._explicit = 0
        axioms = self.fragment.axioms()
        if axioms:
            self._axiom_count = len(
                self.store.add_all(self.dictionary.encode_triple(t) for t in axioms)
            )
        else:
            self._axiom_count = 0

    # --- loading -------------------------------------------------------------
    def add(self, triples: Iterable[Triple]) -> int:
        """Stage explicit triples (no reasoning yet — this is batch)."""
        new = len(self.store.add_all(encode_batch(self.dictionary, triples)))
        self._explicit += new
        return new

    def add_encoded(self, encoded: Sequence[EncodedTriple]) -> int:
        new = len(self.store.add_all(encoded))
        self._explicit += new
        return new

    def load(self, path) -> int:
        from ..rdf.ntriples import parse_ntriples_file
        from ..rdf.turtle import parse_turtle_file

        text_path = str(path)
        if text_path.endswith((".ttl", ".turtle")):
            return self.add(parse_turtle_file(path))
        return self.add(parse_ntriples_file(path))

    # --- results ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    @property
    def graph(self) -> Graph:
        return Graph(self.dictionary, self.store)

    @property
    def input_count(self) -> int:
        return self._explicit

    @property
    def inferred_count(self) -> int:
        return len(self.store) - self._explicit - self._axiom_count

    def materialize(self) -> BatchStats:
        raise NotImplementedError

    def materialize_triples(self, triples: Iterable[Triple]) -> BatchStats:
        """Convenience: add + materialize (one-shot batch closure)."""
        self.add(triples)
        return self.materialize()


class BatchReasoner(_BaseBatchReasoner):
    """Naive-iteration batch materializer (Table 1's OWLIM-SE stand-in).

    Round r re-runs every rule against the whole store; the closure is
    reached when a round keeps nothing.  Cheap to state, expensive to
    run: round r re-derives everything rounds 1..r-1 derived.
    """

    def materialize(self) -> BatchStats:
        stats = self.stats
        while True:
            stats.rounds += 1
            kept_this_round = 0
            for rule in self.rules:
                stats.rule_invocations += 1
                derived = derive_all(rule, self.store, self.vocab)
                stats.derivations += len(derived)
                kept = self.store.add_all(derived)
                kept_this_round += len(kept)
            stats.kept += kept_this_round
            if kept_this_round == 0:
                break
        return stats


class SemiNaiveReasoner(_BaseBatchReasoner):
    """Semi-naive batch materializer (the strong baseline).

    Round r joins only round r-1's *new* triples against the store,
    reusing the same incremental rule bodies as the Slider pipeline —
    i.e. Slider's algorithm without buffers, threads or routing.
    """

    def materialize(self) -> BatchStats:
        stats = self.stats
        scratch = OutputBuffer()  # reused across every rule × round
        delta: list[EncodedTriple] = list(self.store)
        while delta:
            stats.rounds += 1
            round_kept: list[EncodedTriple] = []
            for rule in self.rules:
                stats.rule_invocations += 1
                apply_rule_into(rule, self.store, delta, self.vocab, scratch)
                derived = scratch.take()
                stats.derivations += len(derived)
                round_kept.extend(self.store.add_all(derived))
            stats.kept += len(round_kept)
            delta = round_kept
        return stats

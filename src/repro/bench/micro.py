"""Microbenchmarks for the zero-copy substrate: loads, hydration, kernels.

Three families of numbers; the one that gates CI is a runner-robust ratio:

* **snapshot load-to-serving** — the wall time from a snapshot file on
  disk to the first answered read: map + bisect over the columnar
  image.  Reported in absolute seconds (there is no second written
  format left to be a ratio against).
* **hydration** — what the lazy path defers: restoring the mapped
  image into a fresh dictionary + mutable store (the background work a
  bootstrapping follower performs behind its image service, and what a
  durable engine pays at recovery).
* **join kernels** — one firing batch pushed through the classic
  binding-dict half-join loop (:func:`_half_join`, both directions) vs
  the rule's compiled firing (:meth:`~repro.reasoner.rules.Rule.apply_into`)
  over the same store and rule; ``kernel_join_speedup`` is the gated
  ratio.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable

from ..datasets.loader import DEFAULT_SCALE
from ..dictionary.encoder import TermDictionary
from ..persist.snapshot import load_snapshot
from ..rdf.terms import IRI
from ..reasoner.engine import Slider
from ..reasoner.rules import OutputBuffer, Pattern, Var
from ..reasoner.vocabulary import Vocabulary
from ..store.backends import HashDictStore
from ..store.backends.columnar import ColumnarReadStore
from .harness import dataset_file

__all__ = ["MicroResult", "run_micro"]


class MicroResult:
    """Outcome of one microbenchmark sweep (see module docstring)."""

    __slots__ = (
        "dataset", "fragment", "scale",
        "triples", "terms",
        "image_bytes",
        "load_seconds",
        "hydrate_seconds",
        "classic_join_seconds", "kernel_join_seconds",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def kernel_join_speedup(self) -> float:
        """One firing batch: classic half-join vs the batch kernel."""
        if self.kernel_join_seconds <= 0:
            return float("inf")
        return self.classic_join_seconds / self.kernel_join_seconds

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data["kernel_join_speedup"] = self.kernel_join_speedup
        return data

    def __repr__(self):
        return (
            f"<MicroResult {self.dataset}/{self.fragment} "
            f"load={self.load_seconds * 1e3:.2f}ms "
            f"kernel_join={self.kernel_join_speedup:.1f}x>"
        )


def _best(rounds: int, fn: Callable[[], float]) -> float:
    return min(fn() for _ in range(max(1, rounds)))


def _join_rule(fragment: str):
    """A two-pattern rule whose patterns are both plain edges, plus its
    dictionary and vocab.

    Picks the first rule whose two body patterns each join two distinct
    variables through a constant predicate, with no other constant, so a
    synthetic chain exercises the pure join path of both the classic
    loop and the compiled firing.
    """
    from ..reasoner.fragments import get_fragment

    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    for rule in get_fragment(fragment).rules(vocab):
        if len(rule.body) == 2 and all(_is_edge(pattern) for pattern in rule.body):
            return rule, dictionary, vocab
    raise ValueError(f"fragment {fragment!r} has no plain two-pattern join rule")


def _is_edge(pattern: Pattern) -> bool:
    subject, predicate, obj = pattern
    return (
        isinstance(subject, Var) and isinstance(obj, Var)
        and subject != obj and not isinstance(predicate, Var)
    )


def _half_join(rule, store, new_triples, new_side: Pattern, store_side: Pattern, vocab,
               out: OutputBuffer) -> None:
    """One direction of Algorithm 1 as the binding-dict interpreter runs
    it: match each new triple into a binding, probe the store with its
    lookup key, re-match every partner and instantiate the head.  The
    classic reference the compiled firing is timed against."""
    store_predicate = store_side.predicate
    if not isinstance(store_predicate, Var) and not store.has_predicate(store_predicate):
        return
    new_predicate = new_side.predicate
    if not isinstance(new_predicate, Var):
        new_triples = [t for t in new_triples if t[1] == new_predicate]
    empty: dict = {}
    for triple in new_triples:
        binding = new_side.matches(triple, empty)
        if binding is None:
            continue
        for partner in store.match(*store_side.lookup_key(binding)):
            merged = store_side.matches(partner, binding)
            if merged is not None:
                rule._emit(merged, vocab, out)


def _join_micro(
    fragment: str, nodes: int, batch_size: int, rounds: int, clock
) -> tuple[float, float]:
    """(classic_seconds, kernel_seconds) for one synthetic firing batch."""
    rule, dictionary, vocab = _join_rule(fragment)
    left, right = rule.body
    ids = [dictionary.encode(IRI(f"http://bench/n{i}")) for i in range(nodes)]
    store = HashDictStore()
    store.add_all(
        [(ids[i], right.predicate, ids[i + 1]) for i in range(nodes - 1)]
    )
    stride = max(1, (nodes - 1) // batch_size)
    batch = [
        (ids[i], left.predicate, ids[i + 1]) for i in range(0, nodes - 1, stride)
    ]

    def classic() -> float:
        out = OutputBuffer()
        start = clock()
        _half_join(rule, store, batch, left, right, vocab, out)
        _half_join(rule, store, batch, right, left, vocab, out)
        elapsed = clock() - start
        classic.result = set(out.take())  # type: ignore[attr-defined]
        return elapsed

    def kernel() -> float:
        out = OutputBuffer()
        start = clock()
        rule.apply_into(store, batch, vocab, out)
        elapsed = clock() - start
        kernel.result = set(out.take())  # type: ignore[attr-defined]
        return elapsed

    classic_seconds = _best(rounds, classic)
    kernel_seconds = _best(rounds, kernel)
    assert classic.result == kernel.result, "kernel emission diverged"
    return classic_seconds, kernel_seconds


def run_micro(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    rounds: int = 3,
    join_nodes: int = 4000,
    join_batch: int = 512,
    clock: Callable[[], float] = time.perf_counter,
) -> MicroResult:
    """Measure snapshot load-to-serving, hydration, and kernel speedups.

    Each timed phase runs ``rounds`` times and keeps the best (the
    phases are milliseconds-fast; a scheduler hiccup would otherwise
    swamp them).  Both the mapped image and the hydrated store answer
    one probe read, asserted against the engine's own triple count.
    """
    path = dataset_file(name, scale)
    with Slider(fragment=fragment, workers=0, timeout=None) as engine:
        engine.load(path)
        engine.flush()
        blob = engine.snapshot_bytes()
        triple_total = len(engine.store)
        term_total = len(engine.dictionary)

    with tempfile.TemporaryDirectory(prefix="slider-micro-") as work:
        image_path = Path(work) / "snapshot.slider"
        image_path.write_bytes(blob)

        def load() -> float:
            start = clock()
            snapshot = load_snapshot(image_path)
            serving = ColumnarReadStore(snapshot)
            assert len(serving) == triple_total  # the probe read
            elapsed = clock() - start
            serving.close()
            return elapsed

        load_seconds = _best(rounds, load)

        def hydrate() -> float:
            snapshot = load_snapshot(image_path)
            start = clock()
            dictionary = TermDictionary()
            target = HashDictStore()
            snapshot.restore(dictionary, target)
            elapsed = clock() - start
            assert len(target) == triple_total
            snapshot.close()
            return elapsed

        hydrate_seconds = _best(rounds, hydrate)

    classic_seconds, kernel_seconds = _join_micro(
        fragment, join_nodes, join_batch, rounds, clock
    )
    return MicroResult(
        dataset=name, fragment=fragment, scale=scale,
        triples=triple_total, terms=term_total,
        image_bytes=len(blob),
        load_seconds=load_seconds,
        hydrate_seconds=hydrate_seconds,
        classic_join_seconds=classic_seconds,
        kernel_join_seconds=kernel_seconds,
    )

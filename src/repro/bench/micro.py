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
  per-triple half-join loop vs the compiled batch kernel
  (:mod:`repro.reasoner.kernels`) over the same store and rule;
  ``kernel_join_speedup`` is the gated ratio.  The galloping
  intersection primitive is measured alongside in elements/second.
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
from ..reasoner.kernels import intersect_sorted
from ..reasoner.rules import JoinRule, OutputBuffer
from ..reasoner.vocabulary import Vocabulary
from ..store.backends import create_store
from ..store.backends.columnar import ColumnarReadStore
from .harness import dataset_file

__all__ = ["MicroResult", "run_micro"]


class MicroResult:
    """Outcome of one microbenchmark sweep (see module docstring)."""

    __slots__ = (
        "dataset", "fragment", "scale", "store",
        "triples", "terms",
        "image_bytes",
        "load_seconds",
        "hydrate_seconds",
        "classic_join_seconds", "kernel_join_seconds",
        "gallop_elements_per_second",
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
    """A join rule with an unconstrained compiled plan, plus its vocab.

    Picks the first rule whose left-direction plan joins a constant
    stored predicate with no constant checks beyond the predicates, so a
    synthetic chain exercises the pure join path of both the classic
    loop and the kernel.
    """
    from ..reasoner.fragments import get_fragment

    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    for rule in get_fragment(fragment).rules(vocab):
        if not isinstance(rule, JoinRule):
            continue
        plan = rule._plans[0]
        if plan is None or plan.new_checks or plan.new_eq or plan.partner_checks:
            continue
        if plan.new_pred is None or plan.store_pred is None:
            continue
        return rule, plan, dictionary, vocab
    raise ValueError(f"fragment {fragment!r} has no kernel-plannable join rule")


def _join_micro(
    fragment: str, nodes: int, batch_size: int, rounds: int, clock
) -> tuple[float, float]:
    """(classic_seconds, kernel_seconds) for one synthetic firing batch."""
    rule, plan, dictionary, vocab = _join_rule(fragment)
    ids = [dictionary.encode(IRI(f"http://bench/n{i}")) for i in range(nodes)]
    store = create_store("hashdict")
    store.add_all(
        [(ids[i], plan.store_pred, ids[i + 1]) for i in range(nodes - 1)]
    )
    stride = max(1, (nodes - 1) // batch_size)
    batch = [
        (ids[i], plan.new_pred, ids[i + 1]) for i in range(0, nodes - 1, stride)
    ]
    is_literal = dictionary.is_literal

    def classic() -> float:
        out = OutputBuffer()
        start = clock()
        rule._half_join(store, batch, rule.left, rule.right, vocab, out)
        elapsed = clock() - start
        classic.result = set(out.take())  # type: ignore[attr-defined]
        return elapsed

    def kernel() -> float:
        out = OutputBuffer()
        start = clock()
        plan.execute(store, batch, is_literal, out)
        elapsed = clock() - start
        kernel.result = set(out.take())  # type: ignore[attr-defined]
        return elapsed

    classic_seconds = _best(rounds, classic)
    kernel_seconds = _best(rounds, kernel)
    assert classic.result == kernel.result, "kernel emission diverged"
    return classic_seconds, kernel_seconds


def _gallop_micro(rounds: int, clock) -> float:
    """Galloping-intersection throughput in elements/second."""
    a = list(range(0, 400_000, 2))
    b = list(range(0, 400_000, 7))
    expected = len(set(a) & set(b))

    def once() -> float:
        start = clock()
        out = intersect_sorted(a, b)
        elapsed = clock() - start
        assert len(out) == expected
        return elapsed

    seconds = _best(rounds, once)
    return (len(a) + len(b)) / seconds if seconds > 0 else float("inf")


def run_micro(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    store: str = "hashdict",
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
    with Slider(fragment=fragment, store=store, workers=0, timeout=None) as engine:
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
            target = create_store(store)
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
        dataset=name, fragment=fragment, scale=scale, store=store,
        triples=triple_total, terms=term_total,
        image_bytes=len(blob),
        load_seconds=load_seconds,
        hydrate_seconds=hydrate_seconds,
        classic_join_seconds=classic_seconds,
        kernel_join_seconds=kernel_seconds,
        gallop_elements_per_second=_gallop_micro(rounds, clock),
    )

"""Term-level convenience wrapper around the encoded triple store.

:class:`Graph` binds a :class:`~repro.dictionary.TermDictionary` to a
triple store (a fresh :class:`~repro.store.backends.hashdict.HashDictStore`,
or any :class:`~repro.store.backends.base.TripleStore` instance passed
as ``store=``, e.g. a read-only
:class:`~repro.store.backends.columnar.ColumnarReadStore`) so callers can
speak in RDF terms while storage and matching stay in integer space.  It
is the type most public APIs accept and return; the reasoner uses the
same two components internally but addresses them separately for
performance.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..dictionary.encoder import EncodedTriple, TermDictionary, encode_batch
from ..rdf.ntriples import iter_ntriples, write_ntriples
from ..rdf.terms import Term, Triple
from ..rdf.turtle import parse_turtle
from .backends import TripleStore, create_store

__all__ = ["Graph"]


class Graph:
    """A mutable set of triples with pattern matching and file I/O.

    >>> from repro.rdf import IRI, RDF
    >>> g = Graph()
    >>> _ = g.add(Triple(IRI("http://ex/a"), RDF.type, IRI("http://ex/C")))
    >>> len(g)
    1
    """

    def __init__(
        self,
        dictionary: TermDictionary | None = None,
        store: TripleStore | None = None,
    ):
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self.store = create_store(store)

    # --- mutation ----------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Add one triple; returns True iff it was new."""
        return self.store.add(self.dictionary.encode_triple(triple))

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns how many were new."""
        encoded = encode_batch(self.dictionary, triples)
        return len(self.store.add_all(encoded))

    # --- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.store)

    def __contains__(self, triple: Triple) -> bool:
        subject = self.dictionary.lookup(triple.subject)
        predicate = self.dictionary.lookup(triple.predicate)
        obj = self.dictionary.lookup(triple.object)
        if subject is None or predicate is None or obj is None:
            return False
        return (subject, predicate, obj) in self.store

    def __iter__(self) -> Iterator[Triple]:
        decode = self.dictionary.decode_triple
        for encoded in self.store:
            yield decode(encoded)

    def triples(
        self,
        subject: Term | None = None,
        predicate: Term | None = None,
        obj: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern (``None`` = wildcard)."""
        pattern: list[int | None] = []
        for term in (subject, predicate, obj):
            if term is None:
                pattern.append(None)
            else:
                term_id = self.dictionary.lookup(term)
                if term_id is None:
                    return  # term unseen => no matches
                pattern.append(term_id)
        decode = self.dictionary.decode_triple
        for encoded in self.store.match(*pattern):
            yield decode(encoded)

    def count(self, subject=None, predicate=None, obj=None) -> int:
        """Count matching triples."""
        return sum(1 for _ in self.triples(subject, predicate, obj))

    def subjects(self, predicate: Term, obj: Term) -> Iterator[Term]:
        """Yield subjects s with (s, predicate, obj) present."""
        for triple in self.triples(None, predicate, obj):
            yield triple.subject

    def objects(self, subject: Term, predicate: Term) -> Iterator[Term]:
        """Yield objects o with (subject, predicate, o) present."""
        for triple in self.triples(subject, predicate, None):
            yield triple.object

    # --- BGP queries ---------------------------------------------------------
    # Conveniences over repro.store.query (imported lazily: query.py
    # imports Graph for its signatures, so a module-level import here
    # would be circular).
    def solve(self, patterns):
        """All solutions of a conjunctive pattern (see :func:`repro.store.query.solve`)."""
        from .query import solve as _solve

        return _solve(self, patterns)

    def select(self, variables, patterns, distinct: bool = True):
        """SPARQL-SELECT-like projection (see :func:`repro.store.query.select`)."""
        from .query import select as _select

        return _select(self, variables, patterns, distinct=distinct)

    def ask(self, patterns) -> bool:
        """Does at least one solution exist?"""
        from .query import ask as _ask

        return _ask(self, patterns)

    def construct(self, template, patterns):
        """Instantiate ``template`` for every solution."""
        from .query import construct as _construct

        return _construct(self, template, patterns)

    # --- encoded access (for the reasoner / baselines) -----------------------
    def encoded(self) -> Iterator[EncodedTriple]:
        """Iterate raw encoded triples (no decoding cost)."""
        return iter(self.store)

    # --- I/O -----------------------------------------------------------------
    def load_ntriples(self, path) -> int:
        """Load an N-Triples file; returns number of *new* triples."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.add_all(iter_ntriples(handle))

    def load_turtle(self, path) -> int:
        """Load a Turtle file; returns number of *new* triples."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.add_all(parse_turtle(handle.read()))

    def dump_ntriples(self, path, sort: bool = True) -> int:
        """Write all triples to an N-Triples file."""
        with open(path, "w", encoding="utf-8") as handle:
            return write_ntriples(iter(self), handle, sort=sort)

    def copy(self) -> "Graph":
        """An independent copy sharing no mutable state."""
        clone = Graph()
        clone.add_all(iter(self))
        return clone

    def __repr__(self):
        return f"<Graph with {len(self)} triples>"

"""Dictionary encoding of RDF terms to integers.

The paper's input manager "registers [triples] into a dictionary that maps
the expensive URIs ... to Longs" before anything touches the triple store.
Every component downstream of the input manager — buffers, rule modules,
distributors, the triple store — works exclusively on encoded triples,
which here are plain ``(int, int, int)`` tuples.  Tuples of small ints are
the cheapest hashable composite value in CPython, which is exactly the
role Longs play on the JVM.

:class:`TermDictionary` is append-only and thread-safe: ids are assigned
under a lock, decoding is lock-free (the id → term list only grows, and
list appends are atomic in CPython).
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from ..rdf.terms import BNode, IRI, Literal, Term, Triple

__all__ = [
    "TermDictionary",
    "IdentityDictionary",
    "EncodedTriple",
    "encode_batch",
    "KIND_IRI",
    "KIND_BNODE",
    "KIND_LITERAL",
]

EncodedTriple = tuple[int, int, int]
"""An encoded statement: term ids for (subject, predicate, object)."""

KIND_IRI = 0
KIND_BNODE = 1
KIND_LITERAL = 2


class TermDictionary:
    """Bidirectional, thread-safe term ↔ integer-id mapping.

    Ids are dense, starting at 0, assigned in first-seen order.  The
    mapping is append-only: terms are never re-assigned or removed, so a
    decoded id is stable for the lifetime of the dictionary.

    >>> from repro.rdf import IRI
    >>> d = TermDictionary()
    >>> a = d.encode(IRI("http://example.org/a"))
    >>> d.decode(a)
    IRI('http://example.org/a')
    """

    __slots__ = ("_term_to_id", "_id_to_term", "_kinds", "_lock")

    def __init__(self, preregister: Iterable[Term] = ()):
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        self._kinds: list[int] = []
        self._lock = threading.Lock()
        for term in preregister:
            self.encode(term)

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_id

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, assigning a fresh one if unseen."""
        # Fast path without the lock: dict reads are safe under the GIL
        # and ids are never reassigned.
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        with self._lock:
            return self._encode_locked(term)

    def _encode_locked(self, term: Term) -> int:
        """Assign-or-return under the already-held lock (batch hot path)."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        term_id = len(self._id_to_term)
        self._id_to_term.append(term)
        if isinstance(term, Literal):
            self._kinds.append(KIND_LITERAL)
        elif isinstance(term, BNode):
            self._kinds.append(KIND_BNODE)
        elif isinstance(term, IRI):
            self._kinds.append(KIND_IRI)
        else:
            raise TypeError(f"not a concrete RDF term: {term!r}")
        self._term_to_id[term] = term_id
        return term_id

    def lookup(self, term: Term) -> int | None:
        """Return the id for ``term`` or ``None`` without assigning one."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Term:
        """Return the term for an id.  Raises ``KeyError`` for unknown ids."""
        if 0 <= term_id < len(self._id_to_term):
            return self._id_to_term[term_id]
        raise KeyError(f"unknown term id {term_id}")

    def kind(self, term_id: int) -> int:
        """The kind tag (:data:`KIND_IRI` / :data:`KIND_BNODE` /
        :data:`KIND_LITERAL`) for an id.  Rules use this for the literal
        guards that keep e.g. rdfs4b from typing literals as resources."""
        if 0 <= term_id < len(self._kinds):
            return self._kinds[term_id]
        raise KeyError(f"unknown term id {term_id}")

    def is_literal(self, term_id: int) -> bool:
        """True iff the id denotes a literal.  Reads the kinds inline: the
        rules' literal guards call this once per derived triple."""
        kinds = self._kinds
        if 0 <= term_id < len(kinds):
            return kinds[term_id] == KIND_LITERAL
        raise KeyError(f"unknown term id {term_id}")

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        """Encode a :class:`~repro.rdf.terms.Triple` to an id tuple."""
        return (
            self.encode(triple.subject),
            self.encode(triple.predicate),
            self.encode(triple.object),
        )

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """Decode an id tuple back to a :class:`~repro.rdf.terms.Triple`."""
        subject_id, predicate_id, object_id = encoded
        return Triple(
            self.decode(subject_id),
            self.decode(predicate_id),
            self.decode(object_id),
        )

    def encode_triples(self, triples: Iterable[Triple]) -> Iterator[EncodedTriple]:
        """Encode many triples lazily."""
        encode = self.encode
        for triple in triples:
            yield (encode(triple.subject), encode(triple.predicate), encode(triple.object))

    def encode_many(self, triples: Iterable[Triple]) -> list[EncodedTriple]:
        """Encode a batch with at most one lock acquisition.

        The lock-free fast path resolves every already-known term (the
        steady state of a long-running stream, where the vocabulary has
        converged); the triples with unseen terms — if any — are then
        encoded together under a single lock, instead of paying one
        lock round-trip per fresh term as per-triple encoding does.
        """
        get = self._term_to_id.get
        out: list[EncodedTriple | None] = []
        misses: list[tuple[int, Triple]] = []
        for triple in triples:
            subject_id = get(triple.subject)
            predicate_id = get(triple.predicate)
            object_id = get(triple.object)
            if subject_id is None or predicate_id is None or object_id is None:
                misses.append((len(out), triple))
                out.append(None)
            else:
                out.append((subject_id, predicate_id, object_id))
        if misses:
            with self._lock:
                encode_locked = self._encode_locked
                for position, triple in misses:
                    out[position] = (
                        encode_locked(triple.subject),
                        encode_locked(triple.predicate),
                        encode_locked(triple.object),
                    )
        return out

    def decode_triples(self, encoded: Iterable[EncodedTriple]) -> Iterator[Triple]:
        """Decode many id tuples lazily."""
        for item in encoded:
            yield self.decode_triple(item)

    def snapshot_terms(self) -> list[Term]:
        """A copy of the id → term table (index == id)."""
        return list(self._id_to_term)


def encode_batch(dictionary, triples: Iterable[Triple]) -> list[EncodedTriple]:
    """Encode a batch through ``dictionary``'s fastest available path.

    Uses ``encode_many`` when the dictionary provides it; duck-typed
    dictionaries with only the per-triple API still work (every batch
    call site goes through here, so the fallback lives in one place).
    """
    encode_many = getattr(dictionary, "encode_many", None)
    if encode_many is not None:
        return encode_many(triples)
    return [dictionary.encode_triple(triple) for triple in triples]


class IdentityDictionary:
    """A no-op dictionary: terms *are* their own ids.

    The ablation counterpart of :class:`TermDictionary` — it measures
    what the paper's dictionary encoding buys.  Every component that
    takes a dictionary accepts this one (terms are hashable and
    comparable, so stores and rules work unchanged); only the cost
    profile differs: triple keys hash three term objects instead of
    three small ints.
    """

    __slots__ = ()

    def __len__(self) -> int:
        return 0  # nothing is stored

    def __contains__(self, term: Term) -> bool:
        return True

    def encode(self, term: Term):
        if not isinstance(term, (IRI, BNode, Literal)):
            raise TypeError(f"not a concrete RDF term: {term!r}")
        return term

    def lookup(self, term: Term):
        return term

    def decode(self, term_id) -> Term:
        return term_id

    def kind(self, term_id) -> int:
        if isinstance(term_id, Literal):
            return KIND_LITERAL
        if isinstance(term_id, BNode):
            return KIND_BNODE
        return KIND_IRI

    def is_literal(self, term_id) -> bool:
        return isinstance(term_id, Literal)

    def encode_triple(self, triple: Triple):
        return (triple.subject, triple.predicate, triple.object)

    def decode_triple(self, encoded) -> Triple:
        return Triple(*encoded)

    def encode_triples(self, triples: Iterable[Triple]) -> Iterator:
        for triple in triples:
            yield (triple.subject, triple.predicate, triple.object)

    def encode_many(self, triples: Iterable[Triple]) -> list:
        return [(t.subject, t.predicate, t.object) for t in triples]

    def decode_triples(self, encoded: Iterable) -> Iterator[Triple]:
        for item in encoded:
            yield Triple(*item)

    def snapshot_terms(self) -> list[Term]:
        return []

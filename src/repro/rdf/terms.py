"""RDF term and triple data model.

This module provides the core value types used throughout the library:

* :class:`IRI` — an absolute IRI reference (``<http://...>``).
* :class:`BNode` — a blank node with a local label.
* :class:`Literal` — a literal with optional language tag or datatype.
* :class:`Variable` — a query/pattern variable (``?x``); never stored.
* :class:`Triple` — an (subject, predicate, object) statement.
* :class:`Quad` — a triple plus an optional named graph (RDF dataset
  statement; ``graph=None`` means the default graph).

All term types are immutable, hashable, and totally ordered so they can be
used as dictionary keys, stored in sets, and sorted into deterministic
serializations.  Ordering between different term kinds follows SPARQL's
conventional order: blank nodes < IRIs < literals (variables sort first).

The paper's reasoner never manipulates these objects on the hot path — the
input manager maps every term to an integer through
:class:`repro.dictionary.TermDictionary` — but parsers, serializers,
dataset generators, and the public API all speak in terms.
"""

from __future__ import annotations

import re
from typing import Union

__all__ = [
    "IRI",
    "BNode",
    "Literal",
    "Variable",
    "Term",
    "Triple",
    "Quad",
    "term_sort_key",
]

# Kind tags used for cross-type ordering (SPARQL order: bnode < IRI < literal).
_KIND_VARIABLE = 0
_KIND_BNODE = 1
_KIND_IRI = 2
_KIND_LITERAL = 3

_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_VARIABLE_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# Characters RFC 3987 forbids in an IRI reference: <>"{}|^` and every
# code point up to and including space.
_IRI_FORBIDDEN_RE = re.compile(r'[<>"{}|^`\x00-\x20]')

# Triple and Quad name a constructor parameter ``object``, shadowing the
# builtin; their __init__ reaches object.__setattr__ through this alias.
_object_setattr = object.__setattr__


class IRI:
    """An absolute IRI reference.

    >>> IRI("http://example.org/a")
    IRI('http://example.org/a')
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must be non-empty")
        if _IRI_FORBIDDEN_RE.search(value) is not None:
            raise ValueError(f"IRI contains characters forbidden by RFC 3987: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((_KIND_IRI, value)))

    def __setattr__(self, name, value):
        raise AttributeError("IRI is immutable")

    def __eq__(self, other):
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if isinstance(other, IRI):
            return self.value < other.value
        if isinstance(other, (BNode, Literal, Variable)):
            return _KIND_IRI < _kind_of(other)
        return NotImplemented

    def __repr__(self):
        return f"IRI({self.value!r})"

    def __str__(self):
        return self.value

    def n3(self) -> str:
        """Render in N-Triples syntax: ``<iri>``."""
        return f"<{self.value}>"


class BNode:
    """A blank node identified by a local label (``_:label``)."""

    __slots__ = ("label", "_hash")

    _counter = 0

    def __init__(self, label: str | None = None):
        if label is None:
            BNode._counter += 1
            label = f"b{BNode._counter}"
        if not isinstance(label, str):
            raise TypeError(f"BNode label must be str, got {type(label).__name__}")
        if not _BNODE_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((_KIND_BNODE, label)))

    def __setattr__(self, name, value):
        raise AttributeError("BNode is immutable")

    def __eq__(self, other):
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if isinstance(other, BNode):
            return self.label < other.label
        if isinstance(other, (IRI, Literal, Variable)):
            return _KIND_BNODE < _kind_of(other)
        return NotImplemented

    def __repr__(self):
        return f"BNode({self.label!r})"

    def __str__(self):
        return f"_:{self.label}"

    def n3(self) -> str:
        """Render in N-Triples syntax: ``_:label``."""
        return f"_:{self.label}"


class Literal:
    """An RDF literal: lexical form plus optional language tag or datatype.

    A literal has *either* a language tag (then its datatype is implicitly
    ``rdf:langString``) *or* an explicit datatype IRI, or neither (plain,
    implicitly ``xsd:string``).

    >>> Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))
    Literal('42', datatype=IRI('http://www.w3.org/2001/XMLSchema#integer'))
    """

    __slots__ = ("lexical", "language", "datatype", "_hash")

    def __init__(
        self,
        lexical: str,
        language: str | None = None,
        datatype: IRI | None = None,
    ):
        if not isinstance(lexical, str):
            raise TypeError(f"Literal lexical form must be str, got {type(lexical).__name__}")
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot carry both a language tag and a datatype")
        if language is not None:
            if not re.match(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$", language):
                raise ValueError(f"invalid language tag: {language!r}")
            language = language.lower()
        if datatype is not None and not isinstance(datatype, IRI):
            raise TypeError("Literal datatype must be an IRI")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash((_KIND_LITERAL, lexical, language, datatype)))

    def __setattr__(self, name, value):
        raise AttributeError("Literal is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.language == self.language
            and other.datatype == self.datatype
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if isinstance(other, Literal):
            return self._sort_tuple() < other._sort_tuple()
        if isinstance(other, (IRI, BNode, Variable)):
            return _KIND_LITERAL < _kind_of(other)
        return NotImplemented

    def _sort_tuple(self):
        return (
            self.lexical,
            self.language or "",
            self.datatype.value if self.datatype else "",
        )

    def __repr__(self):
        parts = [repr(self.lexical)]
        if self.language:
            parts.append(f"language={self.language!r}")
        if self.datatype:
            parts.append(f"datatype={self.datatype!r}")
        return f"Literal({', '.join(parts)})"

    def __str__(self):
        return self.lexical

    def n3(self) -> str:
        """Render in N-Triples syntax, escaping per the N-Triples grammar."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def to_python(self) -> Union[str, int, float, bool]:
        """Best-effort conversion to a native Python value."""
        if self.datatype is None:
            return self.lexical
        dt = self.datatype.value
        if dt.endswith(("#integer", "#int", "#long", "#short", "#byte",
                        "#nonNegativeInteger", "#positiveInteger")):
            return int(self.lexical)
        if dt.endswith(("#decimal", "#double", "#float")):
            return float(self.lexical)
        if dt.endswith("#boolean"):
            return self.lexical in ("true", "1")
        return self.lexical


class Variable:
    """A query variable (``?name``).  Only valid inside triple *patterns*."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise TypeError(f"Variable name must be str, got {type(name).__name__}")
        if name.startswith("?"):
            name = name[1:]
        if not _VARIABLE_NAME_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((_KIND_VARIABLE, name)))

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other):
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if isinstance(other, Variable):
            return self.name < other.name
        if isinstance(other, (IRI, BNode, Literal)):
            return True
        return NotImplemented

    def __repr__(self):
        return f"Variable({self.name!r})"

    def __str__(self):
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"


Term = Union[IRI, BNode, Literal]
"""A concrete RDF term (anything that may appear in a stored triple)."""


def _kind_of(term) -> int:
    if isinstance(term, Variable):
        return _KIND_VARIABLE
    if isinstance(term, BNode):
        return _KIND_BNODE
    if isinstance(term, IRI):
        return _KIND_IRI
    if isinstance(term, Literal):
        return _KIND_LITERAL
    raise TypeError(f"not an RDF term: {term!r}")


def term_sort_key(term) -> tuple:
    """Total-order sort key across mixed term types."""
    kind = _kind_of(term)
    if kind == _KIND_VARIABLE:
        return (kind, term.name)
    if kind == _KIND_BNODE:
        return (kind, term.label)
    if kind == _KIND_IRI:
        return (kind, term.value)
    return (kind, *term._sort_tuple())


class Triple:
    """An RDF statement ``(subject, predicate, object)``.

    Subjects must be :class:`IRI` or :class:`BNode`, predicates :class:`IRI`,
    objects any concrete term.  Triples are immutable and hashable.
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject, predicate, object):
        if not isinstance(subject, (IRI, BNode)):
            raise TypeError(f"triple subject must be IRI or BNode, got {type(subject).__name__}")
        if not isinstance(predicate, IRI):
            raise TypeError(f"triple predicate must be IRI, got {type(predicate).__name__}")
        if not isinstance(object, (IRI, BNode, Literal)):
            raise TypeError(f"triple object must be IRI, BNode or Literal, got {type(object).__name__}")
        _object_setattr(self, "subject", subject)
        _object_setattr(self, "predicate", predicate)
        _object_setattr(self, "object", object)
        _object_setattr(self, "_hash", hash((subject, predicate, object)))

    def __setattr__(self, name, value):
        raise AttributeError("Triple is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Triple)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Triple):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (
            term_sort_key(self.subject),
            term_sort_key(self.predicate),
            term_sort_key(self.object),
        )

    def __iter__(self):
        yield self.subject
        yield self.predicate
        yield self.object

    def __getitem__(self, index: int):
        return (self.subject, self.predicate, self.object)[index]

    def __repr__(self):
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def n3(self) -> str:
        """Render as one N-Triples statement (without trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


class Quad:
    """An RDF dataset statement: a :class:`Triple` plus an optional graph.

    ``graph`` is the named graph the statement belongs to — an
    :class:`IRI` or :class:`BNode` label, or ``None`` for the default
    graph (making every triple a quad and vice versa).  Quads are
    immutable and hashable; a quad in the default graph is *not* equal
    to its bare triple (they are different types), but :meth:`triple`
    recovers the statement for triple-shaped consumers.
    """

    __slots__ = ("subject", "predicate", "object", "graph", "_hash")

    def __init__(self, subject, predicate, object, graph=None):
        if not isinstance(subject, (IRI, BNode)):
            raise TypeError(f"quad subject must be IRI or BNode, got {type(subject).__name__}")
        if not isinstance(predicate, IRI):
            raise TypeError(f"quad predicate must be IRI, got {type(predicate).__name__}")
        if not isinstance(object, (IRI, BNode, Literal)):
            raise TypeError(f"quad object must be IRI, BNode or Literal, got {type(object).__name__}")
        if graph is not None and not isinstance(graph, (IRI, BNode)):
            raise TypeError(f"quad graph must be IRI, BNode or None, got {type(graph).__name__}")
        _object_setattr(self, "subject", subject)
        _object_setattr(self, "predicate", predicate)
        _object_setattr(self, "object", object)
        _object_setattr(self, "graph", graph)
        _object_setattr(self, "_hash", hash((subject, predicate, object, graph)))

    @classmethod
    def from_triple(cls, triple: Triple, graph=None) -> "Quad":
        """Lift a :class:`Triple` into ``graph`` (default graph when None)."""
        return cls(triple.subject, triple.predicate, triple.object, graph)

    def triple(self) -> Triple:
        """The statement without its graph dimension."""
        return Triple(self.subject, self.predicate, self.object)

    def __setattr__(self, name, value):
        raise AttributeError("Quad is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Quad)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
            and other.graph == self.graph
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if not isinstance(other, Quad):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        """Total-order key: default graph first, then named graphs."""
        graph_key = ((), ) if self.graph is None else ((1,) + term_sort_key(self.graph),)
        return (
            graph_key,
            term_sort_key(self.subject),
            term_sort_key(self.predicate),
            term_sort_key(self.object),
        )

    def __iter__(self):
        yield self.subject
        yield self.predicate
        yield self.object
        yield self.graph

    def __getitem__(self, index: int):
        return (self.subject, self.predicate, self.object, self.graph)[index]

    def __repr__(self):
        return (
            f"Quad({self.subject!r}, {self.predicate!r}, {self.object!r}, "
            f"{self.graph!r})"
        )

    def n3(self) -> str:
        """Render as one N-Quads statement (without trailing newline)."""
        if self.graph is None:
            return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."
        return (
            f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} "
            f"{self.graph.n3()} ."
        )

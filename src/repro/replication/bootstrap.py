"""Pre-hydration serving: answer reads straight off a bootstrap image.

A follower bootstrap would be serially expensive if it had to
download the snapshot, decode every term, rebuild the mutable store and
only *then* start serving.  The columnar image needs none of that work
to answer a query — its sorted id columns already support every
read pattern (:class:`~repro.store.backends.columnar.ColumnarReadStore`)
and its term blob decodes lazily per id.

:class:`ColumnarBootstrapService` exploits that: the follower swaps it
in the moment the image is parsed, ``/readyz`` flips to ready (the
replica serves a complete committed leader revision — exactly the
monotonic-prefix contract), and full hydration into the real engine
proceeds on the tailing thread behind it.  The service duck-types the
slice of :class:`~repro.server.service.ReasoningService` the HTTP
front end uses; the operations that genuinely need the mutable engine
(writes, subscriptions, historical ``at=`` pins) answer 503/410 for
the short hydration window.

:class:`ColumnarTermView` is the read half of a
:class:`~repro.dictionary.encoder.TermDictionary` over the image's
term blob: ids decode lazily (memoized), and the term -> id direction
materializes once, on the first constant-bearing query — still far
cheaper than store hydration, and paid only if a query needs it.
"""

from __future__ import annotations

import threading

from ..rdf.terms import Literal, Term, Triple
from ..server.service import ServiceClosedError
from ..server.views import RevisionGoneError
from ..store.backends.columnar import ColumnarReadStore
from ..store.graph import Graph

__all__ = ["ColumnarBootstrapService", "ColumnarTermView"]


class ColumnarTermView:
    """Read-only term <-> id mapping over a columnar image's blob.

    Covers what :class:`~repro.store.graph.Graph` needs for reads:
    ``lookup`` / ``decode`` / ``decode_triple`` (plus the rule guards'
    ``kind``/``is_literal``).  Encoding raises — the image is immutable,
    so no query can mint a term id.
    """

    __slots__ = ("_snapshot", "_decoded", "_reverse", "_lock")

    def __init__(self, snapshot):
        self._snapshot = snapshot
        self._decoded: dict[int, Term] = {}
        self._reverse: dict[Term, int] | None = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._snapshot.term_count

    def __contains__(self, term: Term) -> bool:
        return self.lookup(term) is not None

    def decode(self, term_id: int) -> Term:
        term = self._decoded.get(term_id)
        if term is None:
            if not 0 <= term_id < self._snapshot.term_count:
                raise KeyError(f"unknown term id {term_id}")
            term = self._snapshot.term(term_id)
            self._decoded[term_id] = term
        return term

    def decode_triple(self, encoded) -> Triple:
        subject_id, predicate_id, object_id = encoded
        return Triple(
            self.decode(subject_id),
            self.decode(predicate_id),
            self.decode(object_id),
        )

    def lookup(self, term: Term) -> int | None:
        reverse = self._reverse
        if reverse is None:
            with self._lock:
                reverse = self._reverse
                if reverse is None:
                    decode = self.decode
                    reverse = {
                        decode(i): i for i in range(self._snapshot.term_count)
                    }
                    self._reverse = reverse
        return reverse.get(term)

    def is_literal(self, term_id: int) -> bool:
        return isinstance(self.decode(term_id), Literal)

    def kind(self, term_id: int) -> int:
        from ..dictionary.encoder import KIND_BNODE, KIND_IRI, KIND_LITERAL
        from ..rdf.terms import BNode

        term = self.decode(term_id)
        if isinstance(term, Literal):
            return KIND_LITERAL
        if isinstance(term, BNode):
            return KIND_BNODE
        return KIND_IRI

    def encode(self, term: Term) -> int:
        term_id = self.lookup(term)
        if term_id is None:
            raise TypeError(
                "a bootstrap image's term table is immutable; "
                f"cannot assign an id to {term!r}"
            )
        return term_id

    def snapshot_terms(self) -> list[Term]:
        return list(self._snapshot.terms)


class ColumnarBootstrapService:
    """A read-only stand-in service over a mapped bootstrap image.

    Swapped in by :meth:`~repro.replication.follower.Follower._bootstrap`
    before hydration starts and out once the real engine is rebuilt.
    Serves the read API (``/select``/``/ask``/``/construct``/
    ``/triples``/``/stats``/``/healthz``/``/readyz``/``/snapshot``) at
    exactly the image's revision; writes 307-forward to the leader (the
    HTTP layer handles that from ``role``/``leader_url`` alone), and
    subscriptions/pinned-revision reads answer for the hydration window
    with 503/410 respectively.
    """

    role = "follower"
    #: No outgoing change feed while bootstrapping (``/feed`` -> 404).
    feed = None

    def __init__(self, snapshot, blob: bytes, *, replication, leader_url=None):
        self.snapshot = snapshot
        self._blob = blob
        self.store = ColumnarReadStore(snapshot)
        self.dictionary = ColumnarTermView(snapshot)
        self.replication = replication
        self.leader_url = leader_url
        self.closed = False

    # --- read path ----------------------------------------------------------
    @property
    def revision(self) -> int:
        return self.snapshot.revision

    def graph(self, at: int | None = None) -> Graph:
        self._check_open()
        if at is not None and at != self.snapshot.revision:
            raise RevisionGoneError(
                f"revision {at} is not retained while the replica hydrates "
                f"its bootstrap image (serving revision {self.snapshot.revision})"
            )
        return Graph(self.dictionary, self.store)

    @property
    def ready(self) -> bool:
        """The mapped image serves a complete committed revision."""
        return not self.closed

    @property
    def replication_lag(self) -> int:
        if self.replication is not None:
            return self.replication.lag
        return 0

    def snapshot_bytes(self) -> bytes:
        """The image exactly as downloaded (chained bootstraps)."""
        self._check_open()
        return self._blob

    @property
    def reasoner(self):
        # The HTTP snapshot endpoint's ``If-None-Match`` check reads
        # ``service.reasoner.revision``; pre-hydration the image *is*
        # the engine state.
        return _RevisionOnly(self.snapshot.revision)

    def stats(self) -> dict:
        self._check_open()
        return {
            "revision": self.snapshot.revision,
            "role": self.role,
            "ready": self.ready,
            "bootstrap": {
                "hydrating": True,
                "image_bytes": len(self._blob),
                "terms": self.snapshot.term_count,
            },
            "replication": (
                None if self.replication is None else self.replication.as_dict()
            ),
            "feed": None,
            "triples": len(self.store),
            "engine": {
                "fragment": self.snapshot.fragment,
                "revision": self.snapshot.revision,
                "store": self.store.stats(),
            },
            "views": {
                "retained": [self.snapshot.revision],
                "current": self.snapshot.revision,
            },
            "subscriptions": 0,
        }

    # --- unavailable while hydrating ----------------------------------------
    def _hydrating(self, *_args, **_kwargs):
        raise ServiceClosedError(
            "replica is hydrating its bootstrap image; retry shortly "
            "(reads stay available at the image revision)"
        )

    apply = submit = commit_replicated = _hydrating
    subscribe = subscribe_channel = _hydrating

    # --- lifecycle ----------------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise ServiceClosedError("bootstrap image service is closed")

    def close(self) -> None:
        """Stop serving.  The image itself belongs to the follower (it
        may be reused for the next bootstrap), so the map stays open."""
        self.closed = True

    def __enter__(self) -> "ColumnarBootstrapService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self):
        state = "closed" if self.closed else "serving"
        return (
            f"<ColumnarBootstrapService {state} "
            f"revision={self.snapshot.revision} triples={len(self.store)}>"
        )


class _RevisionOnly:
    """The one engine attribute the HTTP layer needs pre-hydration."""

    __slots__ = ("revision",)

    def __init__(self, revision: int):
        self.revision = revision

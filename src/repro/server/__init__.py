"""The concurrent reasoning service: serve the closure over HTTP.

This package turns the in-process :class:`~repro.reasoner.engine.Slider`
into a system other processes can hit, with three load-bearing ideas:

* **snapshot-isolated reads** — immutable per-revision
  :class:`~repro.server.views.ReadView` images (a shared indexed base
  plus a small overlay advanced by each revision's
  :class:`~repro.reasoner.delta.InferenceReport` diff), so
  any number of readers query committed state without locks and without
  ever observing an in-flight apply;
* **coalesced writes** — concurrent apply requests are netted into one
  :class:`~repro.reasoner.delta.Delta` per drain tick by the
  :class:`~repro.server.coalescer.WriteCoalescer` and committed through
  the engine's transactional pipeline, each caller receiving the shared
  revision's report;
* **streamed subscriptions** — standing BGPs exposed as Server-Sent
  Events (``GET /subscribe``), emitting the same binding-level deltas
  the in-process subscription API delivers.

Start one from Python::

    from repro.server import ReasoningService, serve

    service = ReasoningService(fragment="rdfs", workers=2)
    server, thread = serve(service, port=8080)
    ...
    server.shutdown(); service.close()

or from the CLI: ``slider-reason serve --port 8080`` (see the README's
*Serving* section for the endpoint table and consistency model).
"""

from .coalescer import (
    CoalescerClosedError,
    CommitResult,
    PendingWrite,
    WriteCoalescer,
)
from .http import MAX_BODY_BYTES, ReasoningHTTPServer, serve
from .service import ReasoningService, ServiceClosedError, SubscriptionChannel
from .views import ReadView, RevisionGoneError, ViewRegistry
from .wire import PatternSyntaxError, parse_patterns, parse_statements, parse_term

__all__ = [
    "ReasoningService",
    "ReasoningHTTPServer",
    "serve",
    "MAX_BODY_BYTES",
    "ReadView",
    "ViewRegistry",
    "RevisionGoneError",
    "WriteCoalescer",
    "CommitResult",
    "PendingWrite",
    "CoalescerClosedError",
    "ServiceClosedError",
    "SubscriptionChannel",
    "PatternSyntaxError",
    "parse_patterns",
    "parse_statements",
    "parse_term",
]

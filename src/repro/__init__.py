"""Slider: an efficient incremental RDF reasoner — full reproduction.

Reproduction of Chevalier, Subercaze, Gravier & Laforest, *Slider: an
Efficient Incremental Reasoner*, ACM SIGMOD 2015.

Quickstart (the delta-centric API)::

    from repro import Slider
    from repro.rdf import IRI, RDF, RDFS, Triple

    with Slider(fragment="rdfs") as reasoner:
        with reasoner.transaction() as tx:
            tx.add([
                Triple(IRI("http://ex/Cat"), RDFS.subClassOf, IRI("http://ex/Animal")),
                Triple(IRI("http://ex/tom"), RDF.type, IRI("http://ex/Cat")),
            ])
        assert Triple(IRI("http://ex/tom"), RDF.type, IRI("http://ex/Animal")) \
            in tx.report.inferred_added

Every mutation commits through :meth:`Slider.apply` as a numbered
revision whose :class:`InferenceReport` is the exact store diff;
:meth:`Slider.subscribe` turns standing BGP queries into push-based
binding deltas.  The one-shot ``add``/``retract`` shims remain for
migration (see the README's API section).
"""

from .dictionary import EncodedTriple, TermDictionary
from .rdf import OWL, RDF, RDFS, XSD, BNode, IRI, Literal, Namespace, Triple, Variable
from .persist import PersistenceManager
from .reasoner import (
    CountWindow,
    Delta,
    Fragment,
    InferenceReport,
    JoinRule,
    Pattern,
    RecoveryInfo,
    Rule,
    SingleRule,
    Slider,
    SliderError,
    StreamPump,
    Subscription,
    SubscriptionEvent,
    Ticket,
    TimeWindow,
    Trace,
    Transaction,
    Var,
    WindowedReasoner,
    available_fragments,
    get_fragment,
    register_fragment,
)
from .replication import ChangeFeed, Follower
from .server import ReadView, ReasoningService
from .store import (
    Binding,
    Graph,
    HashDictStore,
    TriplePattern,
    TripleStore,
    ask,
    construct,
    create_store,
    select,
    solve,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Slider",
    "SliderError",
    "RecoveryInfo",
    "Delta",
    "Transaction",
    "InferenceReport",
    "Ticket",
    "Subscription",
    "SubscriptionEvent",
    "WindowedReasoner",
    "CountWindow",
    "TimeWindow",
    "StreamPump",
    "ReasoningService",
    "ReadView",
    "ChangeFeed",
    "Follower",
    "TriplePattern",
    "Binding",
    "solve",
    "select",
    "ask",
    "construct",
    "Graph",
    "TripleStore",
    "HashDictStore",
    "create_store",
    "TermDictionary",
    "EncodedTriple",
    "IRI",
    "BNode",
    "Literal",
    "Variable",
    "Triple",
    "Namespace",
    "RDF",
    "RDFS",
    "OWL",
    "XSD",
    "Fragment",
    "get_fragment",
    "register_fragment",
    "available_fragments",
    "Rule",
    "SingleRule",
    "JoinRule",
    "Pattern",
    "Var",
    "Trace",
    "PersistenceManager",
]

"""Property tests for the ablation modes: they must not change semantics.

The dictionary-encoding ablation (IdentityDictionary), the broadcast
routing ablation, and the adaptive scheduler all alter *how* the engine
works, never *what* it derives.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dictionary import IdentityDictionary
from repro.rdf import OWL, RDF, RDFS, Triple
from repro.reasoner import Slider

from ..conftest import EX, closure_with_slider

_nodes = st.integers(min_value=0, max_value=10).map(lambda i: EX[f"n{i}"])
_predicates = st.sampled_from(
    [RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range, RDF.type, EX.knows]
)
ontologies = st.lists(st.builds(Triple, _nodes, _predicates, _nodes), max_size=40)

_horst_predicates = st.sampled_from(
    [OWL.sameAs, OWL.inverseOf, RDFS.subClassOf, RDF.type, EX.knows, EX.likes]
)
horst_ontologies = st.lists(
    st.builds(Triple, _nodes, _horst_predicates, _nodes), max_size=25
)

_SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _closure(triples, **kwargs) -> set[Triple]:
    options = {"fragment": "rhodf", "workers": 0, "timeout": None, "buffer_size": 7}
    options.update(kwargs)
    with Slider(**options) as reasoner:
        reasoner.add(triples)
        reasoner.flush()
        return set(reasoner.graph)


@given(ontologies)
@_SLOW
def test_identity_dictionary_is_semantically_transparent(triples):
    encoded = _closure(triples)
    identity = _closure(triples, dictionary=IdentityDictionary())
    assert identity == encoded


@given(ontologies)
@_SLOW
def test_broadcast_routing_is_semantically_transparent(triples):
    routed = _closure(triples)
    broadcast = _closure(triples, routing="broadcast")
    assert broadcast == routed


@given(ontologies)
@_SLOW
def test_adaptive_scheduling_is_semantically_transparent(triples):
    static = _closure(triples)
    adaptive = _closure(triples, adaptive=True)
    assert adaptive == static


@given(horst_ontologies)
@_SLOW
def test_owl_horst_engines_agree(triples):
    """The three-pattern prp-trp and the sameAs rules must behave
    identically in the pipeline and in the batch baselines, including
    sameAs churn."""
    from ..conftest import closure_with_batch

    pipeline = closure_with_slider(triples, "owl-horst")
    batch = closure_with_batch(triples, "owl-horst")
    assert pipeline == batch

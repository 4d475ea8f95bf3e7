"""Microbenchmarks of the substrate components on the reasoner hot path.

Not a paper artifact, but the numbers that explain the macro results:
store insert/probe throughput, dictionary encoding, parser speed, and
one rule-module execution.
"""

from __future__ import annotations

import pytest

from repro.dictionary import TermDictionary
from repro.datasets import generate_bsbm
from repro.rdf import parse_ntriples, serialize_ntriples
from repro.reasoner import Vocabulary
from repro.reasoner.fragments import get_fragment
from repro.store import HashDictStore


@pytest.fixture(scope="module")
def encoded_triples():
    dictionary = TermDictionary()
    return [dictionary.encode_triple(t) for t in generate_bsbm(5_000)]


def test_store_add_all(benchmark, encoded_triples):
    def run():
        store = HashDictStore()
        store.add_all(encoded_triples)
        return len(store)

    size = benchmark(run)
    benchmark.extra_info["triples_per_round"] = size


def test_store_match_by_predicate(benchmark, encoded_triples):
    store = HashDictStore()
    store.add_all(encoded_triples)
    predicates = store.predicates()

    def run():
        return sum(len(store.match(None, p, None)) for p in predicates)

    total = benchmark(run)
    assert total == len(store)


def test_store_point_probes(benchmark, encoded_triples):
    store = HashDictStore()
    store.add_all(encoded_triples)
    probes = encoded_triples[:2000]

    def run():
        return sum(1 for t in probes if t in store)

    assert benchmark(run) == len(probes)


def test_dictionary_encoding(benchmark):
    triples = generate_bsbm(5_000)

    def run():
        dictionary = TermDictionary()
        return sum(1 for _ in dictionary.encode_triples(triples))

    assert benchmark(run) == len(triples)


def test_ntriples_parse(benchmark):
    text = serialize_ntriples(generate_bsbm(5_000))

    def run():
        return len(parse_ntriples(text))

    count = benchmark(run)
    benchmark.extra_info["triples"] = count


def test_rule_module_execution(benchmark):
    """One cax-sco firing over a 1 000-triple batch (the pipeline's unit
    of work)."""
    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    rules = {r.name: r for r in get_fragment("rhodf").rules(vocab)}
    cax_sco = rules["cax-sco"]
    store = HashDictStore()
    triples = [dictionary.encode_triple(t) for t in generate_bsbm(12_000)]
    store.add_all(triples)
    type_batch = [t for t in triples if t[1] == vocab.type][:1000]

    result = benchmark(cax_sco.apply, store, type_batch, vocab)
    assert isinstance(result, list)

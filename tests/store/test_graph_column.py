"""The sparse named-graph column of the hash-dict store.

The quad protocol (``set_graphs`` / ``graph_of`` / ``graph_counts`` /
``triples_in_graph`` / ``graph_assignments``) is an optional extension
probed by ``getattr`` — these tests pin its contract directly at the
store layer: absent triples are never tagged and removal clears the
tag.
"""

import pytest

from repro.store import HashDictStore


def t(i: int, p: int = 1) -> tuple[int, int, int]:
    return (i, p, i + 100)


@pytest.fixture
def store():
    return HashDictStore()


class TestGraphColumn:
    def test_untagged_triples_are_default_graph(self, store):
        store.add_all([t(1), t(2)])
        assert store.graph_of(t(1)) is None
        assert store.graph_counts() == {}
        assert sorted(store.triples_in_graph(None)) == [t(1), t(2)]

    def test_set_graphs_tags_stored_triples(self, store):
        store.add_all([t(1), t(2), t(3)])
        store.set_graphs([t(1), t(3)], 7)
        assert store.graph_of(t(1)) == 7
        assert store.graph_of(t(2)) is None
        assert store.graph_counts() == {7: 2}
        assert sorted(store.triples_in_graph(7)) == [t(1), t(3)]
        assert store.triples_in_graph(None) == [t(2)]

    def test_absent_triples_are_ignored(self, store):
        store.add(t(1))
        store.set_graphs([t(1), t(99)], 5)
        assert store.graph_of(t(99)) is None
        assert store.graph_counts() == {5: 1}

    def test_retag_moves_between_graphs(self, store):
        store.add(t(1))
        store.set_graphs([t(1)], 5)
        store.set_graphs([t(1)], 6)
        assert store.graph_of(t(1)) == 6
        assert store.graph_counts() == {6: 1}

    def test_none_clears_the_tag(self, store):
        store.add(t(1))
        store.set_graphs([t(1)], 5)
        store.set_graphs([t(1)], None)
        assert store.graph_of(t(1)) is None
        assert store.graph_counts() == {}

    def test_removal_clears_the_tag(self, store):
        store.add_all([t(1), t(2)])
        store.set_graphs([t(1), t(2)], 9)
        store.remove(t(1))
        assert store.graph_counts() == {9: 1}
        store.remove_all([t(2)])
        assert store.graph_counts() == {}
        # Re-adding the triple does not resurrect the tag.
        store.add(t(1))
        assert store.graph_of(t(1)) is None

    def test_assignments_snapshot_is_a_copy(self, store):
        store.add_all([t(1), t(2)])
        store.set_graphs([t(1)], 4)
        assignments = store.graph_assignments()
        assert assignments == {t(1): 4}
        assignments[t(2)] = 5  # mutating the copy must not leak back
        assert store.graph_assignments() == {t(1): 4}

    def test_clear_resets_the_column(self, store):
        store.add(t(1))
        store.set_graphs([t(1)], 3)
        store.clear()
        assert store.graph_counts() == {}
        assert store.graph_assignments() == {}

    def test_multiple_graphs_and_predicate_spread(self, store):
        triples = [t(i, p=i % 5) for i in range(20)]
        store.add_all(triples)
        store.set_graphs(triples[:10], 1)
        store.set_graphs(triples[10:], 2)
        assert store.graph_counts() == {1: 10, 2: 10}
        assert sorted(store.triples_in_graph(1)) == sorted(triples[:10])
        assert sorted(store.triples_in_graph(2)) == sorted(triples[10:])
        assert store.triples_in_graph(None) == []

"""``limit`` and ``ASK`` pushed down to the executor.

A bounded ``select`` / ``construct`` / ``ask`` evaluates the plan's first
step, then feeds its rows through the remaining steps a block at a time
and stops once it has what it was asked for.  The contract:

* ``select(limit=k)`` returns exactly ``min(k, distinct projected rows)``
  rows, each a row of the unlimited answer — also under projections that
  collapse duplicates, and for ``k`` on both sides of the block size;
* ``ask`` ≡ ``bool(solve_naive(...))`` on the differential generator;
* the blocks, concatenated, are the unlimited answer; and the unlimited
  ``solve`` stays multiset-identical to ``solve_naive`` on the store
  and on a :class:`~repro.server.ReadView` with a non-empty overlay and
  tombstones.

The bounded-query tests run on the store, on a columnar image of its
closure and on an overlaid read view.
"""

import random
from collections import Counter

import pytest

from repro import Delta, Slider, Triple
from repro.rdf import RDF, RDFS, Variable
from repro.server import ReadView
from repro.store import Graph, ask, construct, select, solve, solve_naive
from repro.store.planner import executor
from repro.store.planner.executor import BLOCK_ROWS, solution_blocks

from ..conftest import EX, each_execution_mode, random_ontology
from .test_differential_oracle import _sweep, as_multiset, bounded_random_bgp, columnar_graph

X, Y, C = Variable("x"), Variable("y"), Variable("c")

#: Enough members that the join's first step spans several blocks.
MEMBERS = 5 * BLOCK_ROWS + 7


def social_triples() -> list[Triple]:
    """``MEMBERS`` people, each typed (twice over, by inference) and
    knowing two others — a join whose first step outruns one block."""
    triples = [Triple(EX.Person, RDFS.subClassOf, EX.Agent)]
    for i in range(MEMBERS):
        person = EX[f"p{i}"]
        triples.append(Triple(person, RDF.type, EX.Person))
        triples.append(Triple(person, EX.knows, EX[f"p{(i + 1) % MEMBERS}"]))
        triples.append(Triple(person, EX.knows, EX[f"p{(i * 7 + 3) % MEMBERS}"]))
    return triples


def overlaid_view(engine: Slider, later: list[Delta]) -> ReadView:
    """A view built *before* ``later`` and advanced through it, so its
    answers come from base + overlay (+ tombstones), not a fresh base."""
    view = ReadView.from_store(engine.revision, engine.store)
    for delta in later:
        view = view.advance(engine.apply(delta))
    return view


@pytest.fixture(params=("hashdict", "columnar", "view"))
def graph(request):
    """The social graph on the store, on a columnar image of its
    closure, and on an overlaid read view."""
    with Slider(fragment="rhodf", workers=0, timeout=None) as engine:
        triples = social_triples()
        if request.param == "hashdict":
            engine.apply(Delta(assertions=triples))
            yield engine.graph
            return
        if request.param == "columnar":
            engine.apply(Delta(assertions=triples))
            columnar = columnar_graph(engine.graph)
            yield columnar
            columnar.store.close()
            return
        half = len(triples) // 2
        engine.apply(Delta(assertions=triples[:half] + [Triple(EX.ghost, RDF.type, EX.Person)]))
        view = overlaid_view(
            engine,
            [
                Delta(assertions=triples[half:]),
                Delta(retractions=[Triple(EX.ghost, RDF.type, EX.Person)]),
            ],
        )
        assert view._pso and view._dead, "the view must answer through its overlay"
        yield Graph(engine.dictionary, view)


JOIN = [(X, RDF.type, EX.Agent), (X, EX.knows, Y)]

LIMITS = (1, 25, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS, 10**6)


class TestBoundedSelect:
    @pytest.mark.parametrize("limit", LIMITS)
    def test_exact_row_count_and_membership(self, graph, limit):
        full = select(graph, [X, Y], JOIN)
        assert len(full) == len(set(full)) > 3 * BLOCK_ROWS
        rows = select(graph, [X, Y], JOIN, limit=limit)
        assert len(rows) == min(limit, len(full))
        assert len(set(rows)) == len(rows)
        assert set(rows) <= set(full)

    @pytest.mark.parametrize("limit", LIMITS)
    def test_projection_that_collapses_duplicates(self, graph, limit):
        """Projected on ``?x`` every person appears once however many
        people they know: the limit counts distinct projected rows."""
        full = select(graph, [X], JOIN)
        assert len(full) == MEMBERS
        rows = select(graph, [X], JOIN, limit=limit)
        assert len(rows) == min(limit, MEMBERS)
        assert len(set(rows)) == len(rows)
        assert set(rows) <= set(full)

    def test_projection_onto_one_constant_class(self, graph):
        """All solutions project onto a single row: a limit of 1 is met by
        the first block, a limit of 2 never — and still terminates."""
        patterns = [(X, RDF.type, C), (C, RDFS.subClassOf, EX.Agent)]
        assert select(graph, [C], patterns, limit=1) == [(EX.Person,)]
        assert select(graph, [C], patterns, limit=2) == [(EX.Person,)]

    def test_non_distinct_limit_counts_every_row(self, graph):
        rows = select(graph, [X], JOIN, distinct=False, limit=BLOCK_ROWS + 5)
        assert len(rows) == BLOCK_ROWS + 5
        assert len(set(rows)) < len(rows)

    def test_limit_validation_and_empty_answers(self, graph):
        with pytest.raises(ValueError):
            select(graph, [X], JOIN, limit=0)
        assert select(graph, [X], [(X, RDF.type, EX.Nothing)], limit=5) == []
        assert select(graph, [], [], limit=3) == [()]

    def test_limit_stops_the_join_early(self, graph, monkeypatch):
        """The work follows the rows returned: under a small limit the
        remaining steps see one block of first-step rows, not all of them."""
        seen: list[int] = []
        original = executor.execute_plan

        def counting(graph, plan, *args, **kwargs):
            seen.append(len(kwargs.get("encoded_seeds") or ()))
            return original(graph, plan, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_plan", counting)
        select(graph, [X, Y], JOIN, limit=10)
        assert seen == [BLOCK_ROWS]
        seen.clear()
        select(graph, [X, Y], JOIN)  # unlimited: the eager one-shot path
        assert seen == [0]

    @pytest.mark.parametrize("limit", (1, BLOCK_ROWS + 1, 10**6))
    def test_construct_limit(self, graph, limit):
        template = [(Y, EX.knownBy, X)]
        full = construct(graph, template, JOIN)
        triples = construct(graph, template, JOIN, limit=limit)
        assert len(triples) == min(limit, len(full))
        assert set(triples) <= set(full)


class TestBlocks:
    def test_blocks_concatenate_to_the_unlimited_answer(self, graph):
        for patterns in (JOIN, JOIN[:1], [(EX.p0, EX.knows, Y)], []):
            blocks = list(solution_blocks(graph, patterns))
            merged = [solution for block in blocks for solution in block]
            assert as_multiset(merged) == as_multiset(solve(graph, patterns))
        assert len(list(solution_blocks(graph, JOIN))) == -(-MEMBERS // BLOCK_ROWS)

    def test_encoded_blocks_skip_the_dictionary(self, graph):
        (block,) = solution_blocks(graph, [(EX.p0, EX.knows, Y)], decode=False)
        assert all(isinstance(value, int) for row in block for value in row)

    def test_unknown_constant_yields_nothing(self, graph):
        patterns = [(X, RDF.type, EX.NeverSeen), (X, EX.knows, Y)]
        assert list(solution_blocks(graph, patterns)) == []
        assert not ask(graph, patterns)


class TestAskMatchesNaive:
    """``ask`` ≡ ``bool(solve_naive)`` on the differential generator."""

    @each_execution_mode
    @pytest.mark.parametrize("fragment", ("rhodf", "rdfs"))
    def test_random_bgps(self, execution, fragment):
        with Slider(fragment=fragment, timeout=None, **execution) as engine:
            engine.apply(Delta(assertions=random_ontology(1618)))
            graph = engine.graph
            closure = list(graph)
            rng = random.Random(f"ask:{fragment}:hashdict")
            outcomes = Counter()
            for index in range(150):
                patterns = bounded_random_bgp(rng, graph, closure)
                expected = bool(solve_naive(graph, patterns))
                assert ask(graph, patterns) is expected, (index, patterns)
                outcomes[expected] += 1
            assert outcomes[True] and outcomes[False], outcomes

    def test_bounded_select_on_random_bgps(self):
        """The limit contract on generated queries, all variables projected."""
        with Slider(fragment="rdfs", workers=0, timeout=None) as engine:
            engine.apply(Delta(assertions=random_ontology(1618, size=120)))
            graph = engine.graph
            closure = list(graph)
            rng = random.Random("bounded-select")
            for index in range(80):
                patterns = bounded_random_bgp(rng, graph, closure)
                variables = sorted(
                    {t for p in patterns for t in p if isinstance(t, Variable)},
                    key=lambda v: v.name,
                )
                projected = variables[: rng.randint(0, len(variables))]
                full = select(graph, projected, patterns)
                limit = rng.choice((1, 2, 7, BLOCK_ROWS, 4 * BLOCK_ROWS))
                rows = select(graph, projected, patterns, limit=limit)
                assert len(rows) == min(limit, len(full)), (index, patterns, projected)
                assert set(rows) <= set(full)


class TestUnlimitedSolveOnOverlaidView:
    """planner ≡ naive on a view answering from base + overlay + tombstones."""

    @pytest.mark.parametrize("seed", (31415, 27182))
    def test_random_bgps(self, seed):
        with Slider(fragment="rdfs", workers=0, timeout=None) as engine:
            ontology = random_ontology(seed, size=90)
            engine.apply(Delta(assertions=ontology[:45]))
            view = overlaid_view(
                engine,
                [
                    Delta(assertions=ontology[45:]),
                    Delta(retractions=ontology[:6]),
                    Delta(assertions=ontology[:2]),  # re-assert two tombstoned ones
                ],
            )
            assert view._pso and view._dead
            assert sorted(view) == sorted(engine.store)
            graph = Graph(engine.dictionary, view)
            closure = list(graph)
            rng = random.Random(f"{seed}:overlaid-view")
            _sweep(graph, closure, rng, f"store=overlaid ReadView, seed={seed}")

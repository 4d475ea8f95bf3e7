"""The rules dependency graph (paper §2.3, Figure 2).

At initialization Slider computes, from the rules' input/output predicate
signatures alone, a directed graph with an edge A → B whenever a triple
produced by rule A can feed rule B.  The engine uses it to wire each
rule's distributor to the buffers of its dependent rules; the demo uses
it for visualization; tests assert the ρdf graph matches Figure 2.

Edge rule: A → B iff

* B has *universal input* (it accepts any predicate), or
* A's output predicate is unknown (``None``) — it could produce anything
  relevant — or
* A's known output predicates intersect B's input predicates.

Dispatch follows these edges with one exception, a second structural
fact read off the rule bodies (:func:`closed_inheritance`).  A join rule
``(a R b) ∧ D(a) → D(b)`` — rdfs9/cax-sco over ``subClassOf``,
rdfs7/prp-spo1 over ``subPropertyOf``, and scm-dom2/scm-rng2 in the
other direction — in a fragment that also keeps R transitively closed
(rdfs11/scm-sco, rdfs5/scm-spo) would only re-derive duplicates from its
own conclusions: whatever ``D(b)`` joins with, ``(b R c)``, the closure
already holds ``(a R c)``, which meets ``D(a)``.  Its distributor
therefore does not hand those conclusions back to it
(:func:`own_output_routing`); the graph keeps the paper's self-edge.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .rules import Pattern, Rule, Var

__all__ = [
    "DependencyGraph",
    "build_routing_table",
    "closed_inheritance",
    "own_output_routing",
]


class DependencyGraph:
    """Directed dependency graph over a rule set.

    >>> graph = DependencyGraph(rules)
    >>> graph.successors("scm-sco")        # who consumes its output
    ['cax-sco', 'scm-sco', ...]
    """

    def __init__(self, rules: Sequence[Rule]):
        self._rules = {rule.name: rule for rule in rules}
        if len(self._rules) != len(rules):
            raise ValueError("duplicate rule names in fragment")
        self._edges: dict[str, list[str]] = {name: [] for name in self._rules}
        for producer in rules:
            produced = producer.output_predicates
            for consumer in rules:
                if self._feeds(produced, consumer):
                    self._edges[producer.name].append(consumer.name)
        for successors in self._edges.values():
            successors.sort()

    @staticmethod
    def _feeds(produced: frozenset[int] | None, consumer: Rule) -> bool:
        consumed = consumer.input_predicates
        if consumed is None:
            return True  # universal input accepts everything
        if produced is None:
            return True  # unknown output may produce anything
        return bool(produced & consumed)

    # --- queries ------------------------------------------------------------
    def rule_names(self) -> list[str]:
        return sorted(self._rules)

    def rule(self, name: str) -> Rule:
        return self._rules[name]

    def successors(self, name: str) -> list[str]:
        """Rules that can consume ``name``'s output."""
        return list(self._edges[name])

    def predecessors(self, name: str) -> list[str]:
        """Rules whose output can feed ``name``."""
        return sorted(
            producer for producer, consumers in self._edges.items() if name in consumers
        )

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (producer, consumer) pairs, sorted."""
        return sorted(
            (producer, consumer)
            for producer, consumers in self._edges.items()
            for consumer in consumers
        )

    def universal_rules(self) -> list[str]:
        """Rules with universal input (the paper's "Universal Input" box)."""
        return sorted(
            name for name, rule in self._rules.items() if rule.input_predicates is None
        )

    def has_cycle_through(self, name: str) -> bool:
        """Whether ``name`` can (transitively) feed itself.

        Self-feeding rules (e.g. scm-sco) are what makes reasoning iterate
        to a fixpoint; acyclic rules fire at most once per input triple.
        """
        stack = list(self._edges[name])
        visited: set[str] = set()
        while stack:
            current = stack.pop()
            if current == name:
                return True
            if current in visited:
                continue
            visited.add(current)
            stack.extend(self._edges[current])
        return False

    def to_dot(self) -> str:
        """GraphViz rendering (the demo's Figure 2 view)."""
        lines = ["digraph rules {", "  rankdir=LR;"]
        for name in self.rule_names():
            shape = "doubleoctagon" if self._rules[name].input_predicates is None else "box"
            lines.append(f'  "{name}" [shape={shape}];')
        for producer, consumer in self.edges():
            lines.append(f'  "{producer}" -> "{consumer}";')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<DependencyGraph {len(self._rules)} rules, {len(self.edges())} edges>"


def build_routing_table(
    rules: Sequence[Rule],
) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
    """Predicate-id → rule-index routing, plus the universal rule indices.

    A triple with predicate ``p`` must be offered to
    ``routing.get(p, ()) + universal``.  This is the "each module accepts
    the triples according to configured rules' predicates" dispatch of the
    paper, shared by the input manager and every distributor.
    """
    routing: dict[int, list[int]] = {}
    universal: list[int] = []
    for index, rule in enumerate(rules):
        inputs = rule.input_predicates
        if inputs is None:
            universal.append(index)
            continue
        for predicate in inputs:
            routing.setdefault(predicate, []).append(index)
    frozen = {predicate: tuple(indices) for predicate, indices in routing.items()}
    return frozen, tuple(universal)


def _edge(pattern: Pattern) -> tuple[Var, object, Var] | None:
    """``(a, R, b)`` when ``pattern`` is an edge ``(a R b)``: a constant
    predicate between two distinct variables; ``None`` otherwise."""
    a, relation, b = pattern
    if isinstance(relation, Var) or not isinstance(a, Var) or not isinstance(b, Var):
        return None
    return (a, relation, b) if a != b else None


def _transitive_over(rule: Rule) -> object | None:
    """R when ``rule`` is ``(x R y) ∧ (y R z) → (x R z)`` (body in either
    order) over three distinct variables; ``None`` otherwise."""
    body = getattr(rule, "body", ())
    if len(body) != 2:
        return None
    first, second, head = _edge(body[0]), _edge(body[1]), _edge(rule.head)
    if first is None or second is None or head is None:
        return None
    if first[1] != second[1] or head[1] != first[1]:
        return None
    for (x, _, y), (y2, _, z) in ((first, second), (second, first)):
        if y == y2 and len({x, y, z}) == 3 and (head[0], head[2]) == (x, z):
            return first[1]
    return None


def _inherited_over(rule: Rule) -> object | None:
    """R when ``rule``'s head is its body pattern D with the one variable
    D shares with an edge ``(a R b)`` replaced by the edge's other end.

    D's predicate must be a constant or that shared variable itself.  A
    D with any other variable predicate matches R edges under every
    binding (owl:sameAs replacement, eq-rep-s/o), which makes the rule a
    second producer of R: such rules keep the paper's full re-dispatch.
    """
    left, right = rule.body
    for schema, data in ((left, right), (right, left)):
        edge = _edge(schema)
        if edge is None:
            continue
        a, relation, b = edge
        names = set(data)
        if (a in names) == (b in names):
            continue  # D must share exactly one end of the edge
        shared, other = (a, b) if a in names else (b, a)
        if isinstance(data.predicate, Var) and data.predicate != shared:
            continue
        inherited = tuple(other if term == shared else term for term in data)
        if tuple(rule.head) == inherited:
            return relation
    return None


def closed_inheritance(rules: Sequence[Rule]) -> dict[int, object]:
    """Rule index → R for every *closed-inheritance* rule of ``rules``.

    Rule I qualifies when its body is two patterns
    ``(a R b) ∧ D → D[a := b]`` (or ``D[b := a]``) and ``rules`` also
    holds a transitivity rule ``(x R y) ∧ (y R z) → (x R z)`` that is
    not I.  The fact is read off the patterns, never off rule names.

    Why I need not re-read its own conclusions: follow an I-derived
    ``D(e)`` back through I's derivations to the first ``D(a)`` that
    another producer inserted (or that I's distributor dispatched).  That
    triple was dispatched to I; the transitivity rule puts ``(a R e)`` in
    the store, and every R triple is dispatched to I — I's own
    conclusions too, when they carry R.  Both are stored before they are
    dispatched, so whichever fires later finds the other and derives
    ``D(e)`` directly.  Transitivity rules themselves keep re-reading
    their output: each conclusion is an R edge their next join needs.
    """
    transitive = [_transitive_over(rule) for rule in rules]
    closed_relations = set(transitive) - {None}
    closed: dict[int, object] = {}
    for index, rule in enumerate(rules):
        if len(getattr(rule, "body", ())) != 2 or transitive[index] is not None:
            continue
        relation = _inherited_over(rule)
        if relation is not None and relation in closed_relations:
            closed[index] = relation
    return closed


def own_output_routing(
    routing: Mapping[int, tuple[int, ...]],
    universal: tuple[int, ...],
    index: int,
    relation: object,
) -> tuple[Mapping[int, tuple[int, ...]], tuple[int, ...]]:
    """The routing table for closed-inheritance rule ``index``'s own output.

    Same as ``(routing, universal)`` except that rule ``index`` only
    receives triples with predicate ``relation`` — the ones matching its
    edge pattern, which it must still join.
    """
    own: dict[int, tuple[int, ...]] = {}
    for predicate, indices in routing.items():
        kept = tuple(i for i in indices if i != index)
        if kept:
            own[predicate] = kept
    own[relation] = own.get(relation, ()) + (index,)
    return own, tuple(i for i in universal if i != index)

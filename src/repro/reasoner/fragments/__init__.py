"""Fragment registry: named, pluggable rule sets.

A *fragment* bundles a rule factory with optional axiomatic triples.  The
engine asks the registry by name (``"rhodf"``, ``"rdfs"``, ``"rdfs-full"``,
``"owl-horst"``), and third-party code can register custom fragments —
the paper's "Fragment's Customization" feature::

    from repro.reasoner.fragments import Fragment, register_fragment

    def my_rules(vocab):
        return [...]

    register_fragment(Fragment("my-fragment", my_rules))
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ...rdf.terms import Triple
from ..rules import Rule
from ..vocabulary import Vocabulary
from . import owl_horst, rdfs, rhodf

__all__ = [
    "Fragment",
    "register_fragment",
    "get_fragment",
    "available_fragments",
    "UnknownFragmentError",
]


class UnknownFragmentError(KeyError):
    """Raised when asking the registry for a fragment it does not know."""

    def __init__(self, name: str, known: Iterable[str]):
        super().__init__(name)
        self.name = name
        self.known = sorted(known)

    def __str__(self):
        return f"unknown fragment {self.name!r}; available: {', '.join(self.known)}"


class Fragment:
    """A named rule set.

    ``build_rules`` receives a :class:`~repro.reasoner.vocabulary.Vocabulary`
    and returns fresh :class:`~repro.reasoner.rules.Rule` instances (fresh,
    because a custom rule may carry per-run state).  ``axioms`` are term-level triples injected into the
    store before any input.
    """

    def __init__(
        self,
        name: str,
        build_rules: Callable[[Vocabulary], list[Rule]],
        axioms: Callable[[], Sequence[Triple]] | None = None,
        description: str = "",
    ):
        if not name:
            raise ValueError("fragment needs a name")
        self.name = name
        self._build_rules = build_rules
        self._axioms = axioms
        self.description = description

    def rules(self, vocab: Vocabulary) -> list[Rule]:
        """Fresh rule instances bound to ``vocab``."""
        built = self._build_rules(vocab)
        names = [rule.name for rule in built]
        if len(set(names)) != len(names):
            raise ValueError(f"fragment {self.name!r} has duplicate rule names: {names}")
        return built

    def axioms(self) -> list[Triple]:
        """Axiomatic triples to seed the store with (may be empty)."""
        return list(self._axioms()) if self._axioms is not None else []

    def __repr__(self):
        return f"Fragment({self.name!r})"


_REGISTRY: dict[str, Fragment] = {}

_ALIASES = {
    "pdf": "rhodf",
    "ρdf": "rhodf",
    "rho-df": "rhodf",
    "rhodf": "rhodf",
    "rdfs": "rdfs",
    "rdfs-default": "rdfs",
    "rdfs-full": "rdfs-full",
    "owl-horst": "owl-horst",
    "owlhorst": "owl-horst",
    "pd*": "owl-horst",
}


def register_fragment(fragment: Fragment, overwrite: bool = False) -> Fragment:
    """Add a fragment to the registry.  Returns it for chaining."""
    key = fragment.name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"fragment {fragment.name!r} already registered")
    _REGISTRY[key] = fragment
    return fragment


def get_fragment(name: str) -> Fragment:
    """Look a fragment up by name (case-insensitive, aliases allowed)."""
    key = _ALIASES.get(name.lower(), name.lower())
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownFragmentError(name, _REGISTRY.keys()) from None


def available_fragments() -> list[str]:
    """Registered fragment names, sorted."""
    return sorted(_REGISTRY.keys())


register_fragment(
    Fragment(
        "rhodf",
        rhodf.build_rules,
        description="ρdf: the 8-rule minimal deductive system (paper Figure 2)",
    )
)
register_fragment(
    Fragment(
        "rdfs",
        rdfs.build_rules,
        description="RDFS: practical rdfs2-13 ruleset (no reflexive/axiomatic rules)",
    )
)
register_fragment(
    Fragment(
        "rdfs-full",
        rdfs.build_full_rules,
        axioms=rdfs.axiomatic_triples,
        description="RDFS plus reflexive rules and axiomatic triples",
    )
)
register_fragment(
    Fragment(
        "owl-horst",
        owl_horst.build_rules,
        description="RDFS plus OWL-Horst property/equality rules (paper future work)",
    )
)

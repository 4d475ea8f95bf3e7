"""Differential correctness harness: three engines, one truth.

Property-based (seeded random) scripts of add / retract / mixed deltas
are executed three ways and must agree at *every* revision:

1. **incremental** — the Slider pipeline (DRed retraction, delta joins);
2. **batch baseline** — re-materialize the current explicit set from
   scratch with the naive :class:`~repro.baselines.BatchReasoner`;
3. **crash-replay** — run the same prefix durably, kill the engine
   (no ``close``), recover from snapshot + changelog, compare.

The harness sweeps all three rule fragments (ρdf, RDFS, OWL-Horst),
with rule firings run inline or on a thread pool.
The OWL-Horst cells run scripts that also assert — and retract —
``owl:TransitiveProperty`` / ``owl:SymmetricProperty`` declarations,
``owl:inverseOf`` and ``owl:sameAs``.

CI pins an extra seed via ``SLIDER_DIFF_SEED`` so every push replays a
known script on top of the built-in ones.
"""

import os
import random

import pytest

from repro import Delta, Slider
from repro.baselines import BatchReasoner
from repro.rdf import Literal, OWL, RDF, RDFS, Triple

from ..conftest import EX, each_execution_mode
from ..persist.test_recovery import kill

FRAGMENTS = ("rhodf", "rdfs", "owl-horst")

_extra_seed = os.environ.get("SLIDER_DIFF_SEED")
SEEDS = (1101, 2202) + ((int(_extra_seed),) if _extra_seed else ())


_PROPERTIES = (EX.knows, EX.likes, EX.near)


def random_triples(
    rng: random.Random, count: int, universe: int = 14, owl: bool = False
) -> list[Triple]:
    """Random schema + instance triples.

    RDFS vocabulary only by default; ``owl`` mixes in the OWL-Horst
    property vocabulary over the same instance predicates, so a script
    declares (and later retracts) what makes ``knows`` transitive.
    """
    predicates = [
        RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range,
        RDF.type, EX.knows, EX.likes, EX.near,
    ]
    triples = []
    if owl:
        universe = 6  # dense enough for property chains to form
    for _ in range(count):
        if owl and rng.random() < 0.3:
            triples.append(_owl_triple(rng, universe))
            continue
        predicate = rng.choice(predicates)
        subject = EX[f"n{rng.randint(0, universe)}"]
        if rng.random() < 0.08:
            obj = Literal(f"value {rng.randint(0, 5)}")
        else:
            obj = EX[f"n{rng.randint(0, universe)}"]
        triples.append(Triple(subject, predicate, obj))
    return triples


def _owl_triple(rng: random.Random, universe: int) -> Triple:
    kind = rng.random()
    if kind < 0.4:
        marker = rng.choice([OWL.TransitiveProperty, OWL.SymmetricProperty])
        return Triple(rng.choice(_PROPERTIES), RDF.type, marker)
    if kind < 0.6:
        return Triple(rng.choice(_PROPERTIES), OWL.inverseOf, rng.choice(_PROPERTIES))
    return Triple(
        EX[f"n{rng.randint(0, universe)}"], OWL.sameAs, EX[f"n{rng.randint(0, universe)}"]
    )


def generate_script(seed: int, steps: int = 7, owl: bool = False) -> list[Delta]:
    """A deterministic delta script: adds, retracts, mixed revisions.

    Retractions draw from the triples asserted so far *plus* the odd
    never-asserted ghost, so the script also exercises retraction of
    never-committed triples mid-sequence.  ``owl`` scripts carry the
    OWL-Horst vocabulary of :func:`random_triples`.
    """
    rng = random.Random(seed)
    live: list[Triple] = []
    script: list[Delta] = []
    for step in range(steps):
        kind = rng.random()
        assertions: list[Triple] = []
        retractions: list[Triple] = []
        if kind < 0.45 or not live:  # grow
            assertions = random_triples(rng, rng.randint(4, 10), owl=owl)
        elif kind < 0.7:  # shrink
            retractions = rng.sample(live, k=min(len(live), rng.randint(1, 4)))
        else:  # mixed, occasionally including a ghost retraction
            assertions = random_triples(rng, rng.randint(2, 6), owl=owl)
            retractions = rng.sample(live, k=min(len(live), rng.randint(1, 3)))
            if rng.random() < 0.5:
                retractions.append(Triple(EX[f"ghost{step}"], RDF.type, EX.Never))
        if owl and step == 0:
            assertions.append(Triple(EX.knows, RDF.type, OWL.TransitiveProperty))
        if owl and retractions:
            # Pull the rug from under a transitive closure.
            declared = [t for t in live if t.object == OWL.TransitiveProperty]
            if declared:
                retractions.append(rng.choice(declared))
        delta = Delta(assertions=assertions, retractions=retractions)
        removed = set(delta.retractions)
        live = [t for t in live if t not in removed]
        live.extend(t for t in delta.assertions if t not in live)
        script.append(delta)
    return script


def explicit_after(script, upto: int) -> list[Triple]:
    """The asserted set after the first ``upto`` deltas (net effect)."""
    live: list[Triple] = []
    for delta in script[:upto]:
        removed = set(delta.retractions)
        live = [t for t in live if t not in removed]
        live.extend(t for t in delta.assertions if t not in live)
    return live


def script_for(fragment: str, seed: int, **kwargs) -> list[Delta]:
    """The fragment's script: OWL vocabulary where the rules read it."""
    return generate_script(seed, owl=fragment == "owl-horst", **kwargs)


def batch_closure(fragment: str, explicit) -> set[Triple]:
    reasoner = BatchReasoner(fragment=fragment)
    reasoner.add(explicit)
    reasoner.materialize()
    return set(reasoner.graph)


def assert_every_revision(fragment: str, seed: int, **engine) -> None:
    script = script_for(fragment, seed)
    with Slider(fragment=fragment, timeout=None, **engine) as r:
        for step, delta in enumerate(script, start=1):
            r.apply(delta)
            incremental = set(r.graph)
            baseline = batch_closure(fragment, explicit_after(script, step))
            assert incremental == baseline, (
                f"divergence at revision {step} "
                f"(fragment={fragment}, seed={seed}, {engine}): "
                f"{len(incremental - baseline)} extra, "
                f"{len(baseline - incremental)} missing"
            )


class TestIncrementalMatchesBatch:
    """Incremental closure == from-scratch closure at every revision."""

    @each_execution_mode
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_every_revision(self, execution, fragment, seed):
        assert_every_revision(fragment, seed, **execution)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("fragment", ("rdfs", "owl-horst"))
    def test_every_revision_pooled(self, fragment, seed):
        """Tiny buffers on a real pool: every commit mixes firings on the
        committing thread (drained buffers) with pool size-fires."""
        assert_every_revision(fragment, seed, workers=2, buffer_size=3)


    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_owl_scripts_retract_a_declaration_with_consequences(self, seed):
        """The OWL-Horst cells above mean something: each built-in script
        retracts a transitivity declaration whose closure then leaves."""
        lost = 0
        with Slider(fragment="owl-horst", workers=0, timeout=None) as r:
            for delta in script_for("owl-horst", seed):
                report = r.apply(delta)
                declared = {
                    t.subject
                    for t in delta.retractions
                    if t.object == OWL.TransitiveProperty
                }
                lost += sum(1 for t in report.removed if t.predicate in declared)
        assert lost > 0


class TestCrashReplayMatchesUninterrupted:
    """Kill + recover at any revision == never having crashed."""

    @each_execution_mode
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_recover_at_every_revision(self, execution, tmp_path, seed):
        script = generate_script(seed)
        # Uninterrupted reference: closure snapshot at every revision.
        closures: list[set[Triple]] = []
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            for delta in script:
                r.apply(delta)
                closures.append(set(r.graph))

        for upto in range(1, len(script) + 1):
            state = tmp_path / f"s{seed}-{upto}"
            victim = Slider(
                fragment="rhodf", timeout=None, **execution,
                persist_dir=state,
            )
            for delta in script[:upto]:
                victim.apply(delta)
            kill(victim)  # kill: no close
            with Slider(
                fragment="rhodf", timeout=None, **execution,
                persist_dir=state,
            ) as revived:
                assert revived.revision == upto
                assert set(revived.graph) == closures[upto - 1], (
                    f"crash-replay diverged at revision {upto} "
                    f"(seed={seed})"
                )

class TestColumnarFormatDifferential:
    """The image is the engine state, revision for revision."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_image_matches_the_engine_at_every_revision(self, fragment, seed):
        from repro.persist import parse_snapshot

        script = script_for(fragment, seed)
        with Slider(fragment=fragment, workers=0, timeout=None) as r:
            for delta in script:
                r.apply(delta)
                image = parse_snapshot(r.snapshot_bytes())
                assert image.revision == r.revision
                # ids are positional
                assert list(image.terms) == r.dictionary.snapshot_terms()
                assert set(image.explicit) == set(r.input_manager.explicit)
                assert set(image.explicit) | set(image.inferred) == set(r.store)
                image.close()

    @each_execution_mode
    def test_sealed_crash_replay_matches_uninterrupted(self, execution, tmp_path):
        """Kill + recover through a columnar seal == never having crashed."""
        seed = SEEDS[0]
        script = generate_script(seed)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            for delta in script:
                r.apply(delta)
            reference = set(r.graph)
            revision = r.revision

        state = tmp_path / "v2-state"
        victim = Slider(
            fragment="rhodf", timeout=None, **execution,
            persist_dir=state,
        )
        for delta in script:
            victim.apply(delta)
        victim.snapshot()  # columnar seal + journal truncation
        extra = victim.revision - revision
        kill(victim)
        with Slider(
            fragment="rhodf", timeout=None, **execution,
            persist_dir=state,
        ) as revived:
            assert revived.revision == revision + extra
            assert set(revived.graph) == reference


class TestCrashReplayFinalState:
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_recover_final_state_all_fragments(self, tmp_path, fragment):
        seed = SEEDS[0]
        script = script_for(fragment, seed)
        with Slider(fragment=fragment, workers=0, timeout=None) as r:
            for delta in script:
                r.apply(delta)
            reference = set(r.graph)
            revision = r.revision

        state = tmp_path / f"state-{fragment}"
        victim = Slider(
            fragment=fragment, workers=0, timeout=None, persist_dir=state
        )
        for delta in script:
            victim.apply(delta)
        victim.snapshot()  # exercise snapshot+tail composition too
        extra = victim.revision - revision
        victim.apply(script[0])  # one more journaled revision past the seal
        expected = set(victim.graph)
        kill(victim)
        with Slider(
            fragment=fragment, workers=0, timeout=None, persist_dir=state
        ) as revived:
            assert revived.revision == revision + extra + 1
            assert set(revived.graph) == expected
            assert revived.recovery.replayed_records == 1

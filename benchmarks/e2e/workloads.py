"""Seeded input generators for the five end-to-end workloads.

Every generator is a pure function of ``(seed, scale)`` and returns plain
JSON-able data (N-Triples lines, request paths, request bodies): the
program under test only ever sees these generated inputs, and the same
seed gives byte-identical inputs (:func:`canonical_bytes`, asserted by
``tests/test_workloads.py``).

``scale`` multiplies *operation counts* (and, for ``bulk_closure``, the
dataset sizes, which are its operations).  The state a workload runs
against — the seed graph of the serve workloads, the base graph of
``stream_commits`` — keeps its size, because per-operation cost depends
on it; only below ``scale == 0.2`` (the tests' ``--smoke``) does it
shrink too, so a smoke run boots in a fraction of a second.
``scale == 1`` is calibrated so that each timed window lasts about
:data:`REFERENCE_SECONDS` on the commit that introduced the benchmark;
``run.py`` maps ``--seconds`` to ``scale`` linearly.

Operation mixes are *stratified*, not drawn by coin flips: a script has
exactly ``round(share * n)`` operations of each kind, shuffled by the
seed, so two seeds do the same amount of each kind of work and differ
only in which terms they touch.
"""

from __future__ import annotations

import json
import math
import random
from urllib.parse import quote

__all__ = [
    "REFERENCE_SECONDS",
    "WARMUP_SHARE",
    "WORKLOADS",
    "generate",
    "canonical_bytes",
]

#: Length of the timed window, in seconds, that ``scale == 1`` fills.
REFERENCE_SECONDS = 10.0

#: Leading share of every script that warms the program up, untimed.
WARMUP_SHARE = 0.05

EX = "http://e2e.example.org/"
RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
SUBCLASS = f"<{RDFS}subClassOf>"
SUBPROPERTY = f"<{RDFS}subPropertyOf>"
DOMAIN = f"<{RDFS}domain>"

#: Classes per partition (a subClassOf chain, C0 on top).
CLASSES = 20


# --- shared vocabulary -------------------------------------------------------
def _iri(partition: str, local: str) -> str:
    return f"<{EX}{partition}/{local}>"


def _count(base: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(base * scale))


def _state(base: int, scale: float) -> int:
    """A state size: constant from ``scale == 0.2`` up (see module docs)."""
    return max(20, round(base * min(1.0, scale * 5)))


def _stratified(rng: random.Random, counts: dict) -> list:
    """A shuffled list holding each key exactly ``counts[key]`` times."""
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def _split(total: int, shares: dict) -> dict:
    """Whole-number counts summing to ``total``, largest share absorbs
    the rounding remainder."""
    counts = {kind: int(total * share) for kind, share in shares.items()}
    largest = max(shares, key=shares.get)
    counts[largest] += total - sum(counts.values())
    return counts


def _partition(rng: random.Random, name: str, instances: int, edges: int) -> list[str]:
    """One partition of the social graph, as N-Triples lines.

    A chain of :data:`CLASSES` classes, ``instances`` individuals typed
    in the deep half of the chain and ``edges`` ``knows`` edges whose
    domain and super-property make rdfs2/rdfs7/rdfs9 all fire.
    """
    knows, related = _iri(name, "knows"), _iri(name, "related")
    lines = [
        f"{knows} {SUBPROPERTY} {related} .",
        f"{knows} {DOMAIN} {_iri(name, f'C{CLASSES // 2}')} .",
    ]
    lines += [
        f"{_iri(name, f'C{i}')} {SUBCLASS} {_iri(name, f'C{i - 1}')} ."
        for i in range(1, CLASSES)
    ]
    for i in range(instances):
        depth = rng.randrange(CLASSES // 2, CLASSES)
        lines.append(f"{_iri(name, f'n{i}')} {RDF_TYPE} {_iri(name, f'C{depth}')} .")
    for _ in range(edges):
        a, b = rng.randrange(instances), rng.randrange(instances)
        lines.append(f"{_iri(name, f'n{a}')} {knows} {_iri(name, f'n{b}')} .")
    return lines


# --- bulk_closure ------------------------------------------------------------
#: Lines parsed and committed at a time when streaming a file: ~400
#: commits of 5-15 ms in a window.  About 14 of them coincide with a full
#: garbage collection or a hash-table resize and take 2-100x as long;
#: the reported tail (the 90th percentile, 40 commits beyond it) sits
#: below them, among the ordinary commits of the slower file.  Larger
#: chunks leave fewer commits than that: at 2000 lines (~100 commits)
#: every tail percentile with ten samples beyond it is one of the pauses.
BULK_CHUNK = 500


def bulk_closure(seed: int, scale: float) -> dict:
    """The paper's Table 1 protocol: N-Triples files parsed, loaded and
    closed in-process, one after the other, no persistence, no server.

    Why: the control for every serving-side change — ``rdf`` parsing,
    ``dictionary`` encoding, ``store`` inserts and the ``reasoner`` rule
    kernels do all the work; ``persist`` and ``server`` do none.  Two
    load-bound files (BSBM, wikipedia: many triples, shallow inference)
    and one join-bound file (a subClassOf chain: few triples, quadratic
    closure) are streamed in :data:`BULK_CHUNK`-line steps.  Committing a
    chunk is the majority class, parsing one the minority class.
    """
    from repro.datasets.bsbm import generate_bsbm
    from repro.datasets.realworld import generate_wikipedia
    from repro.datasets.subclass_chains import subclass_chain

    # The chain's closure is quadratic in its length, so its length
    # scales with the square root to keep its share of the window.
    chain = max(10, round(173 * math.sqrt(scale)))
    datasets = [
        ("bsbm", generate_bsbm(_count(137_500, scale, 400), seed=seed)),
        ("wikipedia", generate_wikipedia(_count(62_500, scale, 400), seed=seed + 1)),
        ("chain", subclass_chain(chain)),
    ]
    return {
        "chunk": BULK_CHUNK,
        "files": [
            {"name": name, "lines": [t.n3() for t in triples]} for name, triples in datasets
        ],
    }


# --- stream_commits ----------------------------------------------------------
def stream_commits(seed: int, scale: float) -> dict:
    """A durable in-process engine fed small deltas by one caller.

    Why: the paper's incremental claim without transport.  The
    ``reasoner`` delta path, DRed, standing-subscription maintenance and
    the ``persist`` write-ahead log, snapshot and recovery carry the
    time.  Asserts and retracts use the same engine differently (delta
    joins against re-derivation over the whole store), so a gain for one
    that costs the other shows: asserts are the majority class, the
    single-triple retractions the minority class.
    """
    rng = random.Random(seed)
    part = "s"
    instances = edges = _state(400, scale)
    base = _partition(rng, part, instances, edges)
    knows = _iri(part, "knows")
    subscriptions = [
        f"?x {RDF_TYPE} {_iri(part, 'C0')}",
        f"?x {RDF_TYPE} {_iri(part, f'C{CLASSES - 1}')}",
        f"?x {knows} ?y . ?y {RDF_TYPE} {_iri(part, f'C{CLASSES - 2}')}",
        f"?x {_iri(part, 'related')} ?y",
    ]
    asserts = _count(1625, scale, 40)
    # One single-triple retraction per ~65 asserts (never fewer than
    # two), evenly spaced over the first 90 % of the script; one explicit
    # compaction at 95 %, so every reopen loads a snapshot and replays a
    # short, assert-only changelog tail.
    retracts = max(2, asserts // 65)
    retract_after = {asserts * 9 * (k + 1) // (10 * retracts) for k in range(retracts)}
    snapshot_after = asserts * 19 // 20
    # Delta sizes 2..10, each size equally often, order seeded.
    sizes = _stratified(rng, _split(asserts, {n: 1 / 9 for n in range(2, 11)}))
    # Retractable: the base graph's type assertions (one kind of triple,
    # so every retraction sets DRed the same kind of problem).
    retractable = base[CLASSES + 1:CLASSES + 1 + instances]
    rng.shuffle(retractable)
    ops: list[dict] = []
    for index, size in enumerate(sizes, start=1):
        subject = _iri(part, f"w{index}")
        lines = [f"{subject} {RDF_TYPE} {_iri(part, f'C{rng.randrange(CLASSES // 2, CLASSES)}')} ."]
        targets = rng.sample(range(instances), size - 1)
        lines += [f"{subject} {knows} {_iri(part, f'n{t}')} ." for t in targets]
        ops.append({"assert": lines})
        if index in retract_after:
            ops.append({"retract": [retractable.pop()]})
        if index == snapshot_after:
            ops.append({"snapshot": True})
    return {
        "base": base,
        "subscriptions": subscriptions,
        "ops": ops,
        "reopens": 5,
    }


# --- serve_* -----------------------------------------------------------------
#: The seed graph: two equal partitions.  ``inv`` is never written to, so
#: answers over it can be checked exactly; ``live`` takes every write.
SEED_INSTANCES = 900

#: Read kinds and their exact share of a read pool.  The cheap kinds
#: (point lookup, ask, related) hold 80 %, so the median read is a cheap
#: one and the 95th percentile a join, whatever the seed.
READ_KINDS = {"point": 0.50, "ask": 0.20, "related": 0.10, "join": 0.20}
POOL_SIZE = 200


def _select(text: str, limit: int | None = None, tenant: str | None = None) -> str:
    path = "/select?query=" + quote(text, safe="")
    if limit is not None:
        path += f"&limit={limit}"
    if tenant is not None:
        path += f"&tenant={tenant}"
    return path


def _read_pool(rng: random.Random, instances: int) -> list[dict]:
    """~200 read requests, half per partition, kinds in exact shares.

    ``weight`` is a zipf rank weight; ranks are dealt to the kinds
    round-robin so each kind's total weight does not depend on the seed.
    """
    pool: list[dict] = []
    for part in ("inv", "live"):
        counts = _split(POOL_SIZE // 2, READ_KINDS)
        for kind, n in counts.items():
            for _ in range(n):
                node = _iri(part, f"n{rng.randrange(instances)}")
                if kind == "point":
                    path = _select(f"{node} {RDF_TYPE} ?c")
                elif kind == "ask":
                    cls = _iri(part, f"C{rng.randrange(CLASSES)}")
                    path = "/ask?query=" + quote(f"{node} {RDF_TYPE} {cls}", safe="")
                elif kind == "related":
                    path = _select(f"{node} {_iri(part, 'related')} ?y")
                else:
                    # Members of the second-deepest class (a fifth of the
                    # partition, half of them by inference) joined to an
                    # edge pattern: every join costs about the same.
                    cls = _iri(part, f"C{CLASSES - 2}")
                    edge = rng.choice([
                        f"?x {_iri(part, 'knows')} ?y", f"?y {_iri(part, 'knows')} ?x",
                        f"?x {_iri(part, 'related')} ?y",
                    ])
                    path = _select(f"?x {RDF_TYPE} {cls} . {edge}", limit=25)
                pool.append({"kind": kind, "partition": part, "path": path})
    # Interleave kinds in a fixed order, then rank: rank r has weight
    # 1/(r+1), and which kind sits at which rank is the same every seed.
    by_kind = {kind: [q for q in pool if q["kind"] == kind] for kind in READ_KINDS}
    for queries in by_kind.values():
        rng.shuffle(queries)
    ranked: list[dict] = []
    while any(by_kind.values()):
        for kind in READ_KINDS:
            if by_kind[kind]:
                ranked.append(by_kind[kind].pop())
    for rank, query in enumerate(ranked):
        query["weight"] = 1.0 / (rank + 1)
    return ranked


def _write_body(part: str, subject: str, rng: random.Random, instances: int) -> str:
    return json.dumps({
        "assert": [
            f"{subject} {RDF_TYPE} {_iri(part, f'C{rng.randrange(CLASSES // 2, CLASSES)}')} .",
            f"{subject} {_iri(part, 'knows')} {_iri(part, f'n{rng.randrange(instances)}')} .",
        ]
    })


def _mixed_script(rng: random.Random, connection: int, ops: int, write_share: float,
                  pool: list[dict], instances: int) -> list[dict]:
    """One connection's request script over the default graph."""
    writes = round(ops * write_share)
    kinds = _stratified(rng, {"write": writes, "read": ops - writes})
    picks = rng.choices(range(len(pool)), weights=[q["weight"] for q in pool], k=ops)
    script: list[dict] = []
    written = 0
    for kind, pick in zip(kinds, picks):
        if kind == "write":
            subject = _iri("live", f"w{connection}x{written}")
            written += 1
            script.append({
                "method": "POST", "path": "/apply", "class": "write",
                "body": _write_body("live", subject, rng, instances),
            })
        else:
            script.append({"method": "GET", "path": pool[pick]["path"],
                           "class": "read", "pool": pick})
    return script


def _serve(rng: random.Random, scale: float, ops: int, write_share: float,
           connections: int = 2) -> dict:
    """Seed graph, read pool and ``connections`` default-graph scripts."""
    instances = _state(SEED_INSTANCES, scale)
    seed_lines = _partition(rng, "inv", instances, instances)
    seed_lines += _partition(rng, "live", instances, instances)
    pool = _read_pool(rng, instances)
    scripts = [_mixed_script(rng, c, ops, write_share, pool, instances)
               for c in range(connections)]
    return {"seed": seed_lines, "pool": pool, "scripts": scripts, "server_args": []}


def serve_read_heavy(seed: int, scale: float) -> dict:
    """95 % ``GET /select`` + ``/ask``, 5 % two-triple ``POST /apply``.

    Why: the read path end to end — ``server.http`` edge, ``server.wire``
    parsing, planner and ``store`` solve, term decode and
    ``server.views`` lookups dominate.  The few writes keep the read
    views advancing, so reads that collide with a commit sit in the
    tail.  Reads are the majority class, writes the minority class.
    """
    return _serve(random.Random(seed), scale, _count(2125, scale, 60), 0.05)


def serve_write_heavy(seed: int, scale: float) -> dict:
    """80 % ``POST /apply``, 20 % reads from the same pool, same server.

    Why: the same layers used the other way — ``server.coalescer`` wait,
    ``reasoner.apply``, WAL append + fsync and ``ViewRegistry.advance``
    per commit dominate (the plain ``WriteCoalescer`` pipeline).  A
    read-view or coalescer change that helps reads but taxes the commit,
    or the reverse, shows as a split between this and
    ``serve_read_heavy``.  Writes are the majority class here.
    """
    return _serve(random.Random(seed), scale, _count(850, scale, 40), 0.80)


TENANTS = 16
TENANT_CLASSES = 5


def serve_sharded_tenants(seed: int, scale: float) -> dict:
    """``serve --shards 2 --tenancy``: connection 0 drives the default
    graph, connection 1 drives 16 zipf-weighted tenants; half of each
    script writes.

    Why: the only cover of the two other commit pipelines —
    ``ShardedCoalescer`` → ``ShardedReasoner.apply_many`` and admission
    → ``FairShareCoalescer`` → engine-per-tenant — and of the
    tenant-conditional HTTP paths.  Majority class: default-graph
    (sharded) writes; minority class: tenant writes — one per pipeline,
    so neither hides behind the other.
    """
    rng = random.Random(seed)
    ops = _count(625, scale, 48)
    inputs = _serve(rng, scale, ops, 0.50, connections=1)
    inputs["server_args"] = ["--shards", "2", "--tenancy"]
    names = [f"t{i:02d}" for i in range(TENANTS)]
    weights = [1.0 / (rank + 1) for rank in range(TENANTS)]
    # Every tenant's first request provisions it with a small TBox; those
    # requests open the script and fall inside the warm-up.
    script: list[dict] = []
    for name in names:
        tbox = [
            f"{_iri(name, f'C{i}')} {SUBCLASS} {_iri(name, f'C{i - 1}')} ."
            for i in range(1, TENANT_CLASSES)
        ]
        tbox.append(f"{_iri(name, 'n0')} {RDF_TYPE} {_iri(name, f'C{TENANT_CLASSES - 1}')} .")
        script.append({
            "method": "POST", "path": "/apply", "class": "provision", "tenant": name,
            "body": json.dumps({"assert": tbox, "tenant": name}),
        })
    # A tenant request is quicker than a sharded one; 1.8 times as many
    # keep both connections busy for the whole window.
    body_ops = max(round(ops * 1.8), len(script) * 2) - len(script)
    kinds = _stratified(rng, {"write": body_ops // 2, "read": body_ops - body_ops // 2})
    tenants = rng.choices(names, weights=weights, k=body_ops)
    written = dict.fromkeys(names, 1)
    for kind, name in zip(kinds, tenants):
        if kind == "write":
            subject = _iri(name, f"n{written[name]}")
            target = _iri(name, f"n{rng.randrange(written[name])}")
            written[name] += 1
            cls = _iri(name, f"C{rng.randrange(TENANT_CLASSES)}")
            body = {"tenant": name, "assert": [
                f"{subject} {RDF_TYPE} {cls} .",
                f"{subject} {_iri(name, 'knows')} {target} .",
            ]}
            script.append({"method": "POST", "path": "/apply", "class": "tenant_write",
                           "tenant": name, "body": json.dumps(body)})
        else:
            text = f"?x {RDF_TYPE} {_iri(name, 'C0')}"
            script.append({"method": "GET", "path": _select(text, limit=25, tenant=name),
                           "class": "tenant_read", "tenant": name})
    inputs["scripts"].append(script)
    return inputs


WORKLOADS = {
    "bulk_closure": bulk_closure,
    "stream_commits": stream_commits,
    "serve_read_heavy": serve_read_heavy,
    "serve_write_heavy": serve_write_heavy,
    "serve_sharded_tenants": serve_sharded_tenants,
}


def generate(name: str, seed: int, scale: float = 1.0) -> dict:
    """The inputs of workload ``name`` for ``seed`` at ``scale``."""
    return WORKLOADS[name](seed, scale)


def canonical_bytes(inputs: dict) -> bytes:
    """A canonical serialization: equal inputs give equal bytes."""
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode("utf-8")

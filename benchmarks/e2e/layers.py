"""Per-layer figures from the spans of a traced pass.

Names are ``<module>.<metric>``; the README's interaction table says
which end-to-end metric each should move, and on which workload.  A layer
the workload never enters reads 0.
"""

from __future__ import annotations

import trace as e2e_trace  # this directory's trace.py

__all__ = ["from_spans", "unattributed_share"]

#: Spans the drain threads open at top level while a commit is running.
COMMIT_SPANS = ("reasoner.apply", "sharding.apply_many", "server.views.advance")


def _relabel(spans: list[dict]) -> None:
    """Changelog replay runs through ``Slider.apply``; under a reopen it
    is recovery work, not commit work: the replayed applies become
    ``persist.recover_replay`` and everything below a reopen leaves the
    commit-path layers (``recover/...``)."""
    recovering = {span["id"] for span in spans if span["name"] == "persist.reopen"}
    for span in spans:  # parents precede their children in recording order
        if span["parent"] in recovering:
            recovering.add(span["id"])
            if span["name"] == "reasoner.apply":
                span["name"] = "persist.recover_replay"
            elif span["name"] != "persist.recover_load":
                span["name"] = "recover/" + span["name"]


def _shard_skew(spans: list[dict]) -> float:
    """Mean over sharded commits of (slowest shard's sub-commit time) /
    (mean shard's): 1.0 is a perfectly even split."""
    applies = [s for s in spans if s["name"] == "reasoner.apply"]
    skews = []
    for commit in (s for s in spans if s["name"] == "sharding.apply_many"):
        engines = dict.fromkeys(commit["tag"], 0.0)
        for span in applies:
            if span["tag"] in engines and span["start"] >= commit["start"] \
                    and span["end"] <= commit["end"]:
                engines[span["tag"]] += span["end"] - span["start"]
        busy = [seconds for seconds in engines.values() if seconds]
        if busy:
            skews.append(max(busy) / (sum(busy) / len(busy)))
    return sum(skews) / len(skews) if skews else 0.0


def from_spans(spans: list[dict], requests: dict[str, float]) -> dict[str, float]:
    """Every span-derived layer figure.

    ``requests`` maps a request id to its client-observed latency in
    seconds (empty for the in-process workloads).
    """
    _relabel(spans)
    layers = e2e_trace.rollup(spans)
    names = {span["id"]: span["name"] for span in spans}

    def total(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    # A writer's wait minus the part a commit was actually running is
    # queueing: the coalescing tick, the drain thread's wake-up, the
    # other pipeline holding the interpreter.
    committing = e2e_trace.overlap_with(
        [(s["start"], s["end"]) for s in spans
         if s["name"] in COMMIT_SPANS and s["parent"] is None]
    )
    waits = {"server.service.apply": 0.0, "tenancy.apply": 0.0}
    for span in spans:
        if span["name"] == "server.coalescer.wait" and names.get(span["parent"]) in waits:
            waits[names[span["parent"]]] += (
                span["end"] - span["start"] - committing(span["start"], span["end"])
            )

    handled = {s["request"]: s["end"] - s["start"] for s in spans
               if s["name"] == "server.http.handler" and s["request"] in requests}
    edge = sum(requests[request] - seconds for request, seconds in handled.items())

    return {
        "rdf.parse_s": total("rdf.parse"),
        "dictionary.encode_s": total("dictionary.encode"),
        # execute_plan minus the join it delegates is the loop that
        # decodes every binding of every solution back into terms.
        "dictionary.decode_s": own("store.execute"),
        "store.add_all_s": total("store.add_all"),
        "store.plan_s": total("store.plan"),
        "store.solve_s": total("store.solve"),
        "reasoner.apply_s": total("reasoner.apply"),
        "reasoner.apply_self_s": own("reasoner.apply"),
        "reasoner.dred_s": total("reasoner.dred"),
        "reasoner.subscription_s": total("reasoner.subscription"),
        "persist.journal_commit_s": total("persist.journal_commit"),
        "persist.snapshot_write_s": total("persist.snapshot_write"),
        "persist.recover_load_s": total("persist.recover_load"),
        "persist.recover_replay_s": total("persist.recover_replay"),
        "server.wire.parse_s": total("server.wire.parse"),
        "server.wire.render_s": total("server.wire.render"),
        "server.views.advance_s": total("server.views.advance"),
        "server.views.lookup_s": total("server.views.lookup"),
        "server.coalescer.wait_s": waits["server.service.apply"],
        "server.service.apply_s": total("server.service.apply"),
        "server.http.handler_s": total("server.http.handler"),
        "server.http.handler_self_s": own("server.http.handler"),
        "server.http.edge_s": edge,
        "sharding.apply_many_s": total("sharding.apply_many"),
        "sharding.shard_skew": _shard_skew(spans),
        "tenancy.admit_s": total("tenancy.admit"),
        "tenancy.queue_wait_s": waits["tenancy.apply"],
    }


def unattributed_share(spans: list[dict], wall: float, requests: dict[str, float],
                       client_cpu: float, caller: int) -> float:
    """The share of end-to-end wall no span accounts for.

    In-process (no ``requests``): the window minus the top-level spans of
    the ``caller`` thread.  Serving: the clients' summed latency minus
    the server's request-parsing and handler spans and the clients' own
    CPU — what is left is sockets, scheduling and waiting for the
    interpreter lock.
    """
    if requests:
        wall = sum(requests.values())
        covered = client_cpu + sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "server.http.parse_request"
            or (s["name"] == "server.http.handler" and s["request"] in requests)
        )
    else:
        covered = sum(s["end"] - s["start"] for s in spans
                      if s["parent"] is None and s["thread"] == caller)
    return max(0.0, 1.0 - covered / wall) if wall else 0.0

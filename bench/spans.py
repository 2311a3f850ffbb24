"""Self-time attribution over the span files the program already writes.

Each request walk is a chain of hop spans (``repro.obs.spans``): a hop's
``wall`` covers its scheme steps (``lookup``/``decide``/``deliver``),
the time it waited on its upstream call (``upstream``) and whatever is
left -- the hop's own frame handling.  The upstream wait in turn covers
the child hop's ``wall`` plus everything between the two hops: codec,
transport, scheduling.  So per hop

    self = wall - upstream - steps
    link = parent.upstream - child.wall

and the root span's wall is exactly the sum of every hop's steps, self
and link below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.obs.spans import Span, SpanTree


@dataclass
class Attribution:
    """Totals (seconds) over the walk spans of a set of traces."""

    requests: int = 0
    hops: int = 0
    links: int = 0
    lookup: float = 0.0
    decide: float = 0.0
    deliver: float = 0.0
    upstream: float = 0.0
    self_time: float = 0.0
    link: float = 0.0
    root_wall: float = 0.0

    def per_hop_us(self, total: float) -> float:
        return total / self.hops * 1e6 if self.hops else 0.0

    @property
    def hops_per_request(self) -> float:
        return self.hops / self.requests if self.requests else 0.0

    @property
    def link_us(self) -> float:
        return self.link / self.links * 1e6 if self.links else 0.0

    @property
    def root_wall_us(self) -> float:
        return self.root_wall / self.requests * 1e6 if self.requests else 0.0

    @property
    def step_and_self_us(self) -> float:
        """Per-hop cost excluding the link: steps plus self time."""
        return self.per_hop_us(
            self.lookup + self.decide + self.deliver + self.self_time
        )


def _steps(span: Span) -> float:
    return (span.lookup or 0.0) + (span.decide or 0.0) + (span.deliver or 0.0)


def attribute(trees: Iterable[SpanTree], since: float = 0.0) -> Attribution:
    """Fold the walk spans of every trace whose request time is at or
    after ``since`` (trace time, so a warm-up prefix can be left out)."""
    out = Attribution()
    for tree in trees:
        walks: List[Span] = [s for s in tree.spans if s.op == "walk"]
        if not walks or any(s.wall is None for s in walks):
            continue
        if min(s.time for s in walks if s.time is not None) < since:
            continue
        out.requests += 1
        for span in walks:
            upstream = span.upstream or 0.0
            out.hops += 1
            out.lookup += span.lookup or 0.0
            out.decide += span.decide or 0.0
            out.deliver += span.deliver or 0.0
            out.upstream += upstream
            out.self_time += span.wall - upstream - _steps(span)
            children = [c for c in span.children if c.op == "walk"]
            if children:
                out.links += 1
                out.link += upstream - sum(c.wall for c in children)
        for root in tree.roots:
            if root.op == "walk":
                out.root_wall += root.wall
    return out


def layer_metrics(a: Attribution) -> Dict[str, float]:
    """The ``node.*`` per-layer metrics of one attribution."""
    per_hop = a.step_and_self_us + a.link_us
    return {
        "node.lookup_us": a.per_hop_us(a.lookup),
        "node.decide_us": a.per_hop_us(a.decide),
        "node.deliver_us": a.per_hop_us(a.deliver),
        "node.upstream_wait_us": a.per_hop_us(a.upstream),
        "node.self_us": a.per_hop_us(a.self_time),
        "node.link_us": a.link_us,
        "node.hops_per_req": a.hops_per_request,
        # Hop count x per-hop cost: the model that must predict the
        # measured p50 on the single-shard TCP workload.
        "node.model_lat_ms": a.hops_per_request * per_hop / 1e3,
    }

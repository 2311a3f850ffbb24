import pytest

from bench import spans
from repro.obs.spans import reconstruct_traces


def _span(span, parent, index, wall, upstream=None, **steps):
    event = {
        "kind": "span", "trace": "t1", "span": span, "parent": parent,
        "op": "walk", "node": index, "index": index, "t": 5.0,
        "wall": wall,
    }
    if upstream is not None:
        event["upstream"] = upstream
    event.update(steps)
    return event


def three_hop_trace():
    """Ingress (0) -> middle (1) -> serving hop (2), times in seconds.

    hop 2: wall 10, decide 4                      -> self 6
    hop 1: wall 30, upstream 16, lookup 2, deliver 3 -> self 9, link 6
    hop 0: wall 50, upstream 38, lookup 1, deliver 5 -> self 6, link 8
    """
    return [
        _span("s2", "s1", 2, 10.0, decide=4.0),
        _span("s0", None, 0, 50.0, upstream=38.0, lookup=1.0, deliver=5.0),
        _span("s1", "s0", 1, 30.0, upstream=16.0, lookup=2.0, deliver=3.0),
    ]


def test_self_time_attribution_on_a_three_hop_tree():
    trees = reconstruct_traces(three_hop_trace()).values()
    a = spans.attribute(trees)
    assert (a.requests, a.hops, a.links) == (1, 3, 2)
    assert a.lookup == 3.0 and a.decide == 4.0 and a.deliver == 8.0
    assert a.upstream == 54.0
    assert a.self_time == pytest.approx(6.0 + 9.0 + 6.0)
    assert a.link == pytest.approx(6.0 + 8.0)
    assert a.root_wall == 50.0
    # The identity the ledger rests on: the root's wall is every hop's
    # steps and self time plus every link beneath it.
    assert a.lookup + a.decide + a.deliver + a.self_time + a.link == (
        pytest.approx(a.root_wall)
    )


def test_layer_metrics_are_per_hop_microseconds():
    a = spans.attribute(reconstruct_traces(three_hop_trace()).values())
    layers = spans.layer_metrics(a)
    assert layers["node.hops_per_req"] == 3
    assert layers["node.self_us"] == pytest.approx(7.0e6)
    assert layers["node.link_us"] == pytest.approx(7.0e6)
    assert layers["node.lookup_us"] == pytest.approx(1.0e6)


def test_warmup_traces_and_inv_spans_are_left_out():
    events = three_hop_trace() + [
        {"kind": "span", "trace": "tinv.1", "span": "s9", "parent": None,
         "op": "inv", "node": 3, "wall": 1.0},
    ]
    trees = list(reconstruct_traces(events).values())
    assert spans.attribute(trees, since=6.0).requests == 0
    assert spans.attribute(trees, since=5.0).requests == 1

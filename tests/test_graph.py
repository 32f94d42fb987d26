from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import attribution_classes

from delegauth.errors import (
    AmbiguousAttribution,
    BrokenChain,
    DuplicateEvent,
    InvariantViolation,
    NoAttributableInput,
    UnattributableHandoff,
)
from delegauth.graph import GraphStore, InputKey, PathKey
from delegauth.model import HandoffEvent, InputEvent, OperationRequest, Registry, WidgetKind

WINDOW = 150


def make_store() -> GraphStore:
    return GraphStore(window_ms=WINDOW)


def chain_registry(n: int) -> Registry:
    reg = Registry()
    for i in range(n):
        reg.register_program(f"p{i}", f"M{i}")
    reg.register_widget("go", WidgetKind.VOICE)
    reg.register_sensor("Camera")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    return reg


def test_record_input_creates_rooted_graph(basic_registry):
    store = make_store()
    pid = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    root = store.record_input(InputEvent("i1", wid, pid, 0))
    g = store.live[root]
    assert g.root.event_id == "i1"
    assert g.members == {pid: (0, None)} and g.events == []


def test_duplicate_event_id_rejected(basic_registry):
    store = make_store()
    pid = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, pid, 0))
    with pytest.raises(DuplicateEvent):
        store.record_input(InputEvent("i1", wid, pid, 5))


def test_duplicate_ids_are_checked_among_live_graphs_only(basic_registry):
    store = make_store()
    pid = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, pid, 0))
    store.record_request(OperationRequest("r1", pid, "capture_picture", "Camera", 5))
    with pytest.raises(DuplicateEvent):
        store.record_request(OperationRequest("r1", pid, "capture_picture", "Camera", 6))
    assert store.expire_graph("i1", WINDOW + 1)
    # the store keeps no id of a sealed root: its id may root a new graph
    assert store.record_input(InputEvent("i1", wid, pid, WINDOW + 2)) == "i1"
    assert store.live["i1"].root.t == WINDOW + 2


def test_repeat_input_of_a_dead_root_is_unattributable(basic_registry):
    store = make_store()
    pid = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    root = store.record_input(InputEvent("i1", wid, pid, 0))
    with pytest.raises(UnattributableHandoff, match="names dead root"):
        store.record_repeat_input(root, InputEvent("i2", wid, pid, WINDOW + 1))
    assert store.expire_graph(root, WINDOW + 1)
    with pytest.raises(UnattributableHandoff, match="names dead root"):
        store.record_repeat_input(root, InputEvent("i3", wid, pid, WINDOW + 1))


def test_repeat_input_with_another_key_is_an_invariant_violation(basic_registry):
    store = make_store()
    alpha = basic_registry.program_by_name("Alpha").id
    beta = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id
    root = store.record_input(InputEvent("i1", wid, alpha, 0))
    with pytest.raises(InvariantViolation, match="repeat input key does not match root"):
        store.record_repeat_input(root, InputEvent("i2", wid, beta, 10))
    assert store.live[root].events == []


def test_ten_inputs_make_ten_independent_graphs(basic_registry):
    store = make_store()
    pid = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    for i in range(10):
        store.record_input(InputEvent(f"i{i}", wid, pid, i * 1000))
    assert list(store.live) == [f"i{i}" for i in range(10)]


def test_handoff_attaches_and_extends_reachability(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    store.record_handoff(HandoffEvent("h1", a, b, 5, provenance="i1"))
    assert store.live_memberships(b, 5) == {"i1"}
    g = store.live["i1"]
    assert g.members == {a: (0, None), b: (5, a)}
    assert [h.event_id for h in g.events] == ["h1"]


def test_handoff_without_live_provenance_is_unattributable(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id
    with pytest.raises(UnattributableHandoff):
        store.record_handoff(HandoffEvent("h0", a, b, 5, provenance=None))
    store.record_input(InputEvent("i1", wid, a, 0))
    assert store.expire_graph("i1", WINDOW + 1)
    with pytest.raises(UnattributableHandoff):
        store.record_handoff(HandoffEvent("h1", a, b, WINDOW + 2, provenance="i1"))


def test_handoff_from_unreached_program_breaks_chain(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    c = basic_registry.program_by_name("Gamma").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    with pytest.raises(BrokenChain):
        store.record_handoff(HandoffEvent("h1", b, c, 5, provenance="i1"))
    # source reached, but not strictly before the handoff timestamp
    store.record_handoff(HandoffEvent("h2", a, b, 5, provenance="i1"))
    with pytest.raises(BrokenChain):
        store.record_handoff(HandoffEvent("h3", b, c, 5, provenance="i1"))


def test_merge_and_cycle_are_rejected_as_ambiguous(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    c = basic_registry.program_by_name("Gamma").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    store.record_handoff(HandoffEvent("h1", a, b, 5, provenance="i1"))
    store.record_handoff(HandoffEvent("h2", a, c, 6, provenance="i1"))
    with pytest.raises(AmbiguousAttribution):  # second parent for c
        store.record_handoff(HandoffEvent("h3", b, c, 8, provenance="i1"))
    with pytest.raises(AmbiguousAttribution):  # cycle back to the receiver
        store.record_handoff(HandoffEvent("h4", b, a, 9, provenance="i1"))
    # re-traversal of the existing parent edge is a repeat, not a merge
    store.record_handoff(HandoffEvent("h5", a, b, 10, provenance="i1"))


def test_chain_of_ten_handoffs_yields_twelve_edge_path():
    reg = chain_registry(11)
    store = GraphStore(window_ms=WINDOW)
    pids = list(reg.programs)
    wid = reg.resolve_widget("go").id
    store.record_input(InputEvent("i1", wid, pids[0], 0))
    for j in range(10):
        store.record_handoff(HandoffEvent(f"h{j}", pids[j], pids[j + 1], j + 1, provenance="i1"))
    r = OperationRequest("r1", pids[10], "capture_picture", "Camera", 20)
    store.record_request(r)
    key = store.compute_path(r)
    assert key.edge_count == 12
    # independently built expected chain: receiver first, requester last
    assert key.programs == tuple(pids)
    assert key.widget_id == wid
    assert (key.op, key.sensor) == ("capture_picture", "Camera")


def test_request_without_reachability_denied(basic_registry):
    store = make_store()
    c = basic_registry.program_by_name("Gamma").id
    with pytest.raises(NoAttributableInput) as exc:
        store.record_request(OperationRequest("r1", c, "capture_picture", "Camera", 5))
    assert not exc.value.expired


def test_request_after_expiry_flags_expired(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    assert store.expire_graph("i1", WINDOW + 1)
    with pytest.raises(NoAttributableInput) as exc:
        store.record_request(OperationRequest("r1", a, "capture_picture", "Camera", WINDOW + 5))
    assert exc.value.expired


def test_sealing_drops_the_roots_requests_from_the_index(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    other = basic_registry.resolve_widget("other thing").id
    store.record_input(InputEvent("i1", basic_registry.resolve_widget("do the thing").id, a, 0))
    store.record_input(InputEvent("i2", other, b, 100))
    sealed = OperationRequest("r1", a, "capture_picture", "Camera", 4)
    live = OperationRequest("r2", b, "capture_picture", "Camera", 104)
    store.record_request(sealed)
    store.record_request(live)
    assert store.expire_graph("i1", WINDOW + 1)
    assert not store.expire_graph("i2", WINDOW + 1)  # still live
    assert set(store.live) == {"i2"}
    assert {root for root, _ in store._request_index.values()} == {"i2"}
    assert store.compute_path(live) == PathKey(other, (b,), "capture_picture", "Camera")
    for r in (sealed, OperationRequest("r9", b, "capture_picture", "Camera", 110)):
        with pytest.raises(NoAttributableInput):
            store.compute_path(r)


def test_two_concurrent_roots_reaching_requester_are_ambiguous(basic_registry):
    # simulates a scheduler-off interleaving
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    c = basic_registry.program_by_name("Gamma").id
    w1 = basic_registry.resolve_widget("do the thing").id
    w2 = basic_registry.resolve_widget("other thing").id
    store.record_input(InputEvent("i1", w1, a, 0))
    store.record_input(InputEvent("i2", w2, b, 10))
    store.record_handoff(HandoffEvent("h1", a, c, 20, provenance="i1"))
    store.record_handoff(HandoffEvent("h2", b, c, 30, provenance="i2"))
    with pytest.raises(AmbiguousAttribution):
        store.record_request(OperationRequest("r1", c, "capture_picture", "Camera", 40))


def test_direct_request_has_empty_handoff_list(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    r = OperationRequest("r1", a, "capture_picture", "Camera", 4)
    store.record_request(r)
    key = store.compute_path(r)
    assert key.programs == (a,) and key.widget_id == wid
    assert key.edge_count == 2


def test_path_key_excludes_timestamps(basic_registry):
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id

    def replay(base: int) -> PathKey:
        store = make_store()
        store.record_input(InputEvent(f"i{base}", wid, a, base))
        store.record_handoff(HandoffEvent(f"h{base}", a, b, base + 5, provenance=f"i{base}"))
        r = OperationRequest(f"r{base}", b, "capture_picture", "Camera", base + 9)
        store.record_request(r)
        return store.compute_path(r)

    assert replay(0) == replay(5000)


def test_multiple_leaves_share_input_key(basic_registry):
    basic_registry.register_sensor("Microphone")
    basic_registry.register_operation("record_audio", ["Microphone"], "record audio")
    basic_registry.register_sensor("GpsReceiver")
    basic_registry.register_operation("read_location", ["GpsReceiver"], "access")
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    store.record_handoff(HandoffEvent("h1", a, b, 5, provenance="i1"))
    keys = []
    for n, (op, sensor) in enumerate(
        [("capture_picture", "Camera"), ("record_audio", "Microphone"), ("read_location", "GpsReceiver")]
    ):
        r = OperationRequest(f"r{n}", b, op, sensor, 8 + n)
        store.record_request(r)
        keys.append(store.compute_path(r))
    assert len(set(keys)) == 3
    assert len({k.input_key for k in keys}) == 1


def test_path_key_round_trips_through_dict():
    key = PathKey("go", ("P1", "P2"), "capture_picture", "Camera")
    assert PathKey.from_dict(key.to_dict()) == key
    ik = InputKey("go", "P1")
    assert InputKey.from_dict(ik.to_dict()) == ik


def test_window_boundary_closed_interval(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    assert not store.expire_graph("i1", WINDOW)  # still live at exactly t+window
    assert list(store.live) == ["i1"]
    assert store.expire_graph("i1", WINDOW + 1)
    assert store.live == {}
    assert "i1" in store.sealed


def test_thousand_roots_expire_and_evict(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    for i in range(1000):
        t = i * (WINDOW + 1)  # each root's window has closed when the next one opens
        store.record_input(InputEvent(f"i{i}", wid, a, t))
        store.record_request(OperationRequest(f"r{i}", a, "capture_picture", "Camera", t + 1))
    assert all(store.expire_graph(f"i{i}", 1000 * (WINDOW + 1)) for i in range(1000))
    assert len(store.sealed) == 1000
    # nothing live is left: no graph, membership or request
    assert store.live == {} and store.membership == {}
    assert store._request_index == {}


def test_serialized_sealed_graph_survives_eviction(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    wid = basic_registry.resolve_widget("do the thing").id
    store.record_input(InputEvent("i1", wid, a, 0))
    live_blob = store.serialize_graph("i1")
    assert store.expire_graph("i1", WINDOW + 1)
    assert store.serialize_graph("i1") == live_blob


def test_snapshot_bytes_are_pinned():
    # program ids are not checked against a registry here; P10 is there so that the
    # edge ("P1", "P10") sorts before ("P10", "P2") as a tuple but after it as a string
    store = make_store()
    store.record_input(InputEvent("i1", "go", "P1", 0))
    store.record_repeat_input("i1", InputEvent("i2", "go", "P1", 3))
    store.record_handoff(HandoffEvent("h1", "P1", "P10", 5, provenance="i1"))
    store.record_handoff(HandoffEvent("h2", "P10", "P2", 8, provenance="i1"))
    store.record_repeat_input("i1", InputEvent("i3", "go", "P1", 9))
    store.record_handoff(HandoffEvent("h3", "P1", "P10", 10, provenance="i1"))
    store.record_request(OperationRequest("r1", "P2", "capture_picture", "Camera", 12))
    store.record_request(OperationRequest("r2", "P10", "record_audio", "Microphone", 13))
    store.record_request(OperationRequest("r3", "P2", "capture_picture", "Camera", 14))
    live_blob = store.serialize_graph("i1")
    assert live_blob == (
        b'{"deadline":150,'
        b'"handoffs":{"P10>P2":[["h2",8]],"P1>P10":[["h1",5],["h3",10]]},'
        b'"inputs":[["i1",0],["i2",3],["i3",9]],'
        b'"requests":{"P10|record_audio|Microphone":[["r2",13]],'
        b'"P2|capture_picture|Camera":[["r1",12],["r3",14]]},'
        b'"root":{"event_id":"i1","program":"P1","t":0,"widget":"go"}}'
    )
    assert store.expire_graph("i1", WINDOW + 1)
    assert store.sealed["i1"] == live_blob
    assert store.serialize_graph("i1") == live_blob


# -- property tests -------------------------------------------------------------


def test_delivery_before_the_event_is_an_invariant_violation(basic_registry):
    store = make_store()
    a = basic_registry.program_by_name("Alpha").id
    b = basic_registry.program_by_name("Beta").id
    wid = basic_registry.resolve_widget("do the thing").id
    with pytest.raises(InvariantViolation):
        store.record_input(InputEvent("i1", wid, a, 10), delivered_at=9)
    assert store.live == {} and store.membership == {}
    store.record_input(InputEvent("i1", wid, a, 10), delivered_at=10)
    with pytest.raises(InvariantViolation):
        store.record_handoff(HandoffEvent("h1", a, b, 20, provenance="i1"), delivered_at=19)
    assert store.live["i1"].members == {a: (10, None)} and store.live["i1"].events == []


# -- property tests -------------------------------------------------------------


@st.composite
def path_timestamps(draw):
    n_handoffs = draw(st.integers(min_value=0, max_value=4))
    # at most 5 x 30 ms, so the request still falls inside the root's window
    deltas = draw(
        st.lists(st.integers(min_value=1, max_value=30), min_size=n_handoffs + 1, max_size=n_handoffs + 1)
    )
    start = draw(st.integers(min_value=0, max_value=10_000))
    return start, deltas


def _record_chain(registry, start: int, deltas: list[int]) -> PathKey:
    """Record p0 -> p1 -> ... in a fresh store, one hop per delta but the last, and key the request."""
    pids = list(registry.programs)
    store = make_store()
    store.record_input(InputEvent(f"i{start}", registry.resolve_widget("go").id, pids[0], start))
    t = start
    for j, d in enumerate(deltas[:-1]):
        t += d
        store.record_handoff(HandoffEvent(f"h{start}-{j}", pids[j], pids[j + 1], t, provenance=f"i{start}"))
    r = OperationRequest(f"r{start}", pids[len(deltas) - 1], "capture_picture", "Camera", t + deltas[-1])
    store.record_request(r)
    return store.compute_path(r)


@settings(max_examples=200, deadline=None)
@given(path_timestamps(), path_timestamps())
def test_path_key_is_pure_in_identity_and_blind_to_time(ts_a, ts_b):
    reg = chain_registry(6)
    k = _record_chain(reg, *ts_a)
    # same shape with different timestamps: identical key
    if len(ts_a[1]) == len(ts_b[1]):
        assert _record_chain(reg, *ts_b) == k
    # changing any identity field changes the key
    assert k != PathKey("other", k.programs, k.op, k.sensor)
    assert k != PathKey(k.widget_id, k.programs + ("PX",), k.op, k.sensor)
    assert k != PathKey(k.widget_id, k.programs, "record_audio", k.sensor)
    assert k != PathKey(k.widget_id, k.programs, k.op, "Microphone")


@st.composite
def retraversed_chains(draw):
    """One root and a chain of 1-5 programs; each hop made 1-3 times, each delivery 0-5 ms late.

    Returns the chain's program indexes, the root's (t, delivery), each hop's
    [(t, delivery)] and the request's t, all inside one window.
    """
    chain = draw(st.permutations(range(6)))[: draw(st.integers(min_value=1, max_value=5))]
    lag = st.integers(min_value=0, max_value=5)
    gap = st.integers(min_value=1, max_value=5)
    start = draw(st.integers(min_value=0, max_value=10_000))
    root = (start, start + draw(lag))
    joined = root[1]
    hops = []
    for _ in chain[1:]:
        t = joined + draw(gap)
        instances = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            instances.append((t, t + draw(lag)))
            t += draw(gap)
        hops.append(instances)
        joined = instances[0][1]
    last = max([root[1]] + [d for instances in hops for _, d in instances])
    return chain, root, hops, last + draw(gap)


@settings(max_examples=200, deadline=None)
@given(retraversed_chains())
def test_compute_path_is_the_oracles_single_class(drawn):
    chain, (t0, d0), hops, req_t = drawn
    reg = chain_registry(6)
    pids = list(reg.programs)
    programs = tuple(pids[k] for k in chain)
    wid = reg.resolve_widget("go").id
    store = make_store()
    log = [("input", "i", wid, programs[0], t0, d0)]
    store.record_input(InputEvent("i", wid, programs[0], t0), delivered_at=d0)
    handoffs = [
        (d, j, n, HandoffEvent(f"h{j}-{n}", programs[j], programs[j + 1], t, provenance="i"))
        for j, instances in enumerate(hops)
        for n, (t, d) in enumerate(instances)
    ]
    for d, _j, _n, h in sorted(handoffs, key=lambda x: x[:3]):  # in delivery order, re-traversals interleaved
        store.record_handoff(h, delivered_at=d)
        log.append(("handoff", h.event_id, h.src, h.dst, h.t, d))
    r = OperationRequest("r", programs[-1], "capture_picture", "Camera", req_t)
    store.record_request(r)
    log.append(("request", "r", r.program_id, r.op, r.sensor, r.t))
    assert store.compute_path(r) == PathKey(wid, programs, "capture_picture", "Camera")
    assert attribution_classes(log, "r", WINDOW) == {(wid, programs)}


@st.composite
def sealing_histories(draw):
    """Roots with member chains, a sealing order and query times."""
    n_roots = draw(st.integers(min_value=1, max_value=8))
    roots = []
    for n in range(n_roots):
        t = draw(st.integers(min_value=0, max_value=2000))
        chain = draw(st.permutations(range(4)))[: draw(st.integers(min_value=1, max_value=4))]
        roots.append((f"i{n}", t, chain))
    order = draw(st.permutations(range(n_roots)))
    queries = draw(st.lists(st.integers(min_value=0, max_value=2400), min_size=1, max_size=6))
    return roots, order, queries


@settings(max_examples=200, deadline=None)
@given(sealing_histories())
def test_expired_roots_reaching_matches_a_scan_of_sealed_roots(history):
    roots, order, queries = history
    reg = chain_registry(4)
    pids = list(reg.programs)
    wid = reg.resolve_widget("go").id
    store = make_store()
    members = {}
    for root, t, chain in roots:
        store.record_input(InputEvent(root, wid, pids[chain[0]], t))
        for j, (src, dst) in enumerate(zip(chain, chain[1:])):
            store.record_handoff(HandoffEvent(f"{root}-h{j}", pids[src], pids[dst], t + 1 + j, provenance=root))
        members[root] = (t + WINDOW, {pids[k] for k in chain})
    sealed = []
    for ix in order:  # any order, so deadlines need not rise
        root = roots[ix][0]
        assert store.expire_graph(root, 10_000)
        sealed.append(root)
        for pid in pids:
            for q in queries:
                scan = any(q > members[r][0] and pid in members[r][1] for r in sealed)
                assert store.expired_roots_reaching(pid, q) == scan

"""Online belief tracking and the compiled predictor automaton."""

from __future__ import annotations

import random

import pytest

import faultcast.belief
from faultcast import (
    INF,
    CapExceededError,
    DesModel,
    DistanceTable,
    Event,
    ImpossibleObservationError,
    Interval,
    PredictionSession,
    analyze,
    build_twin,
    compile_predictor,
    compute_distances,
    drifting_plant,
    parse_model,
    serialize_model,
    validate,
)
from faultcast.belief import _BeliefEngine, _Node
from faultcast.cli import _automaton_json, main
from faultcast.oracle import oracle_beliefs

from helpers import decrement, issubset, mask_of
from randmodels import OracleConfig, random_live_model, sample_run


def _member_names(model, belief):
    return {model.states[q] for q in belief.members}


def test_plant_initial_belief(plant):
    table = compute_distances(plant)
    belief = PredictionSession(plant).belief
    assert _member_names(plant, belief) == {"A", "C"}
    assert belief.interval == Interval(3, INF)
    lo_w, hi_w = belief.witnesses
    assert table.dmin[lo_w] == belief.interval.lo
    assert table.dmax[hi_w] == belief.interval.hi
    assert {lo_w, hi_w} <= belief.members


def test_plant_belief_chain(plant):
    session = PredictionSession(plant)
    expectations = [
        ("a", {"B", "D"}, Interval(2, INF)),
        ("d", {"E", "F"}, Interval(1, 2)),
        ("c", {"F"}, Interval(1, 1)),
        ("a", {"G"}, Interval(0, 0)),
    ]
    for name, members, interval in expectations:
        assert session.feed(plant.event_index[name]) == interval
        assert _member_names(plant, session.belief) == members
        assert session.belief.interval == interval


def test_short_fuse_beliefs(fuse_short):
    session = PredictionSession(fuse_short)
    assert _member_names(fuse_short, session.belief) == {"S0"}
    assert session.interval == Interval(2, INF)
    assert session.feed("b") == Interval(2, INF)
    assert session.feed("a") == Interval(1, 1)
    assert session.feed("a") == Interval(0, 0)


def test_impossible_observations(plant):
    session = PredictionSession(plant)
    # Unobservable events never appear in an observation stream.
    with pytest.raises(ImpossibleObservationError):
        session.feed(plant.event_index["t"])
    # No member of {A, C} can take b.
    with pytest.raises(ImpossibleObservationError):
        session.feed(plant.event_index["b"])
    with pytest.raises(ImpossibleObservationError):
        session.feed("nope")
    # A rejected event leaves the session where it was.
    assert _member_names(plant, session.belief) == {"A", "C"}


def test_session_feed_accepts_indexes_and_names(plant):
    by_name = PredictionSession(plant)
    by_index = PredictionSession(plant)
    assert by_name.feed("a") == by_index.feed(plant.event_index["a"])
    assert by_name.belief.members == by_index.belief.members


def test_session_feed_refuses_values_that_are_not_indexes(plant):
    # A bool is not an event index, though True == 1; a float or None is not
    # one either.  Each is refused by name and leaves the session unchanged.
    session = PredictionSession(plant)
    session.feed("a")
    belief, interval = session.belief, session.interval
    for bad in [True, False, 1.0, None, b"a"]:
        refusal = f"not an event name or index: {bad!r}"
        with pytest.raises(ImpossibleObservationError, match=refusal):
            session.feed(bad)
        assert session.belief == belief
        assert session.interval == interval


def test_plant_compiled_predictor(plant):
    automaton = compile_predictor(plant)
    got = [
        (_member_names(plant, node), node.interval) for node in automaton.nodes
    ]
    assert got == [
        ({"A", "C"}, Interval(3, INF)),
        ({"B", "D"}, Interval(2, INF)),
        ({"C"}, Interval(3, INF)),
        ({"E", "F"}, Interval(1, 2)),
        ({"D"}, Interval(2, INF)),
        ({"G"}, Interval(0, 0)),
        ({"F"}, Interval(1, 1)),
    ]
    assert len(automaton.edges) == 11
    assert automaton.initial == 0


def test_fan_compiled_predictor(fan2):
    automaton = compile_predictor(fan2)
    assert [_member_names(fan2, node) for node in automaton.nodes] == [
        {"A"},
        {"B1", "B2", "C"},
        {"D1", "D2"},
    ]
    assert all(node.interval == Interval(INF, INF) for node in automaton.nodes)
    a = fan2.event_index["a"]
    assert automaton.edges == {(0, a): 1, (1, a): 2, (2, a): 2}


def test_automaton_walk_matches_stepwise_tracking(plant):
    automaton = compile_predictor(plant)
    session = PredictionSession(plant)
    node = automaton.initial
    for name in ["a", "b", "a", "d", "c", "a", "a"]:
        event = plant.event_index[name]
        session.feed(name)
        node = automaton.edges[node, event]
        assert automaton.nodes[node].members == session.belief.members


def test_node_cap_is_enforced(plant):
    with pytest.raises(CapExceededError) as exc:
        compile_predictor(plant, cap=3)
    assert exc.value.cap == 3
    assert exc.value.explored == 3


def test_node_cap_below_one_is_refused():
    # One belief, {A}: a cap of 1 holds it, a cap of 0 could hold nothing.
    model = parse_model("des v1\nobs a\ninit A\ntrans A a A\n")
    assert len(compile_predictor(model, cap=1).nodes) == 1
    for cap in (0, -1):
        with pytest.raises(ValueError, match=f"cap must be at least 1: {cap}"):
            compile_predictor(model, cap=cap)


def test_intervals_shrink_along_every_edge(
    plant, fuse_short, fuse_long, fan2
):
    # One more observation never loosens the promise: each successor
    # interval sits inside the predecessor's, shifted by the observation.
    for model in (plant, fuse_short, fuse_long, fan2):
        automaton = compile_predictor(model)
        assert automaton.edges
        for (src, _), dst in automaton.edges.items():
            before = automaton.nodes[src].interval
            after = automaton.nodes[dst].interval
            assert issubset(after, decrement(before))


def test_every_belief_interval_is_a_witness_pair_hull(
    plant, fuse_short, fuse_long, fan2
):
    # Two members suffice to pin the hull, and those two members are
    # confusable, so the interval also shows up as a reachable pair hull.
    for model in (plant, fuse_short, fuse_long, fan2):
        table = compute_distances(model)
        twin = build_twin(model)
        for node in compile_predictor(model).nodes:
            lo_w, hi_w = node.witnesses
            assert Interval(table.dmin[lo_w], table.dmax[hi_w]) == node.interval
            pair = (min(lo_w, hi_w), max(lo_w, hi_w))
            assert pair in twin.pairs


def test_random_runs_stay_inside_tracked_beliefs():
    rng = random.Random(77)
    for _ in range(40):
        model = random_live_model(rng, OracleConfig())
        states, events = _observable_walk(model, rng, 12)
        session = PredictionSession(model)
        assert states[0] in session.belief.members
        for state, event in zip(states[1:], events):
            session.feed(event)
            assert state in session.belief.members


def _observable_walk(model, rng, length):
    """Random walk reported as (states after each observation, events)."""
    state = model.initial
    states = [state]
    events: list[int] = []
    for _ in range(100):
        if len(events) == length:
            break
        src, ev, dst = rng.choice([t for t in model.transitions if t[0] == state])
        state = dst
        if model.events[ev].observable:
            events.append(ev)
            states.append(state)
    return states, events


def test_compiled_predictor_covers_oracle_beliefs(plant):
    models = [plant] + [model for _, model in _random_models(65, 200, max_states=40)]
    for model in models:
        automaton = compile_predictor(model)
        # Compiling decodes no member sets; each is built on first read.
        assert not any("members" in vars(node) for node in automaton.nodes)
        assert [node.members for node in automaton.nodes] == oracle_beliefs(model)
        # A node is equal to, and hashes like, the session belief it stands for.
        paths = {automaton.initial: ()}  # a shortest event path to each node
        for (src, event), dst in automaton.edges.items():  # sources ascend
            paths.setdefault(dst, paths[src] + (event,))
        for node, path in paths.items():
            session = PredictionSession(model)
            for event in path:
                session.feed(event)
            assert session.belief == automaton.nodes[node]
            assert hash(session.belief) == hash(automaton.nodes[node])
        assert len(paths) == len(automaton.nodes)


def test_belief_repr_shows_the_sorted_members(plant):
    assert repr(PredictionSession(plant).belief) == (
        "BeliefState(members=[0, 3], interval=Interval(lo=3, hi=inf), witnesses=(0, 0))"
    )


def coarse_rule(obs_names):
    """Hand predictor for the drifting plant, keyed on the alarm d.

    It is honest but coarse; the belief tracker must never announce a
    wider interval than this floor.
    """
    if "d" not in obs_names:
        return Interval(2, INF)
    tail = len(obs_names) - 1 - max(
        k for k, name in enumerate(obs_names) if name == "d"
    )
    if tail == 0:
        return Interval(1, 2)
    if tail == 1:
        return Interval(0, 1)
    return Interval(0, 0)


def test_tracked_intervals_never_exceed_the_coarse_rule(plant):
    automaton = compile_predictor(plant)
    frontier = [(automaton.initial, ())]
    for _ in range(7):
        nxt = []
        for node, obs in frontier:
            names = [plant.events[e].name for e in obs]
            assert issubset(automaton.nodes[node].interval, coarse_rule(names))
            for event in range(len(plant.events)):
                target = automaton.edges.get((node, event))
                if target is not None:
                    nxt.append((target, obs + (event,)))
        frontier = nxt


def test_every_faulty_run_passes_a_tight_prefix(plant):
    # Before the fault arrives, some prefix already announced an interval
    # inside (1, 2): one observation of warning, at most two of waiting.
    rng = random.Random(404)
    target = Interval(1, 2)
    faulty_runs = 0
    for _ in range(300):
        states, events = sample_run(plant, rng, 25)
        if states[-1] not in plant.faulty:
            continue
        faulty_runs += 1
        session = PredictionSession(plant)
        seen = [session.interval]
        for event in events:
            if plant.events[event].observable:
                seen.append(session.feed(event))
        assert any(issubset(interval, target) for interval in seen)
    assert faulty_runs >= 30


# -- the engine against a plain frozenset subset construction --------------


def _closure(model, states):
    closed = set(states)
    todo = list(closed)
    while todo:
        q = todo.pop()
        for src, ev, dst in model.transitions:
            if src == q and not model.events[ev].observable and dst not in closed:
                closed.add(dst)
                todo.append(dst)
    return frozenset(closed)


def _image(model, belief, event):
    return _closure(
        model, {dst for src, ev, dst in model.transitions if src in belief and ev == event}
    )


def _witnesses(table, belief):
    return (
        min(belief, key=lambda q: (table.dmin[q], q)),
        max(belief, key=lambda q: (table.dmax[q], -q)),
    )


def _subset_construction(model):
    """Beliefs in breadth-first order and their (node, event) edges."""
    order = [_closure(model, [model.initial])]
    index = {order[0]: 0}
    edges = {}
    observable = [e for e, ev in enumerate(model.events) if ev.observable]
    for node, belief in enumerate(order):
        for event in observable:
            nxt = _image(model, belief, event)
            if nxt:
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                edges[(node, event)] = index[nxt]
    return order, edges


def _random_models(seed, count, max_states=10):
    rng = random.Random(seed)
    for _ in range(count):
        config = OracleConfig(
            max_states=rng.randint(2, max_states),
            max_events=rng.randint(1, 4),
            max_out_degree=rng.randint(1, 3),
        )
        yield rng, random_live_model(rng, config)


def test_compiled_predictor_equals_subset_construction():
    for _, model in _random_models(31, 300):
        table = compute_distances(model)
        automaton = compile_predictor(model)
        order, edges = _subset_construction(model)
        assert [node.members for node in automaton.nodes] == oracle_beliefs(model)
        assert [node.members for node in automaton.nodes] == order
        assert list(automaton.edges.items()) == list(edges.items())
        for node, belief in zip(automaton.nodes, order):
            lo_w, hi_w = _witnesses(table, belief)
            assert node.witnesses == (lo_w, hi_w)
            assert node.interval == Interval(table.dmin[lo_w], table.dmax[hi_w])


def test_compiled_predictor_equals_subset_construction_on_sparse_beliefs():
    # At up to 40 states many beliefs are sparse (under one member per byte
    # of the mask), so compile_predictor expands them from their members'
    # move lists, merging several lists for a belief of several members.
    sparse = merged = 0
    for _, model in _random_models(31, 120, max_states=40):
        table = compute_distances(model)
        automaton = compile_predictor(model)
        order, edges = _subset_construction(model)
        assert [node.members for node in automaton.nodes] == order
        assert list(automaton.edges.items()) == list(edges.items())
        for node, belief in zip(automaton.nodes, order):
            lo_w, hi_w = _witnesses(table, belief)
            assert node.witnesses == (lo_w, hi_w)
            assert node.interval == Interval(table.dmin[lo_w], table.dmax[hi_w])
            if node.mask.bit_count() * 8 < node.mask.bit_length():  # the engine's rule
                sparse += 1
                merged += node.mask.bit_count() > 1
        # The cap refuses at the first belief past it and holds all at the count.
        for cap in range(1, len(order)):
            with pytest.raises(CapExceededError) as refused:
                compile_predictor(model, cap=cap)
            assert refused.value.explored == cap
        assert compile_predictor(model, cap=len(order)).nodes == automaton.nodes
    assert sparse >= 140 and merged >= 35


def _looping_streams(model, rng, count):
    """Observable projections of random runs whose first state cycle is
    walked four times, so that beliefs and their edges come back."""
    for _ in range(count):
        states, events = sample_run(model, rng, 40)
        first = {}
        for k, q in enumerate(states):
            if q in first:
                i = first[q]
                events = events[:k] + events[i:k] * 3 + events[k:]
                break
            first[q] = k
        yield [e for e in events if model.events[e].observable]


def _check_sessions(seed, count, cap):
    """Feed looping streams to sessions and compare every step with a
    subset tracker; returns how many feeds stepped to an already indexed
    belief and how many flushed the engine."""
    hits = flushes = 0
    # Up to 40 states, so that both the sparse and the dense mask
    # decoding are used.
    for rng, model in _random_models(seed, count, max_states=40):
        table = compute_distances(model)
        for stream in _looping_streams(model, rng, 3):
            session = PredictionSession(model)
            engine = session._engine
            belief = _closure(model, [model.initial])
            for event in stream:
                belief = _image(model, belief, event)
                nodes = len(engine.index)
                hits += mask_of(belief) in engine.index
                got = session.feed(event)
                flushes += len(engine.index) < nodes
                lo_w, hi_w = _witnesses(table, belief)
                assert got == session.interval
                assert got == Interval(table.dmin[lo_w], table.dmax[hi_w])
                assert session.belief.members == belief
                assert session.belief.witnesses == (lo_w, hi_w)
                assert len(engine.index) <= cap
    return hits, flushes


def test_sessions_match_a_subset_tracker():
    hits, flushes = _check_sessions(57, 120, faultcast.belief.DEFAULT_NODE_CAP)
    assert hits > 5000
    assert flushes == 0


def test_sessions_match_a_subset_tracker_across_flushes(monkeypatch):
    monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", 4)
    hits, flushes = _check_sessions(58, 120, 4)
    assert hits > 5000
    assert flushes > 300


def _assert_tracks(session, table, belief):
    lo_w, hi_w = _witnesses(table, belief)
    assert session.belief.members == belief
    assert session.belief.witnesses == (lo_w, hi_w)
    assert session.interval == Interval(table.dmin[lo_w], table.dmax[hi_w])


def test_interleaved_sessions_share_one_engine_across_flushes(monkeypatch):
    # Round-robin feeds make one session flush the model's engine while the
    # others still hold nodes it no longer indexes.
    monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", 4)
    flushes = 0
    for rng, model in _random_models(59, 60, max_states=40):
        table = compute_distances(model)
        engine = model.belief_engine
        streams = list(_looping_streams(model, rng, 4))
        sessions = [PredictionSession(model) for _ in streams]
        beliefs = [_closure(model, [model.initial])] * len(streams)
        assert all(session._engine is engine for session in sessions)
        for step in range(max(map(len, streams))):
            for k, (session, stream) in enumerate(zip(sessions, streams)):
                if step >= len(stream):
                    continue
                index = engine.index
                # A rejected event, also from a session holding an old node,
                # changes nothing.
                with pytest.raises(ImpossibleObservationError):
                    session.feed(len(model.events))
                beliefs[k] = _image(model, beliefs[k], stream[step])
                assert session.feed(stream[step]) == session.interval
                flushes += engine.index is not index
                assert len(engine.index) <= 4
                # The engine holds nodes only through its index, so a flush
                # leaves nothing of the old nodes but those sessions hold.
                stores = [v for k, v in vars(engine).items() if k != "index" and isinstance(v, dict)]
                assert not any(isinstance(n, _Node) for store in stores for n in store.values())
                for other, belief in zip(sessions, beliefs):
                    _assert_tracks(other, table, belief)
    assert flushes > 100


def test_sessions_share_the_model_caches(monkeypatch):
    built = []
    build = DesModel.distance_table.func
    monkeypatch.setattr(
        DesModel.distance_table, "func", lambda model: built.append(build(model)) or built[-1]
    )
    model = drifting_plant()
    assert validate(model) == ()
    analysis = analyze(model)
    compile_predictor(model)
    sessions = [PredictionSession(model) for _ in range(10)]
    for session in sessions:
        assert session.feed("a") == Interval(2, INF)
    assert len(built) == 1
    assert analysis.table is compute_distances(model) is built[0]
    engine = model.belief_engine
    assert all(s._engine.table is built[0] and s._engine is engine for s in sessions)
    # The first feed found the belief; the other nine were dict hits.
    assert len(engine.index) == 2


def test_one_engine_per_model(monkeypatch):
    built = []
    init = _BeliefEngine.__init__
    monkeypatch.setattr(
        _BeliefEngine, "__init__", lambda self, *args: built.append(self) or init(self, *args)
    )
    models = [drifting_plant()] + [model for _, model in _random_models(66, 100)]
    for model in models:
        built.clear()
        # The compile and every session read through the engine the model keeps.
        analyze(model)
        compile_predictor(model)
        sessions = [PredictionSession(model) for _ in range(3)]
        assert built == [model.belief_engine]
        assert all(session._engine is built[0] for session in sessions)


def test_compile_ignores_session_state(monkeypatch, capsys, tmp_path):
    # Small enough that the sessions flush the model's engine, too.
    monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", 4)
    for rng, model in _random_models(61, 100, max_states=12):
        text = serialize_model(model)
        stepped = parse_model(text)
        for stream in _looping_streams(stepped, rng, 3):
            session = PredictionSession(stepped)
            for event in stream:
                session.feed(event)
        assert compile_predictor(stepped) == compile_predictor(parse_model(text))
    text = serialize_model(drifting_plant())
    (tmp_path / "plant.des").write_text(text)
    out = tmp_path / "predictor.json"
    assert main(["compile", "--json", str(out), str(tmp_path / "plant.des")]) == 0
    capsys.readouterr()
    stepped = parse_model(text)
    for _ in range(3):
        session = PredictionSession(stepped)
        for name in ["a", "b", "a", "d", "c", "a", "a"]:
            session.feed(name)
    assert _automaton_json(stepped, compile_predictor(stepped)) == out.read_text()


def test_rejected_events_leave_the_session_unchanged(plant):
    session = PredictionSession(plant)
    session.feed("a")
    belief, interval = session.belief, session.interval
    # Unobservable, unknown by name, unknown by index, impossible at {B, D}.
    for bad in ["t", plant.event_index["t"], "nope", len(plant.events), -1, "a"]:
        with pytest.raises(ImpossibleObservationError):
            session.feed(bad)
        assert session.belief == belief
        assert session.interval == interval
    assert session.feed("d") == Interval(1, 2)


@pytest.mark.parametrize("cap", [4, None])
def test_each_belief_is_read_once(monkeypatch, cap):
    # A step takes its successors from the row its source node kept, so the
    # engine reads exactly the beliefs it adds, in order, also re-adding
    # them after a flush; compile_predictor reads each of its nodes once.
    if cap is not None:
        monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", cap)
    reads, added = [], []
    read, node = _BeliefEngine.read, _BeliefEngine.node
    monkeypatch.setattr(_BeliefEngine, "read", lambda e, mask: reads.append(mask) or read(e, mask))

    def adding(engine, mask):
        if mask not in engine.index:
            added.append(mask)
        return node(engine, mask)

    monkeypatch.setattr(_BeliefEngine, "node", adding)
    rng = random.Random(65)
    models = [drifting_plant()] + [model for _, model in _random_models(65, 80, max_states=40)]
    flushes = 0
    for model in models:
        engine = model.belief_engine
        for stream in _looping_streams(model, rng, 3):
            session = PredictionSession(model)
            for event in stream:
                index = engine.index
                session.feed(event)
                flushes += engine.index is not index
                assert reads == added
                assert all(node.mask == mask for mask, node in engine.index.items())
        reads.clear()
        added.clear()
        automaton = compile_predictor(model)
        assert reads == [belief.mask for belief in automaton.nodes]
        reads.clear()
    assert flushes > 100 if cap else flushes == 0


def test_witnesses_are_found_only_where_read(monkeypatch):
    # A refused compile finds no witnesses, a finished one finds each
    # node's once, in node order, and a session finds them when its belief
    # is read, never when it is fed.
    calls = []
    witnesses = _BeliefEngine.witnesses
    monkeypatch.setattr(
        _BeliefEngine, "witnesses", lambda e, *args: calls.append(args[0]) or witnesses(e, *args)
    )
    refused = 0
    for rng, model in _random_models(67, 80, max_states=40):
        automaton = compile_predictor(model)
        assert calls == [node.mask for node in automaton.nodes]
        calls.clear()
        if len(automaton.nodes) > 1:
            with pytest.raises(CapExceededError):
                compile_predictor(model, cap=len(automaton.nodes) - 1)
            assert calls == []
            refused += 1
        session = PredictionSession(model)
        for stream in _looping_streams(model, rng, 1):
            for event in stream:
                session.feed(event)
        assert calls == []
        belief = session.belief
        assert calls == [belief.mask]
        calls.clear()
    assert refused > 40


def test_sparse_reads_fill_no_byte_table():
    # A ring of single states at indexes 17 to 39: every belief is sparse,
    # so neither a stream nor a compile gives a byte position its own table.
    n = 40
    ring = [(q, 0, q - 1 if q > 17 else n - 1) for q in range(17, n)]
    model = DesModel(
        states=tuple(f"s{q}" for q in range(n)),
        events=(Event("a", True),),
        transitions=tuple(ring),
        initial=n - 1,
        faulty=frozenset(),
    )
    session = PredictionSession(model)
    for _ in range(100):
        session.feed("a")
    assert len(compile_predictor(model).nodes) == n - 17
    engine = model.belief_engine
    assert all(table is faultcast.belief._UNFILLED for table in engine._tables)
    # One dense read fills only the positions of its non-zero bytes.
    engine.read((1 << n) - 1 ^ 0xFF)
    filled = [table is not faultcast.belief._UNFILLED for table in engine._tables]
    assert filled == [False, True, True, True, True]


# -- the byte tables against a member loop ---------------------------------


def _check_reads(engine, model, table, masks):
    """Compare the engine's reads of belief masks with member loops (_image
    and _witnesses above); returns how many reads were dense and sparse."""
    observable = [e for e, ev in enumerate(model.events) if ev.observable]
    dense = sparse = 0
    for mask in masks:
        belief = frozenset(q for q in range(len(model.states)) if mask >> q & 1)
        row, lo, hi = engine.read(mask)
        if type(row) is list:
            sparse += 1
            assert row == sorted(belief)
        else:
            dense += 1
        for event in observable:
            assert engine.successor(row, event) == mask_of(_image(model, belief, event))
        bounds = min(table.dmin[q] for q in belief), max(table.dmax[q] for q in belief)
        assert (lo, hi) == bounds
        assert engine.witnesses(mask, lo, hi) == _witnesses(table, belief)
        assert engine.interval(lo, hi) == Interval(*bounds)
    return dense, sparse


def _table_with_ties(rng, n):
    """Distances with many ties and INF bounds.  Finite bounds reach past
    n, up to 3n + 13, so at every width a field sized from n would be too
    narrow.  As in a model's own table, dmin[q] <= dmax[q]."""
    dmin = [rng.choice([0, 1, 2, n + 3, INF]) for _ in range(n)]
    dmax = [lo + rng.choice([0, 1, 2, 2 * n + 10, INF]) for lo in dmin]
    return DistanceTable(dmin=tuple(dmin), dmax=tuple(dmax), avoid=frozenset())


def test_byte_tables_match_a_member_loop_at_every_width():
    rng = random.Random(63)
    events = (Event("a", True), Event("b", True), Event("t", False))
    counted = ("dense", "sparse", "inf lo", "inf hi", "lo above n", "hi above n")
    seen = dict.fromkeys(counted, 0)
    for n in (1, 7, 8, 9, 63, 64, 65, 201):
        for _ in range(6):
            # Unvalidated: silent cycles and dead ends are welcome here.
            transitions = {
                (rng.randrange(n), rng.randrange(3), rng.randrange(n)) for _ in range(2 * n)
            }
            model = DesModel(
                states=tuple(f"s{q}" for q in range(n)),
                events=events,
                transitions=tuple(sorted(transitions)),
                initial=0,
                faulty=frozenset(),
            )
            table = _table_with_ties(rng, n)
            top, full = 1 << (n - 1), (1 << n) - 1
            masks = [top, full, 1, full ^ 1, full ^ top or top]
            # The bits of the last byte only, which is partial unless 8 divides n.
            masks.append(full >> (n - 1) // 8 * 8 << (n - 1) // 8 * 8)
            # Every member with INF bounds, and every member with a bound past n.
            masks.append(mask_of(q for q in range(n) if table.dmin[q] == INF))
            masks.append(mask_of(q for q in range(n) if n < table.dmax[q] < INF))
            # Every member with a finite dmax, whose hull is finite.
            masks.append(mask_of(q for q in range(n) if table.dmax[q] < INF))
            for _ in range(20):
                masks.append(rng.randrange(1, full + 1))  # mostly dense
                masks.append(mask_of(rng.sample(range(n), rng.randint(1, max(1, n // 16)))))
            masks = [mask for mask in masks if mask]
            engine = _BeliefEngine(model, table)
            dense, sparse = _check_reads(engine, model, table, masks)
            seen["dense"] += dense
            seen["sparse"] += sparse
            for mask in masks:
                _, lo, hi = engine.read(mask)
                seen["inf lo"] += lo == INF
                seen["inf hi"] += hi == INF
                seen["lo above n"] += n < lo < INF
                seen["hi above n"] += n < hi < INF
    assert min(seen.values()) > 20, seen


def test_byte_tables_match_a_member_loop_on_reachable_beliefs():
    dense = sparse = 0
    for _, model in _random_models(64, 120, max_states=40):
        table = compute_distances(model)
        order, _ = _subset_construction(model)
        masks = [mask_of(belief) for belief in order]
        got = _check_reads(_BeliefEngine(model, table), model, table, masks)
        dense += got[0]
        sparse += got[1]
    assert dense > 300 and sparse > 100

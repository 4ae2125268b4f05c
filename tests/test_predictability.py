"""Predictability queries, the frontier, and their laws."""

from __future__ import annotations

import copy
import pickle
import random
from enum import IntEnum

import pytest

from faultcast import (
    INF,
    Analysis,
    BeliefAutomaton,
    DesModel,
    Event,
    Interval,
    InvalidIntervalError,
    PredictionSession,
    QueryVerdict,
    analyze,
    best_horizon,
    compile_predictor,
    is_i_predictable,
    is_ij_predictable,
    make_model,
    validate,
)
from faultcast import predictability
from faultcast.oracle import (
    oracle_dmax,
    oracle_dmin,
    oracle_is_ij_predictable,
    oracle_pairs,
    oracle_product_is_ij_predictable,
)
from faultcast.twin import witness_observations

from helpers import is_proper_subset
from randmodels import OracleConfig, _draw_model, random_live_model, sample_run


def scan_is_ij_predictable(frontier, i, j):
    """The hull scan: in the frontier's hull order (descending lower bound,
    then ascending upper bound), the first hull that strictly contains
    (i, j) refuses the query and is named as the blocking hull."""
    query = Interval(i, j)
    if frontier.vacuous:
        return QueryVerdict(True, None)
    if i > frontier.dmin_init:
        return QueryVerdict(False, None)
    for entry in frontier.hulls:
        if is_proper_subset(query, entry.interval):
            return QueryVerdict(False, entry)
    return QueryVerdict(True, None)


def test_plant_frontier_values(plant_analysis):
    frontier = plant_analysis.frontier
    assert frontier.dmin_init == 3
    assert not frontier.vacuous
    assert frontier.p == (0, 2, INF, INF)


def test_plant_hull_inventory(plant, plant_analysis):
    by_interval = {
        h.interval: (plant.states[h.pair[0]], plant.states[h.pair[1]])
        for h in plant_analysis.frontier.hulls
    }
    assert by_interval == {
        Interval(0, 0): ("G", "G"),
        Interval(1, 1): ("F", "F"),
        Interval(1, 2): ("E", "F"),
        Interval(2, 2): ("E", "E"),
        Interval(2, INF): ("B", "D"),
        Interval(3, INF): ("A", "A"),
    }


def test_plant_queries(plant_analysis):
    frontier = plant_analysis.frontier
    assert is_ij_predictable(frontier, 1, 2).predictable
    assert not is_ij_predictable(frontier, 2, 2).predictable
    assert is_ij_predictable(frontier, 0, 0).predictable
    assert not is_ij_predictable(frontier, 1, 1).predictable
    assert is_ij_predictable(frontier, 2, INF).predictable
    assert not is_ij_predictable(frontier, 3, INF).predictable
    # Lead times beyond the initial distance are out of reach.
    assert not is_ij_predictable(frontier, 4, 9).predictable
    assert is_ij_predictable(frontier, 4, 9).blocking is None


def test_plant_blocking_explanation(plant, plant_analysis):
    verdict = is_ij_predictable(plant_analysis.frontier, 2, 2)
    assert not verdict.predictable
    entry = verdict.blocking
    assert (plant.states[entry.pair[0]], plant.states[entry.pair[1]]) == ("B", "D")
    assert entry.interval == Interval(2, INF)
    assert [plant.events[e].name for e in entry.witness] == ["a"]


def test_short_fuse_frontier_and_queries(short_analysis):
    frontier = short_analysis.frontier
    assert frontier.dmin_init == 2
    assert frontier.p == (0, 1, INF)
    assert is_ij_predictable(frontier, 1, 1).predictable
    assert not is_ij_predictable(frontier, 2, 3).predictable
    assert best_horizon(frontier) == (1, 1)


def test_long_fuse_frontier_and_queries(long_analysis):
    frontier = long_analysis.frontier
    assert frontier.dmin_init == 3
    assert frontier.p == (0, 2, 3, INF)
    assert is_ij_predictable(frontier, 2, 3).predictable
    assert is_ij_predictable(frontier, 1, 2).predictable
    assert not is_ij_predictable(frontier, 1, 1).predictable
    assert best_horizon(frontier) == (2, 3)


def test_exact_hull_queries_pass_strictness(long_analysis):
    # (2, 3) equals a reachable hull; equality is not strict containment.
    assert is_ij_predictable(long_analysis.frontier, 2, 3).predictable


def test_plant_best_horizon(plant_analysis):
    assert best_horizon(plant_analysis.frontier) == (1, 2)


def test_fan_is_vacuous(fan2_analysis):
    frontier = fan2_analysis.frontier
    assert frontier.vacuous
    assert frontier.dmin_init == INF
    assert frontier.p == tuple(range(len(fan2_analysis.model.states) + 1))
    assert is_ij_predictable(frontier, 0, 0).predictable
    assert is_ij_predictable(frontier, 12, INF).predictable
    assert best_horizon(frontier) is None
    assert is_i_predictable(frontier, 1)


def test_is_predictable_matches_lead_time_one(plant_analysis, short_analysis, long_analysis):
    for analysis in (plant_analysis, short_analysis, long_analysis):
        assert is_i_predictable(analysis.frontier, 1)


def test_unpredictable_when_confusion_never_resolves():
    # The observer cannot distinguish the doomed branch from the safe
    # loop, and the doomed branch has no finite bound either.
    m = make_model(
        [("a", True), ("t", False)],
        [
            ("I", "t", "Safe"), ("I", "t", "Doom"),
            ("Safe", "a", "Safe"),
            ("Doom", "a", "Doom"), ("Doom", "t", "Bad"),
            ("Bad", "a", "Bad"),
        ],
        "I",
        faulty=["Bad"],
    )
    analysis = analyze(m)
    assert not is_i_predictable(analysis.frontier, 1)
    assert best_horizon(analysis.frontier) is None


def test_hull_choice_matches_the_oracle_pairs_on_random_models():
    # Each distinct hull keeps the least canonical pair that has it, read from
    # the pair codes; the pair tuples are never built along the way.
    rng = random.Random(58)
    for _ in range(200):
        model = random_live_model(rng, OracleConfig())
        pairs = oracle_pairs(model)
        dmin, dmax = oracle_dmin(model), oracle_dmax(model)
        least = {}
        for a, b in sorted(pairs, reverse=True):  # the least pair writes last
            if min(dmin[a], dmin[b]) != INF:
                least[Interval(min(dmin[a], dmin[b]), max(dmax[a], dmax[b]))] = (a, b)
        states = range(len(model.states) + 2)  # and two indices past the last state
        for witnesses in (False, True):
            analysis = analyze(model, witnesses=witnesses)
            twin = analysis.twin
            assert "pairs" not in vars(twin), model
            assert {e.interval: e.pair for e in analysis.frontier.hulls} == least, model
            assert len(analysis.frontier.hulls) == len(least)
            assert twin.pair_count == len(pairs)
            assert twin.relation_size == sum(1 if a == b else 2 for a, b in pairs)
            for a in states:
                for b in states:
                    assert twin.related(a, b) == ((min(a, b), max(a, b)) in pairs)
            assert twin.pairs == pairs


def test_hull_witnesses_are_replayed_on_read(plant, monkeypatch):
    # The frontier keeps no witnesses; each read replays the pair's parent
    # links, and equality and hashing see only the interval and the pair.
    calls = []

    def counted(twin, pair):
        calls.append(pair)
        return witness_observations(twin, pair)

    monkeypatch.setattr(predictability, "witness_observations", counted)
    frontier = analyze(plant, witnesses=True).frontier
    assert calls == []
    entry = frontier.hulls[0]
    first, again = entry.witness, entry.witness
    assert first == again
    assert calls == [entry.pair] * 2  # one replay per read, none kept

    rng = random.Random(59)
    for _ in range(200):
        model = random_live_model(rng, OracleConfig())
        kept, bare = analyze(model, witnesses=True), analyze(model)
        for entry in kept.frontier.hulls:
            assert entry.witness == tuple(witness_observations(kept.twin, entry.pair)), model
        assert all(entry.witness is None for entry in bare.frontier.hulls), model
        assert kept.frontier.hulls == bare.frontier.hulls
        assert set(kept.frontier.hulls) == set(bare.frontier.hulls)
        assert list(map(hash, kept.frontier.hulls)) == list(map(hash, bare.frontier.hulls))
        assert list(map(repr, kept.frontier.hulls)) == list(map(repr, bare.frontier.hulls))
    assert repr(entry) == f"HullEntry(interval={entry.interval!r}, pair={entry.pair!r})"


def test_records_refuse_field_assignment(plant, plant_analysis):
    verdict = is_ij_predictable(plant_analysis.frontier, 2, 2)
    entry = verdict.blocking
    for record, field, value in [
        (plant, "initial", 1),
        (entry.interval, "lo", 0),
        (entry, "pair", (0, 0)),
        (entry, "twin", None),
        (verdict, "predictable", True),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) != value, field


def test_replace_runs_the_constructor_checks(plant):
    assert Interval(1, 2)._replace(hi=INF) == Interval(1, INF)
    with pytest.raises(InvalidIntervalError, match=r"lower bound exceeds upper bound: \(5, 2\)"):
        Interval(1, 2)._replace(lo=5)
    assert plant._replace(faulty=()).faulty == frozenset()
    with pytest.raises(ValueError, match="initial state index out of range: 99"):
        plant._replace(initial=99)


def test_records_survive_copy_and_pickle(plant):
    analysis = analyze(plant, witnesses=True)
    entry = analysis.frontier.hulls[0]
    replaced, made = entry._replace(interval=entry.interval), type(entry)._make(entry)
    assert replaced.witness == entry.witness and made.witness is None
    node = compile_predictor(plant).nodes[1]
    for clone in (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))):
        for record in (plant, entry, replaced, made, entry.interval, node, analysis.frontier, analysis.twin):
            assert clone(record) == record, (clone, record)
        assert clone(entry).witness == clone(replaced).witness == entry.witness
        assert clone(made).witness is None
        assert clone(node).members == node.members


def test_bundles_build_by_keyword(plant):
    analysis = analyze(plant)
    again = Analysis(
        model=analysis.model, table=analysis.table, twin=analysis.twin, frontier=analysis.frontier
    )
    assert again == analysis and again.frontier is analysis.frontier
    automaton = compile_predictor(plant)
    again = BeliefAutomaton(nodes=automaton.nodes, edges=automaton.edges)
    assert again.initial == 0 and again == automaton


def test_bad_queries_raise(plant_analysis):
    frontier = plant_analysis.frontier
    with pytest.raises(InvalidIntervalError):
        is_ij_predictable(frontier, 2, 1)
    with pytest.raises(InvalidIntervalError):
        is_ij_predictable(frontier, -1, 2)
    with pytest.raises(InvalidIntervalError):
        is_ij_predictable(frontier, INF, INF)


def test_frontier_p_is_superdiagonal(plant_analysis, short_analysis, long_analysis):
    for analysis in (plant_analysis, short_analysis, long_analysis):
        for i, p in enumerate(analysis.frontier.p):
            assert p >= i


def _query_grid(model):
    hi = len(model.states) + 1
    for i in range(hi + 1):
        for j in list(range(i, hi + 1)) + [INF]:
            yield i, j


def test_queries_agree_with_oracle_on_random_models():
    rng = random.Random(51)
    for _ in range(100):
        model = random_live_model(rng, OracleConfig())
        frontier = analyze(model).frontier
        for i, j in _query_grid(model):
            assert (
                is_ij_predictable(frontier, i, j).predictable
                == oracle_is_ij_predictable(model, i, j)
            ), (model, i, j)


def test_finite_queries_agree_with_the_product_oracle():
    # The product oracle decides (i, j) from its definition, with no pair
    # hull; the pair-hull rule must give the same verdict for every finite j.
    rng = random.Random(55)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        model = random_live_model(rng, OracleConfig())
        frontier = analyze(model).frontier
        last = max((e.interval.hi for e in frontier.hulls if e.interval.hi != INF), default=0)
        for i in range(min(frontier.dmin_init, len(model.states)) + 2):
            for j in range(i, max(i, last + 1) + 1):
                got = is_ij_predictable(frontier, i, j).predictable
                assert got == oracle_product_is_ij_predictable(model, i, j), (model, i, j)
                verdicts[got] += 1
    assert min(verdicts.values()) > 300, verdicts


def test_monotonicity_of_query_answers():
    # A true answer stays true with a looser bound, and with one step
    # less lead paired with a one-step-tighter bound.
    rng = random.Random(52)
    models = [random_live_model(rng, OracleConfig()) for _ in range(60)]
    for model in models:
        frontier = analyze(model).frontier
        for i, j in _query_grid(model):
            if not is_ij_predictable(frontier, i, j).predictable:
                continue
            if j != INF:
                assert is_ij_predictable(frontier, i, j + 1).predictable
            if i >= 2:
                j_dec = j if j == INF else max(j - 1, 0)
                assert is_ij_predictable(frontier, i - 1, j_dec).predictable


def test_frontier_consistent_with_queries_when_finite():
    rng = random.Random(53)
    models = [random_live_model(rng, OracleConfig()) for _ in range(120)]
    for model in models:
        frontier = analyze(model).frontier
        if frontier.vacuous:
            continue
        for i, p in enumerate(frontier.p):
            if p == INF:
                continue
            assert is_ij_predictable(frontier, i, p).predictable, (model, i, p)
            if p > i:
                assert not is_ij_predictable(frontier, i, p - 1).predictable, (model, i, p)


def test_best_horizon_is_maximal_and_tight():
    rng = random.Random(54)
    for _ in range(80):
        model = random_live_model(rng, OracleConfig())
        frontier = analyze(model).frontier
        if frontier.vacuous:
            assert best_horizon(frontier) is None
            continue
        horizon = best_horizon(frontier)
        if horizon is None:
            assert not is_i_predictable(frontier, 0)
            continue
        i, j = horizon
        assert is_ij_predictable(frontier, i, j).predictable
        if j > i:
            assert not is_ij_predictable(frontier, i, j - 1).predictable
        assert not is_i_predictable(frontier, i + 1)


def test_is_i_predictable_refuses_bad_lead_times(plant_analysis, fan2_analysis):
    # The same check as is_ij_predictable, on a faulty and a fault-free model.
    for frontier in (plant_analysis.frontier, fan2_analysis.frontier):
        for bad in (-1, True, False, 1.5, INF, "1"):
            with pytest.raises(InvalidIntervalError) as caught:
                is_i_predictable(frontier, bad)
            assert str(caught.value) == f"lead time must be a finite natural: {bad!r}"


def test_invalid_queries_raise_on_every_model(plant_analysis, fan2_analysis):
    # The lead time is checked first, then the interval; each refusal's wording is pinned.
    cases = [
        (2, 1, "lower bound exceeds upper bound: (2, 1)"),
        (-1, 2, "lead time must be a finite natural: -1"),
        (True, 2, "lead time must be a finite natural: True"),
        (False, 2, "lead time must be a finite natural: False"),
        (1, -1, "bounds must be naturals or inf: (1, -1)"),
        (1, 1.5, "bounds must be naturals or inf: (1, 1.5)"),
        (1, True, "bounds must be naturals or inf: (1, True)"),
        (1, "3", "bounds must be naturals or inf: (1, 3)"),
        (1, float("nan"), "bounds must be naturals or inf: (1, nan)"),
        (1, 2.0, "bounds must be naturals or inf: (1, 2.0)"),
    ]
    for frontier in (plant_analysis.frontier, fan2_analysis.frontier):
        for i, j, message in cases:
            with pytest.raises(InvalidIntervalError) as caught:
                is_ij_predictable(frontier, i, j)
            assert str(caught.value) == message, (i, j)


def test_int_subclass_arguments_answer_as_plain_ints(
    plant_analysis, short_analysis, long_analysis, fan2_analysis
):
    Nat = IntEnum("Nat", [(f"n{k}", k) for k in range(40)])
    checked = blocked = 0
    for analysis in (plant_analysis, short_analysis, long_analysis, fan2_analysis):
        frontier = analysis.frontier
        for i, promises in _dense_grid(frontier, len(analysis.model.states)):
            assert is_i_predictable(frontier, Nat(i)) == is_i_predictable(frontier, i)
            for j in promises:
                want = is_ij_predictable(frontier, i, j)
                queries = [(Nat(i), j)] + ([] if j == INF else [(i, Nat(j)), (Nat(i), Nat(j))])
                for lead, promise in queries:
                    got = is_ij_predictable(frontier, lead, promise)
                    assert got == want and got.blocking is want.blocking, (analysis.model, lead, promise)
                    checked += 1
                blocked += want.blocking is not None
    assert checked > 100 and blocked > 5


def _dense_grid(frontier, n_states):
    """Every lead time up to one past dmin(initial), and every promise up
    to one past the largest finite hull end, plus an unbounded one."""
    last_row = n_states if frontier.vacuous else int(frontier.dmin_init)
    tops = [e.interval.hi for e in frontier.hulls if e.interval.hi != INF]
    top = 1 + max([0, *tops])
    for i in range(last_row + 2):
        yield i, [*range(i, max(i, top) + 1), INF]


def _assert_same_verdicts(model, fa, fb, n_states):
    """Both frontiers give the same verdict and blocking hull, interval and
    pair, on the dense grid of fa, the frontier of model."""
    for i, promises in _dense_grid(fa, n_states):
        for j in promises:
            va, vb = is_ij_predictable(fa, i, j), is_ij_predictable(fb, i, j)
            assert va.predictable == vb.predictable, (model, i, j)
            assert (va.blocking is None) == (vb.blocking is None), (model, i, j)
            if va.blocking is not None:
                assert (vb.blocking.interval, vb.blocking.pair) == (
                    va.blocking.interval, va.blocking.pair
                ), (model, i, j)


def _random_models(seed, count):
    """Half valid random models, half unvalidated draws; every other draw
    also lets each faulty state step out of the fault set."""
    rng = random.Random(seed)
    config = OracleConfig()
    for k in range(count):
        if k % 2:
            yield random_live_model(rng, config)
            continue
        model = _draw_model(rng, config)
        if k % 4:
            exits = {(q, 0, rng.randrange(len(model.states))) for q in model.faulty}
            model = model._replace(transitions=tuple(sorted({*model.transitions, *exits})))
        yield model


def test_frontier_lookup_matches_the_hull_scan():
    refusals = blocked = 0
    for model in _random_models(55, 1000):
        frontier = analyze(model, witnesses=True).frontier
        # One row per lead time up to dmin(initial); a finite dmin is at most
        # |Q| - 1, so no row is cut off.
        last_row = len(model.states) if frontier.vacuous else frontier.dmin_init
        assert len(frontier.p) == last_row + 1, model
        # Each row's ends are its hulls' upper bounds, ascending: the keys a refusal bisects.
        assert len(frontier.ends) == len(frontier.rows), model
        for row, ends in zip(frontier.rows, frontier.ends):
            assert ends == tuple(entry.interval.hi for entry in row) == tuple(sorted(ends)), model
        horizon = None
        for i, promises in _dense_grid(frontier, len(model.states)):
            tightest = None
            for j in promises:
                verdict = is_ij_predictable(frontier, i, j)
                want = scan_is_ij_predictable(frontier, i, j)
                assert verdict == want, (model, i, j)
                if want.blocking is None:
                    assert repr(verdict) == repr(want), (model, i, j)
                refusals += not verdict.predictable
                blocked += verdict.blocking is not None
                if verdict.predictable and j != INF and tightest is None:
                    tightest = j
            assert is_i_predictable(frontier, i) == (tightest is not None), (model, i)
            if tightest is not None:
                horizon = (i, tightest)
        assert best_horizon(frontier) == (None if frontier.vacuous else horizon), model
    assert blocked > 1000 and refusals > blocked


def _permuted(model, perm):
    """The same model with state q renumbered perm[q]."""
    states = [""] * len(model.states)
    for q, name in enumerate(model.states):
        states[perm[q]] = name
    return DesModel(
        states=tuple(states),
        events=model.events,
        transitions=tuple((perm[s], e, perm[d]) for s, e, d in model.transitions),
        initial=perm[model.initial],
        faulty=frozenset(perm[q] for q in model.faulty),
    )


def test_permuting_states_changes_only_the_numbering():
    rng = random.Random(56)
    for model in _random_models(57, 200):
        perm = list(range(len(model.states)))
        rng.shuffle(perm)
        moved = _permuted(model, perm)
        assert moved == model  # same named states, events and transitions
        a, b = analyze(model), analyze(moved)
        for q in range(len(model.states)):
            assert b.table.dmin[perm[q]] == a.table.dmin[q]
            assert b.table.dmax[perm[q]] == a.table.dmax[q]
        assert b.twin.pairs == {tuple(sorted((perm[x], perm[y]))) for x, y in a.twin.pairs}
        fa, fb = a.frontier, b.frontier
        assert (fb.p, fb.dmin_init) == (fa.p, fa.dmin_init)
        assert [e.interval for e in fb.hulls] == [e.interval for e in fa.hulls]
        for i, promises in _dense_grid(fa, len(model.states)):
            for j in promises:
                va, vb = is_ij_predictable(fa, i, j), is_ij_predictable(fb, i, j)
                assert va.predictable == vb.predictable, (model, perm, i, j)
                assert (va.blocking is None) == (vb.blocking is None)
                if va.blocking is not None:
                    assert va.blocking.interval == vb.blocking.interval
            assert is_i_predictable(fa, i) == is_i_predictable(fb, i)
        assert best_horizon(fa) == best_horizon(fb)


def _renamed_events(model, rng):
    """The same model rebuilt with every event renamed and the event
    declarations shuffled; returns it with the old -> new name map."""
    names = [e.name for e in model.events]
    fresh = [f"ev{k}" for k in range(len(names))]
    rng.shuffle(fresh)
    rename = dict(zip(names, fresh))
    declared = [Event(rename[e.name], e.observable) for e in model.events]
    rng.shuffle(declared)
    index = {e.name: k for k, e in enumerate(declared)}
    moved = DesModel(
        states=model.states,
        events=tuple(declared),
        transitions=tuple((s, index[rename[names[e]]], d) for s, e, d in model.transitions),
        initial=model.initial,
        faulty=model.faulty,
    )
    return moved, rename


def test_renaming_and_reordering_events_changes_only_the_names():
    rng = random.Random(101)
    config = OracleConfig(max_states=12)
    for _ in range(300):
        model = random_live_model(rng, config)
        moved, rename = _renamed_events(model, rng)
        assert moved.states == model.states

        def renamed(events):  # model's event indices -> moved's event indices
            return tuple(moved.event_index[rename[model.events[e].name]] for e in events)

        a, b = analyze(model, witnesses=True), analyze(moved, witnesses=True)
        assert (b.table.dmin, b.table.dmax) == (a.table.dmin, a.table.dmax)
        assert b.twin.pairs == a.twin.pairs
        fa, fb = a.frontier, b.frontier
        assert (fb.p, fb.dmin_init, fb.vacuous) == (fa.p, fa.dmin_init, fa.vacuous)
        assert [(e.interval, e.pair) for e in fb.hulls] == [(e.interval, e.pair) for e in fa.hulls]
        assert [e.witness for e in fb.hulls] == [renamed(e.witness) for e in fa.hulls]
        _assert_same_verdicts(model, fa, fb, len(model.states))

        _, events = sample_run(model, rng, 15)
        observed = [model.events[e].name for e in events if model.events[e].observable]
        sa, sb = PredictionSession(model), PredictionSession(moved)
        assert [sb.feed(rename[name]) for name in observed] == [sa.feed(name) for name in observed]

        # Node numbering follows event order, so compare the automata as sets.
        ca, cb = compile_predictor(model), compile_predictor(moved)
        assert {n.mask for n in cb.nodes} == {n.mask for n in ca.nodes}
        assert cb.nodes[cb.initial].mask == ca.nodes[ca.initial].mask
        assert {(cb.nodes[s].mask, moved.events[e].name, cb.nodes[d].mask)
                for (s, e), d in cb.edges.items()} == {
            (ca.nodes[s].mask, rename[model.events[e].name], ca.nodes[d].mask)
            for (s, e), d in ca.edges.items()
        }


def _duplicated_event(model, rng):
    """The same model with one more observable event, last in the event
    list, that has the same transitions as a random observable event;
    returns it with the indices of that event and of its copy."""
    original = rng.choice([e for e, event in enumerate(model.events) if event.observable])
    copy = len(model.events)
    moved = model._replace(
        events=(*model.events, Event("copy", True)),
        transitions=(
            *model.transitions,
            *((s, copy, d) for s, e, d in model.transitions if e == original),
        ),
    )
    return moved, original, copy


def test_duplicating_an_observable_label_changes_nothing():
    rng = random.Random(103)
    config = OracleConfig(max_states=12)
    for _ in range(300):
        model = random_live_model(rng, config)
        moved, original, copy = _duplicated_event(model, rng)

        a, b = analyze(model), analyze(moved)
        assert (b.table.dmin, b.table.dmax) == (a.table.dmin, a.table.dmax)
        assert b.twin.pairs == a.twin.pairs
        fa, fb = a.frontier, b.frontier
        assert (fb.p, fb.dmin_init, fb.vacuous) == (fa.p, fa.dmin_init, fa.vacuous)
        assert [(e.interval, e.pair) for e in fb.hulls] == [(e.interval, e.pair) for e in fa.hulls]
        _assert_same_verdicts(model, fa, fb, len(model.states))

        # The copy is fed at random in place of the original.
        _, events = sample_run(model, rng, 15)
        observed = [e for e in events if model.events[e].observable]
        fed = [copy if e == original and rng.random() < 0.5 else e for e in observed]
        sa, sb = PredictionSession(model), PredictionSession(moved)
        assert [sb.feed(e) for e in fed] == [sa.feed(e) for e in observed]

        ca, cb = compile_predictor(model), compile_predictor(moved)
        assert {n.mask for n in cb.nodes} == {n.mask for n in ca.nodes}
        assert cb.nodes[cb.initial].mask == ca.nodes[ca.initial].mask

        def edges(automaton, wanted):
            return {
                (automaton.nodes[s].mask, e, automaton.nodes[d].mask)
                for (s, e), d in automaton.edges.items()
                if e in wanted
            }

        others = set(range(copy))
        assert edges(cb, others) == edges(ca, others)
        on_copy = {(s, original, d) for s, _, d in edges(cb, {copy})}
        assert on_copy == edges(cb, {original})


def _with_unreachable_copy(model):
    """The same model with a renamed copy of every state and transition
    appended, which nothing in the original reaches."""
    n = len(model.states)
    return model._replace(
        states=(*model.states, *(f"{name}_copy" for name in model.states)),
        transitions=(*model.transitions, *((s + n, e, d + n) for s, e, d in model.transitions)),
        faulty=model.faulty | {q + n for q in model.faulty},
    )


def test_appending_an_unreachable_copy_changes_nothing():
    # Vacuous models are left out: their frontier has one row per state
    # plus one, so the copy lengthens it.
    rng = random.Random(104)
    config = OracleConfig(max_states=12)
    checked = 0
    for _ in range(260):
        model = random_live_model(rng, config)
        moved = _with_unreachable_copy(model)
        assert validate(moved) == ()
        a, b = analyze(model), analyze(moved)
        if a.frontier.vacuous:
            continue
        checked += 1

        n = len(model.states)
        assert (b.table.dmin[:n], b.table.dmax[:n]) == (a.table.dmin, a.table.dmax)
        assert b.twin.pairs == a.twin.pairs
        fa, fb = a.frontier, b.frontier
        assert (fb.p, fb.dmin_init, fb.vacuous) == (fa.p, fa.dmin_init, fa.vacuous)
        assert [(e.interval, e.pair) for e in fb.hulls] == [(e.interval, e.pair) for e in fa.hulls]
        _assert_same_verdicts(model, fa, fb, n)

        _, events = sample_run(model, rng, 15)
        observed = [e for e in events if model.events[e].observable]
        sa, sb = PredictionSession(model), PredictionSession(moved)
        assert [sb.feed(e) for e in observed] == [sa.feed(e) for e in observed]

        # No belief holds a copied state, so the automata are equal outright.
        assert compile_predictor(moved) == compile_predictor(model)
    assert checked >= 100


def _subdivided(model, rng):
    """The model with one silent move q -h-> t between non-faulty states
    replaced by q -h-> s -h-> t through a fresh state s, numbered last;
    None when the model has no such move."""
    moves = [
        k for k, (q, e, t) in enumerate(model.transitions)
        if not model.events[e].observable and not {q, t} & model.faulty
    ]
    if not moves:
        return None
    k = rng.choice(moves)
    q, h, t = model.transitions[k]
    s = len(model.states)
    return model._replace(
        states=(*model.states, "fresh"),
        transitions=(*model.transitions[:k], (q, h, s), (s, h, t), *model.transitions[k + 1:]),
    )


def test_subdividing_a_silent_move_changes_nothing():
    # Only between non-faulty states: before a faulty t, s would get dmax 1
    # (the floor of one) and could add a hull.  Vacuous models are left out,
    # as their frontier has one row per state plus one.
    rng = random.Random(105)
    config = OracleConfig(max_states=12, observable_prob=0.4)
    checked = 0
    while checked < 100:
        model = random_live_model(rng, config)
        moved = _subdivided(model, rng)
        if moved is None:
            continue
        assert validate(moved) == ()
        a, b = analyze(model), analyze(moved)
        if a.frontier.vacuous:
            continue
        checked += 1

        n = len(model.states)
        assert (b.table.dmin[:n], b.table.dmax[:n]) == (a.table.dmin, a.table.dmax)
        assert {pair for pair in b.twin.pairs if pair[1] < n} == a.twin.pairs
        fa, fb = a.frontier, b.frontier
        assert (fb.p, fb.dmin_init, fb.vacuous) == (fa.p, fa.dmin_init, fa.vacuous)
        assert [(e.interval, e.pair) for e in fb.hulls] == [(e.interval, e.pair) for e in fa.hulls]
        _assert_same_verdicts(model, fa, fb, n)

        _, events = sample_run(model, rng, 15)
        observed = [e for e in events if model.events[e].observable]
        sa, sb = PredictionSession(model), PredictionSession(moved)
        assert [sb.feed(e) for e in observed] == [sa.feed(e) for e in observed]

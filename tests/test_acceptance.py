"""The acceptance gate: eight checks with pinned tolerances.

Each test covers exactly one numbered criterion and prints one
[PASS]/[FAIL] line with its measurements (visible with pytest -s and in
failure reports); pytest -v adds the per-test verdict line.
"""

from __future__ import annotations

import math
import random
import time

from faultcast import (
    INF,
    Interval,
    PredictionSession,
    analyze,
    build_twin,
    compile_predictor,
    compute_distances,
    drifting_plant,
    fan_system,
    is_ij_predictable,
    long_fuse,
    serialize_model,
    short_fuse,
)
from faultcast.cli import main
from faultcast.oracle import (
    OracleConfig,
    oracle_dmax,
    oracle_dmin,
    oracle_is_ij_predictable,
    oracle_pairs,
    random_live_model,
    sample_run,
)

FIXTURES = {
    "drifting_plant": drifting_plant,
    "short_fuse": short_fuse,
    "long_fuse": long_fuse,
    "fan_system(2)": lambda: fan_system(2),
}


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion-{number}: {detail}")
    assert ok, f"criterion-{number}: {detail}"


def test_criterion_1_plant_query_verdicts(tmp_path, capsys):
    path = tmp_path / "plant.des"
    path.write_text(serialize_model(drifting_plant()))
    start = time.perf_counter()
    yes = main(["query", str(path), "-i", "1", "-j", "2"])
    no = main(["query", str(path), "-i", "2", "-j", "2"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = (
        yes == 0
        and no == 1
        and "predictable" in out
        and "not predictable" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(
            1,
            ok,
            f"query exits (1,2)->{yes} (2,2)->{no} in {elapsed:.3f}s (<1s)",
        )


def test_criterion_2_fuse_verdicts(capsys):
    start = time.perf_counter()
    short = analyze(short_fuse()).frontier
    long_ = analyze(long_fuse()).frontier
    answers = (
        is_ij_predictable(short, 1, 1).predictable,
        is_ij_predictable(short, 2, 3).predictable,
        is_ij_predictable(long_, 2, 3).predictable,
        is_ij_predictable(long_, 1, 2).predictable,
        is_ij_predictable(long_, 1, 1).predictable,
    )
    elapsed = time.perf_counter() - start
    ok = answers == (True, False, True, True, False) and elapsed < 1.0
    with capsys.disabled():
        _verdict(
            2,
            ok,
            "short (1,1)/(2,3) and long (2,3)/(1,2)/(1,1) -> "
            f"{answers} in {elapsed:.3f}s (<1s)",
        )


def test_criterion_3_stream_predictions(capsys):
    model = drifting_plant()
    reference = [
        Interval(2, INF),
        Interval(1, 2),
        Interval(0, 1),
        Interval(0, 0),
    ]
    start = time.perf_counter()
    session = PredictionSession(model)
    got = [session.feed(name) for name in ["a", "d", "c", "a"]]
    elapsed = time.perf_counter() - start
    exact = got == [
        Interval(2, INF),
        Interval(1, 2),
        Interval(1, 1),
        Interval(0, 0),
    ]
    matches_rows_2_and_4 = got[1] == reference[1] and got[3] == reference[3]
    within_rows_1_and_3 = got[0].issubset(reference[0]) and got[2].issubset(
        reference[2]
    )
    ok = exact and matches_rows_2_and_4 and within_rows_1_and_3 and elapsed < 1.0
    with capsys.disabled():
        _verdict(
            3,
            ok,
            f"stream a,d,c,a -> {[str(v) for v in got]} in {elapsed:.3f}s (<1s)",
        )


def test_criterion_4_plant_frontier_with_oracle(capsys):
    model = drifting_plant()
    frontier = analyze(model).frontier
    dmin = oracle_dmin(model)
    dmax = oracle_dmax(model)
    limit = min(len(model.states), int(dmin[model.initial]))
    rebuilt = list(range(limit + 1))
    for a, b in oracle_pairs(model):
        lo = min(dmin[a], dmin[b])
        hi = max(dmax[a], dmax[b])
        if lo != INF and lo <= limit and hi > rebuilt[int(lo)]:
            rebuilt[int(lo)] = hi
    ok = (
        frontier.dmin_init == 3
        and frontier.p == (0, 2, INF, INF)
        and frontier.p == tuple(rebuilt)
    )
    with capsys.disabled():
        _verdict(
            4,
            ok,
            f"dmin_init={frontier.dmin_init} p={frontier.p} == oracle rebuild",
        )


def test_criterion_5_fan_scaling(capsys):
    sizes_ok = True
    for n in range(1, 31):
        twin = build_twin(fan_system(n))
        if twin.relation_size != 2 * n * n + 2 * n + 2:
            sizes_ok = False
            break
    oracle_ok = all(
        build_twin(fan_system(n)).pairs == oracle_pairs(fan_system(n))
        for n in range(1, 6)
    )
    start = time.perf_counter()
    big = build_twin(fan_system(30))
    elapsed = time.perf_counter() - start
    ok = (
        sizes_ok
        and oracle_ok
        and big.relation_size == 1862
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(
            5,
            ok,
            "relation 2n^2+2n+2 for n=1..30, oracle match n<=5, "
            f"n=30 build {elapsed:.3f}s (<1s)",
        )


def test_criterion_6_random_agreement_sweep(capsys):
    rng = random.Random(6001)
    mismatches = 0
    start = time.perf_counter()
    for _ in range(500):
        model = random_live_model(rng, OracleConfig())
        table = compute_distances(model)
        if list(table.dmin) != oracle_dmin(model):
            mismatches += 1
            continue
        if list(table.dmax) != oracle_dmax(model):
            mismatches += 1
            continue
        twin = build_twin(model)
        if twin.pairs != oracle_pairs(model):
            mismatches += 1
            continue
        frontier = analyze(model).frontier
        top = len(model.states) + 1
        for i in range(top + 1):
            for j in range(i, top + 1):
                if (
                    is_ij_predictable(frontier, i, j).predictable
                    != oracle_is_ij_predictable(model, i, j)
                ):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    with capsys.disabled():
        _verdict(
            6,
            ok,
            f"500 models, {mismatches} mismatches, {elapsed:.1f}s (<60s)",
        )


def _check_monotonicity(model) -> int:
    violations = 0
    frontier = analyze(model).frontier
    top = len(model.states) + 1
    for i in range(top + 1):
        for j in list(range(i, top + 1)) + [INF]:
            if not is_ij_predictable(frontier, i, j).predictable:
                continue
            if j != INF and not is_ij_predictable(frontier, i, j + 1).predictable:
                violations += 1
            if i >= 2:
                j_dec = j if j == INF else j - 1
                if not is_ij_predictable(frontier, i - 1, j_dec).predictable:
                    violations += 1
    return violations


def _check_shrinkage(model) -> int:
    automaton = compile_predictor(model)
    return sum(
        1
        for (src, _), dst in automaton.edges.items()
        if not automaton.nodes[dst].interval.issubset(
            automaton.nodes[src].interval.decrement()
        )
    )


def _check_witness_attainment(model) -> int:
    table = compute_distances(model)
    twin = build_twin(model)
    violations = 0
    for node in compile_predictor(model).nodes:
        lo_w, hi_w = node.witnesses
        hull = Interval(table.dmin[lo_w], table.dmax[hi_w])
        pair = (min(lo_w, hi_w), max(lo_w, hi_w))
        if hull != node.interval or pair not in twin.pairs:
            violations += 1
    return violations


def _check_run_soundness(model, rng, runs: int, length: int) -> int:
    violations = 0
    for _ in range(runs):
        states, events = sample_run(model, rng, length)
        intervals = []
        at_count = [[states[0]]]
        post_obs = [states[0]]
        session = PredictionSession(model)
        intervals.append(session.interval)
        for event, state in zip(events, states[1:]):
            if model.events[event].observable:
                session.feed(event)
                intervals.append(session.interval)
                at_count.append([state])
                post_obs.append(state)
            else:
                at_count[-1].append(state)
        m = len(post_obs) - 1
        for k in range(m + 1):
            lo, hi = intervals[k].lo, intervals[k].hi
            for c in range(k, m + 1):
                if c - k < lo and any(
                    q in model.faulty for q in at_count[c]
                ):
                    violations += 1
                if hi != INF and c - k >= hi and post_obs[c] not in model.faulty:
                    violations += 1
    return violations


def test_criterion_7_invariant_suite(capsys):
    start = time.perf_counter()
    violations = 0
    fixtures = [build() for build in FIXTURES.values()]
    for model in fixtures:
        violations += _check_monotonicity(model)
        violations += _check_shrinkage(model)
        violations += _check_witness_attainment(model)
    rng = random.Random(7001)
    for _ in range(50):
        violations += _check_monotonicity(random_live_model(rng, OracleConfig()))
    run_rng = random.Random(7002)
    for model in fixtures:
        violations += _check_run_soundness(model, run_rng, runs=1000, length=25)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    with capsys.disabled():
        _verdict(
            7,
            ok,
            "monotonicity + shrinkage + witness attainment + "
            f"4x1000 run soundness: {violations} violations, "
            f"{elapsed:.1f}s (<60s)",
        )


def test_criterion_8_quadratic_growth(capsys):
    sizes = [10, 20, 40, 80]
    times = []
    for n in sizes:
        model = fan_system(n)
        best = min(
            _timed(lambda: analyze(model)) for _ in range(3)
        )
        times.append(best)
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    slope = sum(
        (x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)
    ) / sum((x - x_mean) ** 2 for x in xs)
    ok = slope <= 2.3
    with capsys.disabled():
        _verdict(
            8,
            ok,
            f"fan analysis times {[f'{t * 1000:.1f}ms' for t in times]} "
            f"fit exponent {slope:.2f} (<=2.3)",
        )


def _timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start

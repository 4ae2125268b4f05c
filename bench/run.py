"""Benchmark of the faultcast analyzer and online monitor.

    python3 bench/run.py --workload doomed-800 --seed 1 --seconds 55 --trace 0

Generates the workload's model and observation streams from the seed,
computes the expected answers independently (reference.py), then runs
whole rounds of operations through the public API and the `faultcast`
command until the time is up, checking every output.  Each timed call
runs between two passes of a fixed calibration kernel, and its wall time
is reported scaled to the kernel's reference speed (see speed.py), as the
median over the run.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1
traced rounds alternate with untraced ones, and the metrics are the
per-layer self times from the traced rounds plus the tracing overhead.
Per-round samples, the input make-up and the spans are written under
bench/results/.  Load is one closed loop in this process: each call starts
when the previous one returns, and at most one child process runs at a
time.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, perf_counter_ns

import reference
from spans import Tracer
from speed import Speed
from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
INF = float("inf")

#: Evenly spaced promise bounds per lead-time row of the query grid.
QUERY_COLUMNS = 24
#: One query_s sample is the mean over whole passes of the grid that
#: answer about this many queries.
QUERY_BATCH = 2000
#: Stream passes per round, each on a freshly parsed model; a pass is
#: short, so several per round give the estimate more samples.
STREAM_PASSES = 3
#: At least this many rounds run, however short --seconds is.
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "explain_s": "s",
    "query_s": "s",
    "stream_obs_per_s": "1/s",
    "feed_us.p99": "us",
    "compile_s": "s",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}

#: Span name -> the per-layer metric that holds its self time.
SPAN_METRIC = {
    "desfile.parse_document": "desfile.parse_document_s",
    "desfile.document_to_model": "desfile.document_to_model_s",
    "model.validate": "model.validate_s",
    "distances.dmin": "distances.dmin_s",
    "distances.avoid": "distances.avoid_s",
    "distances.dmax": "distances.dmax_s",
    "twin.build": "twin.build_s",
    "twin.build_witness": "twin.build_witness_s",
    "predictability.frontier": "predictability.frontier_s",
    "predictability.frontier_witness": "predictability.frontier_witness_s",
    "predictability.best_horizon": "predictability.best_horizon_s",
    "belief.session_init": "belief.session_init_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
}

PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRIC.values()},
    "twin.pairs_per_s": "1/s",
    "predictability.query_us": "us",
    "belief.feed_us.p50": "us",
    "belief.compile_nodes_per_s": "1/s",
    "trace.overhead_pct": "%",
}

#: The console script's entry point, then the peak RSS of this process
#: image.  VmHWM belongs to the image exec started; ru_maxrss would also
#: count the benchmark's own size, which the child holds until exec.
CLI_ENTRY = (
    "import sys\n"
    "from faultcast.cli import main\n"
    "code = main()\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
    "print('vmhwm_kb', *peak, file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import faultcast; "
    "print(time.perf_counter() - t)"
)


class CheckFailed(Exception):
    """An output of the program disagrees with the expected answer."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def fmt(value) -> str:
    return "inf" if value == INF else str(value)


def shifted(bound):
    """One observation later: saturating decrement, as Interval.decrement."""
    return bound if bound in (0, INF) else bound - 1


class Bench:
    """The operations of one workload, each followed by its checks."""

    def __init__(self, work, exp, workdir: Path) -> None:
        import faultcast
        from faultcast import desfile

        self.fc = faultcast
        self.desfile = desfile
        self.work = work
        self.exp = exp
        self.text = work.text()
        self.model_path = workdir / "model.des"
        self.model_path.write_text(self.text, encoding="utf-8")
        self.stream_names = [work.stream_names(k) for k in range(len(work.streams))]
        self.stdin_text = ""
        if work.cli == "predict":
            self.stdin_text = "\n".join(self.stream_names[0]) + "\n"
        self.stdin_path = workdir / "stdin.txt"
        self.stdin_path.write_text(self.stdin_text, encoding="utf-8")
        self.out_path = workdir / "cli.out"
        self.err_path = workdir / "cli.err"
        self.cli_args = [work.cli, str(self.model_path)]
        self.cap = work.compile_cap or faultcast.DEFAULT_NODE_CAP
        self.grid = reference.query_grid(exp, QUERY_COLUMNS)
        self.grid_expected = [reference.predictable(exp, i, j) for i, j in self.grid]
        self.grid_passes = max(1, QUERY_BATCH // len(self.grid))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.facts: dict = {}
        self._index_expected()

    def _index_expected(self) -> None:
        """The expected answers, moved into the program's state indices."""
        model = self.fc.parse_model(self.text)
        self.prog_states = model.states
        to_prog = [model.state_index[name] for name in self.work.states]
        self.gen_of = {p: g for g, p in enumerate(to_prog)}
        exp = self.exp
        n = len(to_prog)
        dmin = [0] * n
        dmax = [0] * n
        for g, p in enumerate(to_prog):
            dmin[p] = exp.dmin[g]
            dmax[p] = exp.dmax[g]
        self.dmin = tuple(dmin)
        self.dmax = tuple(dmax)
        pairs = set()
        for code in exp.pairs:
            a, b = to_prog[code // n], to_prog[code % n]
            pairs.add((a, b) if a <= b else (b, a))
        self.pairs = frozenset(pairs)
        self.hulls = set(exp.hulls)
        self.beliefs = None
        if exp.beliefs is not None:
            self.beliefs = {frozenset(to_prog[q] for q in b) for b in exp.beliefs}
        if self.work.cli == "predict":
            self.cli_expected = "".join(f"{fmt(lo)} {fmt(hi)}\n" for lo, hi in exp.intervals[0])
        else:
            rows = [f"dmin_init {fmt(exp.dmin_init)}", f"vacuous {str(exp.vacuous).lower()}"]
            rows += [f"{i} -> {fmt(p)}" for i, p in enumerate(exp.p)]
            self.cli_expected = "\n".join(rows) + "\n"
        finite = [i for i, p in enumerate(exp.p) if p != INF]
        self.best = None if exp.vacuous or not finite else (finite[-1], exp.p[finite[-1]])
        self.witness_stride = max(1, len(exp.hulls) // 16)
        self.successors = reference.successors(self.work)
        self.event_of = {name: k for k, (name, _) in enumerate(self.work.events)}

    # -- checks -------------------------------------------------------------

    def check_model(self, model) -> None:
        check(model.states == self.prog_states, "parsed states differ between parses")
        check(len(model.transitions) == len(self.work.transitions), "transition count")
        check(model.states[model.initial] == self.work.states[self.work.initial], "initial state")
        check(
            {model.states[q] for q in model.faulty}
            == {self.work.states[q] for q in self.work.faulty},
            "fault set",
        )

    def check_analysis(self, analysis, witnesses: bool) -> None:
        exp = self.exp
        check(analysis.table.dmin == self.dmin, "dmin differs from oracle_dmin")
        check(analysis.table.dmax == self.dmax, "dmax differs from oracle_dmax")
        check(analysis.twin.pairs == self.pairs, "pair set differs from the pair search")
        frontier = analysis.frontier
        check(frontier.dmin_init == exp.dmin_init, "dmin_init")
        check(frontier.vacuous == exp.vacuous, "vacuous flag")
        check(list(frontier.p) == exp.p, "frontier rows are not the tightest bounds")
        check({(e.interval.lo, e.interval.hi) for e in frontier.hulls} == self.hulls, "hull set")
        for entry in frontier.hulls:
            a, b = entry.pair
            check(entry.pair in self.pairs, "hull pair not confusable")
            check(
                (min(self.dmin[a], self.dmin[b]), max(self.dmax[a], self.dmax[b]))
                == (entry.interval.lo, entry.interval.hi),
                "hull is not the hull of its pair",
            )
        if witnesses:
            for entry in frontier.hulls[:: self.witness_stride]:
                self.check_witness(analysis.model, entry)

    def check_witness(self, model, entry) -> None:
        # Replayed on the benchmark's own tracker, the witness must leave
        # both states of the pair possible.
        events = [self.event_of[model.events[e].name] for e in entry.witness]
        belief = reference.belief_after(self.work, events, self.successors)
        for q in entry.pair:
            check(self.gen_of[q] in belief, "witness does not reach its pair")

    def check_queries(self, verdicts, rows, best) -> None:
        exp = self.exp
        for (i, j), verdict, want in zip(self.grid, verdicts, self.grid_expected):
            check(verdict.predictable == want, f"query ({i}, {j})")
            if verdict.blocking is not None:
                lo, hi = verdict.blocking.interval.lo, verdict.blocking.interval.hi
                check(lo <= i and j <= hi and (lo, hi) != (i, j), "blocking hull")
        for i, answer in rows:
            want = exp.vacuous or (i < len(exp.p) and exp.p[i] != INF)
            check(answer == want, f"is_i_predictable({i})")
        check(best == self.best, "best_horizon")

    def check_stream(self, k: int, intervals) -> None:
        got = [(iv.lo, iv.hi) for iv in intervals]
        check(got == self.exp.intervals[k], "streamed intervals differ from the subset tracker")
        dmin, dmax = self.exp.dmin, self.exp.dmax
        previous = None
        for (lo, hi), state in zip(got, self.work.truth[k]):
            check(lo <= dmin[state] and dmax[state] <= hi, "interval misses the run state")
            if previous is not None:
                check(
                    shifted(previous[0]) <= lo and hi <= shifted(previous[1]),
                    "interval not within the previous one shifted by a step",
                )
            previous = (lo, hi)

    def check_compile(self, automaton) -> None:
        check(self.beliefs is not None, "compile succeeded past the cap")
        nodes = {node.members for node in automaton.nodes}
        check(nodes == self.beliefs, "automaton nodes differ from oracle_beliefs")
        check(len(nodes) == len(automaton.nodes), "duplicate automaton nodes")
        for node in automaton.nodes:
            check(
                (node.interval.lo, node.interval.hi)
                == (
                    min(self.dmin[q] for q in node.members),
                    max(self.dmax[q] for q in node.members),
                ),
                "node interval",
            )

    # -- operations -----------------------------------------------------------
    #
    # Each timed call runs between two kernel passes (see speed.py) and
    # yields its wall-clock interval (start, end); the intervals become
    # reference seconds once the run is over and every kernel pass around
    # them is known.

    def attempt(self, what: str, operation, *args):
        """Run one operation; a raised error counts as a failed operation.

        Each operation starts from an empty young generation, whatever the
        previous one left behind; that collection is not timed.
        """
        self.attempted += 1
        gc.collect()
        try:
            return operation(*args)
        except CheckFailed:
            raise
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def timed(self, call, *args, **kwargs):
        """call(*args, **kwargs), between two kernel passes; its result and
        wall-clock interval."""
        self.speed.calibrate()
        start = perf_counter()
        result = call(*args, **kwargs)
        end = perf_counter()
        self.speed.calibrate()
        return result, (start, end)

    def parse_traced(self, tracer):
        with tracer.span("desfile.parse_model"):
            with tracer.span("desfile.parse_document"):
                doc = self.desfile.parse_document(self.text)
            with tracer.span("desfile.document_to_model"):
                model = self.desfile.document_to_model(doc)
            with tracer.span("model.validate"):
                self.fc.check_valid(model)
        return model

    def setup(self, tracer):
        if tracer is None:
            model, interval = self.timed(self.fc.parse_model, self.text)
        else:
            model, interval = self.timed(self.parse_traced, tracer)
        self.check_model(model)
        return model, interval

    def analyze_traced(self, model, tracer, witnesses: bool):
        fc = self.fc
        suffix = "_witness" if witnesses else ""
        with tracer.span("predictability.analyze" + suffix):
            with tracer.span("distances.avoid"):
                avoid = fc.compute_avoid_set(model)
            with tracer.span("distances.dmin"):
                dmin = fc.compute_dmin(model)
            with tracer.span("distances.dmax"):
                dmax = fc.compute_dmax(model, avoid)
            table = fc.DistanceTable(dmin=dmin, dmax=dmax, avoid=avoid)
            with tracer.span("twin.build" + suffix) as span:
                twin = fc.build_twin(model, witnesses=witnesses)
            span[4] = len(twin.pairs)
            with tracer.span("predictability.frontier" + suffix):
                frontier = fc.compute_frontier(model, table, twin)
        return fc.Analysis(model=model, table=table, twin=twin, frontier=frontier)

    def analyze(self, model, tracer, witnesses: bool):
        if tracer is None:
            return self.timed(self.fc.analyze, model, witnesses=witnesses)
        return self.timed(self.analyze_traced, model, tracer, witnesses)

    def query_passes(self, frontier):
        fc = self.fc
        rows = range(len(self.exp.p) + 1)
        for _ in range(self.grid_passes):
            verdicts = [fc.is_ij_predictable(frontier, i, j) for i, j in self.grid]
            answers = [(i, fc.is_i_predictable(frontier, i)) for i in rows]
            best = fc.best_horizon(frontier)
        return verdicts, answers, best

    def query_traced(self, frontier, tracer):
        fc = self.fc
        rows = range(len(self.exp.p) + 1)
        with tracer.span("bench.query"):
            with tracer.span("predictability.is_ij_predictable") as span:
                verdicts = [fc.is_ij_predictable(frontier, i, j) for i, j in self.grid]
            span[4] = len(self.grid)
            with tracer.span("predictability.is_i_predictable"):
                answers = [(i, fc.is_i_predictable(frontier, i)) for i in rows]
            with tracer.span("predictability.best_horizon"):
                best = fc.best_horizon(frontier)
        return verdicts, answers, best

    def query(self, frontier, tracer):
        """The interval of whole passes over the grid, and their number."""
        if tracer is None:
            answers, interval = self.timed(self.query_passes, frontier)
            passes = self.grid_passes
        else:
            answers, interval = self.timed(self.query_traced, frontier, tracer)
            passes = 1
        self.check_queries(*answers)
        return interval, passes

    def feed_all(self, model, tracer):
        session_of = self.fc.PredictionSession
        clock = perf_counter_ns
        latencies: list[int] = []
        outputs = []
        for names in self.stream_names:
            if tracer is None:
                session = session_of(model)
            else:
                with tracer.span("belief.session_init"):
                    session = session_of(model)
            out = []
            feed = session.feed
            for name in names:
                a = clock()
                out.append(feed(name))
                latencies.append(clock() - a)
            outputs.append(out)
        return outputs, latencies

    def stream(self, model, tracer):
        """One pass of every stream: its interval, the observations fed, and
        the median and 99th percentile latency of an observation in ns."""
        (outputs, latencies), interval = self.timed(self.feed_all, model, tracer)
        for k, out in enumerate(outputs):
            self.check_stream(k, out)
        return (
            *interval, len(latencies), percentile(latencies, 0.5), percentile(latencies, 0.99)
        )

    def compile_or_refuse(self, model, tracer):
        fc = self.fc
        with tracer.span("belief.compile") if tracer else nullcontext([None] * 5) as span:
            try:
                return fc.compile_predictor(model, cap=self.cap), None, span
            except fc.CapExceededError as exc:
                return None, exc, span

    def compile(self, model, tracer):
        (automaton, refused, span), interval = self.timed(self.compile_or_refuse, model, tracer)
        if refused is not None:
            # The expected outcome where the belief space passes the cap.
            check(self.beliefs is None, "compile refused below the cap")
            check(refused.explored == self.cap, "refusal count")
            span[4] = refused.explored
        else:
            self.check_compile(automaton)
            span[4] = len(automaton.nodes)
            self.facts["automaton_nodes"] = len(automaton.nodes)
            self.facts["automaton_edges"] = len(automaton.edges)
        return interval

    def spawn(self, args, stdin, out, err) -> int:
        """Run a child interpreter to its exit, killing it after 120 s.

        A blocking wait returns as soon as the child exits; a wait with a
        timeout would poll, and round its wall time up by as much as 50 ms.
        """
        proc = subprocess.Popen(
            [sys.executable, "-c", *args], stdin=stdin, stdout=out, stderr=err,
            env=self.env, cwd=ROOT,
        )
        limit = threading.Timer(120, proc.kill)
        limit.start()
        try:
            return proc.wait()
        finally:
            limit.cancel()

    def cli(self):
        """One `faultcast` process: its interval and peak RSS in MB."""
        with open(self.stdin_path, "rb") as stdin, open(self.out_path, "wb") as out, open(
            self.err_path, "wb"
        ) as err:
            code, interval = self.timed(self.spawn, [CLI_ENTRY, *self.cli_args], stdin, out, err)
        report = self.err_path.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            raise RuntimeError(f"faultcast exited {code}: {report[-500:]}")
        output = self.out_path.read_text(encoding="utf-8")
        check(output == self.cli_expected, "faultcast output differs from the expected answers")
        words = report.split()
        check(words[-2:-1] == ["vmhwm_kb"], "no peak RSS from the faultcast process")
        return interval, int(words[-1]) / 1024.0

    def cli_import(self):
        """`import faultcast` in a fresh interpreter, timed inside it; the
        interval starts with the child."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            code, (start, _) = self.timed(self.spawn, [IMPORT_PROBE], subprocess.DEVNULL, out, err)
        if code != 0:
            report = self.err_path.read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"import probe exited {code}: {report[-500:]}")
        return start, start + float(self.out_path.read_text(encoding="utf-8"))

    def cli_main(self):
        """In-process `cli.main`, its output going to a sink."""
        from faultcast.cli import main

        saved = sys.stdout, sys.stdin
        sink = io.StringIO()
        sys.stdout, sys.stdin = sink, io.StringIO(self.stdin_text)
        try:
            code, interval = self.timed(main, self.cli_args)
        finally:
            sys.stdout, sys.stdin = saved
        check(code == 0, f"cli.main returned {code}")
        check(sink.getvalue() == self.cli_expected, "cli.main output differs")
        return interval

    # -- rounds ---------------------------------------------------------------

    def round(self, tracer) -> dict:
        """Every operation, each on a freshly parsed model: analyze, query
        and explain `work.analyses` times, the stream STREAM_PASSES times,
        the rest once.

        Returns the round's samples.  No large result outlives its own
        operation and checks, so none slows the next one down.
        """
        sample: dict = {"setups": [], "analyze": [], "query": [], "explain": [], "streams": []}

        def fresh():
            result = self.attempt("setup", self.setup, tracer)
            if result is None:
                return None
            model, interval = result
            sample["setups"].append(interval)
            return model

        for _ in range(self.work.analyses):
            model = fresh()
            if model is not None:
                result = self.attempt("analyze", self.analyze, model, tracer, False)
                if result is not None:
                    analysis, interval = result
                    sample["analyze"].append(interval)
                    self.check_analysis(analysis, witnesses=False)
                    result = self.attempt("query", self.query, analysis.frontier, tracer)
                    if result is not None:
                        sample["query"].append(result)
                    del analysis
            model = fresh()
            if model is not None:
                result = self.attempt("explain", self.analyze, model, tracer, True)
                if result is not None:
                    explained, interval = result
                    sample["explain"].append(interval)
                    self.check_analysis(explained, witnesses=True)
                    del explained
        for _ in range(STREAM_PASSES):
            model = fresh()
            if model is not None:
                result = self.attempt("stream", self.stream, model, tracer)
                if result is not None:
                    sample["streams"].append(result)
        model = fresh()
        if model is not None:
            result = self.attempt("compile", self.compile, model, tracer)
            if result is not None:
                sample["compile"] = result
        del model
        if tracer is None:
            result = self.attempt("cli", self.cli)
            if result is not None:
                sample["cli"], sample["rss"] = result
        else:
            with tracer.span("cli.run"):
                self.attempt("cli", self.cli)
            # Recorded apart from the round's spans: the import as the child
            # timed it, cli.main around the call alone.
            for name, operation in (("cli.import", self.cli_import), ("cli.main", self.cli_main)):
                result = self.attempt(name, operation)
                if result is not None:
                    tracer.add(name, *(int(t * 1e9) for t in result))
        gc.collect()
        return sample


def end_to_end(bench: Bench, rounds: list[dict]) -> dict[str, float]:
    """Each metric's median over the run's samples, in reference seconds.

    A stream pass's latency percentile takes the pass's scale.  Peak RSS is
    the median over rounds, unscaled.
    """
    speed = bench.speed

    def seconds(key):
        return statistics.median(speed.seconds(*r[key]) for r in rounds if key in r)

    def every(key):
        return statistics.median(speed.seconds(*interval) for r in rounds for interval in r[key])

    queries = [speed.seconds(*q) / passes for r in rounds for q, passes in r["query"]]
    passes = [p for r in rounds for p in r["streams"]]
    rates = [n / speed.seconds(start, end) for start, end, n, _, _ in passes]
    p99s = [p99 * speed.scale(start, end) / 1000.0 for start, end, _, _, p99 in passes]
    return {
        "setup_s": every("setups"),
        "analyze_s": every("analyze"),
        "explain_s": every("explain"),
        "query_s": statistics.median(queries),
        "stream_obs_per_s": statistics.median(rates),
        "feed_us.p99": statistics.median(p99s),
        "compile_s": seconds("compile"),
        "cli_s": seconds("cli"),
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds if "rss" in r),
    }


def per_layer(bench: Bench, tracer: Tracer, traced: list[dict], plain: list[dict]):
    """Per-layer self times from the traced rounds, the median call of each.

    A span's self time takes the scale of the span's own interval.  The
    overhead compares the median traced and untraced rounds over the
    in-process operations that both kinds of round time.
    """
    speed = bench.speed
    samples: dict[str, list[float]] = {}
    for (name, seconds), (_, start, end, _, count) in zip(tracer.self_times(), tracer.spans):
        seconds *= speed.scale(start / 1e9, end / 1e9)
        if name in SPAN_METRIC:
            samples.setdefault(SPAN_METRIC[name], []).append(seconds)
        elif name == "predictability.is_ij_predictable":
            samples.setdefault("predictability.query_us", []).append(seconds / count * 1e6)
        if name == "twin.build":
            samples.setdefault("twin.pairs_per_s", []).append(count / seconds)
        elif name == "belief.compile":
            samples.setdefault("belief.compile_nodes_per_s", []).append(count / seconds)
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    metrics["belief.feed_us.p50"] = statistics.median(
        p50 * speed.scale(start, end) / 1000.0
        for r in traced
        for start, end, _, p50, _ in r["streams"]
    )

    def total(rounds):
        def cost(r):
            intervals = r["setups"] + r["analyze"] + r["explain"] + [r["compile"]]
            queries = sum(speed.seconds(*q) / passes for q, passes in r["query"])
            return sum(speed.seconds(*i) for i in intervals) + queries

        return statistics.median(cost(r) for r in rounds)

    metrics["trace.overhead_pct"] = 100.0 * (total(traced) / total(plain) - 1.0)
    return {m: metrics[m] for m in PER_LAYER}


def describe(work, exp, bench: Bench) -> dict:
    sizes = exp.belief_sizes
    return {
        "states": len(work.states),
        "transitions": len(work.transitions),
        "text_bytes": len(bench.text.encode()),
        "pairs": len(exp.pairs),
        "hulls": len(exp.hulls),
        "dmin_init": fmt(exp.dmin_init),
        "frontier_rows": len(exp.p),
        "finite_rows": sum(1 for p in exp.p if p != INF),
        "queries": len(bench.grid),
        "streams": len(work.streams),
        "observations": len(sizes),
        "distinct_stream_beliefs": len(sizes) - exp.revisits,
        "mean_belief_size": round(statistics.mean(sizes), 2),
        "revisit_share": round(exp.revisits / len(sizes), 4),
        "reachable_beliefs": None if exp.beliefs is None else len(exp.beliefs),
        "compile_cap": bench.cap,
        **bench.facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "faultcast" / "__init__.py").is_file():
        print(f"bench: no faultcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t = perf_counter()
    work = GENERATORS[args.workload](args.seed)
    exp = reference.expected(work)
    prepare_s = perf_counter() - t

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    correct = True
    tracer = Tracer() if args.trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        bench = Bench(work, exp, workdir)
        # The reference data stays alive all run; keep it out of the
        # collector's way, so in-process timings see only the program's heap.
        gc.collect()
        gc.freeze()
        start = perf_counter()
        try:
            while True:
                t = perf_counter()
                plain.append(bench.round(None))
                if tracer is not None:
                    traced.append(bench.round(tracer))
                lap = perf_counter() - t
                if len(plain) >= MIN_ROUNDS and perf_counter() - start + lap > args.seconds:
                    break
        except CheckFailed as exc:
            correct = False
            bench.errors.append(f"check failed: {exc}")
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics: dict[str, float] = {}
    if correct and not bench.failed:
        metrics = per_layer(bench, tracer, traced, plain) if tracer else end_to_end(bench, plain)
    units = PER_LAYER if tracer else END_TO_END
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "prepare_s": prepare_s,
                "measured_s": measured_s,
                "rounds": len(plain),
                "inputs": describe(work, exp, bench),
                "plain_rounds": plain,
                "traced_rounds": traced,
                "kernel_at": bench.speed.at,
                "kernel_s": bench.speed.kernel_s,
                "errors": bench.errors,
                "metrics": metrics,
            },
            handle,
            indent=1,
        )
    if tracer is not None:
        tracer.write(RESULTS / f"trace-{stem}.json")
    for line in bench.errors:
        print(line, file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

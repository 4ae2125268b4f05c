"""Command line front end.

Exit codes, shared by every subcommand: 0 success (and "yes" answers),
1 negative answers (query says not predictable, predict hits an
impossible observation), 2 data errors (unparsable or invalid models,
bad query intervals, cap overruns, I/O problems, oracle mismatches),
3 usage errors.  A reader that closes stdout early, as `| head` does, is
not an error: the command stops writing and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .belief import DEFAULT_NODE_CAP, BeliefAutomaton, PredictionSession, compile_predictor
from .desfile import parse_model, serialize_model
from .distances import compute_distances
from .errors import (
    CapExceededError,
    FaultcastError,
    ImpossibleObservationError,
    InvalidModelError,
    ModelSyntaxError,
)
from .families import GENERATORS
from .intervals import INF, ExtNat, format_extnat, parse_extnat
from .model import DesModel, validate
from .oracle import oracle_dmax, oracle_dmin, oracle_is_ij_predictable
from .predictability import analyze, is_ij_predictable
from .twin import build_twin, reachable_edges, witness_observations


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 3, leaving 2 free for data errors.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _extnat_arg(text: str) -> ExtNat:
    try:
        return parse_extnat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a natural number or inf, got {text!r}") from None


def _nat_arg(text: str) -> int:
    # parse_extnat's rule without inf: ASCII digits only, so no sign, space or "_".
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faultcast", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def with_model(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("model", help="model file to read")
        sub.add_argument(
            "--close-faults",
            action="store_true",
            help="replace the fault set with its forward closure",
        )
        sub.add_argument(
            "--no-validate",
            action="store_true",
            help="skip structural validation after parsing",
        )

    sub = commands.add_parser("validate", help="check the structural invariants")
    sub.add_argument("model")
    sub.add_argument("--close-faults", action="store_true")
    sub.set_defaults(func=_cmd_validate, no_validate=True)

    sub = commands.add_parser("distances", help="per-state fault distances")
    with_model(sub)
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sub.add_argument(
        "--oracle",
        action="store_true",
        help="also compute with the reference implementation and compare",
    )
    sub.set_defaults(func=_cmd_distances)

    sub = commands.add_parser("twin", help="confusable state pairs")
    with_model(sub)
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sub.add_argument(
        "--witnesses",
        action="store_true",
        help="include a shortest observation sequence per pair",
    )
    sub.add_argument("--dot", metavar="FILE", help="write the pair graph as DOT")
    sub.set_defaults(func=_cmd_twin)

    sub = commands.add_parser("predictability", help="the frontier of lead times")
    with_model(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=_cmd_predictability)

    sub = commands.add_parser("query", help="decide one (i, j) query")
    with_model(sub)
    sub.add_argument("-i", type=_nat_arg, required=True, help="lead time (observations)")
    sub.add_argument(
        "-j", type=_extnat_arg, required=True, help="promise bound (natural or inf)"
    )
    sub.add_argument("--witness", action="store_true", help="explain refusals")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--oracle", action="store_true", help="cross-check the verdict")
    sub.set_defaults(func=_cmd_query)

    sub = commands.add_parser("predict", help="run the online predictor on stdin")
    with_model(sub)
    sub.set_defaults(func=_cmd_predict)

    sub = commands.add_parser("compile", help="enumerate all reachable beliefs")
    with_model(sub)
    sub.add_argument(
        "--cap", type=int, default=DEFAULT_NODE_CAP,
        help="refuse past this many beliefs (default %(default)s)",
    )
    sub.add_argument("--dot", metavar="FILE", help="write the automaton as DOT")
    sub.add_argument("--json", metavar="FILE", help="write the automaton as JSON")
    sub.set_defaults(func=_cmd_compile)

    sub = commands.add_parser("gen", help="write a built-in model family")
    sub.add_argument("family", choices=sorted(GENERATORS))
    sub.add_argument("-n", type=_nat_arg, required=True, help="family size parameter")
    sub.add_argument("-o", metavar="FILE", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit, so send what is left nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ImpossibleObservationError as exc:
        print(f"faultcast: impossible observation: {exc}", file=sys.stderr)
        return 1
    except InvalidModelError as exc:
        for finding in exc.report.findings:
            print(f"faultcast: {finding.severity} {finding.code}: {finding.message}", file=sys.stderr)
        return 2
    except (FaultcastError, OSError, ValueError) as exc:
        print(f"faultcast: error: {exc}", file=sys.stderr)
        return 2


def _load(args: argparse.Namespace) -> DesModel:
    # utf-8-sig drops a byte-order mark that some editors write.
    with open(args.model, "r", encoding="utf-8-sig") as handle:
        text = handle.read()
    return parse_model(
        text, close_faults=args.close_faults, require_valid=not args.no_validate
    )


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _ext_json(value: ExtNat) -> object:
    return "inf" if value == INF else value


# -- commands ---------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate(_load(args))
    if report.ok:
        print("ok")
        return 0
    for finding in report.findings:
        print(f"{finding.severity} {finding.code}: {finding.message}")
    return 2


def _cmd_distances(args: argparse.Namespace) -> int:
    model = _load(args)
    table = compute_distances(model)
    tables = {"states": (table.dmin, table.dmax)}
    if args.oracle:
        tables["oracle"] = (oracle_dmin(model), oracle_dmax(model))
    # Per table, in print order, one (name, dmin, dmax) row per state.
    rows = {key: list(zip(model.states, dmin, dmax)) for key, (dmin, dmax) in tables.items()}
    match = not args.oracle or rows["states"] == rows["oracle"]
    if args.format == "json":
        payload: dict = {
            key: [
                {"name": name, "dmin": _ext_json(dmin), "dmax": _ext_json(dmax)}
                for name, dmin, dmax in table_rows
            ]
            for key, table_rows in rows.items()
        }
        if args.oracle:
            payload["match"] = match
        print(json.dumps(payload, indent=2))
        return 0 if match else 2
    for key, table_rows in rows.items():
        if key == "oracle":
            print("# oracle")
        for name, dmin, dmax in table_rows:
            print(f"{name}\t{format_extnat(dmin)}\t{format_extnat(dmax)}")
    if args.oracle:
        print("MATCH" if match else "MISMATCH")
    return 0 if match else 2


def _cmd_twin(args: argparse.Namespace) -> int:
    model = _load(args)
    twin = build_twin(model, witnesses=args.witnesses)
    pairs = sorted(twin.pairs)
    witness_of = {}
    if args.witnesses:
        witness_of = {
            pair: [model.events[e].name for e in witness_observations(twin, pair)]
            for pair in pairs
        }
    if args.dot:
        _write(args.dot, _twin_dot(model, twin))
    if args.format == "json":
        payload = {
            "pair_count": twin.pair_count,
            "relation_size": twin.relation_size,
            "pairs": [
                {
                    "states": [model.states[a], model.states[b]],
                    "witness": witness_of.get((a, b)),
                }
                for a, b in pairs
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"# pairs\t{twin.pair_count}")
    print(f"# relation\t{twin.relation_size}")
    for a, b in pairs:
        line = f"{model.states[a]}\t{model.states[b]}"
        if args.witnesses:
            line += "\t" + " ".join(witness_of[(a, b)])
        print(line)
    return 0


def _cmd_predictability(args: argparse.Namespace) -> int:
    model = _load(args)
    frontier = analyze(model).frontier
    if args.format == "json":
        payload = {
            "dmin_init": _ext_json(frontier.dmin_init),
            "vacuous": frontier.vacuous,
            "rows": [
                {"i": i, "p": _ext_json(p)} for i, p in enumerate(frontier.p)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"dmin_init {format_extnat(frontier.dmin_init)}")
    print(f"vacuous {str(frontier.vacuous).lower()}")
    for i, p in enumerate(frontier.p):
        print(f"{i} -> {format_extnat(p)}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    model = _load(args)
    frontier = analyze(model, witnesses=args.witness or args.format == "json").frontier
    verdict = is_ij_predictable(frontier, args.i, args.j)

    blocking = None
    if verdict.blocking is not None:
        entry = verdict.blocking
        blocking = {
            "pair": [model.states[entry.pair[0]], model.states[entry.pair[1]]],
            "hull": [_ext_json(entry.interval.lo), _ext_json(entry.interval.hi)],
            "witness": [model.events[e].name for e in (entry.witness or ())],
        }

    oracle_verdict = None
    if args.oracle:
        oracle_verdict = oracle_is_ij_predictable(model, args.i, args.j)

    if args.format == "json":
        payload: dict = {"predictable": verdict.predictable}
        if blocking is not None:
            payload["blocking"] = blocking
        if oracle_verdict is not None:
            payload["oracle"] = oracle_verdict
            payload["match"] = oracle_verdict == verdict.predictable
        print(json.dumps(payload, indent=2))
    else:
        print("predictable" if verdict.predictable else "not predictable")
        if not verdict.predictable and args.witness:
            if blocking is None:
                print(
                    "reason: lead time "
                    f"{args.i} exceeds the initial fault distance "
                    f"{format_extnat(frontier.dmin_init)}"
                )
            else:
                print(f"blocking pair: {' '.join(blocking['pair'])}")
                hull = " ".join(format_extnat(v) for v in [
                    verdict.blocking.interval.lo, verdict.blocking.interval.hi
                ])
                print(f"blocking hull: {hull}")
                print(f"witness: {' '.join(blocking['witness'])}")
        if oracle_verdict is not None:
            print("oracle " + ("predictable" if oracle_verdict else "not predictable"))
            print("MATCH" if oracle_verdict == verdict.predictable else "MISMATCH")
    if oracle_verdict is not None and oracle_verdict != verdict.predictable:
        return 2
    return 0 if verdict.predictable else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    model = _load(args)
    session = PredictionSession(model)
    for raw in sys.stdin:
        name = raw.strip()
        if not name:
            continue
        interval = session.feed(name)
        print(
            f"{format_extnat(interval.lo)} {format_extnat(interval.hi)}",
            flush=True,
        )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    model = _load(args)
    automaton = compile_predictor(model, cap=args.cap)
    if args.dot:
        _write(args.dot, _automaton_dot(model, automaton))
    if args.json:
        _write(args.json, _automaton_json(model, automaton))
    print(f"nodes {len(automaton.nodes)}")
    print(f"edges {len(automaton.edges)}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError("family size must be at least 1")
    model = GENERATORS[args.family](args.n)
    _write(args.o, serialize_model(model))
    return 0


# -- exports ----------------------------------------------------------------


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _twin_dot(model: DesModel, twin) -> str:
    lines = ["digraph twin {", "  rankdir=LR;"]
    for a, b in sorted(twin.pairs):
        name = f"{model.states[a]},{model.states[b]}"
        attrs = [f"label={_quote(name)}"]
        if a in model.faulty or b in model.faulty:
            attrs.append("style=filled")
            attrs.append("fillcolor=grey")
        lines.append(f"  {_quote(name)} [{', '.join(attrs)}];")
    for src, event, observable, dst in reachable_edges(model, twin):
        src_name = f"{model.states[src[0]]},{model.states[src[1]]}"
        dst_name = f"{model.states[dst[0]]},{model.states[dst[1]]}"
        attrs = [f"label={_quote(model.events[event].name)}"]
        if not observable:
            attrs.append("style=dashed")
        lines.append(
            f"  {_quote(src_name)} -> {_quote(dst_name)} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _belief_label(model: DesModel, belief) -> str:
    members = "{" + ",".join(sorted(model.states[q] for q in belief.members)) + "}"
    iv = belief.interval
    return f"{members}\\n[{format_extnat(iv.lo)},{format_extnat(iv.hi)}]"


def _automaton_dot(model: DesModel, automaton: BeliefAutomaton) -> str:
    lines = ["digraph predictor {", "  rankdir=LR;"]
    for idx, node in enumerate(automaton.nodes):
        attrs = [f"label=\"{_belief_label(model, node)}\""]
        if any(q in model.faulty for q in node.members):
            attrs.append("style=filled")
            attrs.append("fillcolor=grey")
        lines.append(f"  n{idx} [{', '.join(attrs)}];")
    for (src, event), dst in sorted(automaton.edges.items()):
        label = _quote(model.events[event].name)
        lines.append(f"  n{src} -> n{dst} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _automaton_json(model: DesModel, automaton: BeliefAutomaton) -> str:
    payload = {
        "initial": automaton.initial,
        "nodes": [
            {
                "id": idx,
                "members": sorted(model.states[q] for q in node.members),
                "interval": [
                    _ext_json(node.interval.lo),
                    _ext_json(node.interval.hi),
                ],
                "witnesses": [
                    model.states[node.witnesses[0]],
                    model.states[node.witnesses[1]],
                ],
            }
            for idx, node in enumerate(automaton.nodes)
        ],
        "edges": [
            {"src": src, "event": model.events[event].name, "dst": dst}
            for (src, event), dst in sorted(automaton.edges.items())
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


if __name__ == "__main__":
    raise SystemExit(main())

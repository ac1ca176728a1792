"""Command-line entry point.

One subcommand per operation family; machine arguments accept both compact
inline specs (wheel:4, akt:activity, ...), which ``menagerie.build`` alone
reads, and paths to CMA-JSON files, with inline winning.  Every JSON file
goes through ``read_doc`` to the reader of the module that owns the
document, and a malformed one is reported with its path and its kind.  Exit
codes: 0 success, 1 domain errors (one machine-readable line), 2 usage errors.
The CMA_CONSTRAINTS environment variable overrides the structural budgets
as "m=10000,s=256,o=8,i=10000".  Each handler imports the engine modules it
runs, so a command loads only its own share of the package.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    CYCLE_WINDOW_LIMIT,
    DEFAULT_HORIZON,
    SYNC_WORK_LIMIT,
    DomainError,
    InputDomainError,
    digit_count,
    leading_digits,
)
from .machine import (BLANK_GLYPH, Automaton, Constraints, _read_json, from_doc, to_dot,
                      to_json, validate)


class UsageError(Exception):
    pass


def env_constraints() -> Constraints:
    raw = os.environ.get("CMA_CONSTRAINTS")
    if not raw:
        return Constraints()
    keys = {"m": "max_states", "s": "max_alphabet", "o": "max_out_degree", "i": "max_in_degree"}
    values = {}
    for part in raw.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise InputDomainError(f"CMA_CONSTRAINTS: unknown key {key!r}")
        try:
            values[keys[key]] = int(value)
        except ValueError:
            raise InputDomainError(f"CMA_CONSTRAINTS: bad value for {key!r}") from None
    try:
        return Constraints(**values)
    except ValueError as exc:
        raise InputDomainError(f"CMA_CONSTRAINTS: {exc}") from None


def machine_option(args) -> str:
    """The ``--machine`` text; a command run without it is a usage error,
    whose message names ``--cluster`` too where the command has it."""
    if not args.machine:
        other = " (with optional --inner) or --cluster FILE" if "cluster" in vars(args) else ""
        raise UsageError(f"need --machine{other}")
    return args.machine


def load_machine(text: str, constraints: Constraints) -> Automaton:
    from .menagerie import build, is_spec

    if is_spec(text):
        return build(text, constraints)
    if Path(text).exists():
        return read_doc(text, from_doc, "machine")
    raise InputDomainError(f"{text!r} is neither a known machine spec nor a file")


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDomainError(f"{path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputDomainError(f"{path}: {exc}") from exc


def read_doc(path: str, loader, kind: str):
    """Read a JSON file of document ``kind`` with its module's ``loader``; errors name the file.

    A JSON string is refused here: the store and grammar loaders read a
    string as JSON text, so they would decode it a second time."""

    def document(doc):
        if isinstance(doc, str):
            raise InputDomainError(f"malformed {kind} document: a JSON string, not an object")
        return loader(doc)

    text = read_text(path)
    try:
        return _read_json(text, document, kind)
    except InputDomainError as exc:
        raise InputDomainError(f"{path}: {exc}") from exc


def fraction(text: str, option: str, parse=Fraction):
    """``parse(text)``, by default one exact rational; a value it refuses is
    an InputDomainError that names ``option``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InputDomainError(f"{option}: {exc}") from exc
    except ZeroDivisionError as exc:
        raise InputDomainError(f"{option}: {text!r} has a zero denominator") from exc


def load_cluster(args, constraints: Constraints):
    from . import cluster

    if args.cluster:
        return read_doc(args.cluster, cluster.node_from_doc, "cluster")
    outer = load_machine(machine_option(args), constraints)
    inner = []
    for assignment in args.inner or ():
        state, _, spec = assignment.partition("=")
        if not spec:
            raise UsageError(f"--inner wants STATE=SPEC, got {assignment!r}")
        inner.append((state, cluster.ClusterNode.leaf(load_machine(spec, constraints), scale=0)))
    policy = getattr(args, "policy", None) or ("union" if inner else "external")
    if policy == "current":
        policy = "current-state"
    try:
        return cluster.ClusterNode(
            outer, scale=1 if inner else 0, inner=tuple(inner), tick_policy=policy
        )
    except ValueError as exc:
        raise InputDomainError(str(exc)) from exc


def emit(args, text: str, payload) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(text)


def _require_seed(args):
    if args.format == "json" and args.seed is None:
        raise UsageError("JSON output for randomized commands requires --seed")


def cmd_validate(args, constraints):
    # build with default budgets so over-budget machines can still be examined
    if args.cluster or args.inner:
        from . import cluster

        node = load_cluster(args, Constraints())
        report = cluster.validate_cluster(node, constraints=constraints)
    else:
        report = validate(load_machine(machine_option(args), Constraints()), constraints)
    lines = [f"{v.rule}: {v.subject}: {v.detail}" for v in report]
    emit(
        args,
        "ok" if not report else "\n".join(lines),
        {"violations": [vars(v) for v in report]},
    )
    return 0


def cmd_export_dot(args, constraints):
    machine = load_machine(machine_option(args), constraints)
    text = to_dot(machine)
    if args.out:
        write_text(args.out, text)
        emit(args, f"wrote {args.out}", {"path": args.out})
    else:
        print(text, end="")
    return 0


def cmd_occupancy(args, constraints):
    from . import analysis

    machine = load_machine(machine_option(args), constraints)
    if args.mode == "path-count":
        if args.steps is None:
            raise UsageError("--mode path-count requires --steps")
        vector = analysis.path_count_occupancy(machine, args.steps)
    elif args.mode == "stationary":
        vector = analysis.stationary_distribution(machine)
    else:
        if args.steps is None:
            raise UsageError("--mode mc requires --steps")
        _require_seed(args)
        vector = analysis.monte_carlo_occupancy(machine, args.steps, args.seed or 0)
    values = ", ".join(f"{float(v):.6f}" for _, v in vector.entries)
    signals = analysis.signal_occupancy(vector, machine)
    payload = {
        "mode": args.mode,
        "states": {q: float(v) for q, v in vector.entries},
        "signals": {k or BLANK_GLYPH: float(v) for k, v in signals.items()},
        "exact": vector.exact,
    }
    emit(args, values, payload)
    return 0


def cmd_approx_dist(args, constraints):
    from . import analysis

    outcomes = args.outcomes.split(",") if args.outcomes else None
    dist = fraction(
        args.probs, "--probs", lambda text: analysis.FiniteDistribution.parse(text, outcomes)
    )
    machine = analysis.approximate_distribution(dist, fraction(args.eps, "--eps"), constraints)
    counts: dict[str, int] = {}
    for state in machine.states:
        counts[machine.output_of(state)] = counts.get(machine.output_of(state), 0) + 1
    ordered = {label: counts.get(label, 0) for label in dist.outcomes}
    text = f"size={len(machine.states)} " + " ".join(
        f"{label}={count}" for label, count in ordered.items()
    )
    if args.out:
        write_text(args.out, to_json(machine))
        text += f" (wrote {args.out})"
    emit(args, text, {"size": len(machine.states), "counts": ordered})
    return 0


def cmd_sync_word(args, constraints):
    from . import analysis

    machine = load_machine(machine_option(args), constraints)
    result = analysis.synchronizing_word(machine)
    if result is None:
        emit(args, "none", {"word": None})
        return 0
    text = (
        f"word={''.join(result.word) or '(empty)'} sink={result.sink} "
        f"initial={str(result.sink_is_initial).lower()} shortest={str(result.shortest).lower()}"
    )
    emit(
        args,
        text,
        {
            "word": list(result.word),
            "sink": result.sink,
            "sink_is_initial": result.sink_is_initial,
            "shortest": result.shortest,
        },
    )
    return 0


def cmd_classify(args, constraints):
    from . import temporal

    if args.cluster or args.inner:
        target = load_cluster(args, constraints)
    else:
        target = load_machine(machine_option(args), constraints)
    result = temporal.classify(
        target,
        horizon=args.horizon,
        open_start=args.open_start,
        open_end=args.open_end,
    )
    emit(
        args,
        str(result),
        {"family": result.family, "size": result.size, "effective": result.effective},
    )
    return 0


def cmd_cycle_length(args, constraints):
    from . import cluster

    if args.sizes:
        outer_text, _, inner_text = args.sizes.partition(":")
        try:
            outer = int(outer_text)
            inner = [int(x) for x in inner_text.split(",")] if inner_text else []
        except ValueError:
            raise UsageError(f"--sizes wants OUTER:L1,L2,..., got {args.sizes!r}") from None
        value = cluster.wheel_cluster_cycle(outer, inner)
        result = cluster.CycleLength(value, digit_count(value), False)
    else:
        node = load_cluster(args, constraints)
        result = cluster.cycle_length(node)
    payload = {"digits": result.digit_count, "verified": result.verified}
    if result.digit_count <= 60:
        payload["base_ticks"] = result.base_ticks
    else:
        payload["leading"] = leading_digits(result.base_ticks)
    emit(args, str(result), payload)
    return 0


def cmd_bisim(args, constraints):
    from . import temporal

    left = load_machine(machine_option(args), constraints)
    right = load_machine(args.other, constraints)
    result = temporal.bisimilar(left, right)
    emit(
        args,
        str(result.equivalent).lower(),
        {
            "equivalent": result.equivalent,
            "blocks": [[f"{side}:{q}" for side, q in block] for block in result.partition],
        },
    )
    return 0


def cmd_simulate(args, constraints):
    from . import cluster

    node = load_cluster(args, constraints)
    report = cluster.simulate(node, args.ticks)
    occupancy = report.occupancy()
    text = (
        f"ticks={report.ticks_run}/{report.ticks_requested} "
        + " ".join(f"{q}={occupancy[q]:.4f}" for q in occupancy)
        + f" emissions={report.emissions} halted={str(report.halted).lower()}"
    )
    emit(
        args,
        text,
        {
            "ticks_run": report.ticks_run,
            "occupancy": occupancy,
            "emissions": report.emissions,
            "halted": report.halted,
        },
    )
    return 0


def cmd_tape(args, constraints):
    from . import memory

    tape = memory.build_t1(replicas=args.replicas)
    symbols = []
    if args.script:
        for line in read_text(args.script).splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                symbols.append(line)
    if args.symbols:
        symbols.extend(s.strip() for s in args.symbols.split(",") if s.strip())
    tape, emitted = memory.run_script(tape, symbols)
    if args.inject_fault:
        replica_text, _, pos_text = args.inject_fault.partition(":")
        try:
            tape = memory.corrupt(tape, int(replica_text), int(pos_text))
        except ValueError:
            raise UsageError(f"--inject-fault wants REPLICA:POS, got {args.inject_fault!r}") from None
    majority = "".join(
        str(memory.read(tape, pos)) for pos in range(tape.size_bits - 1, -1, -1)
    )
    lines = [f"replica{r}={tape.content_hex(r)}" for r in range(tape.replicas)]
    lines.append(f"head={tape.head} counter={tape.counter.as_int}")
    emit(
        args,
        "\n".join(lines),
        {
            "replicas": [tape.content_hex(r) for r in range(tape.replicas)],
            "majority_bits": majority,
            "head": tape.head,
            "counter": tape.counter.as_int,
            "emitted": emitted,
        },
    )
    return 0


def cmd_fluent(args, constraints):
    from . import fluents

    store = read_doc(args.store, fluents.load_store, "store")
    at = fluents.TimePoint.parse(args.at)
    value = fluents.evaluate(store, args.name, at, args.mode, fraction(args.theta, "--theta"))
    emit(args, value.value, {"fluent": args.name, "at": str(at), "value": value.value})
    return 0


def cmd_parse(args, constraints):
    from . import lingua

    if args.lexicon == "demo":
        lexicon, patterns = None, None
    else:
        lexicon, patterns = read_doc(args.lexicon, lingua.load_grammar, "grammar")
    result = lingua.parse(args.sentence, lexicon, patterns)
    items = list(result.full) or list(result.islands())
    if args.context:
        context: dict[str, list[str]] = {}
        for fact in args.context:
            entity, _, prop = fact.partition("=")
            if not (entity and prop):
                raise UsageError(f"--context wants ENTITY=PROPERTY, got {fact!r}")
            context.setdefault(entity, []).append(prop)
        items = [lingua.disambiguate(item, context) for item in items]
    text = "\n".join(item.bracket() for item in items) or "(no islands)"
    emit(
        args,
        text,
        {
            "full_span": [item.bracket() for item in result.full],
            "islands": [item.bracket() for item in items],
        },
    )
    return 0


def cmd_activate(args, constraints):
    from . import lingua

    if args.steps < 0:
        raise InputDomainError(f"steps must be >= 0, got {args.steps}")
    if args.net == "grief-demo":
        net = lingua.grief_demo_network()
    elif args.net == "grief-demo-unaware":
        net = lingua.grief_demo_network(parent_knows=False)
    else:
        net = read_doc(args.net, lingua.load_network, "network")
    for node in args.inject or ():
        net = lingua.inject(net, node)
    trace = []
    for step_index in range(args.steps):
        net, fired = lingua.step_network(net)
        trace.append(sorted(fired))
    text_lines = [
        f"step {i + 1}: fired {', '.join(fired) if fired else '-'}"
        for i, fired in enumerate(trace)
    ]
    phases = {name: phase.value for name, phase in net.phases}
    emit(args, "\n".join(text_lines), {"trace": trace, "phases": phases})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmoore", description="Clustered Moore automata toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, machine=True, cluster=False):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if machine:
            p.add_argument("--machine", help="inline spec (wheel:4) or CMA-JSON file")
        if cluster:
            p.add_argument("--cluster", help="cluster JSON file")
            p.add_argument("--inner", action="append", help="STATE=SPEC (repeatable)")

    p = sub.add_parser("validate", help="structural budget report")
    common(p, cluster=True)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("export-dot", help="write a DOT diagram")
    common(p)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_export_dot)

    p = sub.add_parser("occupancy", help="state occupancy statistics")
    common(p)
    p.add_argument("--mode", choices=("path-count", "stationary", "mc"), default="stationary")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_occupancy)

    p = sub.add_parser("approx-dist", help="wheel approximating a distribution")
    common(p, machine=False)
    p.add_argument("--probs", required=True, help="comma-separated probabilities")
    p.add_argument("--outcomes", help="comma-separated labels")
    p.add_argument("--eps", required=True)
    p.add_argument("--out", help="write the wheel as CMA-JSON")
    p.set_defaults(handler=cmd_approx_dist)

    p = sub.add_parser("sync-word", help="synchronizing word: shortest up to 20 states, greedy"
                       f" above, work limit SYNC_WORK_LIMIT={SYNC_WORK_LIMIT:.0e}")
    common(p)
    p.set_defaults(handler=cmd_sync_word)

    p = sub.add_parser("classify", help="temporal structure family")
    common(p, cluster=True)
    p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
    p.add_argument("--open-start", action="store_true")
    p.add_argument("--open-end", action="store_true")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser(
        "cycle-length",
        help="first return time of an all-wheel union cluster of any depth, from one period "
        "summary per wheel; a wheel's emitting children must recur together within "
        f"{CYCLE_WINDOW_LIMIT} ticks, or have pairwise coprime periods",
    )
    common(p, cluster=True)
    p.add_argument("--sizes", help="OUTER:L1,L2,... (analytic only, no machines built)")
    p.set_defaults(handler=cmd_cycle_length)

    p = sub.add_parser("bisim", help="output bisimulation between two machines")
    common(p)
    p.add_argument("--other", required=True)
    p.set_defaults(handler=cmd_bisim)

    p = sub.add_parser("simulate", help="drive a cluster and report occupancy")
    common(p, cluster=True)
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--policy", choices=("union", "current"))
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("tape", help="run a command script on the two-level tape")
    common(p, machine=False)
    p.add_argument("--script", help="file with one symbol per line")
    p.add_argument("--symbols", help="inline comma-separated symbols")
    p.add_argument("--replicas", type=int, default=3, choices=(1, 3))
    p.add_argument("--inject-fault", help="REPLICA:POS bit flip after the script")
    p.set_defaults(handler=cmd_tape)

    p = sub.add_parser("fluent", help="evaluate a fluent at an instant")
    common(p, machine=False)
    p.add_argument("--store", required=True, help="fluent assignment JSON file")
    p.add_argument("--name", required=True)
    p.add_argument("--at", required=True, help="SCALE.INDEX, e.g. 1.-3")
    p.add_argument("--mode", choices=("forall", "exists", "preponderant"), default="preponderant")
    p.add_argument("--theta", default="2/3")
    p.set_defaults(handler=cmd_fluent)

    p = sub.add_parser("parse", help="island-parse a sentence")
    common(p, machine=False)
    p.add_argument("--lexicon", default="demo")
    p.add_argument("--sentence", required=True)
    p.add_argument("--context", action="append", help="ENTITY=PROPERTY (repeatable)")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("activate", help="run a spreading-activation network")
    common(p, machine=False)
    p.add_argument("--net", default="grief-demo")
    p.add_argument("--inject", action="append", help="node receiving one impulse (repeatable)")
    p.add_argument("--steps", type=int, default=3)
    p.set_defaults(handler=cmd_activate)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        constraints = env_constraints()
        return args.handler(args, constraints)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps(failure_line(exc)))
        return 1


def failure_line(exc: DomainError) -> dict:
    """The JSON line for a domain error; a budget error adds ``used`` and
    ``limit`` when it has them.  An integer of over 4,000 digits (near the
    interpreter's int-to-str limit) is given as text, by its leading digits."""
    line = {"error": exc.code, "message": str(exc)}
    for key in ("used", "limit"):
        value = getattr(exc, key, None)
        if value is None:
            continue
        digits = digit_count(value)
        line[key] = value if digits <= 4000 else f"{leading_digits(value)}...e{digits - 1}"
    return line


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    sys.exit(main())

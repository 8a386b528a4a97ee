"""Command-line interface: ``python -m repro <command> ...``.

Point the thesis's machinery at any ``.bench`` netlist:

* ``analyze``   — Algorithm 3.1 + the exhaustive oracle;
* ``testgen``   — Theorem 3.2 alternating test pairs (truth-table route
  for narrow networks, the ``pairs``-mode ATPG driver for wide ones);
* ``repair``    — automatic self-checking repair (Figure 3.7 style);
* ``minority``  — convert a NAND/NOR netlist to minority modules;
* ``dot``       — Graphviz export with the failing lines highlighted;
* ``faulttable``— a Figure 3.6-style fault table for chosen lines;
* ``campaign``  — a bulk single-fault coverage sweep (the exhaustive
  stem-region sweep, tiled over input pairs on wide nets) under the
  supervised runtime (``--timeout``, ``--checkpoint``/``--resume``,
  ``--report``);
* ``atpg``      — fault-dropping ATPG campaign: test sets read from the
  exhaustive tables up to 20 inputs, above that a guided PODEM search
  per target with batched candidate completions simulated against the
  whole remaining fault universe; reverse-greedy compaction
  (``--no-collapse``/``--no-drop``/``--no-compact``/``--report``);
* ``synth``     — population-based synthesis/repair campaign evolving a
  gate network toward self-duality + self-checking (``--spec NAME`` or
  ``--repair NETLIST``), generations batched through the supervised
  fork workers with ``--checkpoint``/``--resume`` deterministic
  continuations and an area-vs-coverage Pareto report;
* ``fuzz``      — seeded differential/metamorphic fuzz campaign with
  counterexample shrinking (see ``repro.qa``);
* ``stats``     — render a flight recorded with ``--trace-out``: time
  per rung, degradations, retries, faults/sec, QA pass rates;
* ``serve``     — stdlib asyncio campaign service: queues requests on a
  bounded worker pool (shedding overload with 429), deduplicates
  identical campaigns by content fingerprint, streams NDJSON progress,
  enforces per-request deadlines with cooperative cancellation, drains
  gracefully on SIGTERM, journals accepted work for ``--recover``, and
  exposes Prometheus metrics at ``/metrics``.

``campaign``, ``atpg``, and ``fuzz`` accept ``--metrics-out FILE`` (Prometheus
text, or JSON when the name ends ``.json``) and ``--trace-out FILE``
(the JSONL flight ``stats`` reads); both are off by default, leaving
the telemetry layer at its zero-overhead disabled state.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional


def _load(path: str):
    from .logic.benchfmt import load_bench

    try:
        return load_bench(path)
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")


def _write_metrics(path: str) -> None:
    import json

    from . import obs

    if path.endswith(".json"):
        text = json.dumps(obs.REGISTRY.to_json(), indent=2, sort_keys=True)
    else:
        text = obs.REGISTRY.to_prometheus()
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace):
    """Honour ``--metrics-out`` / ``--trace-out`` around one command.

    With neither flag this is a straight pass-through: the registry
    stays disabled and no recorder is installed, so the instrumented
    seams pay their single branch and nothing more.
    """
    from . import obs

    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_out is None and trace_out is None:
        yield
        return
    with obs.recording(
        trace_path=trace_out, metrics=metrics_out is not None
    ):
        try:
            yield
        finally:
            if metrics_out is not None:
                _write_metrics(metrics_out)


def cmd_analyze(args: argparse.Namespace) -> int:
    from .core.analysis import analyze_network, lines_needing_multi_output
    from .core.simulate import ScalSimulator
    from .engine.backends import UNTILED_MAX_INPUTS
    from .logic.render import annotate_with_analysis, render_listing

    network = _load(args.netlist)
    if len(network.inputs) > UNTILED_MAX_INPUTS:
        print(
            f"{len(network.inputs)} inputs exceed the exhaustive limit "
            f"({UNTILED_MAX_INPUTS}); run testgen for structural checks"
        )
        return 2
    analysis = analyze_network(network)
    print(analysis.summary())
    needy = lines_needing_multi_output(analysis)
    if needy:
        print(f"lines needing Corollary 3.2: {', '.join(needy)}")
    if args.oracle:
        verdict = ScalSimulator(network).verdict()
        print(verdict.summary())
    if args.listing:
        print()
        print(
            render_listing(
                network, annotations=annotate_with_analysis(network, analysis)
            )
        )
    return 0 if analysis.is_self_checking else 1


def cmd_testgen(args: argparse.Namespace) -> int:
    from .core.testgen import all_test_pairs, format_pair
    from .engine.backends import UNTILED_MAX_INPUTS

    network = _load(args.netlist)
    if len(network.inputs) <= UNTILED_MAX_INPUTS and not args.structural:
        if args.output is None and len(network.outputs) > 1:
            print(
                f"{len(network.outputs)} outputs; name one with --output "
                f"({', '.join(network.outputs)}) or pass --structural"
            )
            return 2
        plans = all_test_pairs(network, output=args.output)
        names = network.inputs
        for (line, value), tests in sorted(plans.items()):
            if tests:
                shown = ", ".join(format_pair(p, names) for p in tests[:4])
                more = " ..." if len(tests) > 4 else ""
                print(f"{line} s/{value}: {shown}{more}")
            else:
                print(f"{line} s/{value}: UNTESTABLE")
        return 0
    from .engine.atpg import run_atpg
    from .engine.compiled import compile_network

    compiled = compile_network(network)
    faults = compiled.universe_ids(
        include_pins=False, collapse=False, live_only=False
    )
    report = run_atpg(network, faults, pairs=True)
    for fid in faults:
        name = compiled.fault(fid).describe()
        index = report.detected_by.get(name)
        if index is not None:
            print(f"{name}: pair anchored at {report.patterns[index]:#x}")
        else:
            redundant = report.classifications[name] == "redundant"
            print(f"{name}: {'UNTESTABLE' if redundant else 'no test found'}")
    return 0 if report.aborted == 0 else 1


def cmd_repair(args: argparse.Namespace) -> int:
    from .core.design import make_self_checking
    from .logic.benchfmt import save_bench

    network = _load(args.netlist)
    report = make_self_checking(network)
    print(report.summary())
    if args.out and report.success:
        save_bench(report.network, args.out, header="repaired by repro")
        print(f"wrote {args.out}")
    return 0 if report.success else 1


def cmd_minority(args: argparse.Namespace) -> int:
    from .logic.benchfmt import save_bench
    from .modules.minority import conversion_report, to_minority_network

    network = _load(args.netlist)
    converted = to_minority_network(network)
    report = conversion_report(converted)
    print(
        f"{report.modules} minority modules, {report.total_inputs} total "
        f"inputs ({report.clock_inputs} clock fan-ins)"
    )
    if args.out:
        save_bench(converted, args.out, header="minority conversion by repro")
        print(f"wrote {args.out}")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from .core.analysis import analyze_network
    from .engine.backends import UNTILED_MAX_INPUTS
    from .logic.render import render_dot

    network = _load(args.netlist)
    highlight: List[str] = []
    if len(network.inputs) <= UNTILED_MAX_INPUTS:
        highlight = list(analyze_network(network).failing_lines())
    dot = render_dot(network, highlight=highlight)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(dot + "\n")
        print(f"wrote {args.out}")
    else:
        print(dot)
    return 0


def cmd_faulttable(args: argparse.Namespace) -> int:
    from .core.report import fault_table, render_fault_table, undetected_faults
    from .logic.faults import StuckAt

    network = _load(args.netlist)
    faults = []
    for spec in args.faults:
        line, _, value = spec.rpartition("/")
        if not line or value not in ("0", "1"):
            raise SystemExit(f"bad fault spec {spec!r}; use line/0 or line/1")
        faults.append(StuckAt(line, int(value)))
    rows = fault_table(network, faults)
    print(render_fault_table(network, rows))
    bad = undetected_faults(rows)
    if bad:
        print(f"\nundetected wrong outputs: {', '.join(bad)}")
    return 0 if not bad else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from .engine.campaign import FaultSweep
    from .engine.durable import CheckpointError

    if args.processes is not None and args.processes < 1:
        raise SystemExit(
            f"--processes must be >= 1, got {args.processes}"
        )
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(
            f"--timeout must be a positive number of seconds, "
            f"got {args.timeout:g}"
        )
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint PATH")
    network = _load(args.netlist)
    sweep = FaultSweep(network)
    universe = sweep.compiled.universe_ids(collapse=not args.no_collapse)
    try:
        with _telemetry(args):
            stats = sweep.coverage(
                universe,
                processes=args.processes,
                timeout=args.timeout,
                checkpoint=args.checkpoint,
                resume=args.resume,
            )
    except CheckpointError as error:
        raise SystemExit(str(error))
    report = sweep.last_report
    stats["backend"] = report.backend
    if args.json:
        if args.report:
            stats["report"] = report.to_dict()
        print(json.dumps(stats, sort_keys=True))
    else:
        print(
            f"{int(stats['faults'])} faults via {stats['backend']}: "
            f"{stats['detected']:.1%} detected, "
            f"{stats['silent']:.1%} silent, "
            f"{stats['dangerous']:.1%} dangerous"
        )
        if args.report:
            print(report.summary())
        else:
            # Degradations are never silent: even without --report,
            # every ladder step down is surfaced with its reason.
            for deg in report.degradations:
                print(f"degraded {deg.frm} -> {deg.to}: {deg.reason}")
    return 0 if stats["dangerous"] == 0 else 1


def cmd_atpg(args: argparse.Namespace) -> int:
    import json

    from .engine.atpg import run_atpg

    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(
            f"--timeout must be a positive number of seconds, "
            f"got {args.timeout:g}"
        )
    if args.candidates < 1:
        raise SystemExit(
            f"--candidates must be >= 1, got {args.candidates}"
        )
    network = _load(args.netlist)
    with _telemetry(args):
        report = run_atpg(
            network,
            collapse=not args.no_collapse,
            drop=not args.no_drop,
            compact=not args.no_compact,
            candidates=args.candidates,
            pairs=args.pairs,
            target_timeout=args.timeout,
            max_backtracks=args.max_backtracks,
            seed=args.seed,
        )
    if args.json:
        data = report.to_dict()
        if not args.report:
            data.pop("classifications")
            data.pop("detected_by")
        print(json.dumps(data, sort_keys=True))
    else:
        print(report.summary())
        if args.report:
            names = list(network.inputs)
            width = len(names)
            for index, point in enumerate(report.patterns):
                bits = "".join(str((point >> i) & 1) for i in range(width))
                covered = sorted(
                    name
                    for name, j in report.detected_by.items()
                    if j == index
                )
                print(f"  pattern {index}: {bits}  covers {', '.join(covered)}")
            for name, status in sorted(report.classifications.items()):
                if status != "detected":
                    print(f"  {status}: {name}")
    return 0 if report.aborted == 0 else 1


def cmd_synth(args: argparse.Namespace) -> int:
    import json

    from .engine.durable import CheckpointError
    from .engine.supervisor import CampaignCancelled
    from .logic.benchfmt import save_bench
    from .synth.campaign import MIN_POPULATION, SynthCampaign, repair_campaign
    from .synth.specs import SPECS

    if (args.spec is None) == (args.repair is None):
        raise SystemExit("exactly one of --spec NAME or --repair NETLIST")
    if args.processes is not None and args.processes < 1:
        raise SystemExit(f"--processes must be >= 1, got {args.processes}")
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit(
            f"--timeout must be a positive number of seconds, "
            f"got {args.timeout:g}"
        )
    if args.resume and args.checkpoint is None:
        raise SystemExit("--resume requires --checkpoint PATH")
    if args.population < MIN_POPULATION:
        raise SystemExit(
            f"--population must be >= {MIN_POPULATION}, got {args.population}"
        )
    if args.generations < 1:
        raise SystemExit(
            f"--generations must be >= 1, got {args.generations}"
        )
    common = dict(
        seed=args.seed,
        population=args.population,
        generations=args.generations,
        budget=args.budget,
        max_gates=args.max_gates,
        processes=args.processes,
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    try:
        if args.repair is not None:
            campaign = repair_campaign(
                _load(args.repair), damage=args.damage, **common
            )
        else:
            spec = SPECS.get(args.spec)
            if spec is None:
                raise SystemExit(
                    f"unknown spec {args.spec!r}; known: "
                    + ", ".join(sorted(SPECS))
                )
            campaign = SynthCampaign(spec, **common)
        with _telemetry(args):
            report = campaign.run()
    except (CheckpointError, ValueError) as error:
        raise SystemExit(str(error))
    except CampaignCancelled as error:
        raise SystemExit(f"cancelled: {error}")
    if args.json:
        data = report.to_dict()
        if not args.report:
            data.pop("history")
        print(json.dumps(data, sort_keys=True))
    else:
        print(report.summary())
        if args.report:
            for row in report.history:
                print(
                    f"  gen {row['generation']:>3}: "
                    f"best={row['best_score']:.4f} "
                    f"gen_best={row['gen_best_score']:.4f} "
                    f"mean={row['mean_score']:.4f} "
                    f"pareto={row['pareto']}"
                )
    if args.out and report.best_record.perfect:
        from .synth.genome import Genome

        winner = Genome.from_json(report.best_genome).to_network(
            campaign.spec.input_names, name=f"synth_{report.spec}"
        )
        save_bench(winner, args.out, header="synthesized by repro synth")
        print(f"wrote {args.out}")
    return 0 if report.best_record.perfect else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .qa.chaos import bug_names
    from .qa.properties import PROPERTIES, property_names
    from .qa.runner import fuzz

    if args.list:

        for name in property_names():
            print(f"{name}: {PROPERTIES[name].description}")
        return 0
    if args.chaos is not None and args.chaos not in bug_names():
        raise SystemExit(
            f"unknown chaos bug {args.chaos!r}; known: "
            + ", ".join(bug_names())
        )
    try:
        with _telemetry(args):
            report = fuzz(
                seed=args.seed,
                budget=args.budget,
                properties=args.property or None,
                shrink=not args.no_shrink,
                artifact_dir=(
                    None if args.artifact_dir == "none" else args.artifact_dir
                ),
                chaos_bug=args.chaos,
            )
    except KeyError as error:
        raise SystemExit(str(error))
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import serve

    return serve(
        host=args.host,
        port=args.port,
        processes=args.processes,
        workers=args.workers,
        queue_limit=args.queue_limit,
        deadline_s=args.deadline_s,
        drain_timeout=args.drain_timeout,
        state_dir=args.state_dir,
        recover=args.recover,
        max_jobs=args.max_jobs,
        read_timeout=args.read_timeout,
    )


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from . import obs
    from .obs.stats import render, summarize

    try:
        events = list(obs.read_flight(args.flight))
    except obs.FlightRecorderError as error:
        raise SystemExit(str(error))
    except OSError as error:
        raise SystemExit(f"cannot read {args.flight}: {error}")
    summary = summarize(events)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(render(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-checking alternating logic tools (Woodard & "
        "Metze, ISCA 1978)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run Algorithm 3.1 on a .bench file")
    p.add_argument("netlist")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive single-fault oracle")
    p.add_argument("--listing", action="store_true",
                   help="print the annotated netlist listing")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("testgen", help="derive alternating test pairs")
    p.add_argument("netlist")
    p.add_argument("--output", default=None,
                   help="restrict to one output (truth-table route)")
    p.add_argument("--structural", action="store_true",
                   help="force the pairs-mode ATPG route")
    p.set_defaults(func=cmd_testgen)

    p = sub.add_parser("repair", help="make the network self-checking")
    p.add_argument("netlist")
    p.add_argument("--out", default=None, help="write the repaired .bench")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("minority", help="convert NAND/NOR to minority modules")
    p.add_argument("netlist")
    p.add_argument("--out", default=None, help="write the converted .bench")
    p.set_defaults(func=cmd_minority)

    p = sub.add_parser("dot", help="Graphviz export (failing lines in red)")
    p.add_argument("netlist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("faulttable", help="Figure 3.6-style fault table")
    p.add_argument("netlist")
    p.add_argument("faults", nargs="+",
                   help="fault specs like nab/0 or_ab/1")
    p.set_defaults(func=cmd_faulttable)

    p = sub.add_parser(
        "campaign",
        help="bulk single-fault coverage sweep (exhaustive stem regions)",
    )
    p.add_argument("netlist")
    p.add_argument("--processes", type=int, default=None,
                   help="fan out across this many supervised fork-worker "
                   "lanes when > 1 (default: in-process)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-chunk timeout; hung chunks are killed and "
                   "retried (default: no timeout)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="record completed chunks to this JSON artifact "
                   "after each chunk")
    p.add_argument("--resume", action="store_true",
                   help="reload --checkpoint and re-simulate only the "
                   "uncovered remainder")
    p.add_argument("--report", action="store_true",
                   help="print (or, with --json, embed) the structured "
                   "campaign report: backend, degradations, retries")
    p.add_argument("--no-collapse", action="store_true",
                   help="sweep the raw fault universe (no equivalence "
                   "collapsing)")
    p.add_argument("--json", action="store_true",
                   help="emit the coverage stats as one JSON object")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot here (Prometheus "
                   "text, or JSON when FILE ends in .json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the campaign flight (JSONL) here; "
                   "render it with 'repro stats FILE'")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "atpg",
        help="fault-dropping ATPG campaign (compacted test sets)",
    )
    p.add_argument("netlist")
    p.add_argument("--candidates", type=int, default=8,
                   help="PODEM completion candidates simulated per "
                   "target (default 8)")
    p.add_argument("--pairs", action="store_true",
                   help="generate alternating SCAL pairs (X, X̄) instead "
                   "of single vectors")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-target PODEM deadline; overruns are "
                   "classified aborted (default: none)")
    p.add_argument("--max-backtracks", type=int, default=2000,
                   help="PODEM backtrack budget per target (default 2000)")
    p.add_argument("--seed", type=int, default=0,
                   help="candidate-completion seed (default 0)")
    p.add_argument("--no-collapse", action="store_true",
                   help="target the raw stem-fault universe (no "
                   "equivalence collapsing)")
    p.add_argument("--no-drop", action="store_true",
                   help="disable fault dropping: one PODEM search per "
                   "fault (the scalar-parity reference mode)")
    p.add_argument("--no-compact", action="store_true",
                   help="keep every generated pattern (skip the "
                   "reverse-greedy compaction pass)")
    p.add_argument("--report", action="store_true",
                   help="also print the pattern set with per-pattern "
                   "coverage and the undetected classifications")
    p.add_argument("--json", action="store_true",
                   help="emit the report as one JSON object (full "
                   "classifications with --report)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot here (Prometheus "
                   "text, or JSON when FILE ends in .json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the ATPG flight (JSONL) here; render "
                   "it with 'repro stats FILE'")
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser(
        "synth",
        help="evolve/repair a network toward self-duality + self-checking",
    )
    p.add_argument("--spec", default=None, metavar="NAME",
                   help="synthesize a built-in seed-circuit spec from "
                   "scratch (and2, or2, xor2, maj3)")
    p.add_argument("--repair", default=None, metavar="NETLIST",
                   help="repair mode: damage this .bench network with "
                   "--damage seeded mutations, then evolve it back to "
                   "self-checking against its own tables")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--population", type=int, default=24,
                   help="population size (default 24)")
    p.add_argument("--generations", type=int, default=60,
                   help="generation cap (default 60)")
    p.add_argument("--budget", type=int, default=None,
                   help="cap on total fitness evaluations (default: none)")
    p.add_argument("--max-gates", type=int, default=16,
                   help="genome size bound (default 16)")
    p.add_argument("--damage", type=int, default=3,
                   help="seeded mutations injected in --repair mode "
                   "(default 3)")
    p.add_argument("--processes", type=int, default=None,
                   help="fan generation batches across this many "
                   "supervised worker lanes")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-chunk timeout for generation batches")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write the full population state here after "
                   "every generation")
    p.add_argument("--resume", action="store_true",
                   help="reload --checkpoint and continue the search "
                   "deterministically")
    p.add_argument("--report", action="store_true",
                   help="also print (or, with --json, embed) the "
                   "per-generation fitness trajectory")
    p.add_argument("--json", action="store_true",
                   help="emit the report as one JSON object")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the winning network as .bench when the "
                   "search converges")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot here (Prometheus "
                   "text, or JSON when FILE ends in .json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the synthesis flight (JSONL) here; "
                   "render it with 'repro stats FILE'")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "fuzz",
        help="seeded differential/metamorphic fuzz campaign",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--budget", type=int, default=200,
                   help="total trials split across properties (default 200)")
    p.add_argument("--property", action="append", default=[],
                   metavar="NAME",
                   help="restrict to one property (repeatable)")
    p.add_argument("--artifact-dir", default="qa/artifacts",
                   help="write counterexample artifacts here "
                   "(default: qa/artifacts; 'none' disables)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip counterexample minimization")
    p.add_argument("--chaos", default=None, metavar="BUG",
                   help="inject a named engine bug (harness self-test)")
    p.add_argument("--list", action="store_true",
                   help="list registered properties and exit")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the metrics snapshot here (Prometheus "
                   "text, or JSON when FILE ends in .json)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record the fuzz campaign flight (JSONL) here")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "stats",
        help="render a flight recorded with --trace-out",
    )
    p.add_argument("flight", help="flight JSONL written by --trace-out")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as one JSON object")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="campaign service: queue, dedup, and stream sweeps over HTTP",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8341,
                   help="bind port; 0 picks a free one (default 8341)")
    p.add_argument("--processes", type=int, default=None,
                   help="worker lanes per campaign (default: in-process)")
    p.add_argument("--workers", type=int, default=2,
                   help="campaign worker processes, one request each at "
                        "a time (default 2)")
    p.add_argument("--queue", type=int, default=8, dest="queue_limit",
                   help="accepted jobs allowed to wait beyond the worker "
                        "pool before shedding 429 (default 8)")
    p.add_argument("--deadline", type=float, default=None, dest="deadline_s",
                   metavar="SECONDS",
                   help="default per-campaign deadline; requests may set "
                        "their own deadline_s (default: none)")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="grace for in-flight campaigns on SIGTERM/SIGINT "
                        "before they are cancelled (default 10)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="journal accepted requests (fsync'd JSONL WAL) and "
                        "campaign checkpoints under DIR")
    p.add_argument("--recover", action="store_true",
                   help="on startup, replay journaled requests that never "
                        "finished, resuming from their checkpoints "
                        "(requires --state-dir)")
    p.add_argument("--max-jobs", type=int, default=64,
                   help="finished jobs kept to replay identical requests; "
                        "the least recently used goes first, and an evicted "
                        "request runs again (default 64)")
    p.add_argument("--read-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="per-connection header/body read timeout; slower "
                        "clients get 408 (default 10)")
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())

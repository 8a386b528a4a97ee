"""Render a recorded campaign flight: ``python -m repro stats``.

Reads a flight-recorder JSONL artifact and aggregates it into the
questions an operator actually asks after a campaign:

* where did the time go, per chunk rung (``sweep.chunk`` spans,
  including the ones merged back from fork workers);
* did the runtime degrade down the ladder, retry, split chunks, or
  replace workers — and why;
* how fast was the sweep end to end (faults/sec from the
  ``campaign.report`` event, whose ``wall_seconds`` is the same number
  the :class:`~repro.engine.supervisor.CampaignReport` carries);
* how did the QA properties fare (``qa.property`` spans: trials,
  counterexamples, pass rate);
* how an ATPG campaign spent its time (``atpg.target`` spans, split
  into targets the exhaustive tables proved redundant and PODEM
  searches, ``atpg.chunk`` pattern-simulation spans, and the closing
  ``atpg.report`` event with drop counts and faults/sec);
* how a synthesis search progressed (``synth.generation`` per-generation
  best/mean fitness trajectory, ``synth.improved`` best-so-far
  replacements, ``synth.batch`` generation-batch spans, and the closing
  ``synth.report`` with convergence and Pareto-front size).

:func:`summarize` returns a plain dict (the ``--json`` output);
:func:`render` formats it for humans.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List


def summarize(events: Iterable[dict]) -> dict:
    """Aggregate one flight's events into a summary dict."""
    chunk_backends: "OrderedDict[str, dict]" = OrderedDict()
    chunk_spans_ok = 0
    chunk_spans_failed = 0
    qa: "OrderedDict[str, dict]" = OrderedDict()
    atpg_chunks = {"chunks": 0, "patterns": 0, "faults": 0, "wall": 0.0}
    atpg_targets = {"targets": 0, "table": 0, "podem": 0, "wall": 0.0}
    atpg_reports: List[dict] = []
    synth_batches = {"batches": 0, "candidates": 0, "wall": 0.0}
    synth_generations: List[dict] = []
    synth_improvements: List[dict] = []
    synth_reports: List[dict] = []
    degradations: List[dict] = []
    retries: Dict[str, int] = {}
    reports: List[dict] = []
    qa_reports: List[dict] = []
    workers_replaced = 0
    checkpoint_writes = 0
    pids = set()
    total_events = 0

    for event in events:
        total_events += 1
        pid = event.get("pid")
        if pid is not None:
            pids.add(pid)
        kind = event.get("k")
        name = event.get("name", "")
        attrs = event.get("attrs") or {}
        if kind == "span" and name == "sweep.chunk":
            if event.get("ok"):
                chunk_spans_ok += 1
            else:
                chunk_spans_failed += 1
                continue
            backend = str(attrs.get("backend", "?"))
            entry = chunk_backends.setdefault(
                backend, {"chunks": 0, "faults": 0, "wall": 0.0, "cpu": 0.0}
            )
            entry["chunks"] += 1
            entry["faults"] += int(attrs.get("faults", 0))
            entry["wall"] += float(event.get("wall", 0.0))
            entry["cpu"] += float(event.get("cpu", 0.0))
        elif kind == "span" and name == "qa.property":
            prop = str(attrs.get("property", "?"))
            entry = qa.setdefault(
                prop, {"trials": 0, "counterexamples": 0, "wall": 0.0}
            )
            entry["trials"] += int(attrs.get("trials", 0))
            entry["counterexamples"] += int(attrs.get("counterexamples", 0))
            entry["wall"] += float(event.get("wall", 0.0))
        elif kind == "span" and name == "atpg.chunk":
            atpg_chunks["chunks"] += 1
            atpg_chunks["patterns"] += int(attrs.get("patterns", 0))
            atpg_chunks["faults"] += int(attrs.get("faults", 0))
            atpg_chunks["wall"] += float(event.get("wall", 0.0))
        elif kind == "span" and name == "atpg.target":
            atpg_targets["targets"] += 1
            # Older flights carry no ``via``: they searched every target.
            via = "table" if attrs.get("via") == "table" else "podem"
            atpg_targets[via] += 1
            atpg_targets["wall"] += float(event.get("wall", 0.0))
        elif kind == "event" and name == "atpg.report":
            atpg_reports.append(attrs)
        elif kind == "span" and name == "synth.batch":
            synth_batches["batches"] += 1
            synth_batches["candidates"] += int(attrs.get("candidates", 0))
            synth_batches["wall"] += float(event.get("wall", 0.0))
        elif kind == "event" and name == "synth.generation":
            synth_generations.append(attrs)
        elif kind == "event" and name == "synth.improved":
            synth_improvements.append(attrs)
        elif kind == "event" and name == "synth.report":
            synth_reports.append(attrs)
        elif kind == "event" and name == "campaign.degradation":
            degradations.append(attrs)
        elif kind == "event" and name == "campaign.retry":
            action = str(attrs.get("action", "?"))
            retries[action] = retries.get(action, 0) + 1
        elif kind == "event" and name == "campaign.worker_replaced":
            workers_replaced += 1
        elif kind == "event" and name == "campaign.checkpoint":
            checkpoint_writes += 1
        elif kind == "event" and name == "campaign.report":
            reports.append(attrs)
        elif kind == "event" and name == "qa.report":
            qa_reports.append(attrs)

    for entry in chunk_backends.values():
        entry["faults_per_second"] = (
            entry["faults"] / entry["wall"] if entry["wall"] > 0 else None
        )
    for entry in qa.values():
        entry["pass_rate"] = (
            (entry["trials"] - entry["counterexamples"]) / entry["trials"]
            if entry["trials"]
            else None
        )
    campaigns = []
    for report in reports:
        wall = report.get("wall_seconds") or 0.0
        faults = report.get("faults") or 0
        campaigns.append(
            dict(
                report,
                faults_per_second=(faults / wall if wall > 0 else None),
            )
        )
    atpg_runs = []
    for report in atpg_reports:
        wall = report.get("wall_seconds") or 0.0
        faults = report.get("faults") or 0
        atpg_runs.append(
            dict(
                report,
                faults_per_second=(faults / wall if wall > 0 else None),
            )
        )
    synth_runs = []
    for report in synth_reports:
        wall = report.get("wall_seconds") or 0.0
        evaluations = report.get("evaluations") or 0
        synth_runs.append(
            dict(
                report,
                evaluations_per_second=(
                    evaluations / wall if wall > 0 else None
                ),
            )
        )
    return {
        "events": total_events,
        "processes": len(pids),
        "campaigns": campaigns,
        "atpg_runs": atpg_runs,
        "synth_runs": synth_runs,
        "synth_batches": synth_batches,
        "synth_generations": synth_generations,
        "synth_improvements": synth_improvements,
        "atpg_targets": atpg_targets,
        "atpg_chunks": atpg_chunks,
        "chunk_spans": {"ok": chunk_spans_ok, "failed": chunk_spans_failed},
        "chunk_backends": dict(chunk_backends),
        "degradations": degradations,
        "retries": retries,
        "workers_replaced": workers_replaced,
        "checkpoint_writes": checkpoint_writes,
        "qa_properties": dict(qa),
        "qa_reports": qa_reports,
    }


def _rate(value) -> str:
    return f"{value:,.0f} faults/s" if value else "n/a"


def render(summary: dict) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    lines = [
        f"flight: {summary['events']} events from "
        f"{summary['processes']} process(es)"
    ]
    for report in summary["campaigns"]:
        lines.append(
            f"campaign: {report.get('faults', 0)} faults via "
            f"{report.get('backend', '?')} (requested "
            f"{report.get('requested', '?')}) in "
            f"{report.get('wall_seconds', 0.0):.3f}s "
            f"({_rate(report.get('faults_per_second'))})"
        )
        lines.append(
            f"  chunks: {report.get('chunks_completed', 0)} simulated, "
            f"{report.get('chunks_resumed', 0)} resumed of "
            f"{report.get('chunks_total', 0)}"
        )
    for report in summary.get("atpg_runs", ()):
        lines.append(
            f"atpg: {report.get('circuit', '?')}: "
            f"{report.get('detected', 0)}/{report.get('faults', 0)} detected, "
            f"{report.get('redundant', 0)} redundant, "
            f"{report.get('aborted', 0)} aborted, "
            f"{report.get('dropped', 0)} dropped, "
            f"{report.get('patterns_kept', 0)} patterns in "
            f"{report.get('wall_seconds', 0.0):.3f}s "
            f"({_rate(report.get('faults_per_second'))})"
        )
    for report in summary.get("synth_runs", ()):
        rate = report.get("evaluations_per_second")
        lines.append(
            f"synth: {report.get('mode', 'synth')} spec="
            f"{report.get('spec', '?')} seed={report.get('seed', '?')}: "
            f"{report.get('generations', 0)} generations, "
            f"{report.get('evaluations', 0)} evaluations, "
            f"best={report.get('best_score', 0.0):.4f} "
            f"converged={'yes' if report.get('converged') else 'no'}, "
            f"{report.get('pareto', 0)} pareto point(s) in "
            f"{report.get('wall_seconds', 0.0):.3f}s"
            + (f" ({rate:,.0f} evals/s)" if rate else "")
        )
    generations = summary.get("synth_generations") or []
    if generations:
        first = generations[0]
        last = generations[-1]
        lines.append(
            f"synth trajectory: {len(generations)} generation(s), "
            f"best {first.get('best_score', 0.0):.4f} -> "
            f"{last.get('best_score', 0.0):.4f}, "
            f"{len(summary.get('synth_improvements') or [])} improvement(s)"
        )
        for improved in summary.get("synth_improvements") or []:
            lines.append(
                f"  gen {improved.get('generation', '?')}: "
                f"score={improved.get('score', 0.0):.4f} "
                f"gates={improved.get('gates', '?')} "
                f"cost={improved.get('cost', 0.0):g} "
                f"dangerous={improved.get('dangerous', '?')} "
                f"[{str(improved.get('fingerprint', ''))[:12]}]"
            )
    batches = summary.get("synth_batches") or {}
    if batches.get("batches"):
        lines.append(
            f"synth batches: {batches['batches']} generation batch(es), "
            f"{batches['candidates']} candidates, "
            f"{batches['wall']:.3f}s wall"
        )
    targets = summary.get("atpg_targets") or {}
    if targets.get("targets"):
        lines.append(
            f"atpg targets: {targets['targets']} "
            f"({targets['table']} decided by the tables, "
            f"{targets['podem']} PODEM searches), "
            f"{targets['wall']:.3f}s wall"
        )
    chunks = summary.get("atpg_chunks") or {}
    if chunks.get("chunks"):
        lines.append(
            f"atpg pattern simulation: {chunks['chunks']} chunks, "
            f"{chunks['patterns']} patterns x {chunks['faults']} faults, "
            f"{chunks['wall']:.3f}s wall"
        )
    spans = summary["chunk_spans"]
    if spans["ok"] or spans["failed"]:
        lines.append(
            f"chunk spans: {spans['ok']} ok, {spans['failed']} failed"
        )
    if summary["chunk_backends"]:
        lines.append("per-rung chunk time:")
        for backend, entry in summary["chunk_backends"].items():
            lines.append(
                f"  {backend}: {entry['chunks']} chunks, "
                f"{entry['faults']} faults, {entry['wall']:.3f}s wall, "
                f"{entry['cpu']:.3f}s cpu ({_rate(entry['faults_per_second'])})"
            )
    if summary["retries"]:
        total = sum(summary["retries"].values())
        detail = ", ".join(
            f"{action} {count}"
            for action, count in sorted(summary["retries"].items())
        )
        lines.append(f"retries: {total} ({detail})")
    if summary["workers_replaced"]:
        lines.append(f"workers replaced: {summary['workers_replaced']}")
    if summary["checkpoint_writes"]:
        lines.append(f"checkpoint writes: {summary['checkpoint_writes']}")
    if summary["degradations"]:
        lines.append("degradations:")
        for deg in summary["degradations"]:
            lines.append(
                f"  {deg.get('frm', '?')} -> {deg.get('to', '?')}: "
                f"{deg.get('reason', '')}"
            )
    elif summary["campaigns"]:
        lines.append("no degradations")
    if summary["qa_properties"]:
        lines.append("QA properties:")
        for prop, entry in summary["qa_properties"].items():
            rate = entry["pass_rate"]
            shown = f"{rate:.1%} pass" if rate is not None else "no trials"
            lines.append(
                f"  {prop}: {entry['trials']} trials, "
                f"{entry['counterexamples']} counterexample(s), "
                f"{entry['wall']:.3f}s ({shown})"
            )
    return "\n".join(lines)

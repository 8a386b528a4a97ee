"""Search-based SCAL synthesis/repair campaigns (repro.synth).

The acceptance spine: fixed-seed micro-campaigns must *find* verified
self-dual, self-checking networks for at least two seed-circuit specs —
winners are re-checked through the analysis/oracle verification path and
the QA reference interpreter, never trusted on the search's own score.
Around it: the genome representation round-trips, every operator
produces valid children, the batched fitness evaluator is byte-identical
to the scalar one, checkpoint/--resume continues deterministically, and
the CLI/stats surfaces work end to end.
"""

import dataclasses
import json
import os
import random

import pytest

from repro import obs
from repro.cli import main
from repro.core.analysis import analyze_network
from repro.core.simulate import ScalSimulator
from repro.engine.supervisor import CheckpointError
from repro.logic.benchfmt import save_bench
from repro.obs.recorder import MemoryRecorder
from repro.obs.stats import render, summarize
from repro.qa.chaos import sabotage_campaign
from repro.qa.reference import reference_is_self_dual, reference_output_bits
from repro.scal.costs import network_cost
from repro.synth import (
    MIN_POPULATION,
    SPECS,
    Genome,
    GenomeError,
    SynthCampaign,
    crossover,
    damage_network,
    evaluate_task,
    make_task,
    mutate,
    random_genome,
    repair_campaign,
    spec_from_network,
)
from repro.workloads.randomlogic import random_alternating_network

#: The known-good micro-campaign shape: population 24 with the ternary
#: MAJ/MIN library converges within 20 generations on these seeds.
MICRO = dict(population=24, generations=20, max_gates=16)


def _campaign(spec_name, seed, **overrides):
    kwargs = dict(MICRO)
    kwargs.update(overrides)
    return SynthCampaign(SPECS[spec_name], seed=seed, **kwargs)


def _report_identity(report):
    """The replay-comparable slice (timing/chunk accounting vary)."""
    return (
        report.best_genome,
        report.best_fingerprint,
        report.best_generation,
        dataclasses.replace(report.best_record, backend=""),
        report.generations_run,
        report.evaluations,
        report.improvements,
        report.converged,
        report.history,
        report.pareto,
    )


# ----------------------------------------------------------------------
# genome representation
# ----------------------------------------------------------------------
class TestGenome:
    def test_network_roundtrip(self):
        rng = random.Random(7)
        genome = random_genome(rng, 3, 5)
        net = genome.to_network(("x0", "x1", "phi"))
        back = Genome.from_network(net)
        assert back.to_network(("x0", "x1", "phi")).outputs == net.outputs
        # The round-trip preserves behavior (BUF output wrappers aside).
        assert reference_output_bits(net) == reference_output_bits(
            back.to_network(("x0", "x1", "phi"))
        )

    def test_canonical_and_fingerprint_are_stable(self):
        genome = Genome(3, (("MAJ", (2, 1, 0)),), (3,))
        assert json.loads(genome.canonical()) == {
            "gates": [["MAJ", [2, 1, 0]]],
            "n_inputs": 3,
            "outputs": [3],
        }
        assert genome.fingerprint() == Genome.from_json(
            genome.canonical()
        ).fingerprint()

    def test_validation_rejects_forward_and_out_of_range_sources(self):
        with pytest.raises(GenomeError):
            # Gate 0 defines line 2 and may only read lines 0-1.
            Genome(2, (("AND", (0, 2)),), (2,)).validate()
        with pytest.raises(GenomeError):
            Genome(2, (("AND", (0, 1)),), (9,)).validate()
        with pytest.raises(GenomeError):
            Genome(2, (("MAJ", (0, 1)),), (2,)).validate()  # bad arity


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------
class TestOperators:
    def test_mutation_is_seed_deterministic_and_always_valid(self):
        parent = random_genome(random.Random(3), 3, 6)
        children_a = [
            mutate(parent, random.Random(f"m:{i}"), max_gates=10)
            for i in range(50)
        ]
        children_b = [
            mutate(parent, random.Random(f"m:{i}"), max_gates=10)
            for i in range(50)
        ]
        assert [c.canonical() for c in children_a] == [
            c.canonical() for c in children_b
        ]
        for child in children_a:
            child.validate()
            assert len(child.gates) <= 10

    def test_crossover_children_are_valid(self):
        rng = random.Random(11)
        a = random_genome(rng, 3, 5)
        b = random_genome(rng, 3, 8)
        for i in range(50):
            crossover(a, b, random.Random(f"x:{i}")).validate()

    def test_crossover_rejects_mismatched_inputs(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            crossover(
                random_genome(rng, 2, 3), random_genome(rng, 3, 3), rng
            )


# ----------------------------------------------------------------------
# fitness: batched == scalar, and the known-perfect witness
# ----------------------------------------------------------------------
class TestFitness:
    def test_batched_records_match_scalar_evaluator(self):
        rng = random.Random(13)
        for spec in SPECS.values():
            for _ in range(10):
                genome = random_genome(rng, spec.n_inputs, rng.randint(1, 8))
                batched = evaluate_task(make_task(genome, spec))
                scalar = evaluate_task(
                    make_task(genome, spec, mode="scalar")
                )
                assert dataclasses.replace(
                    batched, backend=""
                ) == dataclasses.replace(scalar, backend="")

    def test_tiled_records_equal_untiled(self, monkeypatch):
        """Coverage counts every pair tile: with every sweep tiled into
        one-pair tiles, each record equals the untiled one."""
        from repro.engine import backends

        rng = random.Random(29)
        cases = [
            make_task(
                random_genome(rng, spec.n_inputs, rng.randint(1, 8)), spec
            )
            for spec in SPECS.values()
            for _ in range(10)
        ]
        untiled = [evaluate_task(task) for task in cases]
        assert any(record.dangerous for record in untiled)
        monkeypatch.setattr(backends, "UNTILED_MAX_INPUTS", 0)
        monkeypatch.setattr(backends, "TILE_PAIRS", 1)
        assert [evaluate_task(task) for task in cases] == untiled

    def test_majority_realization_of_dualized_and_is_perfect(self):
        # MAJ(x0, x1, phi) IS the Yamamoto-dualized AND2: functionally
        # exact, self-dual, and every collapsed fault detected (the
        # Chapter 3 minority-realization result the search rediscovers).
        record = evaluate_task(
            make_task(Genome(3, (("MAJ", (2, 1, 0)),), (3,)), SPECS["and2"])
        )
        assert record.perfect
        assert record.dangerous == 0
        assert record.detected == record.faults

    def test_invalid_genome_scores_invalid(self):
        task = make_task(
            Genome(3, (("MAJ", (2, 1, 0)),), (3,)), SPECS["and2"]
        )
        task["genome"] = '{"not": "a genome"}'
        record = evaluate_task(task)
        assert not record.ok
        assert record.score == -1.0


# ----------------------------------------------------------------------
# the acceptance spine: fixed-seed synthesis on >= 2 specs, verified
# ----------------------------------------------------------------------
def _verify_winner(report, spec):
    """A claimed winner must survive verification it had no hand in."""
    genome = Genome.from_json(report.best_genome)
    net = genome.to_network(spec.input_names, name=f"win_{spec.name}")
    # 1. The QA reference interpreter reproduces the spec tables.
    bits = reference_output_bits(net)
    assert tuple(bits) == tuple(spec.tables)
    # 2. Every output is self-dual (Definition 2.5).
    n = len(spec.input_names)
    for out_bits in bits:
        assert reference_is_self_dual(out_bits, n)
    # 3. The scal analysis path: alternating, with no failing lines.
    analysis = analyze_network(net)
    assert analysis.alternating
    assert not analysis.failing_lines()
    # 4. The exhaustive Definition-2.4 oracle: no fault-insecure line.
    assert not ScalSimulator(net).verdict(include_pins=False).insecure


@pytest.mark.parametrize("spec_name,seed", [("and2", 2), ("maj3", 2)])
def test_fixed_seed_synthesis_converges_and_verifies(spec_name, seed):
    report = _campaign(spec_name, seed).run()
    assert report.converged
    assert report.best_record.perfect
    assert report.pareto  # a perfect candidate joined the front
    _verify_winner(report, SPECS[spec_name])


def test_report_carries_cost_factor_against_reference(tmp_path):
    report = _campaign("and2", 2).run()
    # cost_factor = winner cost / two-level reference cost (Table 4.1's
    # measured-vs-Kohavi ratio transplanted to the search's winner).
    reference = network_cost(SPECS["and2"].reference_network())
    assert report.cost_reference == pytest.approx(reference)
    assert report.cost_factor == pytest.approx(
        report.best_record.cost / reference
    )
    assert report.cost_factor < 1.0  # MAJ beats two-level SOP on area


# ----------------------------------------------------------------------
# determinism: checkpoint/--resume and fork-vs-serial parity
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path):
        straight = _campaign("or2", 2, generations=12).run()
        ckpt = os.path.join(tmp_path, "synth.ckpt.json")
        # The interrupted half stops at a 4-generation cap, which the
        # checkpoint's identity leaves out.
        capped = _campaign("or2", 2, generations=4, checkpoint=ckpt).run()
        assert not capped.converged and capped.generations_run == 4
        resumed = _campaign(
            "or2", 2, generations=12, checkpoint=ckpt, resume=True
        ).run()
        assert resumed.resumed_generation == 4
        assert _report_identity(resumed) == _report_identity(straight)

    def test_checkpoint_fingerprint_mismatch_raises(self, tmp_path):
        ckpt = os.path.join(tmp_path, "synth.ckpt.json")
        _campaign("or2", 2, generations=2, checkpoint=ckpt).run()
        with pytest.raises(CheckpointError):
            _campaign(  # different seed => different config fingerprint
                "or2", 3, generations=12, checkpoint=ckpt, resume=True
            ).run()

    @pytest.mark.parametrize(
        "content", ["not json at all {", json.dumps({"version": 99})]
    )
    def test_corrupt_checkpoint_raises(self, tmp_path, content):
        ckpt = os.path.join(tmp_path, "synth.ckpt.json")
        with open(ckpt, "w") as handle:
            handle.write(content)
        with pytest.raises(CheckpointError):
            _campaign(
                "or2", 2, generations=12, checkpoint=ckpt, resume=True
            ).run()

    @pytest.mark.parametrize(
        "sabotage",
        [
            pytest.param(None, id="clean"),
            pytest.param("worker-killed", id="sabotage-worker-killed"),
            pytest.param("chunk-raises", id="sabotage-chunk-raises"),
        ],
    )
    def test_fork_transport_matches_inline(self, sabotage, tmp_path):
        """A one-shot worker failure in a generation batch recovers
        through the same supervision as a fault campaign."""
        inline = _campaign("and2", 2).run()
        if sabotage is None:
            forked = _campaign("and2", 2, processes=2).run()
        else:
            with sabotage_campaign(
                sabotage, once=True
            ):
                forked = _campaign("and2", 2, processes=2).run()
            assert forked.retries >= 1
            if sabotage == "worker-killed":
                assert forked.workers_replaced >= 1
        assert _report_identity(forked) == _report_identity(inline)


# ----------------------------------------------------------------------
# repair mode
# ----------------------------------------------------------------------
class TestRepair:
    def test_repair_recovers_a_damaged_alternating_network(self):
        host = random_alternating_network(random.Random(5), 3)
        spec = spec_from_network(host)
        damaged = damage_network(host, seed=1, damage=3)
        # The damage really broke something (else repair proves nothing).
        assert reference_output_bits(
            damaged.to_network(spec.input_names)
        ) != tuple(spec.tables)
        report = repair_campaign(
            host,
            seed=1,
            damage=3,
            population=16,
            generations=30,
            max_gates=18,
        ).run()
        assert report.mode == "repair"
        assert report.converged
        _verify_winner(report, spec)

    def test_repair_cost_reference_defaults_to_host_cost(self):
        host = random_alternating_network(random.Random(5), 3)
        campaign = repair_campaign(
            host, seed=1, population=16, generations=1, max_gates=18
        )
        assert campaign.cost_reference == pytest.approx(network_cost(host))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_synth_json_converges_and_exits_0(self, capsys):
        assert (
            main(
                [
                    "synth",
                    "--spec",
                    "and2",
                    "--seed",
                    "2",
                    "--population",
                    "24",
                    "--generations",
                    "20",
                    "--max-gates",
                    "16",
                    "--json",
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().out)
        assert stats["converged"] is True
        assert stats["best_perfect"] is True
        assert "history" not in stats  # --report opts into the trajectory

    def test_synth_text_report_and_winner_export(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "winner.bench")
        assert (
            main(
                [
                    "synth",
                    "--spec",
                    "maj3",
                    "--seed",
                    "2",
                    "--population",
                    "24",
                    "--generations",
                    "20",
                    "--max-gates",
                    "16",
                    "--report",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "synth synth campaign" in text
        assert "generation" in text
        assert os.path.exists(out)

    def test_synth_repair_cli(self, tmp_path, capsys):
        host = random_alternating_network(random.Random(5), 3)
        bench = os.path.join(tmp_path, "host.bench")
        save_bench(host, bench)
        assert (
            main(
                [
                    "synth",
                    "--repair",
                    bench,
                    "--seed",
                    "1",
                    "--damage",
                    "3",
                    "--population",
                    "16",
                    "--generations",
                    "30",
                    "--max-gates",
                    "18",
                    "--json",
                ]
            )
            == 0
        )
        stats = json.loads(capsys.readouterr().out)
        assert stats["mode"] == "repair"
        assert stats["converged"] is True

    def test_synth_flag_validation(self):
        with pytest.raises(SystemExit):
            main(["synth"])  # neither --spec nor --repair
        with pytest.raises(SystemExit):
            main(["synth", "--spec", "nope"])
        with pytest.raises(SystemExit):
            main(["synth", "--spec", "and2", "--population", "1"])
        with pytest.raises(SystemExit):
            main(["synth", "--spec", "and2", "--resume"])
        # The generation cap is the drill's stop: no knob of its own.
        with pytest.raises(SystemExit) as unknown:
            main(["synth", "--spec", "and2", "--abort-after-generations", "4"])
        assert unknown.value.code == 2

    def test_population_floor_is_the_campaigns(self, capsys):
        """The CLI refuses exactly the populations the campaign cannot
        breed (below the elite plus one child) with its own message."""
        floor = str(MIN_POPULATION)
        below = str(MIN_POPULATION - 1)
        with pytest.raises(SystemExit, match=f"population must be >= {floor}"):
            main(["synth", "--spec", "and2", "--population", below])
        with pytest.raises(ValueError, match="population must be at least"):
            _campaign("and2", 2, population=MIN_POPULATION - 1)
        args = ["--population", floor, "--generations", "1", "--json"]
        assert main(["synth", "--spec", "and2", *args]) in (0, 1)
        stats = json.loads(capsys.readouterr().out)
        assert stats["evaluations"] == MIN_POPULATION


# ----------------------------------------------------------------------
# flight events -> repro stats
# ----------------------------------------------------------------------
def test_stats_renders_synth_flight_events():
    recorder = MemoryRecorder()
    with obs.recording(recorder=recorder):
        report = _campaign("and2", 2).run()
    summary = summarize(recorder.events)
    assert len(summary["synth_runs"]) == 1
    run = summary["synth_runs"][0]
    assert run["spec"] == "and2"
    assert run["converged"] is True
    assert run["evaluations_per_second"] > 0
    assert len(summary["synth_generations"]) == report.generations_run
    assert summary["synth_batches"]["batches"] == report.batches
    text = render(summary)
    assert "synth: synth spec=and2 seed=2" in text
    assert "synth trajectory:" in text
    assert "synth batches:" in text

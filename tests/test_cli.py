"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import main
from repro.logic.benchfmt import load_bench, save_bench
from repro.workloads.fig34 import fig34_network, fig37_fixed_network


@pytest.fixture
def fig34_bench(tmp_path):
    path = os.path.join(tmp_path, "fig34.bench")
    save_bench(fig34_network(), path)
    return path


@pytest.fixture
def fig37_bench(tmp_path):
    path = os.path.join(tmp_path, "fig37.bench")
    save_bench(fig37_fixed_network(), path)
    return path


class TestCampaign:
    def test_self_checking_network_exits_0(self, fig37_bench, capsys):
        assert main(["campaign", fig37_bench]) == 0
        out = capsys.readouterr().out
        assert "100.0% detected" in out
        assert "via" in out  # names the backend it ran on

    def test_dangerous_fault_exits_1(self, fig34_bench, capsys):
        assert main(["campaign", fig34_bench, "--no-collapse"]) == 1
        assert "dangerous" in capsys.readouterr().out

    def test_json_output_and_backend_agreement(self, fig37_bench, capsys):
        """Serial and fork-worker campaigns print the same JSON but for
        the rung they name."""
        import json

        stats = {}
        for processes in ("1", "2"):
            assert main(
                ["campaign", fig37_bench, "--json", "--no-collapse",
                 "--processes", processes]
            ) == 0
            stats[processes] = json.loads(capsys.readouterr().out)
        assert stats["1"].pop("backend") == "serial:bitmask"
        assert stats["2"].pop("backend") == "fork:bitmask"
        assert stats["1"] == stats["2"]

    def test_retired_kernel_backend_is_an_argparse_error(
        self, fig37_bench, capsys
    ):
        """There is one sweep, so there is no ``--backend`` to name a
        retired rung with."""
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", fig37_bench, "--backend", "kernel"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend kernel" in err

    def test_processes_flag(self, fig37_bench, capsys):
        assert main(["campaign", fig37_bench, "--processes", "2",
                     "--no-collapse"]) == 0

    def test_bad_processes_is_a_validation_error(self, fig37_bench):
        with pytest.raises(SystemExit, match="--processes must be >= 1"):
            main(["campaign", fig37_bench, "--processes", "0"])

    def test_bad_timeout_is_a_validation_error(self, fig37_bench):
        with pytest.raises(SystemExit, match="--timeout must be"):
            main(["campaign", fig37_bench, "--timeout", "-3"])

    def test_resume_requires_checkpoint(self, fig37_bench):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(["campaign", fig37_bench, "--resume"])

    def test_missing_resume_checkpoint_is_not_a_traceback(
        self, fig37_bench, tmp_path
    ):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["campaign", fig37_bench, "--resume",
                  "--checkpoint", os.path.join(tmp_path, "absent.json")])

    def test_checkpoint_then_resume_matches(self, fig37_bench, tmp_path,
                                            capsys):
        import json

        ckpt = os.path.join(tmp_path, "campaign.json")
        assert main(["campaign", fig37_bench, "--json", "--no-collapse",
                     "--checkpoint", ckpt]) == 0
        first = json.loads(capsys.readouterr().out)
        assert os.path.exists(ckpt)
        assert main(["campaign", fig37_bench, "--json", "--no-collapse",
                     "--checkpoint", ckpt, "--resume"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        del first["backend"], resumed["backend"]
        assert first == resumed

    def test_report_flag(self, fig37_bench, capsys):
        import json

        assert main(["campaign", fig37_bench, "--json", "--report"]) == 0
        stats = json.loads(capsys.readouterr().out)
        report = stats["report"]
        assert report["degradations"] == []
        assert report["chunks_completed"] == report["chunks_total"]
        # Without --report the JSON stays stable across runs (no
        # wall-time noise leaks into the comparison-friendly output).
        assert main(["campaign", fig37_bench, "--json"]) == 0
        assert "report" not in json.loads(capsys.readouterr().out)
        # Human mode prints the summary.
        assert main(["campaign", fig37_bench, "--report"]) == 0
        assert "campaign:" in capsys.readouterr().out


class TestAnalyze:
    def test_failing_network_exits_1(self, fig34_bench, capsys):
        assert main(["analyze", fig34_bench]) == 1
        out = capsys.readouterr().out
        assert "NOT self-checking" in out
        assert "or_ab" in out

    def test_passing_network_exits_0(self, fig37_bench, capsys):
        assert main(["analyze", fig37_bench, "--oracle"]) == 0
        out = capsys.readouterr().out
        assert out.count("SELF-CHECKING") >= 2  # analysis + oracle

    def test_listing_flag(self, fig34_bench, capsys):
        main(["analyze", fig34_bench, "--listing"])
        out = capsys.readouterr().out
        assert "FAILS Algorithm 3.1" in out

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            main(["analyze", "/nonexistent/x.bench"])

    def test_truth_table_cut_is_the_engines(self, tmp_path, capsys):
        """The exhaustive route runs up to the engine's untiled cut (20
        inputs); above it the CLI points at the structural route."""
        import random

        from repro.engine.backends import UNTILED_MAX_INPUTS
        from repro.workloads.randomlogic import random_mixed_network

        assert UNTILED_MAX_INPUTS == 20
        codes = {}
        for n_inputs in (13, 21):
            path = str(tmp_path / f"mixed{n_inputs}.bench")
            net = random_mixed_network(random.Random(n_inputs), n_inputs, 30)
            save_bench(net, path)
            codes[n_inputs] = main(["analyze", path])
        out = capsys.readouterr().out
        assert codes[13] in (0, 1)
        assert "self-checking" in out.lower()
        assert codes[21] == 2
        assert (
            "21 inputs exceed the exhaustive limit (20); run testgen for "
            "structural checks"
        ) in out


class TestTestgen:
    def test_truth_table_route(self, fig37_bench, capsys):
        assert main(["testgen", fig37_bench, "--output", "F3"]) == 0
        out = capsys.readouterr().out
        assert "s/0" in out and "s/1" in out

    def test_multi_output_without_output_is_a_usage_error(self, capsys):
        """The truth-table route needs one output: without ``--output``
        a multi-output net exits 2 naming its outputs, not a traceback."""
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "examples", "data", "adder4.bench",
        )
        assert main(["testgen", path]) == 2
        out = capsys.readouterr().out
        assert "name one with --output (s0, s1, s2, s3, c4)" in out

    def test_structural_route(self, fig37_bench, capsys):
        code = main(["testgen", fig37_bench, "--structural"])
        out = capsys.readouterr().out
        assert "pair anchored" in out
        # or_ab-free network: every stem fault gets a detecting pair.
        assert "UNTESTABLE" not in out and "no test" not in out
        assert code == 0

    def test_structural_route_proves_line_20(self, fig34_bench, capsys):
        """Figure 3.4's or_ab s/0 has no detecting pair: a proof, so
        the run still exits 0."""
        assert main(["testgen", fig34_bench, "--structural"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if "anchored" not in line] == [
            "or_ab s/0: UNTESTABLE"
        ]


class TestRepair:
    def test_repairs_and_writes(self, fig34_bench, tmp_path, capsys):
        out_path = os.path.join(tmp_path, "fixed.bench")
        assert main(["repair", fig34_bench, "--out", out_path]) == 0
        text = capsys.readouterr().out
        assert "repaired" in text
        fixed = load_bench(out_path)
        from repro.core import analyze_network

        assert analyze_network(fixed).is_self_checking


class TestMinority:
    def test_converts_nand_network(self, tmp_path, capsys):
        from repro.workloads.benchcircuits import fig62_nand_network

        src = os.path.join(tmp_path, "fig62.bench")
        save_bench(fig62_nand_network(), src)
        dst = os.path.join(tmp_path, "fig62_min.bench")
        assert main(["minority", src, "--out", dst]) == 0
        out = capsys.readouterr().out
        assert "minority modules" in out
        converted = load_bench(dst)
        assert any(g.kind.value == "min" for g in converted.gates)


class TestDot:
    def test_dot_output(self, fig34_bench, capsys):
        assert main(["dot", fig34_bench]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert 'color="red"' in out  # or_ab highlighted


class TestFaultTable:
    def test_table_with_bad_fault(self, fig34_bench, capsys):
        code = main(["faulttable", fig34_bench, "nab/0", "or_ab/0"])
        out = capsys.readouterr().out
        assert "1,1X" in out
        assert "undetected wrong outputs" in out
        assert code == 1

    def test_clean_table(self, fig37_bench, capsys):
        assert main(["faulttable", fig37_bench, "nab/1"]) == 0

    def test_bad_fault_spec(self, fig34_bench):
        with pytest.raises(SystemExit):
            main(["faulttable", fig34_bench, "nab"])


class TestTelemetryCli:
    def test_campaign_writes_flight_and_prometheus(
        self, fig37_bench, tmp_path, capsys
    ):
        from repro import obs

        flight = str(tmp_path / "flight.jsonl")
        prom = str(tmp_path / "metrics.prom")
        assert main(["campaign", fig37_bench, "--no-collapse",
                     "--trace-out", flight, "--metrics-out", prom]) == 0
        capsys.readouterr()
        samples = obs.parse_prometheus(open(prom).read())
        assert samples["repro_campaign_faults_total"]
        events = list(obs.read_flight(flight))
        ok_chunks = sum(
            1 for e in events
            if e["k"] == "span" and e["name"] == "sweep.chunk" and e["ok"]
        )
        (report,) = [
            e["attrs"] for e in events
            if e["k"] == "event" and e["name"] == "campaign.report"
        ]
        assert ok_chunks == report["chunks_completed"] > 0
        # the recording context restored the disabled default
        assert obs.get_recorder() is None
        assert not obs.metrics_enabled()

    def test_metrics_out_json_flavor(self, fig37_bench, tmp_path, capsys):
        import json

        out = str(tmp_path / "metrics.json")
        assert main(["campaign", fig37_bench, "--no-collapse",
                     "--metrics-out", out]) == 0
        capsys.readouterr()
        snapshot = json.load(open(out))
        assert snapshot["counters"]["repro_campaign_faults_total"]["samples"]

    def test_fuzz_accepts_telemetry_flags(self, tmp_path, capsys):
        from repro import obs

        flight = str(tmp_path / "flight.jsonl")
        prom = str(tmp_path / "metrics.prom")
        assert main(["fuzz", "--budget", "4",
                     "--property", "backend-agreement",
                     "--artifact-dir", "none",
                     "--trace-out", flight, "--metrics-out", prom]) == 0
        capsys.readouterr()
        events = list(obs.read_flight(flight))
        assert any(
            e["k"] == "span" and e["name"] == "qa.property" for e in events
        )
        assert obs.parse_prometheus(open(prom).read())[
            "repro_qa_trials_total"
        ]

    def test_stats_renders_a_recorded_flight(
        self, fig37_bench, tmp_path, capsys
    ):
        import json

        flight = str(tmp_path / "flight.jsonl")
        assert main(["campaign", fig37_bench, "--no-collapse",
                     "--trace-out", flight]) == 0
        capsys.readouterr()
        assert main(["stats", flight]) == 0
        out = capsys.readouterr().out
        assert "flight:" in out and "campaign:" in out
        assert main(["stats", flight, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["campaigns"] and summary["chunk_spans"]["ok"] > 0

    def test_stats_missing_or_corrupt_flight_is_not_a_traceback(
        self, tmp_path
    ):
        with pytest.raises(SystemExit):
            main(["stats", str(tmp_path / "nope.jsonl")])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit):
            main(["stats", str(bad)])

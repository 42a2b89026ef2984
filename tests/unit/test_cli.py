"""CLI tests: each command runs and prints plausible output, and
accepts only the flags it reads."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.mpi.dumpi import save_trace


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


COMMON = ["--preset", "tiny", "--ranks", "8", "--msg-scale", "0.05", "--seed", "1"]

MACHINE = {"--preset", "--seed"}
TRACE = {"--ranks", "--msg-scale"}
EXEC = {"--workers", "--cache-dir", "--progress"}
FAULTS = {"--faults", "--fault-rate", "--fault-seed"}
OBS = {"--obs", "--obs-window-ns", "--obs-out", "--obs-format"}
FUNNEL = {
    "--funnel", "--routing", "--model", "--train-cache", "--save-model",
    "--candidates-per-policy", "--screen-top", "--validate-top",
    "--exhaustive", "--out", "--workers", "--cache-dir",
}

#: Every flag each command accepts: exactly the flags it reads.
SURFACE = {
    "study": MACHINE | TRACE | EXEC | {"--backend"} | FAULTS | OBS,
    "sensitivity": MACHINE | TRACE | EXEC | {"--backend"} | FAULTS,
    "interference": MACHINE | TRACE | EXEC | {"--backend"} | FAULTS | OBS
    | {"--pattern", "--bg-bytes", "--bg-interval-us", "--bg-fanout"},
    "resilience": MACHINE | TRACE | EXEC
    | {"--fault-seed", "--rates", "--router-rate", "--out"},
    "fidelity": MACHINE | TRACE | EXEC | {"--out"},
    "replay": MACHINE | {"--msg-scale", "--backend"} | FAULTS | OBS
    | {"--placement", "--routing", "--trace-ranks"},
    "training-tradeoff": MACHINE | TRACE | EXEC
    | {"--backend", "--apps", "--trace", "--trace-ranks", "--out"},
    "characterize": {"--seed"} | TRACE,
    "advise": MACHINE | TRACE | {"--shared", "--bursty"} | FUNNEL,
    "cluster-stream": MACHINE | EXEC | {"--backend"} | FAULTS
    | {"--duration", "--load", "--mix", "--policy", "--model", "--routing",
       "--backfill", "--validate-every", "--out"},
    "nomenclature": set(),
}


class TestSurface:
    def test_each_command_accepts_only_its_flags(self):
        parser = build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        seen = {
            name: {
                flag
                for action in sp._actions
                for flag in action.option_strings
                if flag.startswith("--") and flag != "--help"
            }
            for name, sp in sub.choices.items()
        }
        assert seen == SURFACE
        assert sum(map(len, seen.values())) == 129

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "FB", *COMMON, "--faults", "missing.json"],
            ["resilience", "FB", *COMMON, "--fault-rate", "0.5"],
            ["characterize", "FB", "--obs", "--workers", "4",
             "--cache-dir", "/nonexistent"],
            ["training-tradeoff", *COMMON, "--apps", "DP",
             "--faults", "missing.json", "--obs-out", "obs-dir"],
            ["sensitivity", "FB", *COMMON, "--obs-out", "obs-dir"],
            ["advise", "FB", *COMMON, "--screen-top", "3"],
            ["study", "FB", *COMMON, "--faults", "plan.json",
             "--fault-rate", "0.1"],
        ],
        ids=[
            "fidelity-faults", "resilience-fault-rate", "characterize-exec",
            "training-faults-obs", "sensitivity-obs-out",
            "advise-funnel-flag", "study-plan-and-rate",
        ],
    )
    def test_flags_a_command_would_ignore_are_usage_errors(
        self, argv, tmp_path, monkeypatch
    ):
        from repro.faults import FaultPlan, save_fault_plan

        monkeypatch.chdir(tmp_path)
        save_fault_plan(FaultPlan(), "plan.json")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "obs-dir").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "FB", *COMMON, "--backend", "flow", "--obs"],
            ["study", "FB", *COMMON, "--faults", "missing.json"],
            ["advise", "FB", *COMMON, "--funnel", "--shared",
             "--model", "missing.json"],
        ],
        ids=["flow-obs", "missing-plan", "funnel-shared"],
    )
    def test_bad_combinations_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_nomenclature(self, capsys):
        rc, out = run_cli(capsys, "nomenclature")
        assert rc == 0
        assert "cont-min" in out and "rand-adp" in out

    def test_characterize(self, capsys):
        rc, out = run_cli(
            capsys, "characterize", "CR", "--ranks", "8", "--msg-scale", "0.05",
            "--seed", "1",
        )
        assert rc == 0
        assert "avg load per rank" in out

    def test_study(self, capsys):
        rc, out = run_cli(capsys, "study", "AMG", *COMMON)
        assert rc == 0
        assert "communication time" in out
        assert "best configuration" in out

    def test_sensitivity(self, capsys):
        rc, out = run_cli(capsys, "sensitivity", "AMG", *COMMON)
        assert rc == 0
        assert "rand-adp" in out

    def test_interference(self, capsys):
        rc, out = run_cli(
            capsys,
            "interference",
            "AMG",
            "--pattern",
            "uniform",
            "--bg-bytes",
            "1024",
            "--bg-interval-us",
            "10",
            *COMMON,
        )
        assert rc == 0
        assert "background" in out

    def test_replay(self, capsys, tmp_path):
        import repro

        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.1)
        path = tmp_path / "amg.dumpi"
        save_trace(trace, path)
        rc, out = run_cli(
            capsys, "replay", str(path), "--preset", "tiny", "--seed", "1"
        )
        assert rc == 0
        assert "max_comm_ms" in out

    def test_replay_honours_msg_scale(self, capsys, tmp_path):
        import repro

        path = tmp_path / "amg.dumpi"
        save_trace(repro.amg_trace(num_ranks=8, seed=1).scaled(0.1), path)
        comm = {}
        for scale in ("1.0", "0.01"):
            rc, out = run_cli(
                capsys, "replay", str(path), "--preset", "tiny", "--seed", "1",
                "--msg-scale", scale,
            )
            assert rc == 0
            (line,) = [ln for ln in out.splitlines() if "max_comm_ms" in ln]
            comm[scale] = float(line.split(":")[1])
        assert comm["0.01"] < comm["1.0"]

    def test_replay_with_fault_plan_file(self, capsys, tmp_path):
        import repro
        from repro.core.runner import build_topology
        from repro.faults import random_fault_plan, save_fault_plan

        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.1)
        trace_path = tmp_path / "amg.dumpi"
        save_trace(trace, trace_path)
        topo = build_topology(repro.tiny().topology)
        plan = random_fault_plan(topo, 0.2, seed=11)
        assert not plan.is_empty()
        plan_path = save_fault_plan(plan, tmp_path / "plan.json")
        rc, out = run_cli(
            capsys,
            "replay",
            str(trace_path),
            "--preset",
            "tiny",
            "--seed",
            "1",
            "--faults",
            str(plan_path),
        )
        assert rc == 0
        assert "max_comm_ms" in out

    def test_replay_with_fault_rate(self, capsys, tmp_path):
        import repro

        trace = repro.amg_trace(num_ranks=8, seed=1).scaled(0.1)
        path = tmp_path / "amg.dumpi"
        save_trace(trace, path)
        rc, out = run_cli(
            capsys,
            "replay",
            str(path),
            "--preset",
            "tiny",
            "--seed",
            "1",
            "--fault-rate",
            "0.2",
            "--fault-seed",
            "11",
        )
        assert rc == 0
        assert "max_comm_ms" in out

    def test_resilience(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "resilience.json"
        rc, out = run_cli(
            capsys,
            "resilience",
            "FB",
            "--rates",
            "0.2",
            "--fault-seed",
            "11",
            "--out",
            str(out_path),
            *COMMON,
        )
        assert rc == 0
        assert "degradation" in out and "placement-averaged" in out
        data = json.loads(out_path.read_text())
        assert data["schema"] == "repro-resilience/v1"
        assert len(data["cells"]) == 20  # 10 labels x (healthy + 0.2)
        assert data["fault_plan_digests"]["0.2"] is not None

    def test_resilience_rejects_bad_rates(self, capsys):
        with pytest.raises(SystemExit):
            main(["resilience", "FB", "--rates", "0.1,bogus", *COMMON])

    def test_advise(self, capsys):
        rc, out = run_cli(capsys, "advise", "AMG", *COMMON)
        assert rc == 0
        assert "use " in out and "offered rate" in out

    def test_advise_bursty(self, capsys):
        rc, out = run_cli(capsys, "advise", "FB", "--bursty", *COMMON)
        assert rc == 0
        assert "cont-min" in out

    def test_cluster_stream(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "stream.json"
        rc, out = run_cli(
            capsys,
            "cluster-stream",
            "--preset",
            "tiny",
            "--duration",
            "0.5",
            "--load",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(out_path),
        )
        assert rc == 0
        assert "stream: mix=" in out and "epochs" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-cluster-stream/v1"
        assert doc["invariants"]["conserved"]

    def test_cluster_stream_rejects_link_faults_on_flow(self, capsys, tmp_path):
        from repro.faults import FaultPlan, LinkFault, save_fault_plan
        from repro.core.runner import build_topology
        import repro

        topo = build_topology(repro.tiny().topology)
        link = next(
            i
            for i in range(topo.num_links)
            if not topo.links.kind_of(i).is_terminal
        )
        plan_path = tmp_path / "plan.json"
        save_fault_plan(
            FaultPlan(link_faults=(LinkFault(link),)), plan_path
        )
        with pytest.raises(SystemExit):
            main(
                [
                    "cluster-stream",
                    "--preset",
                    "tiny",
                    "--duration",
                    "0.2",
                    "--faults",
                    str(plan_path),
                ]
            )

    def test_replay_json_comms_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "dp.json"
        path.write_text(
            json.dumps(
                {
                    "num_ranks": 8,
                    "trace": [
                        {"comms": "all_reduce", "in_msg_size": 2048},
                        {"marker": "it0"},
                    ],
                }
            )
        )
        rc, out = run_cli(
            capsys, "replay", str(path), "--preset", "tiny", "--seed", "1"
        )
        assert rc == 0
        assert "max_comm_ms" in out

    def test_replay_json_malformed_is_cli_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"comms": "mystery", "in_msg_size": 4}]')
        with pytest.raises(SystemExit):
            main(
                [
                    "replay",
                    str(path),
                    "--preset",
                    "tiny",
                    "--trace-ranks",
                    "4",
                ]
            )

    def test_training_tradeoff(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "training.json"
        rc, out = run_cli(
            capsys,
            "training-tradeoff",
            "--apps",
            "DP,MOE",
            "--backend",
            "flow",
            "--msg-scale",
            "0.02",
            "--out",
            str(out_path),
            "--preset",
            "tiny",
            "--ranks",
            "8",
            "--seed",
            "1",
        )
        assert rc == 0
        assert "leaning" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro-mlcomms/v1"
        for app in ("DP", "MOE"):
            for routing in ("min", "adp"):
                assert doc["winners"][app][routing]["placement"]

    def test_training_tradeoff_with_imported_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "imported.json"
        trace_path.write_text(
            json.dumps(
                {
                    "name": "IMP",
                    "num_ranks": 8,
                    "trace": [
                        {"comms": "all_reduce", "in_msg_size": 4096},
                        {"marker": "it0"},
                    ],
                }
            )
        )
        rc, out = run_cli(
            capsys,
            "training-tradeoff",
            "--apps",
            "",
            "--trace",
            str(trace_path),
            "--backend",
            "flow",
            "--preset",
            "tiny",
            "--seed",
            "1",
        )
        assert rc == 0
        assert "IMP" in out

    def test_training_tradeoff_rejects_empty_study(self, capsys):
        with pytest.raises(SystemExit):
            main(["training-tradeoff", "--apps", "", "--preset", "tiny"])

    def test_unknown_app_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["study", "LINPACK", "--preset", "tiny"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.core.params import Loc


@pytest.fixture()
def db_dir(tmp_path):
    return str(tmp_path / "db")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMachines:
    def test_lists_both_testbeds(self, capsys):
        code, out, _ = run_cli(capsys, "machines")
        assert code == 0
        assert "testbed_i" in out and "testbed_ii" in out
        assert "12.18" in out  # V100 h2d bandwidth from Table II


class TestDeploy:
    def test_deploy_and_cache(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "deploy", "--machine", "testbed_ii",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "1/t_b" in out
        assert "dgemm" in out and "dgemv" in out and "daxpy" in out
        # Second call loads the cache (still succeeds, same content).
        code2, out2, _ = run_cli(capsys, "deploy", "--machine", "testbed_ii",
                                 "--scale", "tiny", "--db-dir", db_dir)
        assert code2 == 0
        assert out2 == out


class TestRun:
    @pytest.mark.parametrize("argv", [
        ("run", "gemm", "2048", "2048", "2048"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "blasx"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "cublasxt",
         "--tile", "1024"),
        ("run", "gemm", "2048", "2048", "2048", "--library", "serial"),
        ("run", "gemv", "4096", "4096"),
        ("run", "axpy", "8388608"),
        ("run", "axpy", "8388608", "--library", "unified"),
    ])
    def test_run_variants(self, capsys, db_dir, argv):
        code, out, _ = run_cli(capsys, *argv, "--scale", "tiny",
                               "--db-dir", db_dir)
        assert code == 0
        assert "GFLOP/s" in out
        assert "traffic" in out

    def test_run_with_locations(self, capsys, db_dir):
        code, out, _ = run_cli(
            capsys, "run", "gemm", "2048", "2048", "2048",
            "--loc-a", "device", "--loc-c", "device",
            "--scale", "tiny", "--db-dir", db_dir,
        )
        assert code == 0
        assert "A@D" in out and "C@D" in out

    def test_wrong_arity_errors(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "gemm", "128", "128",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "M N K" in err

    def test_unified_rejects_gemm(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "gemm", "512", "512", "512",
                               "--library", "unified",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "axpy" in err


class TestSelect:
    def test_shows_table_and_selection(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "gemm", "4096", "4096",
                               "4096", "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "<-- selected" in out
        assert "predicted ms" in out

    def test_model_override(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "gemm", "4096", "4096",
                               "4096", "--model", "cso",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "cso model" in out


class TestExperiment:
    def test_table2_runs(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "table2",
                               "--scale", "tiny")
        assert code == 0
        assert "Table II" in out

    def test_fig2_runs(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "fig2",
                               "--scale", "tiny")
        assert code == 0
        assert "Fig. 2" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_location_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "gemm", "1", "1", "1", "--loc-a", "moon"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize("argv", [
        ("profile", "gemm", "512", "512", "512"),
        ("summa",),
        ("serve",),
        ("chaos",),
        ("cluster",),
        ("experiment", "table4"),
    ])
    def test_simulation_mode_flags_are_gone(self, capsys, argv):
        # The simulator has one event queue and one exact mode, so no
        # subcommand offers a choice of either.
        build_parser().parse_args(list(argv))
        for flag in ("--sim-mode=exact", "--scheduler=heap"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*argv, flag])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_deploy_workers_flag_is_gone(self, capsys):
        # Deployment measures its grid in-process; there is no fan-out
        # to size.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["deploy", "--workers", "2"])
        assert exc.value.code == 2
        assert ("unrecognized arguments: --workers 2"
                in capsys.readouterr().err)


class TestSyrkCli:
    def test_run_syrk(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "run", "syrk", "2048", "1024",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "dsyrk" in out and "GFLOP/s" in out

    def test_select_syrk(self, capsys, db_dir):
        code, out, _ = run_cli(capsys, "select", "syrk", "4096", "4096",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 0
        assert "<-- selected" in out

    def test_syrk_wrong_arity(self, capsys, db_dir):
        code, _, err = run_cli(capsys, "run", "syrk", "2048",
                               "--scale", "tiny", "--db-dir", db_dir)
        assert code == 2
        assert "N K" in err


class TestServe:
    def test_serve_smoke_writes_valid_document(self, capsys, db_dir,
                                               tmp_path):
        import json

        out_dir = str(tmp_path / "serve")
        code, out, _ = run_cli(
            capsys, "serve", "--gpus", "2", "--arrival", "poisson",
            "--rate", "2000", "--requests", "12", "--seed", "3",
            "--scale", "tiny", "--db-dir", db_dir, "--out-dir", out_dir)
        assert code == 0
        assert "Served 12 requests" in out
        assert "SLO" in out and "p99" in out
        assert "gpu0" in out and "host" in out

        from repro.serve import validate_serve_json

        with open(f"{out_dir}/serve.json") as fh:
            doc = json.load(fh)
        validate_serve_json(doc)
        assert doc["context"]["n_gpus"] == 2
        assert doc["context"]["workload"]["rate"] == 2000.0

    def test_serve_deterministic_across_runs(self, capsys, db_dir,
                                             tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "serve", "--requests", "8", "--rate", "1000",
                "--seed", "5", "--scale", "tiny", "--db-dir", db_dir,
                "--out-dir", str(out_dir))
            assert code == 0
            outs.append((out_dir / "serve.json").read_bytes())
        assert outs[0] == outs[1]

    def test_serve_round_robin_and_admission_flags(self, capsys, db_dir,
                                                   tmp_path):
        code, out, _ = run_cli(
            capsys, "serve", "--requests", "8", "--rate", "4000",
            "--placement", "round_robin", "--admission", "none",
            "--no-batching", "--no-host-offload",
            "--scale", "tiny", "--db-dir", db_dir,
            "--out-dir", str(tmp_path))
        assert code == 0
        assert "placement=round_robin" in out

    def test_serve_rejects_bad_arrival(self, capsys, db_dir, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(capsys, "serve", "--arrival", "uniform",
                    "--scale", "tiny", "--db-dir", db_dir,
                    "--out-dir", str(tmp_path))


class TestSummaCli:
    def test_summa_smoke_writes_valid_document(self, capsys, db_dir,
                                               tmp_path):
        import json

        out_dir = str(tmp_path / "summa")
        code, out, _ = run_cli(
            capsys, "summa", "--scale", "tiny", "--db-dir", db_dir,
            "--out-dir", out_dir)
        assert code == 0
        assert "SUMMA dgemm" in out and "Streaming dgemv" in out

        from repro.experiments.summa import validate_summa_json

        with open(f"{out_dir}/summa.json") as fh:
            doc = json.load(fh)
        validate_summa_json(doc)
        assert doc["context"]["n_gpus"] == 4
        assert doc["gemm"]["speedup_geomean"] >= 1.3

    def test_summa_deterministic_across_runs(self, capsys, db_dir,
                                             tmp_path):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(
                capsys, "summa", "--scale", "tiny", "--db-dir", db_dir,
                "--out-dir", str(out_dir))
            assert code == 0
            outs.append((out_dir / "summa.json").read_bytes())
        assert outs[0] == outs[1]

    def test_summa_all_to_all_and_knobs(self, capsys, db_dir, tmp_path):
        code, out, _ = run_cli(
            capsys, "summa", "--scale", "tiny", "--topology", "all_to_all",
            "--gpus", "3", "--gb-per-s", "16", "--depth", "3",
            "--db-dir", db_dir, "--out-dir", str(tmp_path))
        assert code == 0
        assert "all_to_all" in out


_MACHINE = {
    "machine": ("testbed_ii", ("testbed_i", "testbed_ii")),
    "scale": ("quick", ("tiny", "quick", "paper")),
    "db_dir": (None, None),
}
_PROBLEM = {
    "routine": (None, ("gemm", "gemv", "syrk", "axpy")),
    "dims": (None, None),
    "dtype": ("d", ("d", "s")),
    "model": ("auto", None),
    "loc_a": (Loc.HOST, None),
    "loc_b": (Loc.HOST, None),
    "loc_c": (Loc.HOST, None),
}
_ADMISSION = {
    "admission": ("shed", ("none", "shed", "downgrade")),
    "admission_percentile": (None, None),
}

#: Subcommand -> option dest -> (default, choices), as the CLI has
#: always parsed them.
OPTIONS = {
    "machines": {},
    "deploy": {**_MACHINE, "force": (False, None)},
    "run": {
        **_MACHINE, **_PROBLEM,
        "library": ("cocopelia",
                    ("blasx", "cocopelia", "cublasxt", "serial", "unified")),
        "tile": (None, None),
        "faults": (None, None),
    },
    "profile": {
        **_MACHINE, **_PROBLEM,
        "tile": (None, None),
        "gpus": (1, None),
        "faults": (None, None),
        "out_dir": (".", None),
    },
    "summa": {
        **_MACHINE,
        "gpus": (4, None),
        "topology": ("ring", ("ring", "all_to_all")),
        "gb_per_s": (8.0, None),
        "latency": (5e-06, None),
        "depth": (2, None),
        "seed": (0, None),
        "parallel": (None, None),
        "out_dir": (".", None),
    },
    "serve": {
        **_MACHINE, **_ADMISSION,
        "gpus": (4, None),
        "arrival": ("poisson", ("poisson", "bursty")),
        "rate": (50.0, None),
        "requests": (64, None),
        "workload_scale": ("tiny", ("tiny", "quick", "paper")),
        "seed": (0, None),
        "placement": ("model", ("model", "round_robin")),
        "deadline_fraction": (0.75, None),
        "slack_lo": (2.0, None),
        "slack_hi": (8.0, None),
        "burst_size": (8, None),
        "model": ("auto", None),
        "no_batching": (False, None),
        "no_host_offload": (False, None),
        "faults": (None, None),
        "out_dir": (".", None),
    },
    "chaos": {
        **_MACHINE,
        "scenario": ("kill-one-gpu",
                     ("all-gpus-degraded", "flapping-device",
                      "kill-one-gpu", "rolling-brownout")),
        "gpus": (4, None),
        "arrival": ("poisson", ("poisson", "bursty")),
        "rate": (8000.0, None),
        "requests": (48, None),
        "workload_scale": ("tiny", ("tiny", "quick")),
        "placement": ("model", ("model", "round_robin")),
        "hedging": (False, None),
        "seed": (0, None),
        "out_dir": (".", None),
    },
    "cluster": {
        **_MACHINE, **_ADMISSION,
        "nodes": (4, None),
        "gpus_per_node": (2, None),
        "router": ("predicted", ("predicted", "least_connections")),
        "arrival": ("bursty", ("poisson", "bursty")),
        "rate": (400.0, None),
        "requests": (20000, None),
        "workload_scale": ("tiny", ("tiny", "quick", "paper")),
        "seed": (0, None),
        "no_autoscale": (False, None),
        "min_nodes": (2, None),
        "max_nodes": (8, None),
        "kill_node": (None, None),
        "out_dir": (".", None),
    },
    "select": {**_MACHINE, **_PROBLEM},
    "experiment": {
        "name": (None, ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                        "fig7", "table2", "table3", "table4", "all")),
        "scale": ("quick", ("tiny", "quick", "paper")),
        "workers": (1, None),
    },
}


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionTable:
    def test_subcommands(self):
        assert sorted(_subparsers()) == sorted(OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_defaults_and_choices(self, command):
        sub = _subparsers()[command]
        seen = {
            a.dest: (a.default,
                     tuple(a.choices) if a.choices is not None else None)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        }
        assert seen == OPTIONS[command]

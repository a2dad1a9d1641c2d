"""The CLI's shared exit-code convention, and the ``lint`` subcommand.

Every subcommand exits 0 on success, 1 on diagnostics or validation
failures (lint errors, unreadable files, malformed request data), and 2
on usage errors (bad flag combinations, out-of-range options) — the same
code argparse uses for syntax errors.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.request

import numpy as np
import pytest

from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _http_json(url: str, payload: dict | None = None) -> dict:
    """GET ``url``, or POST ``payload`` as JSON; the decoded reply.
    Never through a proxy: the fleet listens on loopback."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    with opener.open(request, timeout=60) as response:
        return json.load(response)


@pytest.fixture()
def graph_file(tmp_path):
    from test_importer_cli import small_graph

    desc, _ = small_graph()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(desc))
    return str(path)


class TestUsageErrors:
    def test_unknown_exhibit(self, capsys):
        assert main(["report", "definitely-not-an-exhibit"]) == EXIT_USAGE
        assert "unknown exhibit" in capsys.readouterr().err

    def test_malformed_input_flag(self, graph_file, capsys):
        assert main(["run", graph_file, "--input", "x0.5"]) == EXIT_USAGE
        assert "name=v1,v2" in capsys.readouterr().err

    def test_non_numeric_input_values(self, graph_file, capsys):
        assert main(["run", graph_file,
                     "--input", "x=a,b"]) == EXIT_USAGE
        assert "must be numbers" in capsys.readouterr().err

    def test_shards_out_of_range(self, graph_file, capsys):
        assert main(["run", graph_file, "--shards", "0"]) == EXIT_USAGE
        assert main(["serve", graph_file, "--shards", "0"]) == EXIT_USAGE

    def test_shards_without_batch_file(self, graph_file, capsys):
        assert main(["run", graph_file, "--shards", "2"]) == EXIT_USAGE
        assert "--batch-file" in capsys.readouterr().err

    def test_warm_bad_batch(self, graph_file, tmp_path, capsys):
        assert main(["warm", graph_file, "--artifact-dir",
                     str(tmp_path / "a"), "--batch", "0"]) == EXIT_USAGE

    def test_argparse_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE


class TestValidationFailures:
    def test_missing_graph_file(self, capsys):
        for command in (["run"], ["lint"], ["disasm"]):
            assert main([*command, "/no/such/graph.json"]) == EXIT_FAILURE
            assert "graph.json" in capsys.readouterr().err

    def test_unknown_input_name(self, graph_file, capsys):
        assert main(["run", graph_file,
                     "--input", "bogus=1.0"]) == EXIT_FAILURE
        assert "unknown input name" in capsys.readouterr().err

    def test_malformed_batch_file(self, graph_file, tmp_path, capsys):
        batch = tmp_path / "requests.json"
        batch.write_text("{not json")
        assert main(["run", graph_file,
                     "--batch-file", str(batch)]) == EXIT_FAILURE


class TestLintCommand:
    def test_clean_graph_exits_zero(self, graph_file, capsys):
        assert main(["lint", graph_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 errors" in out
        assert "clean bill:" in out

    def test_strict_mode_on_clean_graph(self, graph_file):
        assert main(["lint", graph_file, "--strict"]) == EXIT_OK

    def test_errors_exit_one(self, graph_file, capsys, monkeypatch):
        import repro.analysis as analysis
        from repro.analysis import AnalysisReport, Severity
        from repro.analysis.diagnostics import Diagnostic, Location

        def planted(program, config):
            return AnalysisReport(
                diagnostics=[Diagnostic(
                    "reg-use-before-def", Severity.ERROR,
                    Location(0, 0, 3), "reads r9 before any write")],
                program_name=program.name, program_sha256="feed")

        monkeypatch.setattr(analysis, "analyze_program", planted)
        assert main(["lint", graph_file]) == EXIT_FAILURE
        out = capsys.readouterr().out
        assert "error[reg-use-before-def] t0:c0:pc=3" in out
        assert "clean bill" not in out

    def test_strict_fails_on_warnings(self, graph_file, capsys,
                                      monkeypatch):
        import repro.analysis as analysis
        from repro.analysis import AnalysisReport, Severity
        from repro.analysis.diagnostics import Diagnostic, Location

        def planted(program, config):
            return AnalysisReport(
                diagnostics=[Diagnostic(
                    "reg-dead-store", Severity.WARNING,
                    Location(0, 0, 3), "value is never read")],
                program_name=program.name, program_sha256="feed")

        monkeypatch.setattr(analysis, "analyze_program", planted)
        assert main(["lint", graph_file]) == EXIT_OK
        assert main(["lint", graph_file, "--strict"]) == EXIT_FAILURE


class TestSuccessPaths:
    def test_run_and_disasm_exit_zero(self, graph_file, capsys):
        assert main(["run", graph_file,
                     "--input", "x=" + ",".join(["0.1"] * 32)]) == EXIT_OK
        assert main(["disasm", graph_file]) == EXIT_OK
        assert main(["metrics"]) == EXIT_OK
        capsys.readouterr()


@pytest.fixture()
def deployment_file(tmp_path):
    path = tmp_path / "deploy.json"
    path.write_text(json.dumps([
        {"name": "mlp", "kind": "mlp", "params": {"dims": [16, 8, 4]}},
    ]))
    return str(path)


class TestFleetCommand:
    def test_usage_errors(self, deployment_file, capsys):
        assert main(["fleet", deployment_file,
                     "--workers", "0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_deployment_file(self, tmp_path, capsys):
        assert main(["fleet", str(tmp_path / "nope.json")]) == EXIT_FAILURE
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_deployment(self, tmp_path, capsys):
        not_a_list = tmp_path / "bad.json"
        not_a_list.write_text('{"name": "mlp"}')
        assert main(["fleet", str(not_a_list)]) == EXIT_FAILURE
        assert "non-empty JSON list" in capsys.readouterr().err

        bad_kind = tmp_path / "kind.json"
        bad_kind.write_text(json.dumps(
            [{"name": "m", "kind": "transformer", "params": {}}]))
        assert main(["fleet", str(bad_kind)]) == EXIT_FAILURE
        assert "transformer" in capsys.readouterr().err

    def test_fleet_serves_until_sigterm(self, deployment_file):
        """The server: one real worker answers a POST bitwise equal to
        the local engine; SIGTERM drains, exits 0 and leaves no worker
        process behind."""
        from repro.fleet import FleetModelSpec, build_engine

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", deployment_file,
             "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            banner = []
            reader = threading.Thread(
                target=lambda: banner.append(process.stdout.readline()),
                daemon=True)
            reader.start()
            reader.join(timeout=120)
            assert banner and banner[0].startswith(
                "fleet up: 1 worker(s) behind http://"), banner
            url = banner[0].split()[-1]

            x = np.random.default_rng(0).uniform(-1.0, 1.0, 16)
            reply = _http_json(url + "/v1/predict",
                               {"model": "mlp", "inputs": {"x": x.tolist()}})
            with open(deployment_file) as handle:
                spec = FleetModelSpec.from_dict(json.load(handle)[0])
            reference = build_engine(spec).predict({"x": x})
            assert reply["words"] == {name: reference[name].tolist()
                                      for name in reference}
            workers = _http_json(url + "/metrics")["workers"].values()
            pids = [entry["metrics"]["pid"] for entry in workers]
            assert len(pids) == 1

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == EXIT_OK
            for pid in pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

"""Tests for the JSON graph importer and the command-line interface."""

import json

import numpy as np
import pytest

from repro import Simulator, compile_model, default_config
from repro.cli import main
from repro.compiler.importer import (
    GraphImportError,
    import_graph,
    import_graph_json,
)
from repro.fixedpoint import FixedPointFormat

FMT = FixedPointFormat()
RNG = np.random.default_rng(21)


def small_graph(width=32, hidden=24, classes=8):
    w0 = RNG.normal(0, 0.2, (width, hidden))
    b0 = RNG.normal(0, 0.05, hidden)
    w1 = RNG.normal(0, 0.2, (hidden, classes))
    return {
        "name": "imported_mlp",
        "inputs": [{"name": "x", "length": width}],
        "outputs": [{"name": "out", "source": "logits"}],
        "initializers": {"w0": w0.tolist(), "b0": b0.tolist(),
                         "w1": w1.tolist()},
        "nodes": [
            {"op": "matvec", "name": "h0", "input": "x", "weights": "w0"},
            {"op": "add", "name": "h1", "inputs": ["h0", "b0"]},
            {"op": "relu", "name": "h2", "input": "h1"},
            {"op": "matvec", "name": "logits", "input": "h2",
             "weights": "w1"},
        ],
    }, (w0, b0, w1)


class TestImporter:
    def test_imported_model_matches_numpy(self):
        desc, (w0, b0, w1) = small_graph()
        model = import_graph(desc)
        config = default_config()
        compiled = compile_model(model, config)
        x = RNG.normal(0, 0.4, size=32)
        sim = Simulator(config, compiled.program, seed=0)
        out = FMT.dequantize(sim.run({"x": FMT.quantize(x)})["out"])
        expected = np.maximum(x @ w0 + b0, 0) @ w1
        np.testing.assert_allclose(out, expected, atol=0.05)

    def test_json_round_trip(self):
        desc, _ = small_graph()
        model = import_graph_json(json.dumps(desc))
        assert model.name == "imported_mlp"
        assert "x" in model.input_names
        assert "out" in model.output_names

    def test_all_ops_importable(self):
        desc = {
            "name": "ops",
            "inputs": [{"name": "a", "length": 16},
                       {"name": "b", "length": 16}],
            "outputs": [{"name": "out", "source": "final"}],
            "initializers": {"c": [0.1] * 16},
            "nodes": [
                {"op": "add", "name": "s", "inputs": ["a", "b"]},
                {"op": "mul", "name": "m", "inputs": ["s", "c"]},
                {"op": "tanh", "name": "t", "input": "m"},
                {"op": "concat", "name": "cc", "inputs": ["t", "a"]},
                {"op": "slice", "name": "sl", "input": "cc",
                 "start": 8, "stop": 24},
                {"op": "maximum", "name": "mx", "inputs": ["sl", "b"]},
                {"op": "mul_imm", "name": "final", "input": "mx",
                 "value": 0.5},
            ],
        }
        model = import_graph(desc)
        compiled = compile_model(model, default_config())
        assert compiled.program.total_instructions() > 0

    @pytest.mark.parametrize("mutation,match", [
        (lambda d: d["nodes"].append({"op": "conv", "name": "z",
                                      "input": "x"}), "unknown op"),
        (lambda d: d["nodes"].append({"op": "relu", "name": "h0",
                                      "input": "x"}), "duplicate"),
        (lambda d: d["nodes"].append({"op": "relu", "name": "z",
                                      "input": "nope"}), "unknown tensor"),
        (lambda d: d.pop("outputs"), "no outputs"),
    ])
    def test_malformed_graphs(self, mutation, match):
        desc, _ = small_graph()
        mutation(desc)
        with pytest.raises(GraphImportError, match=match):
            import_graph(desc)


class TestCli:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        desc, _ = small_graph()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(desc))
        return str(path)

    def test_metrics(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "52.3" in out
        assert "TOPS/s" in out

    def test_run(self, graph_file, capsys):
        code = main(["run", graph_file,
                     "--input", "x=" + ",".join(["0.1"] * 32)])
        assert code == 0
        out = capsys.readouterr().out
        assert "out =" in out
        assert "cycles:" in out
        assert "energy:" in out
        assert "cycles/inference" in out

    def test_run_random_inputs(self, graph_file, capsys):
        assert main(["run", graph_file]) == 0
        assert "not provided" in capsys.readouterr().out

    def test_run_unknown_input_name_fails(self, graph_file, capsys):
        """A typo'd --input name must exit non-zero, not silently
        randomize the real input."""
        code = main(["run", graph_file,
                     "--input", "xx=" + ",".join(["0.1"] * 32)])
        assert code != 0
        err = capsys.readouterr().err
        assert "unknown input name" in err
        assert "xx" in err

    def test_run_wrong_length_fails(self, graph_file, capsys):
        code = main(["run", graph_file, "--input", "x=0.1,0.2"])
        assert code != 0
        assert "expects 32 values" in capsys.readouterr().err

    def test_run_batch_file(self, graph_file, tmp_path, capsys):
        requests = [{"x": [0.1] * 32}, {"x": [-0.2] * 32},
                    {"x": [0.05] * 32}]
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps(requests))
        assert main(["run", graph_file,
                     "--batch-file", str(batch_path)]) == 0
        out = capsys.readouterr().out
        for i in range(3):
            assert f"[{i}] out =" in out
        assert "batch 3:" in out
        assert "cycles/inference" in out

    def test_run_batch_file_malformed(self, graph_file, tmp_path, capsys):
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps({"x": [0.1] * 32}))
        assert main(["run", graph_file,
                     "--batch-file", str(batch_path)]) != 0
        assert "JSON list" in capsys.readouterr().err

    def test_run_batch_file_ragged_rows(self, graph_file, tmp_path, capsys):
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([{"x": [0.1] * 32},
                                          {"x": [0.1] * 31}]))
        assert main(["run", graph_file,
                     "--batch-file", str(batch_path)]) != 0
        assert "malformed request values" in capsys.readouterr().err

    def test_run_batch_file_conflicts_with_input(self, graph_file,
                                                 tmp_path, capsys):
        batch_path = tmp_path / "requests.json"
        batch_path.write_text(json.dumps([{"x": [0.1] * 32}]))
        assert main(["run", graph_file, "--input", "x=0.5",
                     "--batch-file", str(batch_path)]) != 0
        assert "mutually exclusive" in capsys.readouterr().err

    def test_warm_then_run_artifact_dir(self, graph_file, tmp_path, capsys):
        """The documented warm flow: warm once, every later run warm-starts."""
        store = str(tmp_path / "store")
        vector = "x=" + ",".join(["0.1"] * 32)
        assert main(["run", graph_file, "--input", vector]) == 0
        reference = capsys.readouterr().out

        assert main(["warm", graph_file, "--artifact-dir", store,
                     "--batch", "1", "--batch", "3"]) == 0
        out = capsys.readouterr().out
        assert "artifact:" in out
        assert "execution tapes: 1" in out
        assert "stats for batches 1, 3" in out

        # A later invocation (new importer Model object, so the process
        # compile cache cannot hit) loads the artifact — and prints the
        # exact same floats as the cold run.
        assert main(["run", graph_file, "--input", vector,
                     "--artifact-dir", store]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out.splitlines()[0] == reference.splitlines()[0]

    def test_warm_rejects_bad_batch(self, graph_file, capsys):
        assert main(["warm", graph_file, "--artifact-dir", "/tmp/x",
                     "--batch", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_disasm(self, graph_file, capsys):
        assert main(["disasm", graph_file]) == 0
        out = capsys.readouterr().out
        assert "mvm" in out
        assert "hlt" in out

    def test_report_single_exhibit(self, capsys):
        assert main(["report", "table7"]) == 0
        assert "state machine" in capsys.readouterr().out

    def test_report_unknown_exhibit(self, capsys):
        assert main(["report", "figure99"]) == 2

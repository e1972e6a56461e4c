import json

import numpy as np
import pytest

from smlsom import Assignment, load_faithful, read_dataset
from smlsom.cli import main
from smlsom.io import read_label_column, write_assignment, write_dataset


@pytest.fixture
def blob_csv(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 2)) * 0.5 + [-5.0, 0.0]
    b = rng.normal(size=(200, 2)) * 0.5 + [5.0, 0.0]
    values = np.vstack([a, b])
    labels = np.repeat([1, 2], 200)
    path = tmp_path / "blobs.csv"
    write_dataset(path, values, labels)
    return path, labels


class TestGen:
    def test_writes_dataset_and_spec(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        rc = main(
            [
                "gen", "--dim", "2", "--components", "3", "--n", "500",
                "--omega-bar", "0.01", "--labels", "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        data = read_dataset(out)
        assert data.values.shape == (500, 2)
        assert set(np.unique(data.labels)) <= {1, 2, 3}
        spec = json.loads((tmp_path / "d.csv.spec.json").read_text())
        assert len(spec["means"]) == 3
        assert abs(spec["achieved_overlap"] - 0.01) <= 0.002

    def test_no_labels_flag(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(
            [
                "gen", "--dim", "2", "--components", "2", "--n", "100",
                "--omega-bar", "0.05", "--seed", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        assert read_dataset(out).labels is None

    def test_deterministic(self, tmp_path):
        args = [
            "gen", "--dim", "2", "--components", "2", "--n", "200",
            "--omega-bar", "0.01", "--labels", "--seed", "7",
        ]
        main(args + ["--out", str(tmp_path / "a.csv")])
        main(args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestFit:
    def test_recovers_two_blobs(self, tmp_path, blob_csv, capsys):
        path, labels = blob_csv
        model = tmp_path / "model.json"
        rc = main(["fit", "--input", str(path), "--out", str(model), "--seed", "0"])
        assert rc == 0
        assert "M=2" in capsys.readouterr().out
        doc = json.loads(model.read_text())
        assert len(doc["nodes"]) == 2
        assign = read_label_column(tmp_path / "model.json.assign.csv")
        assert assign.size == 400

    def test_same_seed_reproduces_model_bytes(self, tmp_path, blob_csv):
        path, _ = blob_csv
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        base = ["fit", "--input", str(path), "--seed", "3"]
        assert main(base + ["--out", str(m1)]) == 0
        assert main(base + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(
            ["fit", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2

    def test_missing_value_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flags",
        [["--rows", "0"], ["--beta", "-1"], ["--alpha", "2", "0.1"], ["--tau-max", "0"], ["--restarts", "0"]],
        ids=lambda flags: flags[0].lstrip("-"),
    )
    def test_usage_error_exit_code(self, tmp_path, blob_csv, capsys, flags):
        path, _ = blob_csv
        model = tmp_path / "m.json"
        assert main(["fit", "--input", str(path), "--out", str(model), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not model.exists()

    def test_unknown_command_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1


class TestScore:
    def test_reports_mdl(self, tmp_path, blob_csv, capsys):
        path, _ = blob_csv
        model = tmp_path / "model.json"
        main(["fit", "--input", str(path), "--out", str(model), "--seed", "0"])
        capsys.readouterr()
        rc = main(["score", "--model", str(model), "--input", str(path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == pytest.approx(
            doc["neg_loglik"] + doc["complexity"] + doc["indexing"]
        )

    def test_dimension_mismatch_is_data_error(self, tmp_path, blob_csv, capsys):
        path, _ = blob_csv
        model = tmp_path / "model.json"
        main(["fit", "--input", str(path), "--out", str(model), "--seed", "0"])
        other = tmp_path / "threed.csv"
        write_dataset(other, np.random.default_rng(1).normal(size=(20, 3)))
        rc = main(["score", "--model", str(model), "--input", str(other)])
        assert rc == 2

    @pytest.mark.parametrize(
        "corrupt",
        ["not-json", "not-an-object", "unknown-family", "no-nodes", "missing-nodes", "edge-to-a-missing-node", "duplicate-id"],
    )
    def test_corrupt_model_is_data_error(self, tmp_path, blob_csv, capsys, corrupt):
        path, _ = blob_csv
        model = tmp_path / "model.json"
        main(["fit", "--input", str(path), "--out", str(model), "--seed", "0"])
        capsys.readouterr()
        doc = json.loads(model.read_text())
        if corrupt == "not-an-object":
            doc = [doc]
        elif corrupt == "unknown-family":
            doc["family"] = "poisson"
        elif corrupt == "no-nodes":
            doc["nodes"], doc["edges"] = [], []
        elif corrupt == "missing-nodes":
            del doc["nodes"]
        elif corrupt == "edge-to-a-missing-node":
            doc["edges"].append([doc["nodes"][0]["id"], 999])
        elif corrupt == "duplicate-id":
            doc["nodes"][1]["id"] = doc["nodes"][0]["id"]
        model.write_text("{not json" if corrupt == "not-json" else json.dumps(doc))
        assert main(["score", "--model", str(model), "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "family, nodes",
        [
            ("gaussian", [{"id": 0, "mean": [0.0, 0.0], "cov": np.eye(2).tolist()},
                          {"id": 1, "mean": [1.0, 1.0, 1.0], "cov": np.eye(3).tolist()}]),
            ("multinomial", [{"id": 0, "theta": [0.5, 0.5]}, {"id": 1, "theta": [0.2, 0.3, 0.5]}]),
        ],
        ids=["gaussian", "multinomial"],
    )
    def test_nodes_of_different_dimensions_are_a_data_error(self, tmp_path, capsys, family, nodes):
        model, data = tmp_path / "model.json", tmp_path / "data.csv"
        model.write_text(json.dumps({"format_version": 1, "family": family, "nodes": nodes, "edges": [[0, 1]]}))
        write_dataset(data, np.random.default_rng(2).integers(0, 5, size=(20, 2)).astype(float))
        assert main(["score", "--model", str(model), "--input", str(data)]) == 2
        assert "differ in dimension" in capsys.readouterr().err


class TestEval:
    def test_perfect_assignment(self, tmp_path, blob_csv, capsys):
        path, labels = blob_csv
        assign = tmp_path / "assign.csv"
        write_assignment(assign, Assignment(labels))
        rc = main(
            ["eval", "--labels", str(path), "--assignment", str(assign), "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ari"] == pytest.approx(1.0)
        assert doc["nmi"] == pytest.approx(1.0)

    def test_end_to_end_fit_then_eval(self, tmp_path, blob_csv, capsys):
        path, _ = blob_csv
        model = tmp_path / "model.json"
        main(["fit", "--input", str(path), "--out", str(model), "--seed", "0"])
        capsys.readouterr()
        rc = main(
            [
                "eval", "--labels", str(path),
                "--assignment", str(tmp_path / "model.json.assign.csv"), "--json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ari"] > 0.95

    def test_length_mismatch_is_data_error(self, tmp_path, blob_csv):
        path, labels = blob_csv
        short = tmp_path / "short.csv"
        write_assignment(short, Assignment(labels[:10]))
        assert main(["eval", "--labels", str(path), "--assignment", str(short)]) == 2


class TestRoundTrips:
    def test_dataset_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(50, 4))
        path = tmp_path / "d.csv"
        write_dataset(path, values)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.values, values)

    def test_faithful_fixture_loads(self):
        data = load_faithful()
        assert data.values.shape == (272, 2)
        assert data.values[:, 0].mean() == pytest.approx(3.4878, abs=1e-3)

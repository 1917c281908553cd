import json
import logging
from pathlib import Path

import numpy as np
import pytest

from bnncert import cli
from bnncert.cli import main
from bnncert.io import load_posterior, save_posterior, save_spec
from bnncert.net import LayerSpec, Network
from bnncert.posterior import GaussianPosterior, SamplePosterior


@pytest.fixture
def safe_posterior_file(tmp_path):
    """Net whose logits are the constant (10, 0): class 0 wins everywhere."""
    net = Network.dense([2, 2])
    mean = np.array([0.0, 0.0, 0.0, 0.0, 10.0, 0.0])
    post = GaussianPosterior(mean=mean, variance=np.full(6, 1e-10))
    path = tmp_path / "post.json"
    save_posterior(path, net, post)
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(path, {"center": [0.0, 0.0], "epsilon": 0.1, "true_class": 0})
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path,
                                                 safe_posterior_file,
                                                 spec_file):
    cli.build_parser.cache_clear()
    argv = ["certify", "--posterior", safe_posterior_file, "--spec", spec_file]
    out = tmp_path / "cert.json"
    code, first = run(capsys, *argv, "--out", str(out))
    assert code == 0 and first.out == ""
    # The second call gives no --out, so it writes to stdout.
    code, second = run(capsys, *argv)
    assert code == 0
    assert json.loads(second.out)["value"] == json.loads(out.read_text())["value"]
    assert cli.build_parser.cache_info().misses == 1


class TestCertifyCommand:
    def test_psafe_lower_certifies_safe_net(self, capsys, safe_posterior_file,
                                            spec_file):
        code, out = run(capsys, "certify", "--posterior", safe_posterior_file,
                        "--spec", spec_file, "--property", "psafe",
                        "--bound", "lower", "--method", "lbp",
                        "--samples", "5", "--gamma", "2.5")
        assert code == 0
        doc = json.loads(out.out)
        # gamma=2.5 std margins cover ~0.6 of the mass here; a wide margin
        # on this near-deterministic posterior certifies almost everything
        assert doc["value"] > 0.3
        code2, out2 = run(capsys, "certify", "--posterior",
                          safe_posterior_file, "--spec", spec_file,
                          "--samples", "5", "--gamma", "10.0")
        assert code2 == 0 and json.loads(out2.out)["value"] > 0.99
        assert doc["config"]["method"] == "lbp"
        assert doc["config"]["gamma"] == 2.5

    def test_zero_samples_vacuous(self, capsys, safe_posterior_file, spec_file):
        code, out = run(capsys, "certify", "--posterior", safe_posterior_file,
                        "--spec", spec_file, "--samples", "0")
        assert code == 0
        assert json.loads(out.out)["value"] == 0.0

    def test_missing_posterior_exit_2(self, capsys, spec_file, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, out = run(capsys, "certify", "--posterior", missing,
                        "--spec", spec_file)
        assert code == 2
        assert "nope.json" in out.err

    def test_non_finite_posterior_exit_2(self, capsys, safe_posterior_file,
                                        spec_file, tmp_path):
        doc = json.loads(Path(safe_posterior_file).read_text())
        doc["variance"][1] = float("inf")
        bad = tmp_path / "inf_post.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "certify", "--posterior", str(bad),
                        "--spec", spec_file)
        assert code == 2
        assert "finite" in out.err

    def test_shape_mismatch_exit_3(self, capsys, safe_posterior_file, tmp_path):
        bad = tmp_path / "bad_spec.json"
        save_spec(bad, {"center": [0.0, 0.0, 0.0], "epsilon": 0.1,
                        "true_class": 0})
        code, _ = run(capsys, "certify", "--posterior", safe_posterior_file,
                      "--spec", str(bad))
        assert code == 3

    def test_unknown_flag_exit_64(self, capsys, safe_posterior_file, spec_file):
        code, _ = run(capsys, "certify", "--posterior", safe_posterior_file,
                      "--spec", spec_file, "--property", "bogus")
        assert code == 64

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_bad_gamma_exit_64_on_atoms(self, capsys, spec_file, tmp_path,
                                        gamma):
        """A sample posterior never uses gamma, so only the config check
        stops a NaN from reaching the certificate JSON."""
        path = tmp_path / "atoms.json"
        save_posterior(path, Network.dense([2, 2]),
                       SamplePosterior(samples=np.ones((2, 6))))
        code, out = run(capsys, "certify", "--posterior", str(path),
                        "--spec", spec_file, "--gamma", gamma)
        assert code == 64 and out.out == ""
        assert "gamma" in out.err

    def test_deterministic_output(self, capsys, safe_posterior_file, spec_file):
        args = ("certify", "--posterior", safe_posterior_file, "--spec",
                spec_file, "--seed", "3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        d1, d2 = json.loads(out1.out), json.loads(out2.out)
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_dsafe_upper(self, capsys, safe_posterior_file, spec_file):
        code, out = run(capsys, "certify", "--posterior", safe_posterior_file,
                        "--spec", spec_file, "--property", "dsafe",
                        "--bound", "upper")
        assert code == 0
        assert 0.0 <= json.loads(out.out)["value"] <= 1.0

    @pytest.mark.parametrize("index, output", [(0, 10.0), (1, 0.0)])
    def test_regression_dsafe_bounds_the_spec_index(self, capsys, tmp_path,
                                                    safe_posterior_file,
                                                    index, output):
        spec = tmp_path / "reg.json"
        save_spec(spec, {"center": [0.0, 0.0], "epsilon": 0.1,
                         "constraints": {"C": [[1.0, -1.0]], "d": [0.0]},
                         "task": "regression", "index": index,
                         "sigma_floor": -20.0, "sigma_ceil": 20.0})
        values = []
        for bound in ("lower", "upper"):
            code, out = run(capsys, "certify", "--posterior",
                            safe_posterior_file, "--spec", str(spec),
                            "--property", "dsafe", "--bound", bound)
            assert code == 0
            values.append(json.loads(out.out)["value"])
        # The boxes cover most of the mass; the rest is charged at +-20.
        assert values[0] <= output <= values[1]
        assert values[1] - values[0] < 10.0


class TestSweepCommand:
    def test_two_cell_safe_sweep(self, capsys, safe_posterior_file, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"grid": [[-0.1, 0.1, 0.1], [-0.05, 0.05, 0.1]],
             "true_class": 0}))
        code, out = run(capsys, "sweep", "--posterior", safe_posterior_file,
                        "--spec", "unused", "--sweep-spec", str(sweep),
                        "--samples", "4", "--gamma", "10.0")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "cell_id,psafe_lower,psafe_upper,verdict"
        rows = [l for l in lines if not l.startswith("#") and l != lines[0]]
        assert len(rows) == 2
        assert all(r.endswith(",safe") for r in rows)
        footer = [l for l in lines if l.startswith("#")]
        assert "tau_safe=0.98" in footer[0] and "tau_unsafe=0.05" in footer[0]

    def test_verdict_partition_exhaustive(self, capsys, safe_posterior_file,
                                          tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"grid": [[-0.2, 0.2, 0.1], [-0.1, 0.1, 0.2]], "true_class": 0}))
        code, out = run(capsys, "sweep", "--posterior", safe_posterior_file,
                        "--spec", "unused", "--sweep-spec", str(sweep),
                        "--samples", "3")
        assert code == 0
        lines = out.out.strip().splitlines()
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        verdicts = [r[3] for r in rows]
        assert len(rows) == 4
        assert all(v in ("safe", "unsafe", "uncertifiable") for v in verdicts)
        footer = lines[-1]
        for v in ("safe", "unsafe", "uncertifiable"):
            assert f"{v}={verdicts.count(v)}" in footer


    def test_grid_rounding_adds_no_empty_cell(self, capsys, safe_posterior_file,
                                              tmp_path):
        # np.arange(1, 1.3, 0.1) has a fourth edge at 1.3000000000000003
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(
            {"grid": [[1, 1.3, 0.1], [-0.05, 0.05, 0.1]], "true_class": 0}))
        code, out = run(capsys, "sweep", "--posterior", safe_posterior_file,
                        "--spec", "unused", "--sweep-spec", str(sweep),
                        "--samples", "1")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert len([l for l in lines[1:] if not l.startswith("#")]) == 3


class TestRadiusCommand:
    def test_emits_header_and_rows(self, capsys, safe_posterior_file, spec_file):
        code, out = run(capsys, "radius", "--posterior", safe_posterior_file,
                        "--spec", spec_file, "--samples", "3",
                        "--gamma", "5.0", "--step", "0.05",
                        "--eps-start-safe", "0.05",
                        "--eps-start-unsafe", "0.2", "--eps-cap", "0.2")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "quantity,radius,vacuous,epsilons,values"
        assert lines[1].startswith("maxrr,") and lines[2].startswith("minur,")

    def test_balls_center_on_the_spec_center_inside_its_clip(self, capsys,
                                                              tmp_path):
        """Class 0 wins where x0 > 0.79 (first net) or x0 < 1.05 (second).
        Balls around the spec's center 0.95, clipped to [-1, 1], stay safe
        up to eps 0.15 and up to the cap; balls around the clipped spec
        box's centre 0.925, unclipped, would stop both at 0.1."""
        spec = tmp_path / "spec.json"
        save_spec(spec, {"center": [0.95, 0.0], "epsilon": 0.1,
                         "clip": [-1, 1], "true_class": 0})
        net = Network.dense([2, 2])
        for mean, radius in (([10.0, 0.0, 0.0, 0.0, -7.9, 0.0], "0.150000"),
                             ([-10.0, 0.0, 0.0, 0.0, 10.5, 0.0], "0.200000")):
            post = tmp_path / "post.json"
            save_posterior(post, net, GaussianPosterior(
                mean=np.array(mean), variance=np.full(6, 1e-10)))
            code, out = run(capsys, "radius", "--posterior", str(post),
                            "--spec", str(spec), "--samples", "1",
                            "--step", "0.05", "--eps-start-safe", "0.05",
                            "--eps-start-unsafe", "0.2", "--eps-cap", "0.2")
            assert code == 0
            name, found = out.out.splitlines()[1].split(",")[:2]
            assert (name, found) == ("maxrr", radius)


class TestTrainCommands:
    def test_train_certify_roundtrip(self, capsys, tmp_path):
        out_path = str(tmp_path / "trained.json")
        code, _ = run(capsys, "train", "--dataset", "blobs", "--epochs", "10",
                      "--hidden", "4", "--seed", "1", "--out", out_path)
        assert code == 0
        net, post = load_posterior(out_path)
        reread = str(tmp_path / "reread.json")
        save_posterior(reread, net, post)
        assert Path(out_path).read_text() == Path(reread).read_text()

        spec = tmp_path / "s.json"
        save_spec(spec, {"center": [-1.5, -1.5], "epsilon": 0.05,
                         "true_class": 0})
        code, out = run(capsys, "certify", "--posterior", out_path,
                        "--spec", str(spec))
        assert code == 0
        assert "value" in json.loads(out.out)

    def test_hmc_writes_sample_posterior(self, capsys, tmp_path):
        out_path = str(tmp_path / "hmc.json")
        code, _ = run(capsys, "hmc", "--dataset", "blobs", "--hidden", "4",
                      "--num-samples", "10", "--burn-in", "5",
                      "--n-data", "30", "--step-size", "0.02",
                      "--leapfrog-steps", "5", "--out", out_path)
        assert code == 0
        doc = json.loads(Path(out_path).read_text())
        assert doc["kind"] == "samples"
        assert len(doc["samples"]) == 10
        assert "acceptance_rate" in doc["metadata"]


class TestValidateCommand:
    def test_bundled_suite_passes(self, capsys):
        code, out = run(capsys, "validate", "--cases", "3", "--seed", "0")
        assert code == 0
        doc = json.loads(out.out)
        assert doc["failures"] == []
        assert all(c["ok"] for c in doc["cases"])


@pytest.mark.parametrize("command,doc", [
    ("certify", {"center": [float("nan"), 0.0], "epsilon": 0.1,
                 "true_class": 0}),
    ("certify", {"center": [0.0, 0.0], "epsilon": float("nan"),
                 "true_class": 0}),
    ("certify", {"center": [0.0, 0.0], "epsilon": 0.1,
                 "constraints": {"C": [[1.0, float("nan")]], "d": [0.0]}}),
    ("sweep", {"grid": [[-1, 1, float("nan")], [-1, 1, 1.0]],
               "true_class": 0}),
    ("sweep", {"grid": [[-1, float("inf"), 1.0], [-1, 1, 1.0]],
               "true_class": 0}),
], ids=["nan-center", "nan-epsilon", "nan-constraint", "nan-width",
        "inf-bound"])
def test_non_finite_spec_exit_2(capsys, safe_posterior_file, tmp_path,
                                command, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    spec = ["--spec", str(bad)] if command == "certify" else \
        ["--spec", "unused", "--sweep-spec", str(bad)]
    code, out = run(capsys, command, "--posterior", safe_posterior_file,
                    *spec)
    assert code == 2
    assert "finite" in out.err


@pytest.mark.parametrize("command,kind,doc", [
    ("certify", "spec", {"center": [0.0, 0.0], "epsilon": 0.1,
                         "true_class": [1]}),
    ("sweep", "sweep", {"grid": [[-1, 1, 1.0], [-1, 1, 1.0]],
                        "true_class": [1]}),
    ("sweep", "sweep", {"grid": [[-1, 1], [-1, 1, 1.0]], "true_class": 0}),
    ("sweep", "sweep", {"grid": "abc", "true_class": 0}),
    ("certify", "spec", [0.0, 0.1, 0]),
    ("certify", "posterior", [[0.0, 1.0]]),
    ("certify", "spec", {"center": [0.0, 0.0], "epsilon": 0.1,
                         "true_class": 7}),
    ("sweep", "sweep", {"grid": [[-1, 1, 1.0], [-1, 1, 1.0]],
                        "true_class": 7}),
    ("certify", "spec", {"center": [0.0, 0.0], "epsilon": 0.1,
                         "clip": [-1.0], "true_class": 0}),
    ("certify", "posterior", b'{"kind": "\xff"}'),
    ("certify", "spec", b'{"center": "\xff"}'),
    ("sweep", "sweep", b'{"grid": "\xff"}'),
], ids=["spec-class-list", "sweep-class-list", "grid-row-short",
        "grid-string", "spec-array", "posterior-array", "spec-class-range",
        "sweep-class-range", "spec-clip-short", "posterior-not-utf8", "spec-not-utf8",
        "sweep-not-utf8"])
def test_malformed_types_exit_2(capsys, safe_posterior_file, spec_file,
                                tmp_path, command, kind, doc):
    bad = tmp_path / "bad.json"
    if isinstance(doc, bytes):
        bad.write_bytes(doc)
    else:
        bad.write_text(json.dumps(doc))
    files = {"posterior": safe_posterior_file, "spec": spec_file,
             "sweep": "unused", kind: str(bad)}
    argv = [command, "--posterior", files["posterior"], "--spec", files["spec"]]
    if command == "sweep":
        argv += ["--sweep-spec", files["sweep"]]
    code, out = run(capsys, *argv)
    assert code == 2
    assert out.err.startswith("error: ")


def test_log_env_var(capsys, monkeypatch, safe_posterior_file, spec_file):
    monkeypatch.setenv("BNNCERT_LOG", "DEBUG")
    code, _ = run(capsys, "certify", "--posterior", safe_posterior_file,
                  "--spec", spec_file)
    assert code == 0


def test_debug_progress_per_sweep_cell_and_radius_step(
        capsys, caplog, safe_posterior_file, spec_file, tmp_path):
    caplog.set_level(logging.DEBUG, logger="bnncert")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(
        {"grid": [[-0.1, 0.1, 0.1], [-0.05, 0.05, 0.1]], "true_class": 0}))
    code, _ = run(capsys, "sweep", "--posterior", safe_posterior_file,
                  "--spec", "unused", "--sweep-spec", str(sweep),
                  "--samples", "2")
    assert code == 0
    assert [r.getMessage()[:12] for r in caplog.records
            if r.name == "bnncert"] == ["sweep cell 0", "sweep cell 1"]
    caplog.clear()
    code, out = run(capsys, "radius", "--posterior", safe_posterior_file,
                    "--spec", spec_file, "--samples", "2", "--gamma", "5.0",
                    "--step", "0.05", "--eps-start-safe", "0.05",
                    "--eps-start-unsafe", "0.1", "--eps-cap", "0.2")
    assert code == 0
    rows = [l.split(",") for l in out.out.strip().splitlines()[1:]]
    steps = {name: len(eps.split(";")) for name, _, _, eps, _ in rows}
    logged = [r.getMessage().split(" ")[0] for r in caplog.records
              if r.name == "bnncert.search"]
    assert logged.count("MaxRR") == steps["maxrr"]
    assert logged.count("MinUR") == steps["minur"]

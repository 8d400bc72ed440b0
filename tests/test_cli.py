"""Command-line behavior: flows, exit codes, config echo, determinism."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fvlayer
from fvlayer.cli import main
from fvlayer.data_io import make_synthetic_2d, read_features


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corpus(tmp_path, capsys):
    feats = tmp_path / "feats"
    labels = tmp_path / "labels.txt"
    code, _, _ = run(capsys, "synth", "--images", "8",
                     "--out", str(feats), "--labels", str(labels))
    assert code == 0
    return feats, labels


def test_every_run_echoes_resolved_config(capsys, tmp_path):
    code, out, _ = run(capsys, "synth", "--images", "2",
                       "--out", str(tmp_path / "f"),
                       "--labels", str(tmp_path / "l.txt"))
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("config: ")
    echoed = json.loads(first[len("config: "):])
    assert echoed["images"] == 2
    assert echoed["subcommand"] == "synth"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--no-such-flag"])
    assert exc.value.code == 2


_TRAIN = ["train", "--train", "f", "--labels", "l", "--checkpoint", "c"]


# each command line ends in the size flag under test, which gets a 0
@pytest.mark.parametrize("subcommand", [
    _TRAIN + ["--threads"], ["bench", "--threads"],
    _TRAIN + ["--k"], _TRAIN + ["--batch"], _TRAIN + ["--subsample"],
    ["bench", "--repeats"],
    ["demo2d", "--out", "p.csv", "--k"], ["demo2d", "--out", "p.csv", "--images"],
    ["demo2d", "--out", "p.csv", "--steps"],
    ["synth", "--out", "f", "--labels", "l", "--images"],
    ["synth", "--out", "f", "--labels", "l", "--points"],
    ["pca", "--input", "f", "--out", "m.fvpc", "--dim"]])
def test_nonpositive_threads_is_usage_error_naming_the_flag(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main(subcommand + ["0"])
    assert exc.value.code == 2
    assert f"{subcommand[-1]}: must be at least 1, got 0" in capsys.readouterr().err


def test_train_eval_flow(capsys, corpus, tmp_path):
    feats, labels = corpus
    ckpt = tmp_path / "model.fvmd"
    metrics = tmp_path / "metrics.csv"
    code, out, _ = run(capsys, "train", "--train", str(feats),
                       "--labels", str(labels), "--mode", "theta-gmm",
                       "--k", "2", "--batch", "8", "--epochs", "1",
                       "--init-epochs", "6", "--svm-epochs", "30",
                       "--seed", "3", "--checkpoint", str(ckpt),
                       "--metrics", str(metrics))
    assert code == 0
    assert ckpt.exists() and metrics.exists()
    assert "starved components" in out

    code, out, _ = run(capsys, "eval", "--test", str(feats),
                       "--labels", str(labels), "--checkpoint", str(ckpt))
    assert code == 0
    assert "class 0: ap=" in out and "class 1: ap=" in out
    assert "mean ap:" in out


def test_train_is_deterministic_at_cli_level(capsys, corpus, tmp_path):
    feats, labels = corpus
    outputs = []
    for name in ("one", "two"):
        metrics = tmp_path / f"{name}.csv"
        code, _, _ = run(capsys, "train", "--train", str(feats),
                         "--labels", str(labels), "--k", "2", "--batch", "8",
                         "--epochs", "1", "--init-epochs", "6",
                         "--svm-epochs", "30", "--seed", "5",
                         "--checkpoint", str(tmp_path / f"{name}.fvmd"),
                         "--metrics", str(metrics))
        assert code == 0
        outputs.append(metrics.read_bytes())
    assert outputs[0] == outputs[1]
    assert (tmp_path / "one.fvmd").read_bytes() == \
        (tmp_path / "two.fvmd").read_bytes()


def test_importing_the_entry_module_runs_nothing(capsys):
    importlib.import_module("fvlayer.__main__")
    assert capsys.readouterr().out == ""


def test_module_entry_trains_the_same_bytes_with_two_workers(corpus, tmp_path):
    feats, labels = corpus
    src = str(Path(fvlayer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    outputs = []
    for threads in ("1", "2"):
        metrics, ckpt = tmp_path / f"w{threads}.csv", tmp_path / f"w{threads}.fvmd"
        done = subprocess.run(
            [sys.executable, "-m", "fvlayer", "train", "--train", str(feats),
             "--labels", str(labels), "--k", "2", "--batch", "8",
             "--epochs", "1", "--init-epochs", "6", "--svm-epochs", "30",
             "--seed", "5", "--threads", threads,
             "--checkpoint", str(ckpt), "--metrics", str(metrics)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("train: final mean loss") == 1
        outputs.append((metrics.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]


def test_eval_rejects_class_count_mismatch(capsys, corpus, tmp_path):
    feats, labels = corpus
    ckpt = tmp_path / "model.fvmd"
    code, _, _ = run(capsys, "train", "--train", str(feats),
                     "--labels", str(labels), "--k", "2", "--batch", "8",
                     "--epochs", "0", "--init-epochs", "4",
                     "--checkpoint", str(ckpt),
                     "--metrics", str(tmp_path / "metrics.csv"))
    assert code == 0
    bad_labels = tmp_path / "bad_labels.txt"
    bad_labels.write_text("a0000 +1\n")
    code, _, err = run(capsys, "eval", "--test", str(feats),
                       "--labels", str(bad_labels), "--checkpoint", str(ckpt))
    assert code == 2
    assert "classes" in err


def test_pca_flow_and_dim_error(capsys, corpus, tmp_path):
    feats, labels = corpus
    model = tmp_path / "pca.fvpc"
    proj = tmp_path / "proj"
    code, out, _ = run(capsys, "pca", "--input", str(feats), "--dim", "1",
                       "--out", str(model), "--apply-out", str(proj))
    assert code == 0
    assert model.exists()
    projected = read_features(proj / "a0000.fvfs")
    assert projected.shape[1] == 1

    code, _, err = run(capsys, "pca", "--input", str(feats), "--dim", "3",
                       "--out", str(model))
    assert code == 2
    assert "exceeds input dimension" in err


def test_missing_input_directory_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "pca", "--input", str(tmp_path / "ghost"),
                       "--dim", "1", "--out", str(tmp_path / "m.fvpc"))
    assert code == 2
    assert "not a directory" in err


def test_corrupt_checkpoint_is_runtime_error(capsys, corpus, tmp_path):
    feats, labels = corpus
    bad = tmp_path / "bad.fvmd"
    bad.write_bytes(b"junkjunkjunk")
    code, _, err = run(capsys, "eval", "--test", str(feats),
                       "--labels", str(labels), "--checkpoint", str(bad))
    assert code == 1
    assert "magic" in err


def test_gradcheck_prints_table_and_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("fv_w/weights") for line in lines)
    assert all("FAIL" not in line for line in lines)
    assert "blocks within" in lines[-1]


def test_gradcheck_fails_with_impossible_tolerance(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "0", "--tol", "1e-30")
    assert code == 1
    assert "above" in out.splitlines()[-1]


def test_demo2d_step_zero_matches_generator(capsys, tmp_path):
    out_csv = tmp_path / "demo.csv"
    code, _, _ = run(capsys, "demo2d", "--steps", "1", "--images", "4",
                     "--seed", "11", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "step,image_id,point,label,x,y"
    ds = make_synthetic_2d(4, seed=11)
    clouds = {item.image_id: item.features for item in ds.items}
    step0 = [line.split(",") for line in lines[1:] if line.startswith("0,")]
    assert len(step0) == 8 * 32
    for _, image_id, point, _, x, y in step0:
        expected = clouds[image_id][int(point)]
        assert float(x) == expected[0]  # %.17g round-trips exactly
        assert float(y) == expected[1]


def test_bench_emits_csv_grid(capsys):
    code, out, _ = run(capsys, "bench", "--t", "32,64", "--k", "2",
                       "--d", "4,8", "--repeats", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if "," in l and not l.startswith("config")]
    assert lines[0] == "t,k,d,fwd_ms,bwd_ms"
    assert len(lines) == 1 + 2 * 2  # header + |t| * |d| rows
    assert lines[1].startswith("32,2,4,")


def test_bench_rows_keep_the_thread_count_they_were_timed_with(capsys):
    # --threads sets the workers of --speedup only; the rows run in one process,
    # so they carry no thread count and keep the same five columns
    code, out, _ = run(capsys, "bench", "--t", "32", "--k", "2", "--d", "2",
                       "--repeats", "1", "--threads", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if "," in l and not l.startswith("config")]
    assert lines[0] == "t,k,d,fwd_ms,bwd_ms"
    assert lines[1].startswith("32,2,2,")
    assert all(len(line.split(",")) == 5 for line in lines)

"""End-to-end tests of the experiment CLI on small synthetic IDX datasets."""

import csv
import io
import os
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from elmboost import cli, linalg, model_store
from elmboost.boost import accuracy, classify, predict_scores
from elmboost.cli import main
from elmboost.dataset import (
    RawDataset,
    load_idx_images,
    load_idx_labels,
    normalize,
    zero_pixel_noise,
)
from elmboost.model_store import crc64

from helpers import fifo_writer, needs_mkfifo, separable_images, write_idx


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture
def data_dir(tmp_path):
    """Synthetic 3-class 4x4 dataset in MNIST's on-disk layout."""
    rng = np.random.default_rng(0)
    root = tmp_path / "data"
    (root / "mnist").mkdir(parents=True)
    train_images, train_labels = separable_images(rng, 150, 16, 3)
    test_images, test_labels = separable_images(rng, 60, 16, 3)
    write_idx(root / "mnist" / "train-images-idx3-ubyte.gz", train_images.reshape(-1, 4, 4))
    write_idx(root / "mnist" / "train-labels-idx1-ubyte.gz", train_labels)
    write_idx(root / "mnist" / "t10k-images-idx3-ubyte", test_images.reshape(-1, 4, 4))
    write_idx(root / "mnist" / "t10k-labels-idx1-ubyte", test_labels)
    return root


def train_args(data_dir, tmp_path, **overrides):
    args = {
        "--dataset-dir": str(data_dir),
        "--classes": "3",
        "--t-steps": "2",
        "--levels": "2",
        "--seed": "5",
        "--model": str(tmp_path / "model.elmb"),
        "--out": str(tmp_path / "train.csv"),
    }
    args.update(overrides)
    argv = ["train"]
    for flag, value in args.items():
        argv.extend([flag, value])
    return argv


class TestTrainCommand:
    def test_smoke_run_writes_model_and_report(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        assert (tmp_path / "model.elmb").is_file()
        header, rows = read_csv(tmp_path / "train.csv")
        assert header == ["level", "step", "residual_norm"]
        assert len(rows) == 4  # 2 levels x 2 steps
        norms = [float(r[2]) for r in rows]
        assert norms == sorted(norms, reverse=True)

    def test_train_subset(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path, **{"--train-subset": "30"})) == 0

    def test_missing_labels_exits_2_naming_path(self, data_dir, tmp_path, capsys):
        (data_dir / "mnist" / "train-labels-idx1-ubyte.gz").unlink()
        assert main(train_args(data_dir, tmp_path)) == 2
        assert "train-labels-idx1-ubyte" in capsys.readouterr().err

    def test_missing_files_name_both_directories_searched(self, tmp_path, capsys):
        root = tmp_path / "nothing"
        assert main(train_args(root, tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: no train-images-idx3-ubyte[.gz] found under {root / 'mnist'} or {root}\n"
        )

    def test_same_seed_byte_identical_outputs(self, data_dir, tmp_path):
        argv_a = train_args(data_dir, tmp_path)
        assert main(argv_a) == 0
        model_a = (tmp_path / "model.elmb").read_bytes()
        csv_a = (tmp_path / "train.csv").read_bytes()
        argv_b = train_args(
            data_dir, tmp_path,
            **{"--model": str(tmp_path / "m2.elmb"), "--out": str(tmp_path / "t2.csv")},
        )
        assert main(argv_b) == 0
        assert (tmp_path / "m2.elmb").read_bytes() == model_a
        assert (tmp_path / "t2.csv").read_bytes() == csv_a

    def test_truncated_gzip_labels_exit_2_without_traceback(self, data_dir, tmp_path, capsys):
        path = data_dir / "mnist" / "train-labels-idx1-ubyte.gz"
        path.write_bytes(path.read_bytes()[:-8])
        assert main(train_args(data_dir, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "train-labels-idx1-ubyte" in err and "Traceback" not in err
        assert not (tmp_path / "model.elmb").exists()

    def test_bad_subset_exits_1(self, data_dir, tmp_path, capsys):
        # a negative subset would slice rows off the end and train on the rest
        for subset in ("0", "-1"):
            assert main(train_args(data_dir, tmp_path, **{"--train-subset": subset})) == 1
            assert capsys.readouterr().err == "error: --train-subset must be >= 1\n"
            assert not (tmp_path / "model.elmb").exists()

    def test_singular_unregularized_solve_exits_3(self, data_dir, tmp_path, capsys):
        # 5 samples cannot support an unregularized 16-wide Gram matrix
        code = main(train_args(
            data_dir, tmp_path,
            **{"--lambda": "0", "--train-subset": "5", "--hidden": "16"},
        ))
        assert code == 3
        assert "not positive definite" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_exits_1_without_model(self, data_dir, tmp_path, lam):
        assert main(train_args(data_dir, tmp_path, **{"--lambda": lam})) == 1
        assert not (tmp_path / "model.elmb").exists()

    @pytest.mark.parametrize("flag", ["--levels", "--t-steps", "--hidden"])
    def test_size_beyond_the_model_header_exits_1_before_training(
        self, data_dir, tmp_path, monkeypatch, capsys, flag
    ):
        # the three sizes are u32 fields of the model file
        def no_training(*args):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", no_training)
        assert main(train_args(data_dir, tmp_path, **{flag: str(2**32)})) == 1
        assert not (tmp_path / "model.elmb").exists()
        assert "2**32" in capsys.readouterr().err

    def test_weight_grid_the_machine_cannot_hold_exits_1_without_traceback(
        self, data_dir, tmp_path, capsys
    ):
        # At the default L = 8, T = 50 the weight grid needs 8·50·(2**31 - 1)·3·8
        # bytes, 20.6 PB: far beyond the address space mmap hands out without a
        # hint (128 TiB on x86-64, 256 TiB on arm64), so the allocation is
        # refused at once whatever the overcommit policy.
        model = tmp_path / "model.elmb"
        code = main([
            "train", "--dataset-dir", str(data_dir), "--classes", "3",
            "--hidden", "2147483647", "--model", str(model), "--out", str(tmp_path / "r.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not model.exists()

    def test_sizes_numpy_cannot_index_exit_1_without_traceback(self, data_dir, tmp_path, capsys):
        # every size fits the model header, but L·T residual norms alone overflow
        # numpy's size limit: numpy raises ValueError("array is too big"), not MemoryError
        model = tmp_path / "model.elmb"
        most = str(2**32 - 1)
        code = main(train_args(
            data_dir, tmp_path, **{"--levels": most, "--t-steps": most, "--hidden": most}
        ))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: array is too big") and err.count("\n") == 1, err
        assert not model.exists()

    def test_non_finite_weights_exit_3_without_model(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            linalg, "factor_solve",
            lambda factor, rhs: np.full((factor.shape[0], rhs.shape[1]), np.nan),
        )
        assert main(train_args(data_dir, tmp_path)) == 3
        assert not (tmp_path / "model.elmb").exists()
        assert "non-finite" in capsys.readouterr().err


class TestCurveCommand:
    def test_per_level_accuracy(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["level", "accuracy"]
        assert [r[0] for r in rows] == ["0", "1"]
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_reruns_byte_identical(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        argv = [
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(tmp_path / "c.csv"),
        ]
        assert main(argv) == 0
        first = (tmp_path / "c.csv").read_bytes()
        assert main(argv) == 0
        assert (tmp_path / "c.csv").read_bytes() == first

    def test_width_mismatch_exits_1(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        rng = np.random.default_rng(1)
        other = tmp_path / "other"
        (other / "mnist").mkdir(parents=True)
        images, labels = separable_images(rng, 20, 25, 3)
        write_idx(other / "mnist" / "t10k-images-idx3-ubyte", images.reshape(-1, 5, 5))
        write_idx(other / "mnist" / "t10k-labels-idx1-ubyte", labels)
        code = main([
            "curve", "--dataset-dir", str(other), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 1

    def test_two_models_one_column_per_activation(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        sign_model = tmp_path / "sign.elmb"
        assert main(train_args(
            data_dir, tmp_path,
            **{"--activation": "sign", "--model": str(sign_model)},
        )) == 0
        out = tmp_path / "both.csv"
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), str(sign_model),
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["level", "accuracy_tanh", "accuracy_sign"]
        assert len(rows) == 2 and len(rows[0]) == 3

    def test_class_count_mismatch_exits_1(self, data_dir, tmp_path, capsys):
        # the 3-class labels are valid for 4 classes, so only the model check objects
        assert main(train_args(data_dir, tmp_path)) == 0
        out = tmp_path / "c.csv"
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "4",
            "--model", str(tmp_path / "model.elmb"), "--out", str(out),
        ])
        assert code == 1
        assert "classes" in capsys.readouterr().err
        assert not out.exists()

    def test_two_models_differing_in_levels_exit_1(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        deeper = tmp_path / "deeper.elmb"
        assert main(train_args(
            data_dir, tmp_path,
            **{"--activation": "sign", "--levels": "3", "--model": str(deeper)},
        )) == 0
        out = tmp_path / "c.csv"
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), str(deeper), "--out", str(out),
        ])
        assert code == 1
        assert "levels" in capsys.readouterr().err
        assert not out.exists()

    def test_two_models_same_activation_exits_1(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        second = tmp_path / "second.elmb"
        assert main(train_args(data_dir, tmp_path, **{"--model": str(second)})) == 0
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), str(second),
            "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 1

    def test_corrupt_model_exits_2(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        model_path = tmp_path / "model.elmb"
        blob = bytearray(model_path.read_bytes())
        blob[70] ^= 0xFF
        model_path.write_bytes(bytes(blob))
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(model_path), "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 2

    def test_nan_weight_model_exits_2(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        model_path = tmp_path / "model.elmb"
        blob = bytearray(model_path.read_bytes())
        blob[-16:-8] = struct.pack("<d", float("nan"))
        blob[-8:] = struct.pack("<Q", crc64(bytes(blob[:-8])))
        model_path.write_bytes(bytes(blob))
        out = tmp_path / "c.csv"
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(model_path), "--out", str(out),
        ])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


    @needs_mkfifo
    def test_piped_model_exits_2_naming_the_cause(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        fifo = tmp_path / "pipe.elmb"
        with fifo_writer(fifo, (tmp_path / "model.elmb").read_bytes()):
            code = main([
                "curve", "--dataset-dir", str(data_dir), "--classes", "3",
                "--model", str(fifo), "--out", str(tmp_path / "c.csv"),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert "not a regular file" in err and "Traceback" not in err


class TestNoiseCommand:
    def test_fraction_zero_matches_curve_tail(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        curve_out = tmp_path / "curve.csv"
        noise_out = tmp_path / "noise.csv"
        assert main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(curve_out),
        ]) == 0
        assert main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--noise-fraction", "0",
            "--out", str(noise_out),
        ]) == 0
        _, curve_rows = read_csv(curve_out)
        header, noise_rows = read_csv(noise_out)
        assert header == ["noise_fraction", "accuracy"]
        assert noise_rows[0][1] == curve_rows[-1][1]

    def test_fraction_sweep_and_rerun_determinism(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        out = tmp_path / "noise.csv"
        argv = [
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"),
            "--noise-fraction", "0", "0.2", "0.5", "--seed", "3",
            "--out", str(out),
        ]
        assert main(argv) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0.0", "0.2", "0.5"]
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("fractions", [["0.3"], ["0.1", "0.5"], ["0", "0.2", "0.75"]])
    def test_csv_matches_one_fraction_at_a_time(self, data_dir, tmp_path, fractions):
        # the inputs are built on two threads; the reference builds and
        # scores each fraction alone, serially
        assert main(train_args(data_dir, tmp_path)) == 0
        out = tmp_path / "noise.csv"
        assert main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--noise-fraction", *fractions,
            "--seed", "4", "--out", str(out),
        ]) == 0
        test = data_dir / "mnist"
        raw = RawDataset(
            images=load_idx_images(test / "t10k-images-idx3-ubyte"),
            labels=load_idx_labels(test / "t10k-labels-idx1-ubyte"),
            num_classes=3,
        )
        model = model_store.load(tmp_path / "model.elmb")
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["noise_fraction", "accuracy"])
        for text in fractions:
            data = normalize(zero_pixel_noise(raw, float(text), 4))
            writer.writerow([float(text), accuracy(classify(predict_scores(model, data.x)), data.labels)])
        assert out.read_bytes() == expected.getvalue().encode()

    def test_all_constant_warning_of_an_input_built_on_the_worker(
        self, data_dir, tmp_path, monkeypatch
    ):
        # fraction 1 zeroes every pixel; the caller's builds are slowed, so the
        # worker builds at least one of the two inputs
        assert main(train_args(data_dir, tmp_path)) == 0
        caller = threading.get_ident()
        builders = []
        zero = cli.zero_pixel_noise

        def slow_on_the_caller(raw, fraction, seed):
            builders.append(threading.get_ident())
            if threading.get_ident() == caller:
                time.sleep(0.2)
            return zero(raw, fraction, seed)

        monkeypatch.setattr(cli, "zero_pixel_noise", slow_on_the_caller)
        with pytest.warns(RuntimeWarning, match="all-constant") as record:
            assert main([
                "noise", "--dataset-dir", str(data_dir), "--classes", "3",
                "--model", str(tmp_path / "model.elmb"), "--noise-fraction", "1", "1",
                "--out", str(tmp_path / "n.csv"),
            ]) == 0
        assert len(builders) == 2 and any(ident != caller for ident in builders)
        assert sum("all-constant" in str(w.message) for w in record) == 2

    def test_inputs_are_built_through_the_cli_module_names(self, data_dir, tmp_path, monkeypatch):
        # perfbench's tracer wraps elmboost.cli.normalize and .zero_pixel_noise
        assert main(train_args(data_dir, tmp_path)) == 0
        calls = {"normalize": 0, "zero_pixel_noise": 0}
        lock = threading.Lock()

        def counting(name, original):
            def wrapper(*args):
                with lock:
                    calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        assert main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--noise-fraction", "0.1", "0.2", "0.3",
            "--out", str(tmp_path / "n.csv"),
        ]) == 0
        assert calls == {"normalize": 3, "zero_pixel_noise": 3}

    def test_class_count_mismatch_exits_1_before_any_noise_is_made(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        # the 3-class labels are valid for 4 classes, so only the model check objects
        assert main(train_args(data_dir, tmp_path)) == 0
        capsys.readouterr()
        made = []
        monkeypatch.setattr(cli, "zero_pixel_noise", lambda *args: made.append(args))
        out = tmp_path / "n.csv"
        code = main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "4",
            "--model", str(tmp_path / "model.elmb"), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: model has 3 classes, dataset declares 4\n"
        assert made == [] and not out.exists()

    def test_bad_fraction_exits_1(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path)) == 0
        code = main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--noise-fraction", "1.5",
            "--out", str(tmp_path / "n.csv"),
        ])
        assert code == 1

    def test_bad_fraction_is_a_usage_error_before_the_model_is_read(
        self, data_dir, tmp_path, capsys
    ):
        code = main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "missing.elmb"), "--noise-fraction", "0.1", "1.5",
            "--out", str(tmp_path / "n.csv"),
        ])
        assert code == 1
        assert "--noise-fraction" in capsys.readouterr().err

    def test_negative_seed_exits_1(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        out = tmp_path / "n.csv"
        code = main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--seed", "-1", "--out", str(out),
        ])
        assert code == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()


class TestHashSimCommand:
    def test_default_sweep(self, tmp_path):
        out = tmp_path / "hash.csv"
        assert main(["hash-sim", "--out", str(out), "--seed", "1"]) == 0
        header, rows = read_csv(out)
        assert header == ["theta", "analytic", "empirical", "deviation"]
        assert len(rows) == 6
        assert rows[0][1] == "1.0" and rows[0][2] == "1.0"
        assert rows[-1][1] == "0.0" and rows[-1][2] == "0.0"
        mid = rows[3]  # pi/2
        assert abs(float(mid[2]) - 0.5) <= 0.015

    def test_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "hash.csv"
        argv = ["hash-sim", "--out", str(out), "--seed", "9", "--trials", "2"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_flag_validation(self, tmp_path):
        assert main(["hash-sim", "--dim", "1", "--out", str(tmp_path / "h.csv")]) == 1
        assert main(["hash-sim", "--hashes", "50", "--out", str(tmp_path / "h.csv")]) == 1
        assert main(["hash-sim", "--trials", "0", "--out", str(tmp_path / "h.csv")]) == 1

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--theta", "nan"], ["--theta", "0.5", "inf"]]
    )
    def test_bad_values_exit_1_without_output(self, tmp_path, capsys, flags):
        out = tmp_path / "h.csv"
        assert main(["hash-sim", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMissingOutputDirectory:
    """An output path in a missing directory exits 2 before any input is read."""

    @pytest.mark.parametrize("flag", ["--model", "--out"])
    def test_train(self, data_dir, tmp_path, capsys, monkeypatch, flag):
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        path = tmp_path / "nodir" / "x"
        assert main(train_args(data_dir, tmp_path, **{flag: str(path)})) == 2
        assert capsys.readouterr().err == (
            f"error: missing output directory: {path.parent} (for {path})\n"
        )
        assert trained == []
        assert not (tmp_path / "model.elmb").exists()

    @pytest.mark.parametrize("command", ["curve", "noise", "hash-sim"])
    def test_scoring_and_simulation(self, data_dir, tmp_path, capsys, monkeypatch, command):
        # the model file does not exist either: the output check comes first
        scored = []
        for name in ("iter_level_scores", "predict_scores"):
            monkeypatch.setattr(cli, name, lambda *args: scored.append(args))
        path = tmp_path / "nodir" / "out.csv"
        inputs = ["--dataset-dir", str(data_dir), "--model", str(tmp_path / "missing.elmb")]
        argv = [command, "--out", str(path), *([] if command == "hash-sim" else inputs)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: missing output directory: {path.parent} (for {path})\n"
        )
        assert scored == []



def _files(root):
    """{path: bytes} of every file under root."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestUnsafeOutputPath:
    """An output that is a directory, an input or another output is refused before any work."""

    @staticmethod
    def _refuse_work(monkeypatch):
        called = []
        for name in ("train", "iter_level_scores", "predict_scores"):
            monkeypatch.setattr(cli, name, lambda *args: called.append(args))
        return called

    @pytest.mark.parametrize("flag", ["--model", "--out"])
    def test_train_output_is_a_directory_exits_2(
        self, data_dir, tmp_path, capsys, monkeypatch, flag
    ):
        called = self._refuse_work(monkeypatch)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        before = _files(tmp_path)
        assert main(train_args(data_dir, tmp_path, **{flag: str(outdir)})) == 2
        assert capsys.readouterr().err == f"error: output path is a directory: {outdir}\n"
        assert called == []
        assert _files(tmp_path) == before

    def test_curve_output_is_a_directory_exits_2(self, data_dir, tmp_path, capsys, monkeypatch):
        assert main(train_args(data_dir, tmp_path)) == 0
        called = self._refuse_work(monkeypatch)
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        before = _files(tmp_path)
        capsys.readouterr()
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(outdir),
        ])
        assert code == 2
        assert capsys.readouterr().err == f"error: output path is a directory: {outdir}\n"
        assert called == []
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("command", ["curve", "noise"])
    @pytest.mark.parametrize("spelling", ["same path", "symlink"])
    def test_scoring_output_is_the_model_exits_1(
        self, data_dir, tmp_path, capsys, monkeypatch, command, spelling
    ):
        assert main(train_args(data_dir, tmp_path)) == 0
        called = self._refuse_work(monkeypatch)
        model = tmp_path / "model.elmb"
        out = model
        if spelling == "symlink":
            out = tmp_path / "link.elmb"
            out.symlink_to(model)
        before = _files(tmp_path)
        capsys.readouterr()
        code = main([
            command, "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(model), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: output {out} is the same file as {model}\n"
        assert called == []
        assert _files(tmp_path) == before

    def test_train_outputs_naming_one_file_exit_1(self, data_dir, tmp_path, capsys, monkeypatch):
        called = self._refuse_work(monkeypatch)
        path = tmp_path / "x"
        before = _files(tmp_path)
        code = main(train_args(data_dir, tmp_path, **{"--model": str(path), "--out": str(path)}))
        assert code == 1
        assert capsys.readouterr().err == f"error: output {path} is the same file as {path}\n"
        assert called == []
        assert _files(tmp_path) == before

    @pytest.mark.parametrize(
        "command, flag, idx_name",
        [
            ("train", "--model", "train-images-idx3-ubyte.gz"),
            ("train", "--out", "train-labels-idx1-ubyte.gz"),
            ("curve", "--out", "t10k-images-idx3-ubyte"),
            ("noise", "--out", "t10k-labels-idx1-ubyte"),
        ],
    )
    def test_output_naming_a_dataset_file_exits_1(
        self, data_dir, tmp_path, capsys, monkeypatch, command, flag, idx_name
    ):
        model = tmp_path / "model.elmb"
        if command != "train":
            assert main(train_args(data_dir, tmp_path)) == 0
        called = self._refuse_work(monkeypatch)
        idx = data_dir / "mnist" / idx_name
        idx_bytes = idx.read_bytes()
        before = _files(tmp_path)
        capsys.readouterr()
        if command == "train":
            argv = train_args(data_dir, tmp_path, **{flag: str(idx)})
        else:
            argv = [
                command, "--dataset-dir", str(data_dir), "--classes", "3",
                "--model", str(model), flag, str(idx),
            ]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: output {idx} is the same file as {idx}\n"
        assert called == []
        assert idx.read_bytes() == idx_bytes
        assert _files(tmp_path) == before

    @pytest.mark.skipif(not Path(os.devnull).is_char_device(), reason="no character device null")
    def test_character_device_may_be_named_twice(self, data_dir, tmp_path):
        before = _files(tmp_path)
        argv = train_args(data_dir, tmp_path, **{"--model": os.devnull, "--out": os.devnull})
        assert main(argv) == 0
        assert _files(tmp_path) == before


class TestUsage:
    def test_unknown_flag_exits_1(self, tmp_path):
        assert main(["hash-sim", "--bogus"]) == 1

    def test_missing_subcommand_exits_1(self):
        assert main([]) == 1

    def test_wrong_class_count_exits_1(self, data_dir, tmp_path):
        assert main(train_args(data_dir, tmp_path, **{"--classes": "2"})) == 1

    def test_mismatched_split_files_exit_2(self, data_dir, tmp_path):
        write_idx(data_dir / "mnist" / "train-labels-idx1-ubyte.gz", np.zeros(7))
        assert main(train_args(data_dir, tmp_path)) == 2


def _empty_split(data_dir, split):
    """Rewrite one split of the fixture as IDX files that hold no rows."""
    stem = {"train": "train", "test": "t10k"}[split]
    suffix = ".gz" if split == "train" else ""
    mnist = data_dir / "mnist"
    images = mnist / f"{stem}-images-idx3-ubyte{suffix}"
    write_idx(images, np.zeros((0, 4, 4)))
    write_idx(mnist / f"{stem}-labels-idx1-ubyte{suffix}", np.zeros(0))


class TestEmptySplit:
    def test_train_exits_2(self, data_dir, tmp_path, capsys):
        _empty_split(data_dir, "train")
        assert main(train_args(data_dir, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err and "Traceback" not in err
        assert not (tmp_path / "model.elmb").exists()

    def test_curve_exits_2(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        _empty_split(data_dir, "test")
        capsys.readouterr()
        code = main([
            "curve", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "t10k-images-idx3-ubyte" in err and "Traceback" not in err

    def test_noise_exits_2(self, data_dir, tmp_path, capsys):
        assert main(train_args(data_dir, tmp_path)) == 0
        _empty_split(data_dir, "test")
        capsys.readouterr()
        code = main([
            "noise", "--dataset-dir", str(data_dir), "--classes", "3",
            "--model", str(tmp_path / "model.elmb"), "--out", str(tmp_path / "n.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "t10k-images-idx3-ubyte" in err and "Traceback" not in err

"""CLI subcommands, config resolution, exit codes, and pipeline smoke."""

import dataclasses
import hashlib
import json
import shutil
import struct

import numpy as np
import pytest

from patchmoe import affinity, backbone, cli, data, expert_init, moe, router_init, training
from patchmoe import tensor as T
from util_oracles import HAND_WRITTEN_CONFIG_SCHEMA, read_affinity_csv

SPEC = {"num_classes": 4, "num_families": 2, "image_size": 32,
        "images_per_class": 5, "fg_patch_cells": 2, "seed": 11}

CONFIG_INI = """\
[model]
image_size = 32
patch_size = 8
d_model = 16
d_ff = 32
layers = 2
dropout = 0.0

[moe]
moe_layers = 1
experts = 2

[router_init]
top_k_patches = 16
samples_per_class = 2

[optim]
epochs = 1
batch_size = 8

[augment]
mixup_alpha = 0.0

[seed]
seed = 0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated data plus dense, moe, and finetuned checkpoints."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC))
    config = root / "run.ini"
    config.write_text(CONFIG_INI)
    data_dir = root / "data"
    assert cli.main(["gen-data", "--spec", str(spec), "--out", str(data_dir)]) == 0
    dense = root / "dense.json"
    assert cli.main(["pretrain", "--config", str(config), "--data", str(data_dir),
                     "--out", str(dense)]) == 0
    moe = root / "moe.json"
    assert cli.main(["moefy", "--config", str(config), "--ckpt", str(dense),
                     "--data", str(data_dir), "--out", str(moe)]) == 0
    tuned = root / "tuned.json"
    assert cli.main(["finetune", "--config", str(config), "--ckpt", str(moe),
                     "--data", str(data_dir), "--out", str(tuned)]) == 0
    return {"root": root, "spec": spec, "config": config, "data": data_dir,
            "dense": dense, "moe": moe, "tuned": tuned}


class TestConfig:
    def test_defaults_without_file(self):
        resolved = cli.load_run_config(None)
        assert resolved["optim"]["lr_moe"] == 0.005
        assert resolved["augment"]["hflip_p"] == 0.5
        assert resolved["seed"]["seed"] == 0

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optim]\nepochs = 3\n[moe]\nmoe_layers = 1, 3\n")
        resolved = cli.load_run_config(str(path))
        assert resolved["optim"]["epochs"] == 3
        assert resolved["moe"]["moe_layers"] == (1, 3)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optim]\nlearning_rate = 1\n")
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(str(path))

    def test_override_wins_over_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[optim]\nepochs = 3\n")
        resolved = cli.load_run_config(str(path), ["optim.epochs=7"])
        assert resolved["optim"]["epochs"] == 7

    def test_bad_override_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["epochs=7"])
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["optim.nope=7"])

    def test_missing_file_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config("/nonexistent/run.ini")

    def test_uncoercible_value_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["optim.epochs=abc"])
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["moe.moe_layers=1,x"])

    @pytest.mark.parametrize("override", [
        "optim.epochs=abc", "model.patch_size=5", "optim.batch_size=0",
        "augment.classifier_dropout=0.3", "model.activation=foo", "model.heads=0",
        "model.d_model=0", "model.dropout=1.0", "moe.gate_mode=foo", "moe.top_k=5",
        "moe.experts=0", "moe.reduction_factor=0", "moe.reduction_factor=3",
        "moe.router_temperature=0", "seed.seed=-2", "model.image_size=0",
        "model.patch_size=0", "model.n_px=0", "model.dropout=-0.1", "moe.top_k=0",
        "optim.lr_classifier=nan", "optim.lr_rest=inf", "optim.lr_rest=-1",
        "moe.moe_layers=1,1", "moe.moe_layers=0,1,0", "moe.router_temperature=inf",
        "augment.mixup_alpha=nan", "augment.mixup_alpha=inf", "augment.mixup_alpha=-1",
        "augment.hflip_p=1.5", "augment.hflip_p=nan"])
    def test_bad_override_exits_usage(self, workdir, tmp_path, override):
        rc = cli.main(["pretrain", "--config", str(workdir["config"]),
                       "--data", str(workdir["data"]), "--set", override,
                       "--out", str(tmp_path / "ckpt" / "dense.json")])
        assert rc == cli.EXIT_USAGE
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("text", [
        b"[optim]\nepochs = 1\nepochs = 2\n", b"epochs = 1\n",
        b"[optim]\nlr_rest = 5%\n", b"[optim]\nepochs = \xff\n"],
        ids=["duplicate-key", "no-section", "bare-percent", "non-utf8"])
    def test_unparsable_file_exits_usage(self, workdir, tmp_path, capsys, text):
        config = tmp_path / "bad.ini"
        config.write_bytes(text)
        rc = cli.main(["pretrain", "--config", str(config), "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "ckpt" / "dense.json")])
        assert rc == cli.EXIT_USAGE
        assert f"cannot parse config file {config}" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_seed_flag_exits_usage(self, workdir, tmp_path, command):
        """[seed] seed is the one way to seed a training run."""
        out = tmp_path / "ckpt" / "x.json"
        assert _exit_code(_argv(workdir, command, out) + ["--seed", "1"]) == cli.EXIT_USAGE
        assert not (tmp_path / "ckpt").exists()


class TestGenData:
    def test_writes_manifest_and_ppms(self, workdir):
        """A dataset is its manifest and one pixel blob, nothing else."""
        data_dir = workdir["data"]
        assert sorted(p.name for p in data_dir.iterdir()) == ["manifest.json", "pixels.bin"]
        with open(data_dir / "pixels.bin", "rb") as f:
            assert T.read_blob(f).shape == (20, 32, 32, 3)

    def test_deterministic_manifest(self, workdir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["gen-data", "--spec", str(workdir["spec"]),
                         "--out", str(again)]) == 0
        assert ((again / "manifest.json").read_text()
                == (workdir["data"] / "manifest.json").read_text())

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_missing_spec_file_is_data_error(self, tmp_path):
        rc = cli.main(["gen-data", "--spec", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("text", [
        json.dumps({"num_classes": 5, "num_families": 2}),
        json.dumps({"num_classes": 0}),
        json.dumps({"num_classes": -4}),
        json.dumps({"num_families": 0}),
        json.dumps({"image_size": 16, "fg_patch_cells": 4}),
        json.dumps({"image_size": 12}),
        json.dumps({"images_per_class": 0}),
        json.dumps({"fg_patch_cells": 0}),
        json.dumps({"num_backgrounds": 0}),
        '{"num_classes": 4,',
        json.dumps({"seed": -1}),
        json.dumps({"seed": 1.5}),
        json.dumps({"num_classes": 4.0}),
        json.dumps({"images_per_class": 3.0}),
    ], ids=["families-do-not-divide", "no-classes", "negative-classes", "no-families",
            "foreground-too-large", "image-smaller-than-foreground", "no-images",
            "no-foreground", "no-backgrounds", "truncated-json", "negative-seed",
            "fractional-seed", "float-classes", "float-images"])
    def test_bad_spec_is_data_error(self, tmp_path, capsys, text):
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_DATA
        assert f"invalid synth spec {spec}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key, value", [
        ("noise", "x"), ("intra_family_similarity", "a"), ("noise", float("nan")),
        ("noise", float("inf")), ("noise", -1), ("intra_family_similarity", 1.5),
        ("noise", True), ("intra_family_similarity", None)],
        ids=["noise-string", "similarity-string", "noise-nan", "noise-inf",
             "noise-negative", "similarity-above-one", "noise-bool", "similarity-null"])
    def test_bad_float_field_is_data_error(self, tmp_path, capsys, key, value):
        """noise and intra_family_similarity must be finite numbers in [0, 1],
        not booleans; json writes nan and inf as NaN and Infinity."""
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({key: value}))
        rc = cli.main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_DATA
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_bad_spec_key_is_data_error(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"bogus_key": 1}))
        rc = cli.main(["gen-data", "--spec", str(spec),
                       "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_DATA


class TestPipeline:
    def test_pretrain_into_missing_directory(self, workdir, tmp_path):
        out = tmp_path / "new" / "dense.json"
        rc = cli.main(["pretrain", "--config", str(workdir["config"]),
                       "--data", str(workdir["data"]), "--out", str(out)])
        assert rc == 0
        for suffix in (".json", ".bin", ".metrics.csv", ".run.json"):
            assert out.with_suffix(suffix).exists(), suffix

    @pytest.mark.parametrize("command", ["pretrain", "moefy", "finetune"])
    def test_bin_out_exits_usage(self, workdir, tmp_path, capsys, command):
        """A manifest path ending in .bin would be its own blob file: it is
        refused before any work, and the blob already there stays as it was."""
        manifest = _copy_checkpoint(workdir["dense"], tmp_path / "dense.json")
        out = manifest.with_suffix(".bin")
        before = out.read_bytes()
        assert _exit_code(_argv(workdir, command, out)) == cli.EXIT_USAGE
        assert "ends in .bin" in capsys.readouterr().err
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dense.bin", "dense.json"]
        backbone.load_checkpoint(manifest)

    @pytest.mark.parametrize("command, ckpt", [("pretrain", None), ("finetune", "moe")])
    def test_failed_save_leaves_no_metrics(self, workdir, tmp_path, monkeypatch, capsys,
                                           command, ckpt):
        def failing_save(model, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(backbone, "save_checkpoint", failing_save)
        out = tmp_path / "ckpt" / "x.json"
        args = ["--ckpt", str(workdir[ckpt])] if ckpt else []
        assert cli.main([command, "--config", str(workdir["config"]), *args,
                         "--data", str(workdir["data"]), "--out", str(out)]) == cli.EXIT_DATA
        assert "no space left on device" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []  # no metrics CSV, no run manifest

    @pytest.mark.parametrize("command, ckpt", [("pretrain", None), ("finetune", "moe")])
    def test_no_train_images_is_data_error(self, workdir, tmp_path, command, ckpt):
        (tmp_path / "data" / "class_a").mkdir(parents=True)
        args = ["--ckpt", str(workdir[ckpt])] if ckpt else []
        rc = cli.main([command, "--config", str(workdir["config"]), *args,
                       "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "ckpt" / "x.json")])
        assert rc == cli.EXIT_DATA
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command, ckpt", [("pretrain", None), ("finetune", "moe")])
    def test_all_val_dataset_has_no_train_images(self, workdir, tmp_path, capsys, command, ckpt):
        """A saved dataset whose images are all val loads, and training
        refuses it before it writes anything."""
        ds = data.load_dataset(workdir["data"])
        images = [dataclasses.replace(im, split="val") for im in ds.images]
        data.save_dataset(dataclasses.replace(ds, images=images), tmp_path / "data")
        args = ["--ckpt", str(workdir[ckpt])] if ckpt else []
        rc = cli.main([command, "--config", str(workdir["config"]), *args,
                       "--data", str(tmp_path / "data"),
                       "--out", str(tmp_path / "ckpt" / "x.json")])
        assert rc == cli.EXIT_DATA
        assert "the dataset has no train images" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("shapes", [[(20, 32, 32, 3), (1, 16, 16, 3)], [(20, 32, 24, 3)]],
                             ids=["mixed-sizes", "non-square"])
    def test_unusable_images_are_data_error(self, workdir, tmp_path, shapes):
        """pixels.bin with a second record of another size, or one record of
        non-square images, its sha256 recorded, exits 3."""
        root = tmp_path / "data"
        shutil.copytree(workdir["data"], root)
        with open(root / "pixels.bin", "wb") as f:
            for shape in shapes:
                T.write_blob(f, np.zeros(shape, dtype=np.uint8))
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["pixels_sha256"] = hashlib.sha256((root / "pixels.bin").read_bytes()).hexdigest()
        (root / "manifest.json").write_text(json.dumps(manifest))
        rc = cli.main(["pretrain", "--config", str(workdir["config"]), "--data", str(root),
                       "--out", str(tmp_path / "ckpt" / "x.json")])
        assert rc == cli.EXIT_DATA
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("command", ["pretrain", "moefy", "finetune", "eval",
                                         "affinity --mode post", "affinity --mode pre"])
    def test_no_images_is_data_error(self, workdir, tmp_path, capsys, command):
        """A dataset manifest that lists no image exits 3 naming it in every
        command; affinity --mode post once raised ValueError on it."""
        root = tmp_path / "data"
        shutil.copytree(workdir["data"], root)
        manifest = json.loads((root / "manifest.json").read_text())
        (root / "manifest.json").write_text(json.dumps({**manifest, "images": []}))
        out = tmp_path / "out" / "x.json"
        if command == "eval":
            argv = ["eval", "--ckpt", str(workdir["tuned"]), "--out", str(out)]
        else:
            argv = _argv(workdir, command, out)
            del argv[argv.index("--data"):argv.index("--data") + 2]
        assert cli.main(argv + ["--data", str(root)]) == cli.EXIT_DATA
        assert str(root / "manifest.json") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pretrain", "moefy", "finetune", "eval",
                                         "affinity --mode post", "affinity --mode pre"])
    def test_image_size_mismatch_is_data_error(self, workdir, tmp_path, capsys, command):
        data40 = tmp_path / "data40"
        data.save_dataset(data.generate(data.SynthSpec(**dict(SPEC, image_size=40))), data40)
        out = tmp_path / "out" / "x.json"
        if command == "eval":
            argv = ["eval", "--ckpt", str(workdir["tuned"]), "--out", str(out),
                    "--data", str(data40)]
        else:
            argv = _argv(workdir, command, out)
            argv[argv.index("--data") + 1] = str(data40)
        assert cli.main(argv) == cli.EXIT_DATA
        assert "images are 40 px, the model's image_size is 32" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, num_classes", [
        ("moefy", 6), ("affinity --mode pre", 6), ("finetune", 6), ("eval", 6),
        ("affinity --mode post", 6), ("finetune", 2), ("eval", 2)])
    def test_class_count_mismatch_is_data_error(self, workdir, tmp_path, capsys, command,
                                                num_classes):
        """Every command that runs a checkpoint on a dataset needs the
        dataset's class count to be the checkpoint's num_classes (4)."""
        other = tmp_path / "other"
        data.save_dataset(data.generate(data.SynthSpec(**dict(SPEC, num_classes=num_classes))),
                          other)
        out = tmp_path / "out" / "x.json"
        if command == "eval":
            argv = ["eval", "--ckpt", str(workdir["tuned"]), "--out", str(out)]
        else:
            argv = _argv(workdir, command, out)
            del argv[argv.index("--data"):argv.index("--data") + 2]
        assert cli.main(argv + ["--data", str(other)]) == cli.EXIT_DATA
        assert (f"the dataset has {num_classes} classes, the model's num_classes is 4"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    @pytest.mark.parametrize("edit, named", [
        (lambda text: text.replace('"class": 0,', '"class": 99,', 1), "class 99"),
        (lambda text: text.replace('"images"', '"pictures"'), "'images'"),
        (lambda text: text[:-2], "JSONDecodeError")],
        ids=["class-99", "no-images", "not-json"])
    def test_malformed_dataset_manifest_is_data_error(self, workdir, tmp_path, capsys,
                                                      command, edit, named):
        """A dataset manifest that does not parse, lacks `images`, or labels
        an image with a class the dataset does not have exits 3 naming it,
        before any forward: eval once scored such a label and finetune
        raised an IndexError."""
        copy = tmp_path / "data"
        data.save_dataset(data.load_dataset(workdir["data"]), copy)
        text = (copy / "manifest.json").read_text()
        (copy / "manifest.json").write_text(edit(text))
        out = tmp_path / "out" / "x.json"
        if command == "eval":
            argv = ["eval", "--ckpt", str(workdir["tuned"]), "--out", str(out)]
        else:
            argv = _argv(workdir, command, out)
            del argv[argv.index("--data"):argv.index("--data") + 2]
        assert cli.main(argv + ["--data", str(copy)]) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_image_size_on_32px_data_is_data_error(self, workdir, tmp_path):
        rc = cli.main(["pretrain", "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "ckpt" / "x.json")])
        assert rc == cli.EXIT_DATA
        assert not (tmp_path / "ckpt").exists()

    def test_pretrain_artifacts(self, workdir):
        dense = workdir["dense"]
        assert dense.exists() and dense.with_suffix(".bin").exists()
        assert dense.with_suffix(".metrics.csv").exists()
        run = json.loads(dense.with_suffix(".run.json").read_text())
        assert run["command"] == "pretrain"
        assert run["config"]["optim"]["epochs"] == 1
        assert (run["train_size"], run["val_size"]) == (16, 4)
        model = backbone.load_checkpoint(dense)
        assert model.moe_blocks() == {}

    def test_moefy_artifacts(self, workdir):
        model = backbone.load_checkpoint(workdir["moe"])
        assert list(model.moe_blocks()) == [1]
        run = json.loads(workdir["moe"].with_suffix(".run.json").read_text())
        # 2 sampled images of 9 + 16 + 25 patches at the default scales: K = min(16, 100)
        router = run["routers"]["1"]
        assert (router["top_k_patches"], router["scales"]) == (16, [24, 32, 40])
        assert len(router["class_assignments"]) == 4
        assert set(router["class_assignments"]) == {0, 1}

    def test_finetune_artifacts(self, workdir):
        model = backbone.load_checkpoint(workdir["tuned"])
        assert list(model.moe_blocks()) == [1]
        assert model.finetuned

    def test_run_manifest_keys(self, workdir):
        """A run manifest records what the run computed and the sections it
        read, nothing the config or the checkpoint already holds."""
        runs = {name: json.loads(workdir[name].with_suffix(".run.json").read_text())
                for name in ("dense", "moe", "tuned")}
        assert sorted(runs["dense"]) == ["command", "config", "train_size", "val_size"]
        assert sorted(runs["tuned"]) == ["command", "config", "train_size", "val_size"]
        assert sorted(runs["moe"]) == ["command", "config", "routers"]
        assert list(runs["moe"]["routers"]) == ["1"]
        assert sorted(runs["moe"]["routers"]["1"]) == ["class_assignments", "scales",
                                                       "top_k_patches"]

    def test_moefy_on_moe_checkpoint_is_stage_error(self, workdir, tmp_path):
        rc = cli.main(["moefy", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["moe"]),
                       "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "x.json")])
        assert rc == cli.EXIT_DATA

    def test_finetune_on_dense_checkpoint_is_stage_error(self, workdir, tmp_path):
        rc = cli.main(["finetune", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["dense"]),
                       "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "x.json")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("override", [
        "router_init.mode=bogus", "router_init.refine_steps=-1",
        "router_init.samples_per_class=0", "router_init.top_k_patches=0",
        "router_init.scales=5", "router_init.scales=0", "router_init.seed=-1"])
    def test_bad_router_init_exits_usage(self, workdir, tmp_path, override):
        out = tmp_path / "x.json"
        rc = cli.main(["moefy", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["dense"]), "--data", str(workdir["data"]),
                       "--set", override, "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_more_experts_than_classes_exits_usage(self, workdir, tmp_path, capsys,
                                                   monkeypatch):
        """Cluster init cuts the class tree at one cluster per expert, so it
        needs at least as many classes; random init does not."""
        model = backbone.load_checkpoint(workdir["dense"])
        model.config = dataclasses.replace(model.config, experts=5)
        dense = tmp_path / "dense5.json"
        backbone.save_checkpoint(model, dense)
        original = backbone.Model.capture_pre_mlp
        captures = []

        def counting(self, images, layer):
            captures.append(len(images))
            return original(self, images, layer)

        monkeypatch.setattr(backbone.Model, "capture_pre_mlp", counting)
        argv = ["moefy", "--config", str(workdir["config"]), "--ckpt", str(dense),
                "--data", str(workdir["data"])]
        assert cli.main(argv + ["--out", str(tmp_path / "moe.json")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "moe.experts=5" in err and "4 classes" in err
        assert "router_init.mode=random" in err
        assert captures == [] and not (tmp_path / "moe.json").exists()
        assert cli.main(argv + ["--set", "router_init.mode=random",
                                "--out", str(tmp_path / "random.json")]) == 0

    def test_divergence_exit_code(self, workdir, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise training.DivergenceError("non-finite loss")
        monkeypatch.setattr(cli.training, "train", explode)
        rc = cli.main(["finetune", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["moe"]),
                       "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "x.json")])
        assert rc == cli.EXIT_DIVERGENCE


class TestEval:
    def test_eval_writes_metrics(self, workdir, tmp_path):
        out = tmp_path / "eval.csv"
        rc = cli.main(["eval", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        metrics = dict(line.split(",") for line in lines[1:])
        assert 0.0 <= float(metrics["top1"]) <= 1.0
        assert "expert_entropy_layer_1" in metrics

    def test_eval_deterministic(self, workdir, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert cli.main(["eval", "--ckpt", str(workdir["tuned"]),
                             "--data", str(workdir["data"]),
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_into_missing_directory(self, workdir, tmp_path):
        out = tmp_path / "nodir" / "eval.csv"
        rc = cli.main(["eval", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("metric,value\n")

    def test_empty_split_is_data_error(self, workdir, tmp_path, capsys):
        rc = cli.main(["eval", "--ckpt", str(workdir["tuned"]),
                       "--data", str(_no_val_data(tmp_path)), "--split", "val",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DATA
        assert "split 'val' is empty" in capsys.readouterr().err

    def test_ppms_without_manifest_is_data_error(self, workdir, tmp_path, capsys):
        """A dataset directory is what gen-data writes: its pixels.bin
        without manifest.json exits 3 naming the file."""
        data_dir = tmp_path / "data"
        shutil.copytree(workdir["data"], data_dir)
        (data_dir / "manifest.json").unlink()
        rc = cli.main(["eval", "--ckpt", str(workdir["tuned"]), "--data", str(data_dir),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DATA
        assert f"no dataset manifest at {data_dir / 'manifest.json'}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def _no_val_data(tmp_path):
    """gen-data output of SPEC at one image per class, which goes to train."""
    spec, out = tmp_path / "one.json", tmp_path / "one"
    spec.write_text(json.dumps({**SPEC, "images_per_class": 1}))
    assert cli.main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 0
    assert not data.load_dataset(out).split("val")
    return out


def _directory_as_spec(workdir, tmp_path):
    spec = tmp_path / "spec"
    spec.mkdir()
    return ["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")], spec


def _directory_as_image(workdir, tmp_path):
    """A copy of the dataset whose pixels.bin, the file of its images, is a
    directory."""
    root = tmp_path / "data"
    shutil.copytree(workdir["data"], root)
    (root / "pixels.bin").unlink()
    (root / "pixels.bin").mkdir()
    return (["eval", "--ckpt", str(workdir["tuned"]), "--data", str(root),
             "--out", str(tmp_path / "eval.csv")], root / "pixels.bin")


def _file_as_data_out(workdir, tmp_path):
    out = tmp_path / "d"
    out.write_text("")
    return ["gen-data", "--spec", str(workdir["spec"]), "--out", str(out)], out


def _file_as_ckpt_parent(workdir, tmp_path):
    parent = tmp_path / "afile"
    parent.write_text("")
    return (["pretrain", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
             "--out", str(parent / "dense.json")], parent)


@pytest.mark.parametrize("setup", [_directory_as_spec, _directory_as_image,
                                   _file_as_data_out, _file_as_ckpt_parent],
                         ids=["spec-dir", "image-dir", "data-out-file", "ckpt-parent-file"])
def test_unusable_path_is_data_error(workdir, tmp_path, capsys, setup):
    """A path that cannot be read or written exits 3 and names the path, not
    1 with an OSError traceback."""
    argv, path = setup(workdir, tmp_path)
    assert cli.main(argv) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err


class TestAffinity:
    def test_post_mode_csv(self, workdir, tmp_path):
        out = tmp_path / "aff.csv"
        rc = cli.main(["affinity", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "1",
                       "--mode", "post", "--out", str(out)])
        assert rc == 0
        values = read_affinity_csv(out)
        assert values.shape == (4, 2)
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-6)

    def test_post_mode_runs_the_library_protocol(self, workdir, tmp_path):
        """--mode post writes, byte for byte, the matrix affinity_post gives at
        its defaults: 50 batches of up to 128 images, seed 0."""
        out = tmp_path / "aff.json"
        argv = _argv(workdir, "affinity --mode post", out) + ["--format", "json"]
        assert cli.main(argv) == 0
        want = affinity.affinity_post(
            backbone.load_checkpoint(workdir["tuned"]),
            data.load_dataset(workdir["data"]).split("val"), 1,
            provenance={"checkpoint": str(workdir["tuned"]), "split": "val"})
        affinity.export_json(want, tmp_path / "want.json")
        assert out.read_bytes() == (tmp_path / "want.json").read_bytes()
        provenance = json.loads(out.read_text())["provenance"]
        assert (provenance["seed"], provenance["n_batches"], provenance["batch_size"]) == (
            0, 50, 128)

    def test_post_mode_into_missing_directory(self, workdir, tmp_path):
        out = tmp_path / "nodir" / "aff.csv"
        rc = cli.main(["affinity", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "1",
                       "--mode", "post", "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_figure_d_mode_svg(self, workdir, tmp_path):
        out = tmp_path / "aff.svg"
        rc = cli.main(["affinity", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "1",
                       "--mode", "figure-d", "--format", "svg",
                       "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count('class="cell"') == 4 * 2
        assert "temperature=0.001" in text

    @pytest.mark.parametrize("mode, expected", [("pre", 7), ("figure-d", 7), ("post", 0)])
    def test_provenance_records_the_seed_used(self, workdir, tmp_path, mode, expected):
        """pre and figure-d sample patches with router_init.seed; post
        samples batches with affinity_post's own seed."""
        out = tmp_path / "aff.json"
        argv = _argv(workdir, f"affinity --mode {mode}", out) + ["--format", "json"]
        if mode != "post":
            argv += ["--set", "router_init.seed=7"]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["provenance"]["seed"] == expected

    @pytest.mark.parametrize("no_val", [False, True], ids=["saved", "no-val"])
    def test_post_mode_records_the_split_sampled(self, workdir, tmp_path, no_val):
        """post samples val images, or train images where there are none, as
        with one image per class, and the export names the split it sampled."""
        data_dir = _no_val_data(tmp_path) if no_val else workdir["data"]
        out = tmp_path / "aff.json"
        argv = _argv(workdir, "affinity --mode post", out) + ["--format", "json"]
        argv[argv.index("--data") + 1] = str(data_dir)
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["provenance"]["split"] == (
            "train" if no_val else "val")

    def test_post_mode_records_router_temperature(self, workdir, tmp_path):
        """The post export records the temperature the router scored at, as
        the pre export does."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        manifest = json.loads(path.read_text())
        manifest["config"]["router_temperature"] = 2.0
        path.write_text(json.dumps(manifest))
        for mode in ("post", "pre"):
            out = tmp_path / f"{mode}.json"
            argv = _argv(workdir, f"affinity --mode {mode}", out) + ["--format", "json"]
            argv[argv.index("--ckpt") + 1] = str(path)
            assert cli.main(argv) == 0
            assert json.loads(out.read_text())["temperature"] == 2.0

    def test_non_moe_layer_rejected(self, workdir, tmp_path):
        rc = cli.main(["affinity", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "0",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DATA


def _exit_code(argv: list[str]) -> int:
    """cli.main's return code, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, extra, named", [
    pytest.param("affinity", ["--layer", "5"], "--layer 5 is out of range", id="layer-5"),
    pytest.param("affinity", ["--layer", "-1"], "--layer -1 is out of range", id="layer-neg1"),
    pytest.param("eval", ["--split", "nope"], "argument --split: invalid choice: 'nope'",
                 id="eval-split-nope"),
    # eval and affinity run at the library's batch sizes and affinity seed
    pytest.param("eval", ["--batch-size", "4"], "unrecognized arguments: --batch-size 4",
                 id="eval-batch-size"),
    *[pytest.param("affinity", ["--layer", "1", "--mode", mode, flag, value],
                   f"unrecognized arguments: {flag} {value}", id=f"{mode}-{flag[2:]}")
      for mode in ("post", "pre", "figure-d")
      for flag, value in (("--batches", "2"), ("--batch-size", "4"), ("--seed", "3"))],
])
def test_bad_argument_exits_usage(workdir, tmp_path, capsys, command, extra, named):
    """A bad or removed argument exits 2, the error names it, and nothing is
    written."""
    out = tmp_path / "x.csv"
    rc = _exit_code([command, "--ckpt", str(workdir["tuned"]),
                     "--data", str(workdir["data"]), "--out", str(out)] + extra)
    assert rc == cli.EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


class TestInspect:
    def test_counts_match_closed_form(self, workdir, capsys):
        assert cli.main(["inspect", "--ckpt", str(workdir["moe"])]) == 0
        out = capsys.readouterr().out
        assert "stage: moe" in out
        # d_model 16, d_ff 32, reduction 2: 16*16+16+16*16+16 + 16 + 1
        closed = 16 * 16 + 16 + 16 * 16 + 16 + 16 + 1
        assert closed == expert_init.per_expert_param_count(16, 32, 2)
        assert f"per-expert parameters {closed}, top_k 1," in out

    def test_gamma_per_expert(self, workdir, capsys):
        """A freshly moefied checkpoint holds every expert's initial gamma."""
        assert expert_init.GAMMA_INIT == 0.9
        assert cli.main(["inspect", "--ckpt", str(workdir["moe"])]) == 0
        assert "\nlayer 1: gamma per expert 0.9 0.9\n" in capsys.readouterr().out

    def test_dense_checkpoint(self, workdir, capsys):
        assert cli.main(["inspect", "--ckpt", str(workdir["dense"])]) == 0
        out = capsys.readouterr().out
        assert "stage: dense" in out
        assert "total parameters:" in out


class TestCheckpointErrors:
    """A checkpoint that cannot be loaded completely exits with EXIT_DATA."""

    @pytest.fixture
    def ckpt(self, workdir, tmp_path):
        for suffix in (".json", ".bin"):
            src = workdir["dense"].with_suffix(suffix)
            (tmp_path / f"dense{suffix}").write_bytes(src.read_bytes())
        return tmp_path / "dense.json"

    def test_intact_copy_loads(self, ckpt):
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == 0

    def test_blob_of_another_save(self, workdir, tmp_path, capsys):
        """A crash between a save's two moves leaves the new blob beside the
        old manifest. The fine-tuned blob has the moefied manifest's config,
        so every name and shape agrees; the manifest's blob_sha256 refuses it."""
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        blob = path.with_suffix(".bin")
        blob.write_bytes(workdir["tuned"].with_suffix(".bin").read_bytes())
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert f"{blob}: sha256 differs" in capsys.readouterr().err

    def test_missing_parameter(self, ckpt, capsys):
        manifest = json.loads(ckpt.read_text())
        manifest["params"] = [n for n in manifest["params"] if n != "head.w"]
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "head.w" in capsys.readouterr().err

    def test_uint8_record(self, ckpt, capsys):
        """A blob can hold uint8 (dataset pixels), but a parameter record
        rewritten as uint8, with blob_sha256 to match, exits 3 naming it."""
        manifest = json.loads(ckpt.read_text())
        blob = ckpt.with_suffix(".bin")
        with open(blob, "rb") as f:
            first = T.read_blob(f)
            rest = f.read()
        record = T.BLOB_MAGIC + struct.pack("<BB", 2, first.ndim) + b"".join(
            struct.pack("<Q", n) for n in first.shape) + bytes(first.size)
        blob.write_bytes(record + rest)
        manifest["blob_sha256"] = hashlib.sha256(record + rest).hexdigest()
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert f"{blob}: {manifest['params'][0]}: " in capsys.readouterr().err

    def test_truncated_blob(self, ckpt):
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-5])
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_truncated_blob_header(self, ckpt):
        """A cut inside the last record's header, found by reading the
        records before it."""
        manifest = json.loads(ckpt.read_text())
        blob = ckpt.with_suffix(".bin")
        with open(blob, "rb") as f:
            for _ in manifest["params"][:-1]:
                T.read_blob(f)
            last = f.tell()
        blob.write_bytes(blob.read_bytes()[:last + 9])
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_huge_extent(self, ckpt, capsys):
        """A record whose first extent is rewritten to 2**40 is found short
        before its payload is read, not by a 4 TB read that runs out of
        memory."""
        blob = ckpt.with_suffix(".bin")
        data = bytearray(blob.read_bytes())
        assert data[:8] == T.BLOB_MAGIC and data[9] >= 1  # rank >= 1
        data[10:18] = struct.pack("<Q", 2**40)
        blob.write_bytes(bytes(data))
        with pytest.raises(backbone.CheckpointError, match="truncated tensor blob"):
            backbone.load_checkpoint(ckpt)
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "truncated tensor blob" in capsys.readouterr().err

    def test_trailing_bytes(self, ckpt, capsys):
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes() + bytes(700))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "after the last parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["inspect", "eval"])
    @pytest.mark.parametrize("suffix", [".json", ".bin"], ids=["manifest", "blob"])
    def test_directory_in_place_of_a_file(self, ckpt, workdir, tmp_path, capsys,
                                          suffix, command):
        """A directory where the manifest or its blob should be exits 3 and
        names the path, not an IsADirectoryError traceback."""
        target = ckpt.with_suffix(suffix)
        target.unlink()
        target.mkdir()
        with pytest.raises(backbone.CheckpointError, match=f"cannot open .*{target}"):
            backbone.load_checkpoint(ckpt)
        argv = {"inspect": ["inspect", "--ckpt", str(ckpt)],
                "eval": ["eval", "--ckpt", str(ckpt), "--data", str(workdir["data"]),
                         "--out", str(tmp_path / "eval.csv")]}[command]
        assert cli.main(argv) == cli.EXIT_DATA
        assert str(target) in capsys.readouterr().err

    def test_malformed_manifest(self, ckpt):
        ckpt.write_text('{"stage": "dense", ')
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_blob_as_manifest(self, ckpt, capsys):
        """The blob's bytes are not UTF-8: a --ckpt naming it exits 3."""
        blob = ckpt.with_suffix(".bin")
        assert cli.main(["inspect", "--ckpt", str(blob)]) == cli.EXIT_DATA
        assert f"malformed checkpoint manifest {blob}" in capsys.readouterr().err

    def test_missing_config(self, ckpt, capsys):
        manifest = json.loads(ckpt.read_text())
        del manifest["config"]
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda names: names.insert(4, names.pop(3)), "layer0.ln1.gain"),
        (lambda names: names.insert(4, names[3]), "layer0.ln1.gain"),
        (lambda names: names.__setitem__(3, 3), "lists 3 where")],
        ids=["reordered", "repeated", "non-string"])
    def test_bad_name_list(self, ckpt, capsys, edit, named):
        """`params` must be the model's names in blob order: a reordered or
        repeated name, or a non-string, is refused and named."""
        manifest = json.loads(ckpt.read_text())
        assert manifest["params"][3:5] == ["layer0.ln1.gain", "layer0.ln1.bias"]
        edit(manifest["params"])
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    def test_config_disagrees_with_weights(self, ckpt, capsys):
        """The config, not the manifest's shape list, says what each stored
        array must be: a d_ff of 16 over 32-wide MLP weights is refused."""
        manifest = json.loads(ckpt.read_text())
        manifest["config"]["d_ff"] = 16
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "shape mismatch for layer0.mlp.w1" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("patch_size", 5), ("activation", "foo"), ("dropout", 1.0), ("top_k", 5),
        ("router_temperature", 0.0), ("router_temperature", float("inf")),
        ("reduction_factor", 3), ("moe_layers", [1, 1]),
        # each value of the wrong type, though int() or a comparison would take it
        ("moe_layers", [1.5]), ("moe_layers", "1"), ("moe_layers", [True]),
        ("top_k", True), ("d_model", 16.0), ("dropout", False),
        ("router_temperature", "1.0"), ("gate_mode", 1),
        # settings that are now the constants backbone.N_PX and backbone.HEADS
        ("n_px", 4), ("heads", 2)])
    def test_rejected_config(self, ckpt, capsys, key, value):
        """A config value the model cannot run with, of the wrong type, or
        under a key that is no setting exits 3 naming the key."""
        manifest = json.loads(ckpt.read_text())
        manifest["config"][key] = value
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert key in capsys.readouterr().err


class TestLoadedRouterValidation:
    """Centroids read from a checkpoint pass the same checks as a new Router."""

    def write_moe_with_centroid_row(self, workdir, tmp_path, row):
        model = backbone.load_checkpoint(workdir["moe"])
        model.layers[1].mlp.router.centroids.data[0] = row
        path = tmp_path / "bad.json"
        backbone.save_checkpoint(model, path)
        return path

    @pytest.mark.parametrize("edit, named", [
        (lambda entries: entries["1"].pop("scaler"), "'scaler'"),
        (lambda entries: entries.update({"-1": entries.pop("1")}), "MoE entry '-1'"),
        (lambda entries: entries.update({"01": entries["1"]}), "MoE entry '01'")],
        ids=["missing-scaler", "negative-layer", "zero-padded-layer"])
    def test_bad_moe_entry(self, workdir, tmp_path, capsys, edit, named):
        """Each entry's key is exactly a layer of the config's moe_layers, so
        "01" cannot stand in for, or override, layer 1's entry."""
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        manifest = json.loads(path.read_text())
        edit(manifest["moe"])
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("moe_layers", [0]), ("experts", 3)],
                             ids=["moe_layers", "experts"])
    @pytest.mark.parametrize("command", ["inspect", "eval"])
    def test_layout_disagrees_with_entries(self, workdir, tmp_path, capsys, command,
                                           key, value):
        """The config's moe_layers and experts are the one source of the MoE
        layout: an entry at another layer, or with another E, is refused."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        manifest = json.loads(path.read_text())
        manifest["config"][key] = value
        path.write_text(json.dumps(manifest))
        argv = [command, "--ckpt", str(path)]
        if command == "eval":
            argv += ["--data", str(workdir["data"]), "--out", str(tmp_path / "e.csv")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "the config's" in capsys.readouterr().err

    def test_scaler_channels_must_match_centroids(self, workdir, tmp_path, capsys):
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        manifest = json.loads(path.read_text())
        manifest["moe"]["1"]["scaler"]["min"].pop()
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "scaler min and max must each hold 16 channels" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, named", [
        (lambda m: m["moe"]["1"]["scaler"]["min"].__setitem__(0, float("nan")),
         "scaler min and max must be finite"),
        (lambda m: m["moe"]["1"]["scaler"]["max"].__setitem__(0, float("-inf")),
         "scaler min and max must be finite"),
        (lambda m: m["moe"]["1"]["scaler"]["max"].__setitem__(
            0, m["moe"]["1"]["scaler"]["min"][0] - 1.0), "with max >= min"),
        (lambda m: m.__setitem__("finetuned", "maybe"), "finetuned must be true or false"),
        (lambda m: m["moe"]["1"].__setitem__("source_dense_hash", [1, 2]),
         "source_dense_hash must be a string"),
        (lambda m: m.__setitem__("moe", []), "'list' object has no attribute 'items'")],
        ids=["nan-min", "neg-inf-max", "max-below-min", "finetuned", "source-hash",
             "moe-list"])
    def test_bad_manifest_value(self, workdir, tmp_path, capsys, edit, named):
        """Every value the loader accepts is checked, not only its key."""
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_bad_centroid_row(self, workdir, tmp_path, capsys, value):
        path = self.write_moe_with_centroid_row(workdir, tmp_path, value)
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "centroid rows" in capsys.readouterr().err


def _copy_checkpoint(src, dst):
    dst.write_text(src.read_text())
    dst.with_suffix(".bin").write_bytes(src.with_suffix(".bin").read_bytes())
    return dst


class TestManifestKeys:
    """A checkpoint manifest carries nothing the loader ignores: deleting any
    one key of a fresh MoE checkpoint makes it unloadable."""

    TOP = ["blob_sha256", "config", "finetuned", "moe", "params"]
    CONFIG = [f.name for f in dataclasses.fields(backbone.ModelConfig)]
    ENTRY = ["scaler", "source_dense_hash"]

    def test_keys_are_all_listed(self, workdir):
        manifest = json.loads(workdir["moe"].read_text())
        assert sorted(manifest) == self.TOP
        assert manifest["blob_sha256"] == hashlib.sha256(
            workdir["moe"].with_suffix(".bin").read_bytes()).hexdigest()
        assert sorted(manifest["config"]) == sorted(self.CONFIG)
        assert manifest["params"] == list(backbone.load_checkpoint(workdir["moe"])
                                          .named_parameters())
        assert sorted(manifest["moe"]["1"]) == self.ENTRY

    @pytest.mark.parametrize("where, key", [("top", k) for k in TOP]
                             + [("config", k) for k in CONFIG]
                             + [("entry", k) for k in ENTRY])
    def test_deleting_any_key_is_data_error(self, workdir, tmp_path, where, key):
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        manifest = json.loads(path.read_text())
        holder = {"top": manifest, "config": manifest["config"],
                  "entry": manifest["moe"]["1"]}[where]
        del holder[key]
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA

    def test_manifest_without_blob_digest_exits_data(self, workdir, tmp_path, capsys):
        """Manifests written before the blob digest was recorded lack it:
        they exit 3 with a message that names the key."""
        path = _copy_checkpoint(workdir["moe"], tmp_path / "moe.json")
        manifest = json.loads(path.read_text())
        del manifest["blob_sha256"]
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "'blob_sha256'" in capsys.readouterr().err


class TestOlderManifests:
    """There is one checkpoint format. Keys that older versions wrote beside
    it (`stage`, per-layer router settings, per-expert `indices`) are
    ignored, and the config wins where the copies disagree. Older forms of
    a key the loader reads exit 3 with a message that names it: `params`
    records, a config `activation`, experts stored one by one (with or
    without their own layer norm), and attention parameters from when
    attention was global."""

    def logits(self, path, images):
        return backbone.load_checkpoint(path).forward(images).logits.data

    def test_older_keys_ignored(self, workdir, tmp_path, capsys):
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        images = np.stack([im.pixels for im in data.load_dataset(workdir["data"]).images[:8]])
        expected = self.logits(path, images)
        manifest = json.loads(path.read_text())
        manifest["stage"] = "moe"
        manifest["moe"]["1"].update(experts=2, top_k=1, temperature=1.0, gate_mode="renorm")
        # each expert's 16 of 32 dense hidden units, as the previous version listed them
        manifest["moe"]["1"]["indices"] = [list(range(0, 32, 2)), list(range(1, 32, 2))]
        path.write_text(json.dumps(manifest))
        assert self.logits(path, images).tobytes() == expected.tobytes()
        manifest["stage"] = "dense"
        manifest["moe"]["1"].update(experts=5, top_k=2, temperature=0.5, gate_mode="raw")
        path.write_text(json.dumps(manifest))
        model = backbone.load_checkpoint(path)
        assert list(model.moe_blocks()) == [1]
        router = model.layers[1].mlp.router
        assert (router.top_k, router.temperature, router.gate_mode) == (1, 1.0, "renorm")
        result = model.forward(images)
        assert result.routing[1].indices.shape[-1] == 1
        assert result.logits.data.tobytes() == expected.tobytes()
        assert cli.main(["inspect", "--ckpt", str(path)]) == 0
        out = capsys.readouterr().out
        assert "layer 1: experts 2," in out and "top_k 1," in out

    def test_older_param_records(self, workdir, tmp_path, capsys):
        """Older manifests list {name, shape, offset} records in blob order;
        they exit 3 with a message that names the first record."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        manifest = json.loads(path.read_text())
        records, offset = [], 0
        with open(path.with_suffix(".bin"), "rb") as f:
            for name in manifest["params"]:
                shape = list(T.read_blob(f).shape)
                records.append({"name": name, "shape": shape, "offset": offset})
                offset = f.tell()
        manifest["params"] = records
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "lists {'name': 'embed.w', " in capsys.readouterr().err

    @pytest.mark.parametrize("activation", ["silu", "gelu"])
    def test_older_activation_key(self, workdir, tmp_path, capsys, activation):
        """Older configs record the MLP activation, which is always SiLU: a
        config with the key exits 3 with a message that names it, whatever
        its value."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        manifest = json.loads(path.read_text())
        assert "activation" not in manifest["config"]
        manifest["config"]["activation"] = activation
        path.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "'activation'" in capsys.readouterr().err

    @staticmethod
    def per_expert_checkpoint(path, norms=False):
        """Rewrite the MoE checkpoint at `path` in the per-expert layout that
        preceded the stacked one: each expert's six arrays as records of
        their own, layerN.moe.expertE.w1 and so on, each w1 preceded by the
        expert's own MLP-input norm (expertE.ln.gain, ln.bias) if `norms`."""
        manifest = json.loads(path.read_text())
        d = manifest["config"]["d_model"]
        with open(path.with_suffix(".bin"), "rb") as f:
            arrays = [T.read_blob(f) for _ in manifest["params"]]
        names = []
        with open(path.with_suffix(".bin"), "wb") as f:
            for name, arr in zip(manifest["params"], arrays):
                prefix, _, kind = name.rpartition(".")
                if not (prefix.endswith(".moe") and kind in moe.EXPERT_WEIGHTS):
                    names.append(name)
                    T.write_blob(f, arr)
                    continue
                for e, row in enumerate(arr):
                    if norms and kind == "w1":
                        for suffix, value in (("ln.gain", np.ones(d)), ("ln.bias", np.zeros(d))):
                            names.append(f"{prefix}.expert{e}.{suffix}")
                            T.write_blob(f, value.astype(arr.dtype))
                    names.append(f"{prefix}.expert{e}.{kind}")
                    T.write_blob(f, row)
        manifest["params"] = names
        path.write_text(json.dumps(manifest))

    def test_older_per_expert_weights(self, workdir, tmp_path, capsys):
        """Experts were once stored one by one, layerN.moe.expertE.w1 and so
        on, before one stacked array per kind. Such an MoE checkpoint exits 3
        naming the first, under every command that loads one."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        self.per_expert_checkpoint(path)
        data_args = ["--data", str(workdir["data"])]
        for argv in (["inspect"], ["eval", *data_args, "--out", str(tmp_path / "e.csv")],
                     ["affinity", *data_args, "--layer", "1", "--out", str(tmp_path / "a.csv")],
                     ["finetune", "--config", str(workdir["config"]), *data_args,
                      "--out", str(tmp_path / "x.json")]):
            assert cli.main([argv[0], "--ckpt", str(path), *argv[1:]]) == cli.EXIT_DATA, argv
            assert "lists 'layer1.moe.expert0.w1'" in capsys.readouterr().err, argv

    def test_older_expert_layer_norms(self, workdir, tmp_path, capsys):
        """Before that, experts carried their own copy of the MLP-input norm,
        stored as expertE.ln.gain and ln.bias before each expert's w1. Such
        an MoE checkpoint exits 3 naming the first one."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        self.per_expert_checkpoint(path, norms=True)
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "'layer1.moe.expert0.ln.gain'" in capsys.readouterr().err

    def test_older_global_attention(self, workdir, tmp_path, capsys):
        """Attention was once global over all (patch, pixel) tokens, with
        parameters of the same shapes stored as attn.*. Such a checkpoint
        would compute another function, so it exits 3 naming the first."""
        path = _copy_checkpoint(workdir["tuned"], tmp_path / "tuned.json")
        manifest = json.loads(path.read_text())
        assert "layer0.pxattn.wq" in manifest["params"]
        manifest["params"] = [n.replace(".pxattn.", ".attn.") for n in manifest["params"]]
        path.write_text(json.dumps(manifest))
        with pytest.raises(backbone.CheckpointError, match="'layer0.attn.wq'"):
            backbone.load_checkpoint(path)
        argv = ["eval", "--ckpt", str(path), "--data", str(workdir["data"]),
                "--out", str(tmp_path / "eval.json")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "'layer0.attn.wq'" in capsys.readouterr().err


class TestEmptyClass:
    """A dataset whose class 2 holds no image pretrains, but selecting
    router patches needs train images of every class."""

    @pytest.fixture(scope="class")
    def empty_class(self, workdir, tmp_path_factory):
        """The data directory and a dense checkpoint pretrained on it."""
        root = tmp_path_factory.mktemp("empty_class")
        full = data.load_dataset(workdir["data"])
        data.save_dataset(data.Dataset([im for im in full.images if im.class_id != 2],
                                       full.class_names, full.families), root / "data")
        assert data.load_dataset(root / "data").num_classes == 4
        dense = root / "dense.json"
        assert cli.main(["pretrain", "--config", str(workdir["config"]),
                         "--data", str(root / "data"), "--out", str(dense)]) == 0
        return root / "data", dense

    @pytest.mark.parametrize("command", ["moefy --set router_init.mode=cluster",
                                         "moefy --set router_init.mode=random",
                                         "affinity --mode pre"],
                             ids=["moefy-cluster", "moefy-random", "affinity-pre"])
    def test_exits_data(self, workdir, empty_class, tmp_path, capsys, command):
        data_dir, dense = empty_class
        out = tmp_path / "out.json"
        argv = [*command.split(), "--config", str(workdir["config"]),
                "--data", str(data_dir), "--out", str(out)]
        if command.startswith("affinity"):
            argv += ["--ckpt", str(workdir["tuned"]), "--layer", "1"]
        else:
            argv += ["--ckpt", str(dense)]
        assert cli.main(argv) == cli.EXIT_DATA
        assert "class 2 has no training samples" in capsys.readouterr().err
        assert not out.exists()


def test_failed_save_keeps_old_checkpoint(workdir, tmp_path, monkeypatch):
    """save_checkpoint moves its files into place only after both are
    written, so a save that fails partway leaves the old checkpoint."""
    path = _copy_checkpoint(workdir["moe"], tmp_path / "ckpt.json")
    images = np.stack([im.pixels for im in data.load_dataset(workdir["data"]).images[:8]])
    expected = backbone.load_checkpoint(path).forward(images).logits.data
    tuned = backbone.load_checkpoint(workdir["tuned"])
    write_blob, calls = T.write_blob, []

    def failing(f, arr):
        calls.append(1)
        if len(calls) == 5:
            raise OSError("disk full")
        return write_blob(f, arr)

    monkeypatch.setattr(T, "write_blob", failing)
    with pytest.raises(OSError, match="disk full"):
        backbone.save_checkpoint(tuned, path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]
    after = backbone.load_checkpoint(path).forward(images).logits.data
    assert after.tobytes() == expected.tobytes()
    assert not np.array_equal(after, tuned.forward(images).logits.data)


class Unwritable:
    """A value no writer can format: json.dump, float() and repr() fail."""

    def __repr__(self):
        raise RuntimeError("unwritable")


def _poisoned_matrix(**kwargs):
    """A 2 x 2 affinity matrix whose second entry cannot be written."""
    matrix = affinity.AffinityMatrix(np.eye(2), "pre_init", 1.0, 0.0, **kwargs)
    matrix.values = np.array([[0.5, Unwritable()], [0.0, 1.0]], dtype=object)
    return matrix


def _artifact_writers():
    """name -> a call that writes an artifact at `path` and raises partway."""
    row = {"epoch": 1, "split": "train", "loss": 0.5, "top1": 1.0}
    return {
        "run_manifest": lambda path: cli.write_run_manifest(
            path, "pretrain", {"seed": {"seed": 0}}, {"z": Unwritable()}),
        "metrics_csv": lambda path: training.write_metrics_csv([row, {"epoch": 2}], [], path),
        "affinity_csv": lambda path: affinity.export_csv(_poisoned_matrix(), path),
        "affinity_json": lambda path: affinity.export_json(
            affinity.AffinityMatrix(np.eye(2), "pre_init", 1.0, 0.0,
                                    provenance={"z": Unwritable()}), path),
        "affinity_svg": lambda path: affinity.export_svg(_poisoned_matrix(), path),
        "dataset_manifest": lambda path: data.save_dataset(
            data.Dataset([data.LabeledImage(np.zeros((8, 8, 3), np.uint8), 0, "train")],
                         ["a"], seed=Unwritable()), path.parent),
    }


@pytest.mark.parametrize("writer", sorted(_artifact_writers()))
def test_failed_artifact_write_keeps_the_old_file(tmp_path, writer):
    """Each artifact is written through a temporary file: a write that
    raises partway leaves the previous file byte-identical and no .tmp."""
    path = tmp_path / "manifest.json"
    path.write_bytes(b"previous artifact\n")
    with pytest.raises((KeyError, RuntimeError, TypeError)):
        _artifact_writers()[writer](path)
    assert path.read_bytes() == b"previous artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_failed_eval_csv_write_keeps_the_old_file(workdir, tmp_path, monkeypatch):
    out = tmp_path / "eval.csv"
    out.write_bytes(b"previous artifact\n")
    result = training.EvalResult(loss=Unwritable(), top1=1.0, per_class={},
                                 predictions=np.zeros(0))
    monkeypatch.setattr(training, "evaluate", lambda *args, **kwargs: result)
    with pytest.raises(RuntimeError, match="unwritable"):
        cli.main(["eval", "--ckpt", str(workdir["tuned"]), "--data", str(workdir["data"]),
                  "--out", str(out)])
    assert out.read_bytes() == b"previous artifact\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]


# The config sections each command reads.
READS = {
    "pretrain": {"model", "moe", "optim", "augment", "seed"},
    "moefy": {"router_init"},
    "finetune": {"optim", "augment", "seed"},
    "affinity --mode pre": {"router_init"},
    "affinity --mode figure-d": {"router_init"},
    "affinity --mode post": set(),
}
# one valid override per section
OVERRIDE = {"model": "model.dropout=0.5", "moe": "moe.experts=2",
            "router_init": "router_init.seed=1", "optim": "optim.epochs=2",
            "augment": "augment.hflip_p=0.0", "seed": "seed.seed=7"}


# Removed [section] keys: (command, section.key, a value), each given as a
# --set and as a line of the file.
REMOVED_KEYS = [
    ("pretrain", "optim.betas", "1.0,0.99"), ("pretrain", "optim.betas", "0.9,-0.1"),
    ("pretrain", "optim.betas", "0.9"), ("pretrain", "optim.wd_classifier", "-1"),
    ("finetune", "optim.wd_other", "nan"), ("finetune", "optim.eps", "-1"),
    ("finetune", "optim.eps", "0"), ("moefy", "router_init.refine_temperature", "0"),
    ("moefy", "router_init.refine_threshold", "0.05"), ("moefy", "router_init.refine", "true"),
    # constants now: backbone.N_PX, backbone.HEADS, router_init.REFINE_STEPS and
    # router_init.default_scales
    ("pretrain", "model.n_px", "4"), ("pretrain", "model.heads", "2"),
    ("moefy", "router_init.refine_steps", "5"), ("affinity --mode pre", "router_init.scales", "5")]
# Removed affinity flags: (mode, flag, value)
REMOVED_FLAGS = [("pre", "--temperature", "0"), ("post", "--temperature", "5"),
                 ("post", "--threshold", "0.9"), ("figure-d", "--temperature", "5"),
                 ("figure-d", "--threshold", "0.9")]
# (command, the extra arguments or ("file", section, line), what the error names)
REMOVED_SETTINGS = [
    pytest.param("pretrain", ["--set", "data.seed=1"], "data.seed", id="data-section"),
    pytest.param("pretrain", ["--set", "model.num_classes=5"], "model.num_classes",
                 id="model-num-classes"),
    pytest.param("moefy", ["--seed", "1"], "--seed", id="moefy-seed"),
    pytest.param("pretrain", ["--set", "model.activation=silu"], "model.activation",
                 id="model-activation"),
    *[pytest.param(command, ["--set", f"{entry}={value}"], entry, id=f"set-{entry}={value}")
      for command, entry, value in REMOVED_KEYS],
    *[pytest.param(command, ["file", entry.split(".")[0], f"{entry.split('.')[1]} = {value}"],
                   f"unknown key '{entry.split('.')[1]}'", id=f"file-{entry}={value}")
      for command, entry, value in REMOVED_KEYS],
    *[pytest.param(f"affinity --mode {mode}", [flag, value], flag, id=f"{mode}{flag}")
      for mode, flag, value in REMOVED_FLAGS],
]


def _argv(workdir, command, out):
    """A valid invocation of `command` with the all-sections config file."""
    argv = [*command.split(), "--config", str(workdir["config"]),
            "--data", str(workdir["data"]), "--out", str(out)]
    if command.startswith("affinity"):
        argv += ["--ckpt", str(workdir["tuned"]), "--layer", "1"]
    elif command != "pretrain":
        argv += ["--ckpt", str(workdir["dense" if command == "moefy" else "moe"])]
    return argv


class TestRunConfigSections:
    def test_schema_derived_from_config_classes(self):
        expected = {s: dict(keys) for s, keys in HAND_WRITTEN_CONFIG_SCHEMA.items()
                    if s != "data"}
        del expected["model"]["num_classes"]
        del expected["model"]["activation"]  # the MLP activation is always SiLU
        assert cli.CONFIG_SCHEMA == expected

    @pytest.mark.parametrize("command, section", [
        (command, section) for command, reads in READS.items()
        for section in sorted(set(OVERRIDE) - reads)])
    def test_override_of_unread_section_exits_usage(self, workdir, tmp_path, capsys,
                                                    command, section):
        out = tmp_path / "out" / "x.json"
        argv = _argv(workdir, command, out) + ["--set", OVERRIDE[section]]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()
        assert f"does not read [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(READS))
    def test_all_sections_file_accepted(self, workdir, tmp_path, command):
        """One file serves every command; a run manifest records only the
        sections its command read."""
        out = tmp_path / "out" / "x.json"
        assert cli.main(_argv(workdir, command, out)) == 0
        assert out.exists()
        if not command.startswith("affinity"):
            run = json.loads(out.with_suffix(".run.json").read_text())
            assert set(run["config"]) == READS[command]

    @pytest.mark.parametrize("mode", ["pre", "figure-d"])
    @pytest.mark.parametrize("override", ["router_init.mode=random"])
    def test_override_of_unread_router_init_key_exits_usage(self, workdir, tmp_path, capsys,
                                                            mode, override):
        """affinity --mode pre/figure-d select patches only: the router_init
        keys that matter to build_router alone would change nothing."""
        command = f"affinity --mode {mode}"
        out = tmp_path / "out" / "x.json"
        assert cli.main(_argv(workdir, command, out) + ["--set", override]) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()
        assert f"{command} does not read {override.split('=')[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["pre", "figure-d"])
    def test_unread_router_init_keys_in_file_skipped(self, workdir, tmp_path, mode):
        config = tmp_path / "build.ini"
        config.write_text(workdir["config"].read_text().replace(
            "[router_init]\n", "[router_init]\nmode = random\n"))
        command = f"affinity --mode {mode}"
        plain, built = tmp_path / "plain.json", tmp_path / "built.json"
        assert cli.main(_argv(workdir, command, plain)) == 0
        argv = _argv(workdir, command, built)
        argv[argv.index("--config") + 1] = str(config)
        assert cli.main(argv) == 0
        assert built.read_bytes() == plain.read_bytes()
        bad = tmp_path / "bad.ini"
        bad.write_text(config.read_text().replace("top_k_patches = 16", "top_k_patches = many"))
        argv[argv.index("--config") + 1] = str(bad)
        assert cli.main(argv) == cli.EXIT_USAGE

    def test_moefy_manifest_holds_router_init_only(self, workdir):
        run = json.loads(workdir["moe"].with_suffix(".run.json").read_text())
        assert list(run["config"]) == ["router_init"]
        assert run["config"]["router_init"] == {"top_k_patches": 16, "samples_per_class": 2,
                                                "mode": "cluster", "seed": 0}

    @pytest.mark.parametrize("command, extra, named", REMOVED_SETTINGS)
    def test_removed_settings_exit_usage(self, workdir, tmp_path, capsys, command, extra,
                                         named):
        """A setting that is not one (any more) is refused by name, as a
        --set, a line of the config file or a flag."""
        out = tmp_path / "out" / "x.json"
        argv = _argv(workdir, command, out)
        if extra[0] == "file":
            _, section, line = extra
            config = tmp_path / "run.ini"
            config.write_text(workdir["config"].read_text().replace(
                f"[{section}]\n", f"[{section}]\n{line}\n"))
            argv[argv.index("--config") + 1] = str(config)
        else:
            argv += extra
        assert _exit_code(argv) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command, value, message", [
        ("pretrain", "7", "pretrain does not read optim.lr_moe (it reads optim.lr_classifier,"),
        ("finetune", "nan", "learning rates must be finite and >= 0")],
        ids=["pretrain", "finetune"])
    def test_lr_moe_override(self, workdir, tmp_path, capsys, command, value, message):
        """finetune trains the MoE layers at lr_moe and checks it; a dense
        model has no MoE parameter, so pretrain does not read it."""
        out = tmp_path / "out" / "x.json"
        argv = _argv(workdir, command, out) + ["--set", f"optim.lr_moe={value}"]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    def test_lr_moe_in_file_skipped_by_pretrain(self, workdir, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(workdir["config"].read_text().replace(
            "[optim]\n", "[optim]\nlr_moe = 7\n"))
        out = tmp_path / "dense.json"
        argv = _argv(workdir, "pretrain", out)
        argv[argv.index("--config") + 1] = str(config)
        assert cli.main(argv) == 0
        assert (out.with_suffix(".bin").read_bytes()
                == workdir["dense"].with_suffix(".bin").read_bytes())
        for run in (out, workdir["dense"]):
            optim = json.loads(run.with_suffix(".run.json").read_text())["config"]["optim"]
            assert "lr_moe" not in optim and optim["lr_rest"] == 5e-5
        tuned = json.loads(workdir["tuned"].with_suffix(".run.json").read_text())
        assert tuned["config"]["optim"]["lr_moe"] == 0.005

    def test_activation_in_file_exits_usage(self, workdir, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(CONFIG_INI.replace("[model]\n", "[model]\nactivation = silu\n"))
        out = tmp_path / "out" / "x.json"
        assert cli.main(["pretrain", "--config", str(config), "--data", str(workdir["data"]),
                         "--out", str(out)]) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()
        assert "unknown key 'activation'" in capsys.readouterr().err


def test_inspect_expert_width_from_config(workdir, tmp_path, capsys):
    """Each expert holds d_ff // reduction_factor hidden dims; a config whose
    reduction_factor disagrees with the stored expert weights is a
    checkpoint error."""
    model = backbone.load_checkpoint(workdir["dense"])
    model.config = dataclasses.replace(model.config, reduction_factor=1)
    params = router_init.RouterInitParams(top_k_patches=16, samples_per_class=2)
    build = router_init.build_router(model, data.load_dataset(workdir["data"]), 1, 2,
                                     params)
    expert_init.moefy_layer(model, 1, build.router)
    path = tmp_path / "whole.json"
    backbone.save_checkpoint(model, path)
    assert cli.main(["inspect", "--ckpt", str(path)]) == 0
    out = capsys.readouterr().out
    # d_model 16 and d_e = d_ff = 32: 16*32+32+32*16+16 + 16 + 1
    per = 16 * 32 + 32 + 32 * 16 + 16 + 16 + 1
    assert per == expert_init.per_expert_param_count(16, 32, 1)
    line = f"layer 1: experts 2, d_e 32, per-expert parameters {per}, top_k 1,"
    assert line in out
    manifest = json.loads(path.read_text())
    assert "reduction_factor" not in manifest["moe"]["1"]
    manifest["moe"]["1"]["reduction_factor"] = 2  # written by older versions, ignored
    path.write_text(json.dumps(manifest))
    assert cli.main(["inspect", "--ckpt", str(path)]) == 0
    assert line in capsys.readouterr().out

    # a config whose factor disagrees with the saved experts' 32 hidden units
    path.write_text(json.dumps({**manifest,
                                "config": dict(manifest["config"], reduction_factor=2)}))
    assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
    assert "reduction_factor" in capsys.readouterr().err

"""CLI subcommands, config resolution, exit codes, and pipeline smoke."""

import json

import numpy as np
import pytest

from patchmoe import backbone, cli, training

SPEC = {"num_classes": 4, "num_families": 2, "image_size": 32,
        "images_per_class": 5, "fg_patch_cells": 2, "seed": 11}

CONFIG_INI = """\
[model]
image_size = 32
patch_size = 8
d_model = 16
d_ff = 32
layers = 2
heads = 2
dropout = 0.0

[moe]
moe_layers = 1
experts = 2

[router_init]
top_k_patches = 16
samples_per_class = 2
scales = 32

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
        assert resolved["optim"]["betas"] == (0.9, 0.99)
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

    def test_bool_coercion(self):
        resolved = cli.load_run_config(None, ["router_init.refine=true"])
        assert resolved["router_init"]["refine"] is True
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["router_init.refine=maybe"])

    def test_missing_file_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config("/nonexistent/run.ini")

    def test_uncoercible_value_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["optim.epochs=abc"])
        with pytest.raises(cli.ConfigError):
            cli.load_run_config(None, ["moe.moe_layers=1,x"])

    @pytest.mark.parametrize("override", ["optim.epochs=abc", "model.patch_size=5",
                                          "optim.batch_size=0",
                                          "augment.classifier_dropout=0.3"])
    def test_bad_override_exits_usage(self, workdir, tmp_path, override):
        rc = cli.main(["pretrain", "--config", str(workdir["config"]),
                       "--data", str(workdir["data"]), "--set", override,
                       "--out", str(tmp_path / "ckpt" / "dense.json")])
        assert rc == cli.EXIT_USAGE
        assert not (tmp_path / "ckpt").exists()


class TestGenData:
    def test_writes_manifest_and_ppms(self, workdir):
        data_dir = workdir["data"]
        assert (data_dir / "manifest.json").exists()
        assert list(data_dir.rglob("*.ppm"))

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

    def test_pretrain_artifacts(self, workdir):
        dense = workdir["dense"]
        assert dense.exists() and dense.with_suffix(".bin").exists()
        assert dense.with_suffix(".metrics.csv").exists()
        run = json.loads(dense.with_suffix(".run.json").read_text())
        assert run["command"] == "pretrain"
        assert run["config"]["optim"]["epochs"] == 1
        model = backbone.load_checkpoint(dense)
        assert model.stage == "dense"

    def test_moefy_artifacts(self, workdir):
        model = backbone.load_checkpoint(workdir["moe"])
        assert model.stage == "moe"
        run = json.loads(workdir["moe"].with_suffix(".run.json").read_text())
        assert run["routers"]["1"]["experts"] == 2
        assert run["routers"]["1"]["mode"] == "cluster"

    def test_finetune_artifacts(self, workdir):
        model = backbone.load_checkpoint(workdir["tuned"])
        assert model.stage == "moe"
        assert model.finetuned

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
        "router_init.refine_temperature=0"])
    def test_bad_router_init_exits_usage(self, workdir, tmp_path, override):
        out = tmp_path / "x.json"
        rc = cli.main(["moefy", "--config", str(workdir["config"]),
                       "--ckpt", str(workdir["dense"]), "--data", str(workdir["data"]),
                       "--set", override, "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

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

    def test_empty_split_is_data_error(self, workdir, tmp_path):
        rc = cli.main(["eval", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--split", "nope",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_DATA


class TestAffinity:
    def test_post_mode_csv(self, workdir, tmp_path):
        out = tmp_path / "aff.csv"
        rc = cli.main(["affinity", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "1",
                       "--mode", "post", "--batches", "2", "--batch-size", "4",
                       "--out", str(out)])
        assert rc == 0
        from patchmoe import affinity as affinity_mod
        values = affinity_mod.read_csv(out)
        assert values.shape == (4, 2)
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-6)

    def test_post_mode_into_missing_directory(self, workdir, tmp_path):
        out = tmp_path / "nodir" / "aff.csv"
        rc = cli.main(["affinity", "--ckpt", str(workdir["tuned"]),
                       "--data", str(workdir["data"]), "--layer", "1",
                       "--mode", "post", "--batches", "1", "--batch-size", "4",
                       "--out", str(out)])
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


@pytest.mark.parametrize("command, extra", [
    ("affinity", ["--layer", "5"]),
    ("affinity", ["--layer", "-1"]),
    ("affinity", ["--layer", "1", "--batch-size", "0"]),
    ("affinity", ["--layer", "1", "--batches", "0"]),
    ("affinity", ["--layer", "1", "--mode", "pre", "--temperature", "0"]),
    ("eval", ["--batch-size", "0"]),
], ids=["layer-5", "layer-neg1", "affinity-batch-size-0", "batches-0",
        "temperature-0", "eval-batch-size-0"])
def test_bad_argument_exits_usage(workdir, tmp_path, command, extra):
    out = tmp_path / "x.csv"
    rc = _exit_code([command, "--ckpt", str(workdir["tuned"]),
                     "--data", str(workdir["data"]), "--out", str(out)] + extra)
    assert rc == cli.EXIT_USAGE
    assert not out.exists()


class TestInspect:
    def test_counts_match_closed_form(self, workdir, capsys):
        assert cli.main(["inspect", "--ckpt", str(workdir["moe"])]) == 0
        out = capsys.readouterr().out
        assert "stage: moe" in out
        # d_model 16, d_ff 32, reduction 2: 16*16+16+16*16+16 + 32 + 16 + 1
        closed = 16 * 16 + 16 + 16 * 16 + 16 + 2 * 16 + 16 + 1
        assert f"per-expert parameters {closed} (closed form {closed})" in out

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

    def test_missing_parameter(self, ckpt, capsys):
        manifest = json.loads(ckpt.read_text())
        manifest["params"] = [e for e in manifest["params"] if e["name"] != "head.w"]
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "head.w" in capsys.readouterr().err

    def test_truncated_blob(self, ckpt):
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:-5])
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_truncated_blob_header(self, ckpt):
        manifest = json.loads(ckpt.read_text())
        last = max(e["offset"] for e in manifest["params"])
        blob = ckpt.with_suffix(".bin")
        blob.write_bytes(blob.read_bytes()[:last + 9])
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_malformed_manifest(self, ckpt):
        ckpt.write_text('{"stage": "dense", ')
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA

    def test_missing_config(self, ckpt, capsys):
        manifest = json.loads(ckpt.read_text())
        del manifest["config"]
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "config" in capsys.readouterr().err

    def test_missing_entry_offset(self, ckpt, capsys):
        manifest = json.loads(ckpt.read_text())
        del manifest["params"][3]["offset"]
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA
        assert "offset" in capsys.readouterr().err

    def test_rejected_config(self, ckpt):
        manifest = json.loads(ckpt.read_text())
        manifest["config"]["patch_size"] = 5
        ckpt.write_text(json.dumps(manifest))
        assert cli.main(["inspect", "--ckpt", str(ckpt)]) == cli.EXIT_DATA


class TestLoadedRouterValidation:
    """Centroids read from a checkpoint pass the same checks as a new Router."""

    def write_moe_with_centroid_row(self, workdir, tmp_path, row):
        model = backbone.load_checkpoint(workdir["moe"])
        model.layers[1].mlp.router.centroids.data[0] = row
        path = tmp_path / "bad.json"
        backbone.save_checkpoint(model, path)
        return path

    def test_missing_moe_key(self, workdir, tmp_path):
        manifest = json.loads(workdir["moe"].read_text())
        del manifest["moe"]["1"]["top_k"]
        path = tmp_path / "moe.json"
        path.write_text(json.dumps(manifest))
        path.with_suffix(".bin").write_bytes(workdir["moe"].with_suffix(".bin").read_bytes())
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA

    @pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
    def test_bad_centroid_row(self, workdir, tmp_path, capsys, value):
        path = self.write_moe_with_centroid_row(workdir, tmp_path, value)
        assert cli.main(["inspect", "--ckpt", str(path)]) == cli.EXIT_DATA
        assert "centroid rows" in capsys.readouterr().err

"""Command-line pipeline: gen-data, pretrain, moefy, finetune, eval,
affinity, inspect.

Configuration comes from an INI file (sections model, moe, router_init,
optim, augment, data, seed) merged with repeatable `--set section.key=value`
overrides; overrides win and the fully resolved configuration is written to
every run manifest.

Exit codes: 0 success, 2 usage or configuration error, 3 data/checkpoint
error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from . import affinity as affinity_mod
from . import backbone, data, expert_init, router_init, training
from . import tensor as T
from .tensor import Rng


class ConfigError(Exception):
    """Bad configuration file or override."""


class StageError(Exception):
    """Checkpoint pipeline stage does not match the command."""


EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

# section -> key -> default; types are inferred from the defaults
CONFIG_SCHEMA = {
    "model": {
        "num_classes": 12, "image_size": 64, "patch_size": 8, "n_px": 4,
        "d_model": 32, "d_ff": 64, "layers": 4, "heads": 2, "dropout": 0.1,
        "activation": "silu",
    },
    "moe": {
        "moe_layers": (), "experts": 16, "top_k": 1,
        "router_temperature": 1.0, "gate_mode": "renorm", "reduction_factor": 2,
    },
    "router_init": {
        "top_k_patches": 128, "refine_steps": 5, "scales": (),
        "samples_per_class": 8, "mode": "cluster", "refine": False,
        "refine_temperature": 0.001, "refine_threshold": 0.05, "seed": 0,
    },
    "optim": {
        "lr_moe": 0.005, "lr_classifier": 1e-5, "lr_rest": 5e-5,
        "wd_classifier": 1e-8, "wd_other": 0.0, "betas": (0.9, 0.99),
        "eps": 1e-8, "batch_size": 32, "epochs": 80,
    },
    "augment": {"hflip_p": 0.5, "mixup_alpha": 0.2},
    "data": {k: v.default for k, v in data.SynthSpec.__dataclass_fields__.items()},
    "seed": {"seed": 0},
}


def _coerce(raw: str, default):
    if isinstance(default, bool):
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            elem = float if default and isinstance(default[0], float) else int
            return tuple(elem(p) for p in parts)
    except ValueError:
        raise ConfigError(f"cannot read {raw!r} as {type(default).__name__}") from None
    return raw


def load_run_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Schema defaults, then the INI file, then --set overrides."""
    resolved = {s: dict(keys) for s, keys in CONFIG_SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in CONFIG_SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                resolved[section][key] = _coerce(raw, CONFIG_SCHEMA[section][key])
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        resolved[section][key] = _coerce(raw, CONFIG_SCHEMA[section][key])
    return resolved


def _build(cls, **kwargs):
    """Construct a config object; its validation errors are config errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from None


def model_config_from(resolved: dict, num_classes: int | None = None) -> backbone.ModelConfig:
    kwargs = dict(resolved["model"])
    kwargs.update(resolved["moe"])
    if num_classes is not None:
        kwargs["num_classes"] = num_classes
    return _build(backbone.ModelConfig, **kwargs)


def optim_config_from(resolved: dict) -> training.OptimConfig:
    kwargs = dict(resolved["optim"])
    kwargs["betas"] = tuple(kwargs["betas"])
    return _build(training.OptimConfig, **kwargs)


def augment_config_from(resolved: dict) -> training.AugmentConfig:
    return _build(training.AugmentConfig, **resolved["augment"])


def router_params_from(resolved: dict) -> router_init.RouterInitParams:
    kwargs = dict(resolved["router_init"])
    kwargs["scales"] = tuple(kwargs["scales"]) or None
    return router_init.RouterInitParams(**kwargs)


def _jsonable(obj):
    if isinstance(obj, tuple):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def write_run_manifest(path: Path, command: str, resolved: dict,
                       extra: dict | None = None) -> None:
    payload = {"command": command, "config": _jsonable(resolved)}
    payload.update(extra or {})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _require_stage(model, expected: str, command: str) -> None:
    if model.stage != expected:
        raise StageError(
            f"{command} needs a {expected!r} checkpoint, got stage {model.stage!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    with open(args.spec) as f:
        spec = data.SynthSpec.from_json(json.load(f))
    dataset = data.generate(spec)
    data.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.images)} images, {dataset.num_classes} classes "
          f"to {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    resolved = load_run_config(args.config, args.set)
    seed = args.seed if args.seed is not None else resolved["seed"]["seed"]
    dataset = data.load_dataset(args.data)
    cfg = model_config_from(resolved, num_classes=dataset.num_classes)
    model = backbone.Model(cfg, Rng(seed))
    optim, augment = optim_config_from(resolved), augment_config_from(resolved)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = training.train(model, dataset, optim, augment, seed=seed,
                            metrics_path=out.with_suffix(".metrics.csv"))
    backbone.save_checkpoint(model, out)
    write_run_manifest(out.with_suffix(".run.json"), "pretrain", resolved,
                       {"seed": seed, "train": result.manifest})
    if result.final_val:
        print(f"pretrain done: val top1 {result.final_val.top1:.4f}")
    return 0


def cmd_moefy(args) -> int:
    resolved = load_run_config(args.config, args.set)
    model = backbone.load_checkpoint(args.ckpt)
    _require_stage(model, "dense", "moefy")
    dataset = data.load_dataset(args.data)
    if not model.config.moe_layers:
        raise ConfigError("no MoE layers configured (moe.moe_layers is empty)")
    params = router_params_from(resolved)
    router_manifests = {}
    for layer in model.config.moe_layers:
        build = router_init.build_router(model, dataset, layer,
                                         model.config.experts, params)
        expert_init.moefy_layer(model, layer, build.router)
        router_manifests[str(layer)] = build.manifest
    out = Path(args.out)
    backbone.save_checkpoint(model, out)
    write_run_manifest(out.with_suffix(".run.json"), "moefy", resolved,
                       {"routers": router_manifests})
    counts = model.parameter_counts()
    print(f"moefied layers {list(model.config.moe_layers)}: "
          f"{counts['moe_layers']} MoE parameters")
    return 0


def cmd_finetune(args) -> int:
    resolved = load_run_config(args.config, args.set)
    seed = args.seed if args.seed is not None else resolved["seed"]["seed"]
    model = backbone.load_checkpoint(args.ckpt)
    _require_stage(model, "moe", "finetune")
    dataset = data.load_dataset(args.data)
    optim, augment = optim_config_from(resolved), augment_config_from(resolved)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    result = training.train(model, dataset, optim, augment, seed=seed,
                            metrics_path=out.with_suffix(".metrics.csv"))
    model.finetuned = True
    backbone.save_checkpoint(model, out)
    write_run_manifest(out.with_suffix(".run.json"), "finetune", resolved,
                       {"seed": seed, "train": result.manifest})
    if result.final_val:
        print(f"finetune done: val top1 {result.final_val.top1:.4f}")
    return 0


def cmd_eval(args) -> int:
    model = backbone.load_checkpoint(args.ckpt)
    dataset = data.load_dataset(args.data)
    images = dataset.split(args.split)
    if not images:
        raise data.DataError(f"split {args.split!r} is empty")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    result = training.evaluate(model, images, batch_size=args.batch_size)
    rows = [("loss", result.loss), ("top1", result.top1)]
    rows += [(f"class_{c}_acc", acc) for c, acc in sorted(result.per_class.items())]
    rows += [(f"expert_entropy_layer_{i}", result.expert_entropy(i))
             for i in sorted(result.expert_counts)]
    with open(args.out, "w") as f:
        f.write("metric,value\n")
        for name, value in rows:
            f.write(f"{name},{value!r}\n")
    print(f"eval {args.split}: top1 {result.top1:.4f} ({len(images)} images)")
    return 0


def cmd_affinity(args) -> int:
    resolved = load_run_config(args.config, args.set)
    model = backbone.load_checkpoint(args.ckpt)
    dataset = data.load_dataset(args.data)
    layer = args.layer
    block = model.layers[layer].mlp
    if not hasattr(block, "router"):
        raise StageError(f"layer {layer} of the checkpoint is not a MoE block")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    provenance = {"seed": args.seed or 0, "checkpoint": str(args.ckpt)}
    if args.mode in ("pre", "figure-d"):
        params = router_params_from(resolved)
        rng = Rng(params.seed)
        scales = tuple(params.scales) if params.scales else \
            router_init.default_scales(model.config)
        per_class = router_init.collect_embeddings(
            model, dataset, layer, scales, params.samples_per_class, rng.child(0))
        min_patches = min(ce.embeddings.shape[0] for ce in per_class)
        k_eff = min(params.top_k_patches, min_patches)
        scaler = block.router.scaler
        points = []
        for ce in per_class:
            sel = router_init.select_representative_patches(
                ce.embeddings, k_eff, params.refine_steps)
            points.append(np.asarray(T.minmax_apply(scaler, sel.rows)))
        centroids = block.router.centroids.data
        if args.mode == "figure-d":
            matrix = affinity_mod.figure_d_variant(centroids, points, provenance)
        else:
            matrix = affinity_mod.affinity_pre(
                centroids, points, args.temperature, args.threshold, provenance)
    else:
        images = dataset.split("val") or dataset.split("train")
        matrix = affinity_mod.affinity_post(
            model, images, layer, n_batches=args.batches,
            batch_size=args.batch_size, rng=Rng(args.seed or 0),
            provenance=provenance)
    exporter = {"csv": affinity_mod.export_csv, "json": affinity_mod.export_json,
                "svg": affinity_mod.export_svg}[args.format]
    exporter(matrix, args.out)
    report = affinity_mod.collapse_metrics(matrix)
    print(f"affinity {args.mode} layer {layer}: entropy {report.column_entropy:.4f}, "
          f"{len(report.starved_experts)} starved experts -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    model = backbone.load_checkpoint(args.ckpt)
    with open(args.ckpt) as f:
        manifest = json.load(f)
    counts = model.parameter_counts()
    cfg = model.config
    print(f"stage: {model.stage}  finetuned: {model.finetuned}")
    print(f"total parameters: {counts['total']}")
    print(f"moe parameters: {counts['moe_layers']}")
    for layer, per in sorted(counts["per_expert"].items()):
        closed = expert_init.per_expert_param_count(
            cfg.d_model, cfg.d_ff, cfg.reduction_factor)
        info = manifest.get("moe", {}).get(layer, {})
        print(f"layer {layer}: experts {info.get('experts')}, "
              f"d_e {cfg.d_ff // cfg.reduction_factor}, "
              f"per-expert parameters {per} (closed form {closed}), "
              f"top_k {info.get('top_k')}, source {info.get('source_dense_hash')}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p, config=True):
    if config:
        p.add_argument("--config", default=None, help="INI run configuration")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=V",
                       help="override one config value (repeatable, wins over file)")
    p.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchmoe",
                                     description="patch-level MoE pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset")
    p.add_argument("--spec", required=True, help="JSON synth spec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="train the dense backbone")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("moefy", help="convert dense MLPs to MoE blocks")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_moefy)

    p = sub.add_parser("finetune", help="fine-tune a MoE checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("affinity", help="class-expert affinity analysis")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--mode", choices=("pre", "post", "figure-d"), default="post")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=128)
    _add_common(p)
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser("inspect", help="print checkpoint structure and counts")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (data.DataError, backbone.CheckpointError, StageError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except training.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

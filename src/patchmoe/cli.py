"""Command-line pipeline: gen-data, pretrain, moefy, finetune, eval,
affinity, inspect.

Configuration comes from an INI file (sections model, moe, router_init,
optim, augment, seed) merged with repeatable `--set section.key=value`
overrides; overrides win. Each command reads a fixed set of sections
(COMMAND_SECTIONS), pretrain all of [optim] but lr_moe and affinity --mode
pre/figure-d only some keys of [router_init] (COMMAND_KEYS): the file's
other sections and keys are checked and skipped, an override of one is a
usage error, and the run manifest records the resolved sections the command
read.

Exit codes: 0 success, 2 usage or configuration error, 3 data/checkpoint
error or a path that cannot be read or written, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
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

# ModelConfig fields set in the [moe] section; the others, except num_classes
# (the dataset's), are [model]. Defaults are the desk-scale configuration.
_MOE_KEYS = ("moe_layers", "experts", "top_k", "router_temperature", "gate_mode",
             "reduction_factor")
_DESK = dataclasses.asdict(backbone.desk_config(num_classes=0))

# section -> key -> default; types are inferred from the defaults
CONFIG_SCHEMA = {
    "model": {k: v for k, v in _DESK.items() if k not in _MOE_KEYS + ("num_classes",)},
    "moe": {k: _DESK[k] for k in _MOE_KEYS},
    "router_init": dataclasses.asdict(router_init.RouterInitParams()),
    "optim": dataclasses.asdict(training.OptimConfig()),
    "augment": dataclasses.asdict(training.AugmentConfig()),
    "seed": {"seed": 0},
}

# command -> the config sections it reads
COMMAND_SECTIONS = {
    "pretrain": ("model", "moe", "optim", "augment", "seed"),
    "moefy": ("router_init",),
    "finetune": ("optim", "augment", "seed"),
    "affinity --mode pre": ("router_init",),
    "affinity --mode figure-d": ("router_init",),
    "affinity --mode post": (),
}
# (command, section) -> the keys of the section it reads, where not all; a
# dense model has no MoE parameter for lr_moe to train
COMMAND_KEYS = {
    ("pretrain", "optim"): tuple(k for k in CONFIG_SCHEMA["optim"] if k != "lr_moe"),
    ("affinity --mode pre", "router_init"): router_init.SELECT_KEYS,
    ("affinity --mode figure-d", "router_init"): router_init.SELECT_KEYS,
}


def _coerce(raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):  # every tuple setting holds ints
            return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"cannot read {raw!r} as {type(default).__name__}") from None
    return raw


def load_run_config(path: str | None, overrides: list[str] | None = None,
                    command: str | None = None) -> dict:
    """Schema defaults, then the INI file, then --set overrides, for the
    sections and keys `command` reads (all when None). The file's other
    sections and keys are checked, so one file serves every command, then
    skipped; an override of one is an error."""
    sections = COMMAND_SECTIONS[command] if command else tuple(CONFIG_SCHEMA)
    resolved = {s: {k: v for k, v in CONFIG_SCHEMA[s].items()
                    if k in COMMAND_KEYS.get((command, s), CONFIG_SCHEMA[s])}
                for s in sections}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path, encoding="utf-8")
            # items() interpolates, so a bare % fails here, not in read()
            entries = {section: parser.items(section) for section in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section, items in entries.items():
            if section not in CONFIG_SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in items:
                if key not in CONFIG_SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                value = _coerce(raw, CONFIG_SCHEMA[section][key])
                if key in resolved.get(section, ()):
                    resolved[section][key] = value
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in CONFIG_SCHEMA or key not in CONFIG_SCHEMA[section]:
            raise ConfigError(f"unknown config entry {section}.{key}")
        if section not in resolved:
            read_list = ", ".join(f"[{s}]" for s in sections) or "no section"
            raise ConfigError(f"{command} does not read [{section}] (it reads {read_list})")
        if key not in resolved[section]:
            read_list = ", ".join(f"{section}.{k}" for k in resolved[section])
            raise ConfigError(f"{command} does not read {section}.{key} (it reads {read_list})")
        resolved[section][key] = _coerce(raw, CONFIG_SCHEMA[section][key])
    return resolved


def _build(cls, **kwargs):
    """Construct a config object; its validation errors are config errors."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from None


def _router_params(resolved: dict, config: backbone.ModelConfig
                   ) -> router_init.RouterInitParams:
    params = _build(router_init.RouterInitParams, **resolved["router_init"])
    if any(s % config.patch_size for s in params.scales):
        raise ConfigError(f"router_init.scales {list(params.scales)} must be multiples "
                          f"of the checkpoint's patch_size {config.patch_size}")
    return params


def write_run_manifest(path: Path, command: str, resolved: dict,
                       extra: dict | None = None) -> None:
    payload = {"command": command, "config": resolved}
    payload.update(extra or {})
    path.parent.mkdir(parents=True, exist_ok=True)
    with T.atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def _require_stage(model, expected: str, command: str) -> None:
    stage = "moe" if model.moe_blocks() else "dense"
    if stage != expected:
        raise StageError(f"{command} needs a {expected!r} checkpoint, got stage {stage!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _train_and_save(model, dataset, resolved: dict, seed: int, out: Path,
                    command: str) -> int:
    """Train under the resolved [optim] and [augment], then write the
    checkpoint, its metrics CSV and its run manifest at `out`."""
    optim = _build(training.OptimConfig, **resolved["optim"])
    augment = _build(training.AugmentConfig, **resolved["augment"])
    if not dataset.split("train"):
        raise data.DataError(f"{command}: the dataset has no train images")
    out.parent.mkdir(parents=True, exist_ok=True)
    result = training.train(model, dataset, optim, augment, seed=seed)
    backbone.save_checkpoint(model, out)
    # After the checkpoint, so that a failed save leaves no orphan metrics.
    training.write_metrics_csv(result.rows, list(model.moe_blocks()),
                               out.with_suffix(".metrics.csv"))
    write_run_manifest(out.with_suffix(".run.json"), command, resolved,
                       {"train_size": len(dataset.split("train")),
                        "val_size": len(dataset.split("val"))})
    if result.final_val:
        print(f"{command} done: val top1 {result.final_val.top1:.4f}")
    return 0


def cmd_gen_data(args) -> int:
    with open(args.spec) as f:
        try:
            spec = data.SynthSpec(**json.load(f))
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise data.DataError(f"invalid synth spec {args.spec}: {exc}") from None
    dataset = data.generate(spec)
    data.save_dataset(dataset, args.out)
    print(f"wrote {len(dataset.images)} images, {dataset.num_classes} classes "
          f"to {args.out}")
    return 0


def _require_dataset_fits(dataset, config) -> None:
    """DataError unless the dataset's images are config.image_size square and
    its class count is config.num_classes."""
    if dataset.images and dataset.images[0].pixels.shape[0] != config.image_size:
        raise data.DataError(f"the dataset's images are {dataset.images[0].pixels.shape[0]} "
                             f"px, the model's image_size is {config.image_size}")
    if dataset.num_classes != config.num_classes:
        raise data.DataError(f"the dataset has {dataset.num_classes} classes, "
                             f"the model's num_classes is {config.num_classes}")


def _run_seed(resolved: dict) -> int:
    """[seed] seed; a negative one is a config error."""
    seed = resolved["seed"]["seed"]
    if seed < 0:
        raise ConfigError(f"seed.seed must be >= 0, got {seed}")
    return seed


def cmd_pretrain(args) -> int:
    resolved = load_run_config(args.config, args.set, "pretrain")
    seed = _run_seed(resolved)
    dataset = data.load_dataset(args.data)
    cfg = _build(backbone.ModelConfig, num_classes=dataset.num_classes,
                 **resolved["model"], **resolved["moe"])
    _require_dataset_fits(dataset, cfg)
    model = backbone.Model(cfg, Rng(seed))
    return _train_and_save(model, dataset, resolved, seed, args.out, "pretrain")


def cmd_moefy(args) -> int:
    resolved = load_run_config(args.config, args.set, "moefy")
    model = backbone.load_checkpoint(args.ckpt)
    _require_stage(model, "dense", "moefy")
    dataset = data.load_dataset(args.data)
    _require_dataset_fits(dataset, model.config)
    if not model.config.moe_layers:
        raise ConfigError("no MoE layers configured (moe.moe_layers is empty)")
    params = _router_params(resolved, model.config)
    if params.mode == "cluster" and model.config.experts > dataset.num_classes:
        raise ConfigError(
            f"moe.experts={model.config.experts} exceeds the dataset's "
            f"{dataset.num_classes} classes: cluster init gives each expert at least "
            f"one class (pretrain with fewer experts, or use router_init.mode=random)")
    router_manifests = {}
    for layer in model.config.moe_layers:
        build = router_init.build_router(model, dataset, layer,
                                         model.config.experts, params)
        expert_init.moefy_layer(model, layer, build.router)
        router_manifests[str(layer)] = build.manifest
    backbone.save_checkpoint(model, args.out)
    write_run_manifest(args.out.with_suffix(".run.json"), "moefy", resolved,
                       {"routers": router_manifests})
    counts = model.parameter_counts()
    print(f"moefied layers {list(model.config.moe_layers)}: "
          f"{counts['moe_layers']} MoE parameters")
    return 0


def cmd_finetune(args) -> int:
    resolved = load_run_config(args.config, args.set, "finetune")
    seed = _run_seed(resolved)
    model = backbone.load_checkpoint(args.ckpt)
    _require_stage(model, "moe", "finetune")
    dataset = data.load_dataset(args.data)
    _require_dataset_fits(dataset, model.config)
    model.finetuned = True
    return _train_and_save(model, dataset, resolved, seed, args.out, "finetune")


def cmd_eval(args) -> int:
    model = backbone.load_checkpoint(args.ckpt)
    dataset = data.load_dataset(args.data)
    _require_dataset_fits(dataset, model.config)
    images = dataset.split(args.split)
    if not images:
        raise data.DataError(f"split {args.split!r} is empty")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    result = training.evaluate(model, images)
    rows = [("loss", result.loss), ("top1", result.top1)]
    rows += [(f"class_{c}_acc", acc) for c, acc in sorted(result.per_class.items())]
    rows += [(f"expert_entropy_layer_{i}", result.expert_entropy(i))
             for i in sorted(result.expert_counts)]
    with T.atomic_write(args.out) as f:
        f.write("metric,value\n")
        for name, value in rows:
            f.write(f"{name},{value!r}\n")
    print(f"eval {args.split}: top1 {result.top1:.4f} ({len(images)} images)")
    return 0


def cmd_affinity(args) -> int:
    resolved = load_run_config(args.config, args.set, f"affinity --mode {args.mode}")
    model = backbone.load_checkpoint(args.ckpt)
    dataset = data.load_dataset(args.data)
    _require_dataset_fits(dataset, model.config)
    layer = args.layer
    if not 0 <= layer < len(model.layers):
        raise ConfigError(f"--layer {layer} is out of range for a "
                          f"{len(model.layers)}-layer checkpoint")
    block = model.moe_blocks().get(layer)
    if block is None:
        raise StageError(f"layer {layer} of the checkpoint is not a MoE block")
    params = _router_params(resolved, model.config) if args.mode != "post" else None
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    provenance = {"checkpoint": str(args.ckpt)}
    if args.mode == "post":
        # a dataset without val images is sampled from train, and says so
        provenance["split"] = "val" if dataset.split("val") else "train"
        matrix = affinity_mod.affinity_post(
            model, dataset.split(provenance["split"]), layer, provenance=provenance)
    else:
        provenance["seed"] = params.seed
        _, selected = router_init.select_class_patches(model, dataset, layer, params)
        points = [np.asarray(T.minmax_apply(block.router.scaler, sel.rows))
                  for sel in selected]
        centroids = block.router.centroids.data
        if args.mode == "figure-d":
            matrix = affinity_mod.figure_d_variant(centroids, points, provenance)
        else:
            matrix = affinity_mod.affinity_pre(
                centroids, points, block.router.temperature, provenance=provenance)
    exporter = {"csv": affinity_mod.export_csv, "json": affinity_mod.export_json,
                "svg": affinity_mod.export_svg}[args.format]
    exporter(matrix, args.out)
    report = affinity_mod.collapse_metrics(matrix)
    print(f"affinity {args.mode} layer {layer}: entropy {report.column_entropy:.4f}, "
          f"{len(report.starved_experts)} starved experts -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    model = backbone.load_checkpoint(args.ckpt)
    counts = model.parameter_counts()
    print(f"stage: {'moe' if model.moe_blocks() else 'dense'}  finetuned: {model.finetuned}")
    print(f"total parameters: {counts['total']}")
    print(f"moe parameters: {counts['moe_layers']}")
    d_e = model.config.d_ff // model.config.reduction_factor
    for layer, per in counts["per_expert"].items():
        block = model.layers[int(layer)].mlp
        print(f"layer {layer}: experts {block.router.num_experts}, d_e {d_e}, "
              f"per-expert parameters {per}, "
              f"top_k {block.router.top_k}, source {block.source_hash}")
        print(f"layer {layer}: gamma per expert "
              + " ".join(f"{float(ex.gamma.data):.4g}" for ex in block.experts))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _checkpoint_out(raw: str) -> Path:
    """argparse type: a checkpoint path save_checkpoint accepts, checked
    before any work (else exit 2)."""
    try:
        backbone.checkpoint_blob(Path(raw))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return Path(raw)


def _add_common(p):
    p.add_argument("--config", default=None, help="INI run configuration")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=V",
                   help="override one config value (repeatable, wins over file)")


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
    p.add_argument("--out", type=_checkpoint_out, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("moefy", help="convert dense MLPs to MoE blocks")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=_checkpoint_out, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_moefy)

    p = sub.add_parser("finetune", help="fine-tune a MoE checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=_checkpoint_out, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("affinity", help="class-expert affinity analysis")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--mode", choices=("pre", "post", "figure-d"), default="post")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
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
    except (data.DataError, backbone.CheckpointError, StageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except training.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())

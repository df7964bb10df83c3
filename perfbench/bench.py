"""One benchmark run: set-up, timed passes, checks and the result line.

Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
(--trace 1) alternate untraced and traced passes, then replay one batch
sublayer by sublayer, and report the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import NamedTuple

from checks import Observer, Ops
from replay import replay
from tracer import Patches, Tracer
from workloads import WORKLOADS

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5
REPLAY_REPS = 3


class Pass(NamedTuple):
    seconds: float
    stages: dict[str, float]
    traced: bool


def _stage_timer(times: dict[str, float], tracer: Tracer | None):
    """stage(name) times one top-level call of a pass, and records it as a
    span when the pass is traced."""
    @contextmanager
    def stage(name: str):
        with tracer.span(name) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                times[name] = times.get(name, 0.0) + time.perf_counter() - start
    return stage


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Spans around the calls into each patchmoe module."""
    from patchmoe import affinity, backbone, data, expert_init, router_init, training
    from patchmoe import tensor as T
    calls = {
        data: ("generate", "save_dataset", "load_dataset"),
        backbone: ("save_checkpoint", "load_checkpoint"),
        router_init: ("build_router", "collect_embeddings",
                      "select_representative_patches", "ward_cluster"),
        expert_init: ("moefy_layer",),
        training: ("train", "evaluate", "soft_cross_entropy", "hflip", "mixup"),
        affinity: ("affinity_post", "collapse_metrics", "export_csv", "export_json",
                   "export_svg"),
    }
    for module, names in calls.items():
        prefix = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            patches.wrap(module, name, lambda fn, n=f"{prefix}.{name}": tracer.wrap(n, fn))

    def forward_wrapper(original):
        def forward(model, images, *args, **kwargs):
            train = kwargs.get("train", args[0] if args else False)
            capture = kwargs.get("capture_layers", args[2] if len(args) > 2 else ())
            name = ("training.forward" if train else
                    "backbone.capture_forward" if capture else "backbone.forward")
            with tracer.span(name):
                return original(model, images, *args, **kwargs)
        return forward

    patches.wrap(backbone.Model, "forward", forward_wrapper)
    patches.wrap(T.Tensor, "backward", lambda fn: tracer.wrap("training.backward", fn))
    patches.wrap(training.AdamW, "step", lambda fn: tracer.wrap("training.adamw_step", fn))


def span_metrics(tracer: Tracer) -> dict[str, float]:
    def durations(name):
        return [s.duration for s in tracer.named(name)]

    def mean(name, scale=1.0):
        d = durations(name)
        return scale * sum(d) / len(d) if d else 0.0

    steps = len(durations("training.forward"))
    builds = len(durations("router_init.build_router"))

    def per_step(*names):
        return 1e3 * sum(sum(durations(n)) for n in names) / steps if steps else 0.0

    exports = sum((durations(f"affinity.export_{f}") for f in ("csv", "json", "svg")), [])
    out = {
        "backbone.forward_ms": mean("backbone.forward", 1e3),
        "backbone.save_checkpoint_ms": mean("backbone.save_checkpoint", 1e3),
        "backbone.load_checkpoint_ms": mean("backbone.load_checkpoint", 1e3),
        "router_init.build_router_s": mean("router_init.build_router"),
        "router_init.collect_s": mean("router_init.collect_embeddings"),
        "router_init.select_s": (sum(durations("router_init.select_representative_patches"))
                                 / builds if builds else 0.0),
        "router_init.ward_s": mean("router_init.ward_cluster"),
        "expert_init.moefy_layer_ms": mean("expert_init.moefy_layer", 1e3),
        "training.forward_ms": per_step("training.forward"),
        "training.backward_ms": per_step("training.backward"),
        "training.adamw_step_ms": per_step("training.adamw_step"),
        "training.augment_ms": per_step("training.hflip", "training.mixup"),
        "training.evaluate_s": mean("training.evaluate"),
        "affinity.post_s": mean("affinity.affinity_post"),
        "affinity.export_ms": 1e3 * sum(exports) / len(exports) if exports else 0.0,
        "data.generate_s": mean("data.generate"),
        "data.save_dataset_s": mean("data.save_dataset"),
        "data.load_dataset_s": mean("data.load_dataset"),
    }
    for cmd in ("gen_data", "pretrain", "moefy", "finetune", "eval", "affinity"):
        out[f"cli.{cmd}_s"] = mean(f"cli.{cmd}")
    return out


def environment(observer: Observer) -> dict:
    import numpy as np
    import scipy
    from patchmoe import tensor as T
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "default_dtype": str(T.default_dtype()),
        "logits_dtypes": sorted(observer.logits_dtypes),
        "capture_dtypes": sorted(observer.capture_dtypes),
    }


def source_hash(root: Path) -> str:
    """Hash of the package and benchmark sources: digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 units: dict[str, str], import_s: float):
        self.units = units
        self.import_s = import_s
        self.seconds = seconds
        self.trace = trace
        self.state_dir = root / ".perfbench"
        (self.state_dir / "work").mkdir(parents=True, exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=self.state_dir / "work"))
        self.digest_path = (self.state_dir / "digests"
                            / f"{workload}-seed{seed}-{source_hash(root)}.json")
        self.ops = Ops()
        self.observer = Observer(self.ops)
        self.workload = WORKLOADS[workload](seed, self.work_dir)
        self.run_id = f"{workload}-seed{seed}-{os.getpid()}-{int(time.time())}"
        self.tracer = Tracer(self.run_id) if trace else None
        self.reference: dict[str, dict] = {}
        self.counts: dict[str, float] = {}
        self.pass_log: list[Pass] = []

    # -- phases ---------------------------------------------------------------

    def _end_phase(self, kind: str, builds: int) -> None:
        """Digests must match the first phase of the same kind, and Ward must
        cluster every class once per router build. Capture forwards are
        recorded, not checked against a formula: batching them is an
        optimisation this benchmark is meant to show."""
        obs, wl = self.observer, self.workload
        digests = obs.end()
        ref = self.reference.setdefault(kind, digests)
        for name, value in digests.items():
            self.ops.check(ref.get(name) == value, f"{kind} digest {name} repeats")
        if builds:
            self.ops.check(obs.ward_points == [wl.dataset.num_classes] * builds,
                           f"Ward points {obs.ward_points}")
            self.counts["router_init.capture_forwards"] = obs.captures / builds
            self.counts["router_init.ward_points"] = sum(obs.ward_points) / builds

    def setup(self) -> list[float]:
        """Set up at least SETUP_MIN_REPS times and for SETUP_MIN_SECONDS;
        a traced run adds one traced set-up, which the run then uses."""
        times: list[float] = []
        while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
            times.append(self._setup_once(traced=False))
        if self.trace:
            self._setup_once(traced=True)
        return times

    def _setup_once(self, traced: bool) -> float:
        self.observer.begin()
        with Patches() as patches:
            if traced:
                install_tracer(self.tracer, patches)
            with self.tracer.span("setup") if traced else nullcontext():
                start = time.perf_counter()
                self.workload.setup()
                elapsed = time.perf_counter() - start
        self._end_phase("setup", self.workload.setup_builds)
        return elapsed

    def passes(self, seconds: float, min_passes: int, alternate: bool = False) -> list[Pass]:
        """Closed loop: passes back to back until at least `min_passes` have
        run and `seconds` have passed. With `alternate`, every second pass is
        traced. Stops at the first pass that raises."""
        done: list[Pass] = []
        loop_start = time.perf_counter()
        while len(done) < min_passes or time.perf_counter() - loop_start < seconds:
            one = self._pass_once(traced=alternate and len(done) % 2 == 1)
            if one is None:
                break
            done.append(one)
        return done

    def _pass_once(self, traced: bool) -> Pass | None:
        wl = self.workload
        wl.prepare()
        self.observer.begin()
        times: dict[str, float] = {}
        try:
            with Patches() as patches:
                if traced:
                    install_tracer(self.tracer, patches)
                with self.tracer.span("pass") if traced else nullcontext():
                    start = time.perf_counter()
                    wl.run_pass(_stage_timer(times, self.tracer if traced else None))
                    elapsed = time.perf_counter() - start
            wl.check_pass(self.ops)
            stages = wl.stage_metrics(times)
        except Exception as exc:  # a pass that raises is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.ops.check(False, f"pass raised {exc!r}")
            return None
        self.ops.check(True, "pass completed")
        self._end_phase("pass", wl.pass_builds)
        return Pass(elapsed, stages, traced)

    def compare_across_runs(self) -> None:
        """Same seed, same source: digests and exact counts repeat across runs."""
        stored = {}
        if self.digest_path.exists():
            stored = json.loads(self.digest_path.read_text())
        current = {"setup": self.reference.get("setup", {}),
                   "pass": self.reference.get("pass", {}),
                   "counts": self.counts}
        for kind, values in current.items():
            for name, value in values.items():
                if name in stored.get(kind, {}):
                    self.ops.check(stored[kind][name] == value,
                                   f"{kind} {name} repeats across runs")
                stored.setdefault(kind, {})[name] = value
        self.digest_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.digest_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        tmp.replace(self.digest_path)

    # -- the run --------------------------------------------------------------

    def execute(self) -> dict:
        observed = Patches()
        self.observer.install(observed)
        try:
            setup_times = self.setup()
            print(f"perfbench imports: {self.import_s:.4f} s; set-ups: {len(setup_times)}, "
                  f"median {median(setup_times):.4f} s", file=sys.stderr)
            if self.trace or self.workload.warmup:
                # An untimed warm-up pass, so that the timed passes (and the
                # traced/untraced pairs) compare like with like.
                self.passes(0.0, 1)
            if self.trace:
                self.pass_log = self.passes(self.seconds, 4, alternate=True)
            else:
                self.pass_log = self.passes(self.seconds, self.workload.min_passes)
            if not self.pass_log:
                raise RuntimeError("no pass completed")
            if self.trace:
                metrics = self.per_layer(self.pass_log)
            else:
                metrics = self.end_to_end(setup_times, self.pass_log)
            self.compare_across_runs()
        except Exception as exc:  # still print the result line, with the failure counted
            traceback.print_exc(file=sys.stderr)
            self.ops.check(False, f"run raised {exc!r}")
            metrics = {k: {"value": 0.0, "unit": u} for k, u in self.units.items()}
        finally:
            observed.restore()
            shutil.rmtree(self.work_dir, ignore_errors=True)
        print("perfbench passes (s): "
              f"{[(round(p.seconds, 4), 'traced' if p.traced else '') for p in self.pass_log]}",
              file=sys.stderr)
        env = environment(self.observer)
        print(f"perfbench env: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
        for failure in self.ops.failures:
            print(f"perfbench check failed: {failure}", file=sys.stderr)
        if self.tracer is not None:
            self.tracer.dump(self.state_dir / "traces" / f"{self.run_id}.json",
                             {"run_id": self.run_id, "env": env, "metrics": metrics,
                              "failures": self.ops.failures})
        return {"correct": self.ops.failed == 0, "attempted": self.ops.attempted,
                "failed": self.ops.failed, "metrics": metrics}

    def end_to_end(self, setup_times: list[float], passes: list[Pass]) -> dict:
        # Set-up is the imports, timed once from the start of run.py, plus
        # the median of the repeated in-process set-ups.
        values = {"setup_s": self.import_s + median(setup_times),
                  "pass_s": median(p.seconds for p in passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        return {k: {"value": values[k], "unit": u} for k, u in self.units.items()}

    def per_layer(self, passes: list[Pass]) -> dict:
        wl = self.workload
        # Layers a workload does not exercise report 0.
        values = dict.fromkeys(self.units, 0.0)
        values.update(span_metrics(self.tracer))
        untraced = [p for p in passes if not p.traced]
        for name in untraced[0].stages if untraced else ():
            values[name] = median(p.stages[name] for p in untraced)
        pairs = list(zip(passes[0::2], passes[1::2]))
        if pairs:
            values["trace.overhead_pct"] = 100.0 * median(
                t.seconds / u.seconds - 1.0 for u, t in pairs)
        for name in ("val_top1", "family_ari"):
            values[f"quality.{name}"] = getattr(wl, name, 0.0)
        values["backbone.checkpoint_bytes"] = getattr(wl, "checkpoint_bytes", 0)
        model, images, labels = wl.replay_inputs()
        values.update(replay(model, images, labels, REPLAY_REPS, self.ops))
        for name in ("tensor.graph_nodes_per_step", "tensor.tape_bytes_per_batch",
                     "backbone.checkpoint_bytes"):
            self.counts[name] = values[name]
        values.update(self.counts)
        return {k: {"value": values[k], "unit": u} for k, u in self.units.items()}

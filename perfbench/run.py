"""Benchmark of bundleshape, timed from outside the library.

Three closed-loop workloads, each with one caller and no extra threads:

* ``subject_oracle``: decode a 73-bundle subject from bytes, then run the
  exact voxel oracle (``shapes.compute_measures`` at 1 mm) on every bundle.
* ``subject_model``: decode the same kind of subject, sample 1024 points
  per bundle and predict the ten measures in one batch with a checkpoint
  trained during set-up.
* ``train_epoch``: one training epoch (default ``full`` config, float64)
  on the default 600-bundle dataset, validation included.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload subject_model --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, and
the spans of the traced run are written to ``perfbench/out/``. See
``perfbench/DESIGN.md`` for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("subject_oracle", "subject_model", "train_epoch")
VOXEL_SIZE = 1.0
N_POINTS = 1024
# Bundles of each generator family checked bit for bit against the naive
# oracle: the smallest ones, because the naive loops take ~25 us per sample.
NAIVE_PER_FAMILY = 2
# Predictions may differ from the float64 reference by this share of each
# measure's training standard deviation. The float32 error is ~1e-6.
MODEL_TOLERANCE = 1e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "bundles_per_s": "1/s",
    "iter_s_p50": "s",
    "peak_alloc_mb": "MB",
}

# Per-layer metric "<module>.<function>.<quantity>" -> unit. "calls" and
# "busy_s" come from spans; any other quantity is a count attached to the
# span at the call boundary, and "<count>_per_s" divides that count by
# busy_s.
PER_LAYER_UNITS = {
    "io.read_native.calls": "count",
    "io.read_native.busy_s": "s",
    "io.read_native.mb_per_s": "MB/s",
    "shapes.compute_measures.calls": "count",
    "shapes.compute_measures.busy_s": "s",
    "shapes.compute_measures.samples_per_s": "1/s",
    "shapes.compute_measures.samples": "count",
    "shapes.compute_measures.occupied_voxels": "count",
    "shapes.compute_measures.surface_voxels": "count",
    "shapes.compute_measures.bbox_cells": "count",
    "shapes.voxelize.busy_s": "s",
    "shapes.count_surface_voxels.busy_s": "s",
    "features.sample_points.calls": "count",
    "features.sample_points.busy_s": "s",
    "features.sample_points.points_scanned": "count",
    "train.predict_measures.busy_s": "s",
    "train.predict_measures.points": "count",
    "train.predict_measures.gflop": "GFLOP",
    "train.predict_measures.act_mb": "MB",
    "train.predict_measures.gflop_per_s": "GFLOP/s",
    "train.train.busy_s": "s",
    "train.train.batches": "count",
    "train.train.samples": "count",
    "train.train.gflop": "GFLOP",
    "train.train.gflop_per_s": "GFLOP/s",
    "net.forward.busy_s": "s",
    "net.backward.busy_s": "s",
    "optim.adam_step.busy_s": "s",
    "synth.generate_dataset.busy_s": "s",
    "checkpoint.load_checkpoint.busy_s": "s",
}
OVERHEAD_METRIC = "trace.overhead_frac"


def _import_library():
    """Import bundleshape from this checkout's ``src`` and the naive oracle
    from its ``tests``; exit with an error when either is missing."""
    src, tests = ROOT / "src", ROOT / "tests"
    for need in (src / "bundleshape" / "__init__.py", tests / "naive_oracle.py"):
        if not need.is_file():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} not found; run from a full checkout")
    sys.path[:0] = [str(src), str(tests)]
    import importlib

    names = ("checkpoint", "features", "io", "net", "optim", "shapes", "synth", "train")
    mods = {n: importlib.import_module(f"bundleshape.{n}") for n in names}
    mods["naive"] = importlib.import_module("naive_oracle")
    return mods


L = None  # the library modules, set by main() or by tests through load()


def load():
    global L
    if L is None:
        L = _import_library()
    return L


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory, one around each call into a library layer.

    A span records name, phase (setup, loop or probe), start, end, parent
    span and the subject (loop iteration) it belongs to, plus counts
    computed from the call's arguments and result. When disabled, ``call``
    only calls the function.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase = "setup"
        self.subject = None
        self.untimed = 0.0  # seconds spent computing counts, not timed
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, subject=None):
        if not self.enabled:
            yield
            return
        if subject is not None:
            self.subject = subject
        rec = {
            "name": name,
            "phase": self.phase,
            "subject": self.subject,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def begin(self, phase: str) -> None:
        self.phase, self.subject = phase, None

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Call ``fn``; when tracing, inside a span named ``name``.

        ``work(result)`` returns the counts to attach to the span. It runs
        after the span has closed; its time is kept apart in ``untimed``
        and in the span, and left out of every timing.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        if work is not None:
            t0 = time.perf_counter()
            rec["work"] = work(out)
            rec["work_s"] = time.perf_counter() - t0
            self.untimed += rec["work_s"]
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"] + s.get("work_s", 0.0)
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, own):
                fh.write(json.dumps({**s, "self_s": self_s}) + "\n")


def layer_metrics(tracer: Tracer, loop_iterations: int) -> tuple[dict, dict]:
    """Per-layer metrics and the phase each one was taken from.

    A function's figures come from the traced loop, per iteration, when
    the loop calls it; otherwise from the traced set-up, per set-up;
    otherwise from the probe pass.
    """
    totals: dict[tuple[str, str], dict] = {}
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        t = totals.setdefault((s["name"], s["phase"]), {"calls": 0, "busy_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += self_s
        for k, v in s.get("work", {}).items():
            t[k] = t.get(k, 0) + v
    metrics, source = {}, {}
    for metric, unit in PER_LAYER_UNITS.items():
        fn, quantity = metric.rsplit(".", 1)
        phase = next(p for p in ("loop", "setup", "probe") if (fn, p) in totals)
        t = totals[(fn, phase)]
        per = loop_iterations if phase == "loop" else 1
        if quantity.endswith("_per_s"):
            value = t[quantity[: -len("_per_s")]] / t["busy_s"]
        else:
            value = t[quantity] / per
        metrics[metric] = {"value": value, "unit": unit}
        source[metric] = phase
    return metrics, source


# ---------------------------------------------------------------------------
# Counts computed from inputs and array shapes


def _oracle_counts(bundle, measures) -> dict:
    """Supersamples, occupied and surface voxels and bounding-box cells."""
    samples = bundle.n_streamlines
    for s in bundle.streamlines:
        seg_len = np.linalg.norm(np.diff(s, axis=0), axis=1)
        samples += int(np.maximum(np.ceil(seg_len / (VOXEL_SIZE / 2.0)), 1).sum())
    pts = bundle.all_points()
    extent = np.floor((pts.max(axis=0) - pts.min(axis=0)) / VOXEL_SIZE) + 1
    return {
        "samples": samples,
        "occupied_voxels": round(measures.volume / VOXEL_SIZE**3),
        "surface_voxels": round(measures.total_surface_area / VOXEL_SIZE**2),
        "bbox_cells": int(np.prod(extent)),
    }


def _net_flop(n_clouds: int, variant: str = "full") -> float:
    """Multiply-adds x 2 of one forward pass over ``n_clouds`` clouds."""
    net = L["net"]
    point = sum(a * b for a, b in zip(net.POINT_WIDTHS, net.POINT_WIDTHS[1:])) * N_POINTS
    fused = net.POINT_WIDTHS[-1]
    tab = 0
    if net.uses_tabular(variant):
        tab = sum(a * b for a, b in zip(net.TAB_WIDTHS, net.TAB_WIDTHS[1:]))
        fused += net.TAB_WIDTHS[-1]
    head = fused * net.HEAD_HIDDEN + net.HEAD_HIDDEN * net.output_dim(variant)
    return 2.0 * n_clouds * (point + tab + head)


def _predict_counts(n_clouds: int) -> dict:
    widths = L["net"].POINT_WIDTHS
    points = n_clouds * N_POINTS
    return {
        "points": points,
        "gflop": _net_flop(n_clouds) / 1e9,
        "act_mb": points * sum(widths[1:]) * 4 / 1e6,  # float32 point activations
    }


def _train_counts(data, cfg) -> dict:
    """Batches, samples and GFLOP of one epoch: each batch costs one forward
    and a backward of twice the forward's work; validation one forward."""
    batches = data.indices("train").size // cfg.batch_size
    samples = batches * cfg.batch_size
    flop = 3 * _net_flop(samples, cfg.variant) + _net_flop(data.indices("val").size, cfg.variant)
    return {"batches": batches, "samples": samples, "gflop": flop / 1e9}


# ---------------------------------------------------------------------------
# Shared steps


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the smoke test shrinks them."""

    subject_bundles: int = 73
    train_bundles: int = 600


# Set up at least twice; aim for MIN_SETUPS set-ups and MIN_SETUP_S of
# set-up, but no more set-ups than fit in MAX_SETUP_S, so the 600-bundle
# set-up (~13 s) runs twice and fits the time of a run.
MIN_SETUPS = 3
MIN_SETUP_S = 6.0
MAX_SETUP_S = 12.0


def setup_count(first_s: float) -> int:
    """Set-ups per run, from the duration of the first one."""
    wanted = max(MIN_SETUPS, math.ceil(MIN_SETUP_S / first_s))
    return max(2, min(wanted, int(MAX_SETUP_S // first_s)))


def _synth(tr: Tracer, work_dir: Path, n_bundles: int, seed: int):
    """Generate the seed's dataset and read every bundle file into memory."""
    synth = L["synth"]
    cfg = synth.DatasetConfig(out_dir=str(work_dir), n_bundles=n_bundles, master_seed=seed)
    rows = tr.call("synth.generate_dataset", synth.generate_dataset, cfg)
    return rows, [Path(r.path).read_bytes() for r in rows]


def _decode(tr: Tracer, blobs):
    read = L["io"].read_native
    return [tr.call("io.read_native", read, b, work=lambda _, b=b: {"mb": len(b) / 1e6}) for b in blobs]


def _oracle(tr: Tracer, bundles) -> np.ndarray:
    cm = L["shapes"].compute_measures
    return np.array(
        [
            tr.call("shapes.compute_measures", cm, b, VOXEL_SIZE, work=lambda m, b=b: _oracle_counts(b, m)).as_array()
            for b in bundles
        ]
    )


def _clouds(tr: Tracer, bundles, seed: int) -> np.ndarray:
    features, train = L["features"], L["train"]
    return np.stack(
        [
            tr.call(
                "features.sample_points",
                features.sample_points,
                b,
                N_POINTS,
                seed=train.sample_seed_for(seed, i),
                work=lambda _, b=b: {"points_scanned": b.n_points},
            )
            for i, b in enumerate(bundles)
        ]
    )


def _tabular(bundles) -> np.ndarray:
    return np.array([L["features"].extract_tabular(b) for b in bundles], dtype=np.float64)


def _train_data(tr: Tracer, rows, measures, seed: int):
    """Training arrays of the manifest rows, with the rows' own splits."""
    load = L["train"].load_training_arrays
    return tr.call("train.load_training_arrays", load, rows, measures, N_POINTS, seed)


def _fit(tr: Tracer, data):
    """One epoch of the default training config."""
    train, ckpt_mod = L["train"], L["checkpoint"]
    cfg = ckpt_mod.TrainConfig(epochs=1)
    return tr.call("train.train", train.train, data, cfg, work=lambda _: _train_counts(data, cfg))


def _checkpoint(tr: Tracer, data):
    """Train a checkpoint for one epoch and round-trip it through bytes."""
    ckpt_mod = L["checkpoint"]
    ckpt, _ = _fit(tr, data)
    return tr.call("checkpoint.load_checkpoint", ckpt_mod.load_checkpoint, ckpt_mod.save_checkpoint(ckpt))


def _predict(tr: Tracer, ckpt, clouds, tab) -> np.ndarray:
    predict = L["train"].predict_measures
    return tr.call("train.predict_measures", predict, ckpt, clouds, tab, work=lambda _: _predict_counts(len(clouds)))


def probe_pass(tr: Tracer, rows, seed: int) -> None:
    """Call every layer named in the per-layer metrics once on the
    workload's own bundles (at most one subject), so each metric is
    measured on every workload. Functions the library calls only
    internally (voxelize, surface count, forward, backward, Adam) are
    probed here as separate calls on the same inputs."""
    shapes, net, optim = L["shapes"], L["net"], L["optim"]
    tr.begin("probe")
    bundles = _decode(tr, [Path(r.path).read_bytes() for r in rows])
    measures = _oracle(tr, bundles)
    for b in bundles:
        grid = tr.call("shapes.voxelize", shapes.voxelize, b, VOXEL_SIZE)
        tr.call("shapes.count_surface_voxels", shapes.count_surface_voxels, grid.indices)
    data = _train_data(tr, rows, measures, seed)
    ckpt = _checkpoint(tr, data)
    clouds, tab = _clouds(tr, bundles, seed), data.tabular
    _predict(tr, ckpt, clouds, tab)
    # One float64 training batch of 32, as train.train runs it.
    batch = min(32, len(bundles))
    params = {k: v.copy() for k, v in ckpt.params.items()}
    tab_std = ckpt.standardizer.apply_many(tab[:batch])
    preds, cache = tr.call("net.forward", net.forward, params, clouds[:batch], tab_std, "full", want_cache=True)
    grads = tr.call("net.backward", net.backward, params, cache, np.ones_like(preds) / preds.size)
    tr.call("optim.adam_step", optim.adam_step, optim.AdamState(), params, grads)


# ---------------------------------------------------------------------------
# Workloads
#
# Each workload has a set-up, a step (one loop iteration: a subject or an
# epoch) and a check of the step's output against the reference that the
# first, untimed step produced.


class SubjectOracle:
    name = "subject_oracle"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed

    def setup(self, tr: Tracer, work_dir: Path) -> None:
        self.rows, self.blobs = _synth(tr, work_dir, self.sizes.subject_bundles, self.seed)

    def prepare_check(self) -> bool:
        """Naive-oracle reference for the smallest bundles of each family."""
        bundles = [L["io"].read_native(b) for b in self.blobs]
        picked = []
        for family in L["synth"].FAMILIES:
            idx = [i for i, r in enumerate(self.rows) if r.family == family]
            picked += sorted(idx, key=lambda i: bundles[i].n_points)[:NAIVE_PER_FAMILY]
        self.naive = {i: L["naive"].naive_measures(bundles[i], VOXEL_SIZE).as_array() for i in picked}
        return len({self.rows[i].family for i in picked}) == len(L["synth"].FAMILIES)

    def step(self, tr: Tracer):
        return _oracle(tr, _decode(tr, self.blobs))

    def ops(self, out) -> int:
        return len(out)

    def set_reference(self, out) -> bool:
        self.reference = out
        return all(np.array_equal(out[i], ref) for i, ref in self.naive.items())

    def failures(self, out) -> int:
        good = np.isfinite(out).all(axis=1) & (out == self.reference).all(axis=1)
        return int((~good).sum())

    def work_per_step(self) -> int:
        return len(self.blobs)


class SubjectModel(SubjectOracle):
    name = "subject_model"

    def setup(self, tr: Tracer, work_dir: Path) -> None:
        self.rows, self.blobs = _synth(tr, work_dir, self.sizes.subject_bundles, self.seed)
        measures = _oracle(tr, _decode(tr, self.blobs))
        self.ckpt = _checkpoint(tr, _train_data(tr, self.rows, measures, self.seed))

    def prepare_check(self) -> bool:
        """Float64 reference through the network and the checkpoint's
        public standardizer and PCA methods, on the step's own inputs."""
        ckpt, net = self.ckpt, L["net"]
        bundles = [L["io"].read_native(b) for b in self.blobs]
        clouds, tab = _clouds(Tracer(False), bundles, self.seed), _tabular(bundles)
        out = net.forward(ckpt.params, clouds, ckpt.standardizer.apply_many(tab), ckpt.config.variant)
        self.float64 = ckpt.pca.inverse_transform(ckpt.pca.unstandardize_scores(out))
        return True

    def step(self, tr: Tracer):
        bundles = _decode(tr, self.blobs)
        return _predict(tr, self.ckpt, _clouds(tr, bundles, self.seed), _tabular(bundles))

    def set_reference(self, out) -> bool:
        return self.failures(out) == 0

    def failures(self, out) -> int:
        err = np.abs(out - self.float64) / self.ckpt.pca.feature_sd
        good = np.isfinite(out).all(axis=1) & (err <= MODEL_TOLERANCE).all(axis=1)
        return int((~good).sum())


class TrainEpoch:
    name = "train_epoch"

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes, self.seed = sizes, seed

    def setup(self, tr: Tracer, work_dir: Path) -> None:
        self.rows, self.blobs = _synth(tr, work_dir, self.sizes.train_bundles, self.seed)
        measures = _oracle(tr, _decode(tr, self.blobs))
        self.data = _train_data(tr, self.rows, measures, self.seed)

    def prepare_check(self) -> bool:
        return True

    def step(self, tr: Tracer):
        _, log = _fit(tr, self.data)
        return [(row["train_loss"], row["val_loss"]) for row in log]

    def ops(self, out) -> int:
        return 1

    def set_reference(self, out) -> bool:
        self.reference = out
        return self.failures(out) == 0

    def failures(self, out) -> int:
        return int(not (np.isfinite(out).all() and out == self.reference))

    def work_per_step(self) -> int:
        cfg = L["checkpoint"].TrainConfig()
        return (self.data.indices("train").size // cfg.batch_size) * cfg.batch_size


WORKLOAD_CLASSES = {cls.name: cls for cls in (SubjectOracle, SubjectModel, TrainEpoch)}


# ---------------------------------------------------------------------------
# Running


@dataclass
class LoopResult:
    times: list
    ops: int
    failed: int


def _loop(workload, seconds: float, tracers, between=None) -> list[LoopResult]:
    """Closed loop: the next step starts when the previous one has ended.

    Runs whole steps until ``seconds`` of timed steps have passed and each
    tracer has had a step, taking the tracers in turn, one step each, so that a traced and an untraced
    loop see the same drift of the host. Returns one result per tracer.
    ``between(progress)`` runs after each step, outside its time, with the
    share of ``seconds`` passed so far.
    """
    results = [LoopResult([], 0, 0) for _ in tracers]
    for tr in tracers:
        tr.begin("loop")
    elapsed, k = 0.0, 0
    while elapsed < seconds or k < len(tracers):
        tr, res = tracers[k % len(tracers)], results[k % len(tracers)]
        with tr.span("iteration", subject=len(res.times)):
            t0, untimed = time.perf_counter(), tr.untimed
            out = workload.step(tr)
            res.times.append(time.perf_counter() - t0 - (tr.untimed - untimed))
        res.ops += workload.ops(out)
        res.failed += workload.failures(out)
        elapsed, k = elapsed + res.times[-1], k + 1
        if between is not None:
            between(elapsed / seconds)
    return results


def environment(sizes: Sizes, seed: int, seconds: float) -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # numpy < 1.25 lacks mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "seconds": seconds,
        "subject_bundles": sizes.subject_bundles,
        "train_bundles": sizes.train_bundles,
        "setup_rule": f"at least 2; {MIN_SETUPS} and {MIN_SETUP_S} s wanted, "
        f"at most {MAX_SETUP_S} s; the first before the loop, the rest spread over it",
        "warmup": "one untimed step under tracemalloc before timing: first BLAS call, "
        "first compute_measures call, reference outputs and peak_alloc_mb",
    }


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread count, read from the library this process loaded."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _timed_setup(workload, tr: Tracer, work_dir: Path) -> float:
    t0 = time.perf_counter()
    workload.setup(tr, work_dir)
    return time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """Run one workload; returns the result line plus the details."""
    load()
    workload = WORKLOAD_CLASSES[name](sizes, seed)
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        # Set-up, timed several times. The first set-up is the one the
        # workload uses; the others set up a fresh copy, spread over the
        # timed loop (between steps, outside their time), so that the median
        # sees the same drift of the host as the loop does. A traced run
        # sets up once, with spans. Set-up files stay until the run ends:
        # the probe pass reads those of the first set-up.
        tracer = Tracer(trace)
        setup_times = [_timed_setup(workload, tracer, scratch / "setup0")]
        n_setups = 1 if trace else setup_count(setup_times[0])

        def spread_setups(progress: float) -> None:
            while len(setup_times) < n_setups and progress >= len(setup_times) / (n_setups - 1):
                fresh = WORKLOAD_CLASSES[name](sizes, seed)
                setup_times.append(_timed_setup(fresh, Tracer(False), scratch / f"setup{len(setup_times)}"))

        correct = workload.prepare_check()

        # Untimed warm-up step, which also gives the reference outputs and
        # the allocation peak.
        tracemalloc.start()
        out = workload.step(Tracer(False))
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        correct &= workload.set_reference(out)

        if trace:
            plain, traced = _loop(workload, seconds, [Tracer(False), tracer])
            probe_pass(tracer, workload.rows[: sizes.subject_bundles], seed)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
            metrics, source = layer_metrics(tracer, len(traced.times))
            untraced_p50 = statistics.median(plain.times)
            overhead = (statistics.median(traced.times) - untraced_p50) / untraced_p50
            metrics[OVERHEAD_METRIC] = {"value": overhead, "unit": "frac"}
            loops = [plain, traced]
        else:
            (result,) = _loop(workload, seconds, [tracer], spread_setups)
            ok_work = workload.work_per_step() * len(result.times) * (1 - result.failed / result.ops)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "bundles_per_s": ok_work / sum(result.times),
                "iter_s_p50": statistics.median(result.times),
                "peak_alloc_mb": peak_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            source = {}
            loops = [result]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    times = [t for lp in loops for t in lp.times]
    p90 = float(np.quantile(times, 0.9))
    attempted = sum(lp.ops for lp in loops)
    failed = sum(lp.failed for lp in loops)
    line = {"correct": bool(correct) and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "workload": name,
        "trace": int(trace),
        "env": environment(sizes, seed, seconds),
        "setup_s_each": setup_times,
        "iter_s_each": times,
        "iter_s_p90": p90,
        "beyond_p90": sum(t > p90 for t in times),
        "failed_frac": failed / attempted,
        "source": source,
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({**details, **line}, indent=1))
    return {"line": line, "details": details}


def report(res: dict) -> None:
    """Human-readable summary, named by the metric names of the design."""
    line, d = res["line"], res["details"]
    name, n = d["workload"], len(d["iter_s_each"])
    m = {k: v["value"] for k, v in line["metrics"].items()}
    print(f"== {name}  seed {d['env']['seed']}  trace {d['trace']}  steps {n}")
    if d["trace"]:
        for k, v in line["metrics"].items():
            print(f"  {k:<42} {v['value']:>14.6g} {v['unit']:<8} {d['source'].get(k, 'loop')}")
    else:
        step = "epoch" if name == "train_epoch" else "subject"
        rate = "train_samples_per_s" if name == "train_epoch" else "bundles_per_s"
        print(f"  {'setup_s':<22} {m['setup_s']:>10.4f} s      median of {len(d['setup_s_each'])} set-ups")
        print(f"  {rate:<22} {m['bundles_per_s']:>10.2f} 1/s")
        print(f"  {step + '_s_p50':<22} {m['iter_s_p50']:>10.4f} s      n={n}")
        if step == "subject":
            print(f"  {'subject_s_p90':<22} {d['iter_s_p90']:>10.4f} s      n={n}, {d['beyond_p90']} beyond")
        print(f"  {'peak_alloc_mb':<22} {m['peak_alloc_mb']:>10.1f} MB")
    print(f"  {'failed_frac':<22} {d['failed_frac']:>10.4g}        {line['failed']}/{line['attempted']}")
    print(json.dumps({"env": d["env"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        res = run(name, args.seed, args.seconds, bool(args.trace))
        report(res)
        print(json.dumps(res["line"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

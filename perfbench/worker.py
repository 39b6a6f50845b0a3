"""Measured process of one benchmark run (started by run.py, one per run).

    python3 -m perfbench.worker --workload NAME --workdir DIR --seed N \
        --seconds S --trace 0|1 [--probe]

With --probe the process imports capypipe, makes the workload's first call
on its small warm-up input, prints "ready" and exits: run.py times this from
process start for setup_s. Otherwise it makes the same warm-up call, then
runs whole rounds of the workload until --seconds have passed, timing each
operation. Round 0 writes its outputs to DIR/check for run.py to verify;
later rounds must reproduce them exactly. With --trace 1 a third of the time
runs untraced and a third under the span tracer. A manifest workload's
traced run then makes one traced media pass (the media-decode round, inputs
in DIR/media, outputs in DIR/media/check), so the audio and tiler layers are
measured on every traced run; last, the five kernel cases of
benchmarks/bench_kernels.py are timed. Results go to
DIR/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from perfbench import gen
from perfbench.tracer import RoundView, Tracer

import capypipe
from capypipe import _kernels, audio, cli, tiler
from capypipe.tiler import EmbeddingGrid

_clock = time.perf_counter

CLUSTER_THRESHOLD = {"filter-mixed": 0.8, "filter-neardup": 0.5}
POS_EMBED_OUT = (48, 48)


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "capypipe": capypipe.__version__,
        "HAVE_NUMBA": _kernels.HAVE_NUMBA,
        "CAPYPIPE_NO_NUMBA": os.environ.get("CAPYPIPE_NO_NUMBA"),
        "kernel_path": "numba" if _kernels.HAVE_NUMBA else "numpy",
        "machine": platform.machine(),
    }


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes() if p.is_file() else b"<missing>")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads: each has warm() and run_round(out_dir) -> [(op, seconds, error)]


class CliWorkload:
    """One `capypipe filter` or `capypipe budget` invocation per round,
    through the CLI's dispatch function, as a user runs it."""

    def __init__(self, name: str, workdir: Path, seed: int) -> None:
        self.name = name
        self.workdir = workdir
        self.records = gen.RECORDS[name]
        self.extra = ["--cluster-jaccard-threshold", "0.5"] if name == "filter-neardup" else []

    def _argv(self, manifest: Path, out: Path) -> list[str]:
        if self.name == "budget-media":
            return ["budget", "--manifest", str(manifest), "--out", str(out / "budget.jsonl")]
        return ["filter", "--manifest", str(manifest), "--out", str(out / "kept.jsonl"),
                "--dropped", str(out / "dropped.jsonl"), "--report", str(out / "reports"),
                *self.extra]

    def warm(self) -> None:
        out = self.workdir / "warm_out"
        out.mkdir(exist_ok=True)
        if cli.dispatch(self._argv(self.workdir / "warm.jsonl", out)) != 0:
            raise RuntimeError(f"warm-up call of {self.name} failed")

    def outputs(self, out: Path) -> list[Path]:
        if self.name == "budget-media":
            return [out / "budget.jsonl"]
        return [out / "kept.jsonl", out / "dropped.jsonl", *sorted((out / "reports").glob("*.json"))]

    def run_round(self, out: Path) -> list[tuple]:
        out.mkdir(exist_ok=True)
        start = _clock()
        error = None
        try:
            code = cli.dispatch(self._argv(self.workdir / "input.jsonl", out))
            if code != 0:
                error = f"exit code {code}"
        except (Exception, SystemExit) as exc:  # an operation failure, counted
            error = f"{type(exc).__name__}: {exc}"
        return [(self.name, _clock() - start, error)]

    def round_counters(self, out: Path) -> dict:
        if self.name == "budget-media":
            return {}
        return {"bytes_written": sum(p.stat().st_size for p in self.outputs(out)[:2] if p.is_file())}

    def round_records(self) -> int:
        return self.records


class MediaWorkload:
    """audio.profile on each tone, place_on_canvas on each image, one
    position-embedding interpolation. Every call is one operation."""

    def __init__(self, name: str, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.tones = gen.tones(seed)
        self.images = [
            (w, h, pattern, np.load(workdir / f"image_{w}x{h}.npy"))
            for w, h, pattern in gen.IMAGE_LAYOUT
        ]
        values, *_ = gen.linear_grid(seed)
        self.grid = EmbeddingGrid(*values.shape, values)

    def warm(self) -> None:
        audio.profile(self.workdir / "warm.wav")
        small = np.full((48, 64, 3), 7, dtype=np.uint8)
        tiler.place_on_canvas(small, tiler.plan_tiles(64, 48))
        g = EmbeddingGrid(4, 4, 8, np.zeros((4, 4, 8), dtype=np.float32))
        tiler.interpolate_pos_embed(g, 8, 8)

    def outputs(self, out: Path) -> list[Path]:
        canvases = [out / f"canvas_{w}x{h}.npy" for w, h, _ in gen.IMAGE_LAYOUT]
        return [out / "profiles.json", out / "pos_embed.npy", *canvases]

    def round_counters(self, out: Path) -> dict:
        return {}

    def _call(self, ops: list, name: str, fn, *args):
        start = _clock()
        try:
            result = fn(*args)
            error = None
        except Exception as exc:  # an operation failure, counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        ops.append((name, _clock() - start, error))
        return result

    def run_round(self, out: Path) -> list[tuple]:
        out.mkdir(exist_ok=True)
        ops: list[tuple] = []
        profiles = {}
        for tone in self.tones:
            self.current_tone = tone.name
            prof = self._call(ops, f"profile:{tone.name}", audio.profile,
                              self.workdir / f"{tone.name}.wav")
            if prof is not None:
                profiles[tone.name] = prof.to_json()
        plans = {}
        for w, h, pattern, img in self.images:
            plan = tiler.plan_tiles(w, h)
            plans[f"{w}x{h}"] = [plan.grid_rows, plan.grid_cols]
            canvas = self._call(ops, f"place:{w}x{h}", tiler.place_on_canvas, img, plan)
            if canvas is not None:
                np.save(out / f"canvas_{w}x{h}.npy", canvas)
        emb = self._call(ops, "pos_embed", tiler.interpolate_pos_embed, self.grid, *POS_EMBED_OUT)
        if emb is not None:
            np.save(out / "pos_embed.npy", emb.values)
        (out / "profiles.json").write_text(json.dumps({"profiles": profiles, "plans": plans},
                                                      sort_keys=True))
        return ops

    def round_records(self) -> int:
        return len(self.tones) + len(self.images) + 1

    @contextlib.contextmanager
    def capture_resampled(self, out: Path):
        """Keep the 16 kHz signal of each profiled clip (round 0 only), so
        run.py can check its spectrum; a list append per call."""
        original = audio.resample_16k
        kept: dict[str, np.ndarray] = {}

        def keep(samples, rate):
            kept[self.current_tone] = y = original(samples, rate)
            return y

        audio.resample_16k = keep
        try:
            yield
        finally:
            audio.resample_16k = original
        for name, y in kept.items():
            np.save(out / f"resampled_{name}.npy", y)


WORKLOADS = {
    "filter-mixed": CliWorkload,
    "filter-neardup": CliWorkload,
    "budget-media": CliWorkload,
    "media-decode": MediaWorkload,
}


# ---------------------------------------------------------------------------
# tracing


def install_hooks(tracer: Tracer, cluster_threshold: float) -> None:
    span, agg = tracer.hook_span, tracer.hook_aggregate
    span("capypipe.cli", "dispatch", "cli.dispatch")
    span("capypipe.cli", "read_manifest", "manifest.read", lambda a, r: {"records": len(r)})
    span("capypipe.cli", "write_manifest", "manifest.write")
    agg("capypipe.cli", "dumps_record", "manifest.dumps_record")
    span("capypipe.cli", "_emit", "cli.emit",
         lambda a, r: {"bytes": sum(len(line.encode("utf-8")) + 1 for line in a[0])})
    agg("capypipe.cli", "plan_tiles", "tiler.plan_tiles")
    agg("capypipe.cli", "_dumps", "cli.dumps")
    agg("capypipe.tokens", "TokenLayout.to_json", "cli.layout_to_json")
    span("capypipe.pipeline", "curate", "pipeline.curate")
    span("capypipe.pipeline", "_dedup_exact_full", "pipeline.dedup")
    span("capypipe.pipeline", "_cluster_prune_full", "pipeline.cluster",
         lambda a, r: {"merged": len(r[1])})
    agg("capypipe.pipeline", "_shingle_hashes", "pipeline.shingle_hashes")
    agg("capypipe.pipeline", "exact_jaccard", "pipeline.exact_jaccard",
        lambda a, r: {"useful": int(r >= cluster_threshold)})
    span("capypipe.pipeline", "_metric_filter",
         lambda a: "pipeline.asr" if a[2] == "asr-filter" else "pipeline.s2tt")
    agg("capypipe.pipeline", "ngram_cosine", "metrics.ngram_cosine")
    agg("capypipe.tokens", "assemble_layout", "tokens.assemble_layout",
        lambda a, r: {"segments": len(r.segments)})
    agg("capypipe.video", "schedule", "video.schedule",
        lambda a, r: {"frames": len(r.timestamps)})
    span("capypipe.audio", "profile", "audio.profile")
    span("capypipe.audio", "decode_wav", "audio.decode")
    span("capypipe.audio", "resample_16k", "audio.resample", alloc=True)
    span("capypipe.audio", "log_mel", "audio.log_mel")
    agg("capypipe.tiler", "plan_tiles", "tiler.plan_tiles")
    span("capypipe.tiler", "place_on_canvas", "tiler.place")
    span("capypipe.tiler", "interpolate_pos_embed", "tiler.pos_embed")
    agg("capypipe._kernels", "minhash_signature", "kernels.minhash")
    agg("capypipe._kernels", "edit_ops", "kernels.edit_ops",
        lambda a, r: {"dp_cells": len(a[0]) * len(a[1])})
    agg("capypipe._kernels", "sinc_resample", "kernels.sinc_resample",
        lambda a, r: {"samples": int(a[2])})
    agg("capypipe._kernels", "bilinear_resize_u8", "kernels.bilinear_resize")
    agg("capypipe._kernels", "grid_interp", "kernels.grid_interp")


MODULES = ("bench", "cli", "manifest", "pipeline", "metrics", "kernels", "tokens", "tiler",
           "video", "audio")
# measured by the media pass in traced runs of the manifest workloads
MEDIA_LAYERS = ("audio.decode_s", "audio.resample_s", "audio.log_mel_s", "audio.samples_resampled",
                "audio.resample_peak_alloc_mb", "tiler.place_s", "tiler.pos_embed_s",
                "kernels.sinc_resample_s", "kernels.bilinear_resize_s", "kernels.grid_interp_s")


def round_layer_metrics(v: RoundView) -> dict[str, float]:
    pairs = v.calls("pipeline.exact_jaccard")
    m = {
        "manifest.read_s": v.seconds("manifest.read"),
        "manifest.write_s": v.seconds("manifest.write", "manifest.dumps_record"),
        "manifest.records_read": v.counter("manifest.read", "records"),
        "manifest.bytes_written": v.counter("bench.round", "bytes_written"),
        "pipeline.dedup_s": v.seconds("pipeline.dedup"),
        "pipeline.cluster_s": v.seconds("pipeline.cluster"),
        "pipeline.cluster_signature_s": v.seconds("pipeline.shingle_hashes", "kernels.minhash"),
        "pipeline.cluster_verify_s": v.seconds("pipeline.exact_jaccard"),
        "pipeline.cluster_candidate_pairs": pairs,
        "pipeline.cluster_useful_ratio": (
            v.counter("pipeline.exact_jaccard", "useful") / pairs if pairs else 0.0
        ),
        "pipeline.records_merged": v.counter("pipeline.cluster", "merged"),
        "pipeline.asr_s": v.seconds("pipeline.asr"),
        "pipeline.s2tt_s": v.seconds("pipeline.s2tt"),
        "metrics.edit_ops_calls": v.calls("kernels.edit_ops"),
        "metrics.dp_cells": v.counter("kernels.edit_ops", "dp_cells"),
        "metrics.ngram_cosine_calls": v.calls("metrics.ngram_cosine"),
        "tokens.assemble_s": v.seconds("tokens.assemble_layout"),
        "tokens.segments": v.counter("tokens.assemble_layout", "segments"),
        "tiler.plan_s": v.seconds("tiler.plan_tiles"),
        "video.schedule_s": v.seconds("video.schedule"),
        "video.frames_scheduled": v.counter("video.schedule", "frames"),
        "cli.emit_s": v.seconds("cli.emit", "cli.dumps", "cli.layout_to_json"),
        "cli.bytes_out": v.counter("cli.emit", "bytes"),
        "audio.decode_s": v.seconds("audio.decode"),
        "audio.resample_s": v.seconds("audio.resample"),
        "audio.log_mel_s": v.seconds("audio.log_mel"),
        "audio.samples_resampled": v.counter("kernels.sinc_resample", "samples"),
        "audio.resample_peak_alloc_mb": v.counter("audio.resample", "peak_alloc_mb", max),
        "tiler.place_s": v.seconds("tiler.place"),
        "tiler.pos_embed_s": v.seconds("tiler.pos_embed"),
        "kernels.minhash_s": v.seconds("kernels.minhash"),
        "kernels.edit_ops_s": v.seconds("kernels.edit_ops"),
        "kernels.sinc_resample_s": v.seconds("kernels.sinc_resample"),
        "kernels.bilinear_resize_s": v.seconds("kernels.bilinear_resize"),
        "kernels.grid_interp_s": v.seconds("kernels.grid_interp"),
    }
    self_s = v.module_self_seconds()
    for module in MODULES:
        m[f"self.{module}_s"] = self_s.get(module, 0.0)
    m["trace.spans"] = len(v.spans) + sum(len(s["aggs"]) for s in v.spans)
    return m


# ---------------------------------------------------------------------------
# the five kernel cases of benchmarks/bench_kernels.py, same input shapes


def kernel_cases(seed: int, tracer: Tracer) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(1080, 1920, 3), dtype=np.uint8)
    grid = rng.normal(size=(32, 32, 1024))
    signal = rng.normal(size=48000 * 4)
    ref = rng.integers(0, 50, size=400).astype(np.int64)
    hyp = rng.integers(0, 50, size=400).astype(np.int64)
    cases = [
        ("bilinear_resize_1920x1080_to_1344", 3, lambda: _kernels.bilinear_resize_u8(img, 1344, 1344)),
        ("grid_interp_32x32x1024_to_48", 3, lambda: _kernels.grid_interp(grid, 48, 48)),
        ("sinc_resample_4s_48k_to_16k", 1, lambda: _kernels.sinc_resample(signal, 1 / 3, 64000)),
        ("edit_ops_400x400", 3, lambda: _kernels.edit_ops(ref, hyp)),
    ]
    prime = getattr(_kernels, "MINHASH_PRIME", None)
    if prime is not None and hasattr(_kernels, "minhash_signature"):
        hashes = rng.integers(0, int(prime), size=2000).astype(np.uint64)
        a = rng.integers(1, int(prime), size=128).astype(np.uint64)
        b = rng.integers(0, int(prime), size=128).astype(np.uint64)
        cases.append(("minhash_2000x128", 3, lambda: _kernels.minhash_signature(hashes, a, b)))
    out = {}
    tracer.run_id = "kernel-cases"
    for name, repeats, fn in cases:
        times = []
        for _ in range(repeats):
            if name.startswith("sinc"):
                tracemalloc.start()
            span = tracer.begin(f"kernels.case.{name}")
            fn()
            tracer.end(span)
            times.append(span["end"] - span["start"])
            if name.startswith("sinc"):
                out["kernels.case.sinc_resample_4s_48k_peak_alloc_mb"] = (
                    tracemalloc.get_traced_memory()[1] / 2**20
                )
                tracemalloc.stop()
        out[f"kernels.case.{name}_ms"] = min(times) * 1e3
    out.setdefault("kernels.case.minhash_2000x128_ms", 0.0)
    return out


# ---------------------------------------------------------------------------


def _run_rounds(workload, seconds: float, start_index: int, check_dir: Path, out_dir: Path,
                tracer: Tracer | None, reference: dict, result: dict,
                label: str = "round") -> list[float]:
    """Run whole rounds (at least one) until `seconds` have passed; return
    each round's time, the sum of its operations' times. Traced rounds get
    run id `<label>-<index>`."""
    walls = []
    deadline = _clock() + seconds
    k = start_index
    while not walls or _clock() < deadline:
        out = check_dir if k == 0 else out_dir
        capture = (workload.capture_resampled(out) if k == 0 and isinstance(workload, MediaWorkload)
                   else contextlib.nullcontext())
        if tracer is not None:
            tracer.run_id = f"{label}-{k}"
            root = tracer.begin("bench.round")
        with capture:
            ops = workload.run_round(out)
        if k == 0 and tracer is None:
            # one invocation in a fresh process, as a user runs it; later
            # rounds only reuse (or fragment) the heap it left
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.end(root)
            root["counters"].update(workload.round_counters(out))
        walls.append(sum(secs for _, secs, _ in ops))
        for name, secs, error in ops:
            result["attempted"] += 1
            result["op_times"].setdefault(name, []).append(secs)
            if error is not None:
                result["failed"] += 1
                result["errors"].append(f"round {k} {name}: {error}")
        digest = _digest(*workload.outputs(out))
        if k == 0:
            reference["digest"] = digest
        elif digest != reference["digest"]:
            result["nondeterministic"].append(k)
        k += 1
    return walls


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file", type=Path, default=None)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload, args.workdir, args.seed)
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        workload.warm()
        if args.probe:
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0

        result = {"env": environment(), "attempted": 0, "failed": 0, "errors": [],
                  "nondeterministic": [], "op_times": {}, "round_records": workload.round_records()}
        check_dir, out_dir = args.workdir / "check", args.workdir / "out"
        reference: dict = {}
        # a traced run spends a third of its time untraced, a third traced,
        # and the rest on one media pass and the kernel cases
        untraced_s = args.seconds / 3 if args.trace else args.seconds
        result["rounds"] = _run_rounds(workload, untraced_s, 0, check_dir, out_dir, None,
                                       reference, result)
        if args.trace:
            tracer = Tracer()
            install_hooks(tracer, CLUSTER_THRESHOLD.get(args.workload, 1.0))
            try:
                traced = _run_rounds(workload, args.seconds / 3, len(result["rounds"]), check_dir,
                                     out_dir, tracer, reference, result)
                if not isinstance(workload, MediaWorkload):
                    media_dir = args.workdir / "media"
                    media = MediaWorkload("media-decode", media_dir, args.seed)
                    _run_rounds(media, 0.0, 0, media_dir / "check", media_dir / "out", tracer, {},
                                result, label="media-pass")
            finally:
                tracer.uninstall()
            per_run = {
                run: round_layer_metrics(RoundView([s for s in tracer.spans if s["run"] == run]))
                for run in dict.fromkeys(s["run"] for s in tracer.spans)
            }
            rounds = [m for run, m in per_run.items() if run.startswith("round-")]
            layers = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
            if "media-pass-0" in per_run:
                layers.update({k: per_run["media-pass-0"][k] for k in MEDIA_LAYERS})
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(result["rounds"])
            layers["trace.rounds"] = len(traced)
            layers.update(kernel_cases(args.seed, tracer))
            result["layers"] = layers
            result["traced_rounds"] = traced
            result["missing_hooks"] = tracer.missing
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                           "env": result["env"], "missing_hooks": tracer.missing})
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

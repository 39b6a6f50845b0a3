#!/usr/bin/env python3
"""capypipe benchmark: end-to-end and per-layer figures on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload filter-mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

Each run generates its inputs from --seed, times setup in fresh
interpreters, then starts one worker process that runs whole rounds of the
workload for --seconds and checks the outputs against computations made here
(perfbench/oracle.py). With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics from a traced run, and the spans are written under .bench_work/traces/.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle  # noqa: E402

WORKLOADS = ("filter-mixed", "filter-neardup", "budget-media", "media-decode")
SETUP_PROBES = 5
TIME_LIMIT_S = 175.0
END_TO_END_UNITS = {"records_per_s": "records/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes_written", "bytes_out")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("x_realtime"):
        return "x"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _worker_cmd(workload: str, workdir: Path, seed: int, seconds: float, trace: int) -> list[str]:
    return [sys.executable, "-m", "perfbench.worker", "--workload", workload,
            "--workdir", str(workdir), "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def measure_setup(cmd: list[str], deadline: float) -> list[float]:
    """Seconds from process start to the worker's "ready" line (capypipe
    imported, first warm call done), once per fresh interpreter. The probe
    prints time.monotonic() at that point; CLOCK_MONOTONIC is shared by all
    processes of the machine."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(cmd + ["--probe"], cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        word, _, ready = proc.stdout.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {proc.stderr[-500:]}")
        times.append(float(ready) - start)
    return times


def check_outputs(workload: str, seed: int, workdir: Path, inputs: dict) -> list[str]:
    check = workdir / "check"

    def jsonl(name: str) -> list[dict]:
        path = check / name
        if not path.is_file():
            return []
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]

    if workload in ("filter-mixed", "filter-neardup"):
        threshold, cluster = ((0.8, oracle.overlap_kept) if workload == "filter-mixed"
                              else (0.5, oracle.brute_force_kept))
        expected = oracle.expected_filter(inputs["rows"], threshold, cluster)
        return oracle.check_filter(inputs["rows"], jsonl("kept.jsonl"), jsonl("dropped.jsonl"),
                                   expected, inputs["planted_duplicates"])
    if workload == "budget-media":
        return oracle.check_budget(inputs["rows"], jsonl("budget.jsonl"))
    problems = []
    data = json.loads((check / "profiles.json").read_text())
    for tone in gen.tones(seed):
        resampled = check / f"resampled_{tone.name}.npy"
        if tone.name not in data["profiles"] or not resampled.is_file():
            problems.append(f"{tone.name}: no profile")
            continue
        problems += oracle.check_profile(tone, data["profiles"][tone.name], np.load(resampled))
    for w, h, pattern in gen.IMAGE_LAYOUT:
        canvas = check / f"canvas_{w}x{h}.npy"
        if not canvas.is_file():
            problems.append(f"{w}x{h}: no canvas")
            continue
        src = np.load(workdir / f"image_{w}x{h}.npy")
        problems += oracle.check_canvas(src, np.load(canvas), pattern, data["plans"][f"{w}x{h}"])
    _, a, b, k = gen.linear_grid(seed)
    if (check / "pos_embed.npy").is_file():
        problems += oracle.check_pos_embed(np.load(check / "pos_embed.npy"), a, b, k)
    else:
        problems.append("pos-embed: no output")
    return problems


def round_seconds(op_times: dict, n_rounds: int, prefix: str = "") -> float:
    """Mean time of one round over the untraced rounds, counting the
    operations whose name starts with `prefix`. Work done over time spent,
    rather than a median round: CPU speed on a shared host shifts in phases
    of a few seconds, and a mean over the run averages them where a median
    snaps to one of them."""
    return sum(sum(times[:n_rounds]) for name, times in op_times.items()
               if name.startswith(prefix)) / n_rounds


def media_rates(seed: int, op_times: dict, n_rounds: int) -> dict[str, float]:
    """Input audio seconds per second spent in audio.profile, and images per
    second spent in place_on_canvas."""
    audio_s = sum(t.seconds for t in gen.tones(seed))
    return {
        "media.audio_x_realtime": audio_s / round_seconds(op_times, n_rounds, "profile:"),
        "media.images_per_s": len(gen.IMAGE_LAYOUT) / round_seconds(op_times, n_rounds, "place:"),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, bool]:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    trace_file = ROOT / ".bench_work" / "traces" / f"{workload}-s{seed}.jsonl"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = gen.write_inputs(workload, seed, workdir)
        media_pass = bool(trace) and workload != "media-decode"
        if media_pass:
            gen.write_inputs("media-decode", seed, workdir / "media")
        cmd = _worker_cmd(workload, workdir, seed, seconds, trace)
        setup = measure_setup(cmd, deadline) if not trace else []
        if trace:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file", str(trace_file)]
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads((workdir / "result.json").read_text())
        problems = check_outputs(workload, seed, workdir, inputs)
        if media_pass:
            problems += check_outputs("media-decode", seed, workdir / "media", {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["nondeterministic"]:
        problems.append(f"rounds {result['nondeterministic']} differ from round 0")
    rounds = result["rounds"]
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in problems + result["errors"][:10]:
        print(f"  problem: {line}")
    print(f"  {len(rounds)} untraced rounds of {result['round_records']} records "
          f"(median {statistics.median(rounds):.4f} s)")
    if trace:
        metrics = dict(result["layers"])
        metrics.update(media_rates(seed, result["op_times"], len(rounds) if not media_pass else 1))
        units = {name: layer_unit(name) for name in metrics}
        print(f"  spans written to {trace_file.relative_to(ROOT)}; "
              f"hooks not found: {result['missing_hooks'] or 'none'}")
    else:
        metrics = {
            "records_per_s": result["round_records"] / round_seconds(result["op_times"], len(rounds)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        if workload == "media-decode":
            for name, value in media_rates(seed, result["op_times"], len(rounds)).items():
                print(f"  {name} = {value:.6g} {layer_unit(name)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = not problems
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {correct}")
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return summary, correct


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "capypipe" / "__init__.py").is_file():
        print(f"error: capypipe sources not found under {ROOT / 'src'}; "
              "run from a capypipe checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    all_correct = True
    for name in names:
        try:
            summaries[name], correct = run_one(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        all_correct &= correct
    if args.workload == "all":
        print(json.dumps({"workloads": summaries}))
    else:
        print(json.dumps(summaries[args.workload]))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

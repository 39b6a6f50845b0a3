"""Self-tests of the benchmark: seeded inputs, output checks, the
near-duplicate oracle, and one short end-to-end run of the command.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, oracle  # noqa: E402

from capypipe import audio, tiler  # noqa: E402
from capypipe.cli import dispatch  # noqa: E402
from capypipe.pipeline import cluster_prune  # noqa: E402
from capypipe.manifest import Language, SampleRecord, Scenario  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("workload", ["filter-mixed", "filter-neardup", "budget-media", "media-decode"])
def test_seed_regenerates_identical_inputs(tmp_path, workload):
    gen.write_inputs(workload, 5, tmp_path / "a")
    gen.write_inputs(workload, 5, tmp_path / "b")
    gen.write_inputs(workload, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_budget_inputs_cover_every_tiling_regime():
    rows = gen.budget_manifest(1, gen.RECORDS["budget-media"])
    images = [m for r in rows for m in r["media"] if m["kind"] == "Image"]
    cells = {np.prod(oracle.grid_cells(m["width"], m["height"])) for m in images}
    assert cells == set(range(1, 10))
    videos = [m["duration"] for r in rows for m in r["media"] if m["kind"] == "Video"]
    assert sum(d > 128 for d in videos) > len(videos) / 2
    assert min(videos) >= 1 and max(videos) <= 3600


# ---------------------------------------------------------------------------
# each check passes on the program's output and rejects a corrupted copy


def _run_filter(tmp_path: Path, rows: list[dict], *extra: str) -> tuple[list, list]:
    gen.write_jsonl(rows, tmp_path / "in.jsonl")
    code = dispatch(["filter", "--manifest", str(tmp_path / "in.jsonl"),
                     "--out", str(tmp_path / "kept.jsonl"),
                     "--dropped", str(tmp_path / "dropped.jsonl"), *extra])
    assert code == 0
    return _jsonl(tmp_path / "kept.jsonl"), _jsonl(tmp_path / "dropped.jsonl")


def test_filter_check_rejects_kept_record_moved_to_dropped(tmp_path):
    manifest = gen.mixed_manifest(3, 300)
    kept, dropped = _run_filter(tmp_path, manifest.rows)
    expected = oracle.expected_filter(manifest.rows, 0.8, oracle.overlap_kept)
    assert manifest.planted_duplicates
    assert oracle.check_filter(manifest.rows, kept, dropped, expected, manifest.planted_duplicates) == []

    order = {r["id"]: i for i, r in enumerate(manifest.rows)}
    moved = kept.pop(0)
    dropped = sorted(dropped + [moved], key=lambda r: order[r["id"]])
    problems = oracle.check_filter(manifest.rows, kept, dropped, expected, manifest.planted_duplicates)
    assert any(moved["id"] in p for p in problems)


def test_filter_check_rejects_a_wrong_verdict_value(tmp_path):
    manifest = gen.mixed_manifest(4, 120)
    kept, dropped = _run_filter(tmp_path, manifest.rows)
    expected = oracle.expected_filter(manifest.rows, 0.8, oracle.overlap_kept)
    scored = next(r for r in kept if (r.get("verdict") or {}).get("metric_name") == "wer")
    scored["verdict"]["metric_value"] += 0.01
    assert oracle.check_filter(manifest.rows, kept, dropped, expected)


def test_neardup_check_matches_program_and_rejects_a_missed_merge(tmp_path):
    rows = gen.neardup_manifest(2, 60)
    kept, dropped = _run_filter(tmp_path, rows, "--cluster-jaccard-threshold", "0.5")
    expected = oracle.expected_filter(rows, 0.5, oracle.brute_force_kept)
    assert oracle.check_filter(rows, kept, dropped, expected) == []
    merged = [r for r in dropped if r["verdict"]["stage"] == "near-duplicate-cluster"]
    assert merged, "the near-duplicate workload must merge something"
    order = {r["id"]: i for i, r in enumerate(rows)}
    kept = sorted(kept + [merged[0]], key=lambda r: order[r["id"]])
    dropped = [r for r in dropped if r is not merged[0]]
    assert oracle.check_filter(rows, kept, dropped, expected)


def test_budget_check_rejects_a_total_off_by_one(tmp_path):
    rows = gen.budget_manifest(7, 80)
    gen.write_jsonl(rows, tmp_path / "in.jsonl")
    assert dispatch(["budget", "--manifest", str(tmp_path / "in.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")]) == 0
    out = _jsonl(tmp_path / "out.jsonl")
    assert oracle.check_budget(rows, out) == []
    out[5]["total"] += 1
    problems = oracle.check_budget(rows, out)
    assert any(rows[5]["id"] in p for p in problems)


def test_profile_check_rejects_a_resample_one_sample_short(tmp_path):
    tone = gen.Tone("t", 44100, 2, 1, 997.0, 0.5)
    gen.write_tone(tone, tmp_path / "t.wav")
    prof = audio.profile(tmp_path / "t.wav")
    resampled = audio.resample_16k(*audio.decode_wav(tmp_path / "t.wav"))
    assert oracle.check_profile(tone, prof.to_json(), resampled) == []
    assert oracle.check_profile(tone, prof.to_json(), resampled[:-1])
    short = dict(prof.to_json(), resampled_len=prof.resampled_len - 1)
    assert oracle.check_profile(tone, short, resampled)
    off_pitch = gen.Tone("t", 44100, 2, 1, 1003.0, 0.5)
    assert oracle.check_profile(off_pitch, prof.to_json(), resampled)


def test_canvas_and_pos_embed_checks_reject_corruption():
    src = gen.image(1, 800, 600, "constant")
    plan = tiler.plan_tiles(800, 600)
    canvas = tiler.place_on_canvas(src, plan)
    grid = (plan.grid_rows, plan.grid_cols)
    assert oracle.check_canvas(src, canvas, "constant", grid) == []
    bad = canvas.copy()
    bad[0, 0] = 0
    assert oracle.check_canvas(src, bad, "constant", grid)
    bad = canvas.copy()
    bad[canvas.shape[0] // 2, canvas.shape[1] // 2] ^= 1
    assert oracle.check_canvas(src, bad, "constant", grid)

    values, a, b, k = gen.linear_grid(1)
    out = tiler.interpolate_pos_embed(tiler.EmbeddingGrid(32, 32, 1024, values), 48, 48).values
    assert oracle.check_pos_embed(out, a, b, k) == []
    out = out.copy()
    out[10, 20, 3] += 1e-3
    assert oracle.check_pos_embed(out, a, b, k)


# ---------------------------------------------------------------------------
# near-duplicate oracles


def _criterion9_brute(texts, threshold, n):
    """The brute force of acceptance criterion 9, restated."""

    def jac(a, b):
        if len(a) < n or len(b) < n:
            return 1.0 if a == b else 0.0
        sa = {a[i : i + n] for i in range(len(a) - n + 1)}
        sb = {b[i : i + n] for i in range(len(b) - n + 1)}
        return len(sa & sb) / len(sa | sb)

    parent = list(range(len(texts)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if jac(texts[i], texts[j]) >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [i for i in range(len(texts)) if find(i) == i]


def test_neardup_oracles_agree_with_criterion9_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(100):
        threshold = float(rng.choice([0.5, 0.8]))
        texts = ["".join(rng.choice(list("abc"), size=rng.integers(1, 14))) for _ in range(50)]
        want = _criterion9_brute(texts, threshold, 3)
        assert oracle.brute_force_kept(texts, threshold) == want
        assert oracle.overlap_kept(texts, threshold) == want
        recs = [SampleRecord(f"r{i}", Scenario.QA, Language.ENG, t) for i, t in enumerate(texts)]
        assert [r.id for r in cluster_prune(recs, threshold, 3)[0]] == [f"r{i}" for i in want]


def test_overlap_oracle_agrees_on_workload_texts():
    texts = [oracle.normalize(r["text"]) for r in gen.neardup_manifest(3, 120)]
    for threshold in (0.5, 0.8):
        assert oracle.overlap_kept(texts, threshold) == oracle.brute_force_kept(texts, threshold)


# ---------------------------------------------------------------------------
# the command itself


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric_and_writes_spans():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "filter-neardup", "--seed", "3", "--seconds", "1",
                      "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert result["metrics"]["pipeline.records_merged"]["value"] > 0
    # the media pass measures the audio and tiler layers on every traced run
    assert result["metrics"]["audio.resample_s"]["value"] > 0
    assert result["metrics"]["tiler.place_s"]["value"] > 0
    spans = _jsonl(ROOT / ".bench_work" / "traces" / "filter-neardup-s3.jsonl")
    assert spans[0]["header"]["missing_hooks"] == []
    assert {"pipeline.cluster", "manifest.read", "bench.round"} <= {s.get("name") for s in spans}


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "budget-media", "--seed", "3", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "filter-mixed", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

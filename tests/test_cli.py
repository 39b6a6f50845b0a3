import json

import pytest

from capypipe.cli import build_parser, dispatch
from capypipe.manifest import read_manifest, write_manifest

from conftest import make_record


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_plan_tiles_1344(capsys):
    code, out, _ = run(
        capsys, "plan-tiles", "--width", "1344", "--height", "1344", "--max-slices", "9"
    )
    assert code == 0
    obj = json.loads(out)
    assert (obj["rows"], obj["cols"], obj["thumbnail"]) == (3, 3, True)


def test_plan_tiles_invalid_dims(capsys):
    code, _, err = run(capsys, "plan-tiles", "--width", "0", "--height", "5")
    assert code == 1
    assert "positive" in err


def test_video_schedule(capsys):
    code, out, _ = run(capsys, "video-schedule", "--duration", "3")
    assert code == 0
    assert json.loads(out) == [0.5, 1.5, 2.5]


def test_metrics_wer_identical(tmp_path, capsys):
    ref = tmp_path / "r.tsv"
    hyp = tmp_path / "h.tsv"
    content = "a\thello world\nb\tgood morning\n"
    ref.write_text(content)
    hyp.write_text(content)
    code, out, _ = run(capsys, "metrics", "wer", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(r["value"] == 0.0 for r in rows if "id" in r)
    assert rows[-1]["mean"] == 0.0


def test_metrics_bleu(tmp_path, capsys):
    ref = tmp_path / "r.tsv"
    hyp = tmp_path / "h.tsv"
    ref.write_text("a\tthe cat sat on the mat\n")
    hyp.write_text("a\tthe cat sat on the mat\n")
    code, out, _ = run(capsys, "metrics", "bleu", "--ref", str(ref), "--hyp", str(hyp))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0)


def test_missing_manifest_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "stats", "--manifest", str(tmp_path / "nope.jsonl")
    )
    assert code == 2
    assert "nope.jsonl" in err


def test_budget_manifest(tmp_path, capsys):
    from capypipe.manifest import Scenario

    recs = [
        make_record(id="a", text="two words"),
        make_record(id="b", scenario=Scenario.QA, media=(), text="only text here"),
    ]
    path = tmp_path / "m.jsonl"
    write_manifest(recs, path)
    code, out, _ = run(capsys, "budget", "--manifest", str(path))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["id"] == "a"
    assert rows[0]["total"] == 25 + 2
    assert rows[1]["total"] == 3


def _budget_one(tmp_path, capsys, *media):
    from capypipe.manifest import Scenario

    path = tmp_path / "m.jsonl"
    write_manifest([make_record(id="a", scenario=Scenario.QA, media=media, text="")], path)
    code, out, err = run(capsys, "budget", "--manifest", str(path))
    assert (code, err) == (0, "")
    return json.loads(out)["segments"]


def test_budget_image_and_audio_sharing_a_path(tmp_path, capsys):
    from capypipe.manifest import MediaKind, MediaRef

    segments = _budget_one(
        tmp_path, capsys,
        MediaRef(kind=MediaKind.IMAGE, path="m", width=448, height=448),
        MediaRef(kind=MediaKind.AUDIO, path="m", duration=2.0),
    )
    assert segments == [
        {"kind": "ImageUnit", "count": 256},
        {"kind": "RowBreak", "count": 16},
        {"kind": "Audio", "count": 50},
    ]


def test_budget_videos_sharing_a_path(tmp_path, capsys):
    from capypipe.manifest import MediaKind, MediaRef

    segments = _budget_one(
        tmp_path, capsys,
        MediaRef(kind=MediaKind.VIDEO, path="v", duration=3.0),
        MediaRef(kind=MediaKind.VIDEO, path="v", duration=300.0),
    )
    frames = [s["count"] for s in segments if s["kind"] == "VideoFrame"]
    # 3 frames for the short video, then the 128-frame cap for the long one
    assert len(frames) == 3 + 128


def test_audio_profile(tmp_path, capsys):
    import numpy as np

    from capypipe.audio import write_wav

    p = tmp_path / "a.wav"
    write_wav(np.zeros(16000), 16000, p)
    code, out, _ = run(capsys, "audio-profile", "--wav", str(p))
    assert code == 0
    obj = json.loads(out)
    assert obj["n_tokens"] == 25
    assert obj["n_frames"] == 100


def test_filter_end_to_end(tmp_path, capsys):
    recs = [
        make_record(id="a", text="clean sample text", hypothesis="clean sample text"),
        make_record(id="b", text="clean sample text"),  # duplicate
        make_record(id="c", text="junk junk junk junk", hypothesis="zz yy xx vv"),
    ]
    src = tmp_path / "in.jsonl"
    write_manifest(recs, src)
    kept_path = tmp_path / "kept.jsonl"
    dropped_path = tmp_path / "dropped.jsonl"
    report_dir = tmp_path / "reports"
    code, _, err = run(
        capsys, "filter",
        "--manifest", str(src), "--out", str(kept_path),
        "--dropped", str(dropped_path), "--report", str(report_dir),
        "--jobs", "1",
    )
    assert code == 0
    kept = read_manifest(kept_path)
    assert [r.id for r in kept] == ["a"]
    dropped_lines = dropped_path.read_text().splitlines()
    assert len(dropped_lines) == 2
    assert {json.loads(l)["id"] for l in dropped_lines} == {"b", "c"}
    reports = sorted(p.name for p in report_dir.iterdir())
    assert reports == ["consistency-filter.json", "dedup.json", "near-duplicate-cluster.json"]
    assert "dedup" in err


def test_filter_requires_out(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_manifest([], src)
    code, _, err = run(capsys, "filter", "--manifest", str(src))
    assert code == 1
    assert "--out" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_slices": 4}))
    # config file alone: 1344x1344 with max 4 slices -> 2x2
    code, out, _ = run(
        capsys, "plan-tiles", "--width", "1344", "--height", "1344", "--config", str(cfg)
    )
    assert code == 0
    assert json.loads(out)["rows"] == 2
    # flag overrides file
    code, out, _ = run(
        capsys, "plan-tiles", "--width", "1344", "--height", "1344",
        "--config", str(cfg), "--max-slices", "9",
    )
    assert json.loads(out)["rows"] == 3


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_slices": 4}))
    monkeypatch.setenv("CAPYPIPE_CONFIG", str(cfg))
    code, out, _ = run(capsys, "plan-tiles", "--width", "1344", "--height", "1344")
    assert json.loads(out)["rows"] == 2


def test_help_lists_defaults(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["video-schedule", "--help"])
    out = capsys.readouterr().out
    assert "--duration" in out
    assert "--video-fps" in out


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "plan.json"
    code, out, _ = run(
        capsys, "plan-tiles", "--width", "300", "--height", "300", "--out", str(dest)
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["rows"] == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--shingle-n", "0"),
        ("--shingle-n", "-2"),
        ("--cluster-jaccard-threshold", "0"),
        ("--cluster-jaccard-threshold", "1.5"),
        ("--s2tt-similarity-threshold", "5"),
    ],
)
def test_filter_rejects_invalid_cluster_config(tmp_path, capsys, flag, value):
    src = tmp_path / "in.jsonl"
    write_manifest([make_record(id="a", text="some text here")], src)
    kept_path = tmp_path / "kept.jsonl"
    code, _, err = run(
        capsys, "filter", "--manifest", str(src), "--out", str(kept_path), flag, value
    )
    assert code == 1
    assert err.startswith("error: invalid config: ")
    assert len(err.splitlines()) == 1
    assert not kept_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan-tiles", "--width", "9", "--height", "9", "--cell-size", "0"], "cell_size"),
        (["plan-tiles", "--width", "9", "--height", "9", "--cell-size", "-5"], "cell_size"),
        (["budget", "--manifest", "-", "--video-fps", "0"], "video_fps"),
        (["video-schedule", "--duration", "3", "--config", {"video_fps": "x"}], "video_fps"),
        (["video-schedule", "--duration", "3", "--config", 5], "config file"),
    ],
)
def test_rejects_invalid_media_config(tmp_path, capsys, argv, message):
    if "--config" in argv:  # the last item is the config file's JSON content
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: invalid config: {message} must be ")
    assert len(err.splitlines()) == 1


def test_filter_rejects_fractional_shingle_n(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_manifest([], src)
    argv = ["filter", "--manifest", str(src), "--out", str(tmp_path / "kept.jsonl")]
    # a non-integer flag value is a usage error from the argument parser
    with pytest.raises(SystemExit) as exc:
        dispatch(argv + ["--shingle-n", "1.5"])
    assert exc.value.code == 2
    assert "--shingle-n" in capsys.readouterr().err
    # the same value from a config file is an invalid config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shingle_n": 1.5}))
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 1
    assert err == "error: invalid config: shingle_n must be an integer >= 1, got 1.5\n"


def test_filter_drops_asr_record_with_empty_reference(tmp_path, capsys):
    recs = [
        make_record(id="a", text="clean sample text", hypothesis="clean sample text"),
        make_record(id="b", text="  ", hypothesis="words heard"),
    ]
    src = tmp_path / "in.jsonl"
    write_manifest(recs, src)
    kept_path = tmp_path / "kept.jsonl"
    dropped_path = tmp_path / "dropped.jsonl"
    code, _, _ = run(
        capsys, "filter", "--manifest", str(src), "--out", str(kept_path),
        "--dropped", str(dropped_path), "--jobs", "1",
    )
    assert code == 0
    assert [r.id for r in read_manifest(kept_path)] == ["a"]
    (dropped,) = read_manifest(dropped_path)
    assert dropped.id == "b"
    assert dropped.verdict.metric_name == "empty-reference"


_ASR_LINE = {
    "id": "a",
    "scenario": "ASR",
    "language": "ENG",
    "media": [{"kind": "Audio", "path": "a.wav"}],
    "text": "hello world",
}


@pytest.mark.parametrize(
    "fields",
    [
        [1, 2],
        {"id": 5},
        {"text": 5},
        {"hypothesis": 5},
        {"translation": ["x"]},
        {"source": None},
        {"media": "x"},
        {"media": [1]},
        {"media": [{"kind": "Image", "path": "i.png", "width": "x", "height": 9}]},
        {"media": [{"kind": "Image", "path": "i.png", "width": 9, "height": [9]}]},
        # read fine and kept by the filter, but an ASR record needs an audio ref
        {"media": [], "hypothesis": "hello world"},
    ],
    ids=[
        "not-an-object", "id", "text", "hypothesis", "translation", "source",
        "media-string", "media-item", "width", "height", "asr-without-audio",
    ],
)
def test_filter_rejects_malformed_manifest(tmp_path, capsys, fields):
    line = {**_ASR_LINE, **fields} if isinstance(fields, dict) else fields
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(line) + "\n")
    kept_path = tmp_path / "kept.jsonl"
    code, out, err = run(capsys, "filter", "--manifest", str(src), "--out", str(kept_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not kept_path.exists()

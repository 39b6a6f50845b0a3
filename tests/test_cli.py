import contextlib
import dataclasses
import errno
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capypipe
from capypipe import cli
from capypipe.cli import build_parser, dispatch
from capypipe.manifest import (
    MediaKind,
    MediaRef,
    PipelineConfig,
    Scenario,
    dumps_record,
    read_manifest,
    write_manifest,
)
from capypipe.metrics import ngram_cosine

from conftest import audio_ref, make_record, write_pcm16_wav


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
    code, out, err = run(capsys, "plan-tiles", "--width", "9" * 400, "--height", "1500")
    assert (code, out) == (1, "")
    assert err == "error: image dimensions must lie in the float range\n"


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


def test_dispatch_builds_one_parser_and_keeps_no_values(tmp_path, capsys, monkeypatch):
    ref = tmp_path / "r.tsv"
    ref.write_text("a\tab\n")
    hyp = tmp_path / "h.tsv"
    hyp.write_text("a\tba\n")
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        argv = ["metrics", "sim", "--ref", str(ref), "--hyp", str(hyp)]
        values = []
        for extra in (["--ngram", "1"], [], ["--ngram", "1"]):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            values.append(json.loads(out.splitlines()[0])["value"])
        # the default n = 3 holds again after --ngram 1
        assert values == [1.0, ngram_cosine("ab", "ba", 3), 1.0]
        assert len(built) == 1
        assert cli.build_parser() is not cli.build_parser()
    finally:
        cli._parser.cache_clear()


def test_metrics_names_the_first_unscorable_id(tmp_path, capsys):
    ref = tmp_path / "r.tsv"
    ref.write_text("a\tone two\nb\t \u3000\nc\t\nd\t\n")
    hyp = tmp_path / "h.tsv"
    hyp.write_text("a\tone\nb\tx\nc\t\nd\t\n")
    for metric, expect in [
        ("wer", "error: id 'b': reference is empty after tokenization; WER undefined\n"),
        ("cer", "error: id 'b': reference is empty after normalization; CER undefined\n"),
    ]:
        argv = ["metrics", metric, "--ref", str(ref), "--hyp", str(hyp)]
        assert run(capsys, *argv) == (1, "", expect)
    argv = ["metrics", "sim", "--ref", str(ref), "--hyp", str(hyp), "--ngram", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: id 'c': both strings are shorter than n=1 after padding\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--manifest", "{dir}"],
        ["budget", "--manifest", "{dir}"],
        ["filter", "--manifest", "{dir}", "--out", "{kept}"],
        ["plan-tiles", "--width", "9", "--height", "9", "--config", "{dir}"],
        ["audio-profile", "--wav", "{dir}"],
        ["metrics", "wer", "--ref", "{dir}", "--hyp", "{tsv}"],
        ["metrics", "wer", "--ref", "{tsv}", "--hyp", "{dir}"],
    ],
    ids=["stats", "budget", "filter", "config", "wav", "ref", "hyp"],
)
def test_directory_as_input_is_io_error(tmp_path, capsys, argv):
    paths = {"dir": tmp_path / "dir", "tsv": tmp_path / "t.tsv", "kept": tmp_path / "kept.jsonl"}
    paths["dir"].mkdir()
    paths["tsv"].write_text("a\thello\n")
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {paths['dir']}: ")
    assert len(err.splitlines()) == 1


def test_metrics_bleu_on_empty_tsv_is_invalid(tmp_path, capsys):
    tsv = tmp_path / "e.tsv"
    tsv.write_text("")
    code, out, err = run(capsys, "metrics", "bleu", "--ref", str(tsv), "--hyp", str(tsv))
    assert (code, out) == (1, "")
    assert err == "error: empty corpus; BLEU undefined\n"


@pytest.mark.parametrize("command", ["stats", "metrics"])
def test_undecodable_input_names_file_and_line(tmp_path, capsys, command):
    bad = tmp_path / "bad"
    if command == "stats":
        bad.write_bytes(b'{"id":"a","scenario":"QA","language":"ENG","text":"t"}\n\xff\n')
        argv = ["stats", "--manifest", str(bad)]
    else:
        (tmp_path / "r.tsv").write_text("a\thello\n")
        bad.write_bytes(b"a\thello\n\xff\tworld\n")
        argv = ["metrics", "wer", "--ref", str(tmp_path / "r.tsv"), "--hyp", str(bad)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}:2: ")
    assert len(err.splitlines()) == 1


def test_metrics_rejects_duplicate_tsv_id(tmp_path, capsys):
    ref = tmp_path / "r.tsv"
    ref.write_text("a\thello world\nb\tgood morning\na\thello there\n")
    hyp = tmp_path / "h.tsv"
    hyp.write_text("a\thello world\nb\tgood morning\n")
    code, out, err = run(capsys, "metrics", "wer", "--ref", str(ref), "--hyp", str(hyp))
    assert (code, out) == (1, "")
    assert err == f"error: {ref}: duplicate id 'a' on lines 1 and 3\n"


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


# the refs `budget` must render: 1- and 10-unit images, videos of 0 s, under a
# second and past the 128-frame cap, audio of 0 tokens and of some
_BUDGET_REF = st.one_of(
    st.sampled_from([("Image", 448, 448), ("Image", 1344, 1344), ("Video", 0.0),
                     ("Video", 0.5), ("Video", 500.0), ("Audio", 0.0), ("Audio", 0.03)]),
    st.tuples(st.just("Audio"), st.floats(0.04, 4000.0)),
)
# quotes, backslashes, control characters, non-ASCII and astral characters
_BUDGET_ID = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\u2028é中\U0001F600a')
    | st.characters(exclude_categories=("Cs",)),
    min_size=1,
)


def _explicit_segments(rec):
    """Oracle: every segment of the record, one unit at a time."""
    from capypipe.manifest import MediaKind
    from capypipe.tiler import plan_tiles
    from capypipe.tokens import SegmentKind, audio_budget
    from capypipe.video import schedule

    segments = []
    for ref in rec.media:
        if ref.kind is MediaKind.AUDIO:
            count = audio_budget(ref.duration)
            segments += [(SegmentKind.AUDIO, count)] if count else []
            continue
        if ref.kind is MediaKind.IMAGE:
            kind, units = SegmentKind.IMAGE_UNIT, plan_tiles(ref.width, ref.height, 9, 448).units
        else:
            kind, units = SegmentKind.VIDEO_FRAME, len(schedule(ref.duration, 1.0, 128).timestamps)
        for unit in range(units):
            if unit:
                segments.append((SegmentKind.SEPARATOR, 1))
            segments += [(kind, 256), (SegmentKind.ROW_BREAK, 16)]
    if rec.text.split():
        segments.append((SegmentKind.TEXT, len(rec.text.split())))
    return segments


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(_BUDGET_ID, min_size=1, max_size=5, unique=True),
    refs=st.lists(st.lists(_BUDGET_REF, max_size=4), min_size=5, max_size=5),
    texts=st.lists(st.sampled_from(["", "  ", "one", "a b c d"]), min_size=5, max_size=5),
)
def test_budget_lines_match_the_dict_encoder(tmp_path_factory, ids, refs, texts):
    from capypipe.manifest import MediaKind, MediaRef, PipelineConfig, Scenario
    from capypipe.tokens import assemble_layout

    def ref(spec):
        if spec[0] == "Image":
            return MediaRef(kind=MediaKind.IMAGE, path="i", width=spec[1], height=spec[2])
        return MediaRef(kind=MediaKind(spec[0]), path="m", duration=spec[1])

    recs = [make_record(id=i, scenario=Scenario.QA, media=[ref(r) for r in rs], text=t)
            for i, rs, t in zip(ids, refs, texts)]
    work = tmp_path_factory.mktemp("budget")
    write_manifest(recs, work / "in.jsonl")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(["budget", "--manifest", str(work / "in.jsonl"),
                         "--out", str(work / "out.jsonl")])
    assert (code, err.getvalue()) == (0, "")
    # ids may hold U+2028 and the like, which splitlines() would split on
    lines = (work / "out.jsonl").read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(recs)
    for rec, line in zip(recs, lines):
        segments = _explicit_segments(rec)
        layout = assemble_layout(rec, PipelineConfig())
        total = sum(count for _, count in segments)
        assert (layout.segments, layout.total) == (tuple(segments), total)
        # the encoder `budget` used before it wrote lines from cached fragments
        expected = {"id": rec.id, "total": total,
                    "segments": [{"kind": k, "count": c} for k, c in segments]}
        assert line == json.dumps(expected, ensure_ascii=False, separators=(",", ":"))


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


def test_audio_profile_rejects_zero_sample_rate(tmp_path, capsys):
    p = tmp_path / "r0.wav"
    write_pcm16_wav(p, 0)
    code, out, err = run(capsys, "audio-profile", "--wav", str(p))
    assert (code, out) == (1, "")
    assert err == "error: sample rate 0 outside supported range [8000, 192000]\n"


# empty, inside the RIFF id, inside the fmt chunk
@pytest.mark.parametrize("size", [0, 2, 20])
def test_audio_profile_rejects_truncated_wav(tmp_path, capsys, size):
    p = tmp_path / "t.wav"
    write_pcm16_wav(p, 16000)
    p.write_bytes(p.read_bytes()[:size])
    code, out, err = run(capsys, "audio-profile", "--wav", str(p))
    assert (code, out) == (1, "")
    assert err == f"error: {p}: not a supported RIFF/WAVE file: header is cut short\n"


# cut: mono, 45 of 244 bytes, one byte of a sample; stereo, one and a half
# frames. Declared: the same files, whole, with headers that say so (a 5-byte
# mono and a 6-byte stereo data chunk), which `wave` rounds down to whole frames
@pytest.mark.parametrize("channels, size, declared", [
    pytest.param(1, 45, False, id="1-45"),
    pytest.param(2, 50, False, id="2-50"),
    pytest.param(1, 49, True, id="1-declared-5"),
    pytest.param(2, 50, True, id="2-declared-6"),
])
def test_audio_profile_rejects_wav_cut_inside_frame(tmp_path, capsys, channels, size, declared):
    p = tmp_path / "t.wav"
    write_pcm16_wav(p, 16000, n_samples=100, channels=channels)
    wav = bytearray(p.read_bytes()[:size])
    if declared:
        struct.pack_into("<I", wav, 4, size - 8)  # RIFF chunk
        struct.pack_into("<I", wav, 40, size - 44)  # data chunk
    p.write_bytes(wav)
    code, out, err = run(capsys, "audio-profile", "--wav", str(p))
    assert (code, out) == (1, "")
    assert err == f"error: {p}: data chunk ends inside a sample frame\n"


def test_budget_to_closed_pipe_exits_cleanly(tmp_path):
    from capypipe.manifest import MediaKind, MediaRef, Scenario

    # about 1.2 MB of output, far more than a pipe holds: the writer is still
    # writing when the reader goes, as with `capypipe budget ... | head -n 1`
    video = MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=500.0)
    path = tmp_path / "m.jsonl"
    write_manifest(
        [make_record(id=f"r{i}", scenario=Scenario.QA, media=(video,), text="x")
         for i in range(100)],
        path,
    )
    src = str(Path(capypipe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "capypipe.cli", "budget", "--manifest", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            head = proc.stdout.read(16)
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1].decode()
        finally:
            proc.kill()
    assert head == b'{"id":"r0","tota'
    # no BrokenPipeError traceback
    assert (proc.returncode, err) == (0, "")


@pytest.mark.parametrize(
    "flag, target",
    [("--out", "under-file"), ("--dropped", "directory"), ("--report", "under-file"),
     ("--report", "report-is-directory")],
)
def test_unwritable_output_is_io_error(tmp_path, capsys, flag, target):
    # paths no user can write to, root included
    src = tmp_path / "in.jsonl"
    write_manifest([make_record(id="a", text="some text here")], src)
    (tmp_path / "file").write_text("")
    bad = {"under-file": tmp_path / "file" / "out", "directory": tmp_path,
           "report-is-directory": tmp_path / "reports"}[target]
    if target == "report-is-directory":
        (bad / "dedup.json").mkdir(parents=True)
    if flag == "--out":
        argv = ["budget", "--manifest", str(src), "--out", str(bad)]
    else:
        argv = ["filter", "--manifest", str(src), "--out", str(tmp_path / "kept.jsonl"),
                flag, str(bad)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    failed = bad / "dedup.json" if target == "report-is-directory" else bad
    assert err.startswith(f"error: cannot write {failed}: ")
    assert len(err.splitlines()) == 1


def test_filter_replaces_no_output_when_a_later_one_fails(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_manifest([make_record(id="a", text="some text here")], src)
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"old kept\n")
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "dedup.json").write_bytes(b"old report\n")
    dropped = tmp_path / "nodir" / "d.jsonl"
    code, out, err = run(
        capsys, "filter", "--manifest", str(src), "--out", str(kept),
        "--report", str(reports), "--dropped", str(dropped),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {dropped}: No such file or directory\n"
    assert kept.read_bytes() == b"old kept\n"
    assert (reports / "dedup.json").read_bytes() == b"old report\n"
    assert sorted(os.listdir(tmp_path)) == ["in.jsonl", "kept.jsonl", "reports"]
    assert os.listdir(reports) == ["dedup.json"]


@pytest.mark.parametrize(
    "out, flag, other, message",
    [("o.jsonl", "--dropped", "o.jsonl", "o.jsonl and o.jsonl"),
     ("o.jsonl", "--dropped", "./o.jsonl", "o.jsonl and ./o.jsonl"),
     ("reports/dedup.json", "--report", "reports", "reports/dedup.json and reports/dedup.json")],
    ids=["same-spelling", "dot-slash", "out-is-a-report"],
)
def test_filter_refuses_two_outputs_naming_one_file(
    tmp_path, capsys, monkeypatch, out, flag, other, message
):
    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", text="some text here")], "in.jsonl")
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", out, flag, other
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: outputs {message} name one file\n"
    assert [p.name for p in tmp_path.rglob("*") if not p.is_dir()] == ["in.jsonl"]


@pytest.mark.parametrize(
    "out, report",
    [("reports/dedup.json", "reports"), ("runs/reports/dedup.json", "runs/reports")],
    ids=["report-dir", "nested-report-dir"],
)
def test_refused_filter_creates_no_directory(tmp_path, capsys, monkeypatch, out, report):
    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", text="some text here")], "in.jsonl")
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", out, "--report", report
    )
    assert (code, stdout) == (1, "")
    assert err == f"error: outputs {out} and {out} name one file\n"
    assert os.listdir(tmp_path) == ["in.jsonl"]


def test_filter_out_into_missing_directory_is_io_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", text="some text here")], "in.jsonl")
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", "nodir/kept.jsonl",
        "--report", "reports",
    )
    assert (code, stdout) == (2, "")
    assert err == "error: cannot write nodir/kept.jsonl: No such file or directory\n"
    assert sorted(os.listdir(tmp_path)) == ["in.jsonl"]


@pytest.mark.parametrize(
    "existing, report, left",
    [((), "runs/reports", []),
     ((), "reports/", []),
     (("runs",), "runs/reports", ["runs"]),
     (("reports",), "reports", ["reports"]),
     (("runs", "runs/reports"), "runs/reports/x/y", ["runs", "runs/reports"])],
    ids=["nested", "trailing-slash", "parent-existed", "report-existed", "deep-under-existing"],
)
def test_failed_filter_removes_only_the_directories_it_made(
    tmp_path, capsys, monkeypatch, existing, report, left
):
    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", text="some text here")], "in.jsonl")
    for directory in existing:
        os.mkdir(directory)
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", "nodir/kept.jsonl",
        "--report", report,
    )
    assert (code, stdout) == (2, "")
    assert err == "error: cannot write nodir/kept.jsonl: No such file or directory\n"
    dirs = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_dir())
    assert dirs == left
    assert [p.name for p in tmp_path.rglob("*") if not p.is_dir()] == ["in.jsonl"]


def test_a_record_that_cannot_be_encoded_leaves_no_report_directory(
    tmp_path, capsys, monkeypatch
):
    # the kept records are encoded as they are written, once the directory exists
    def refuse(rec):
        raise ValueError(f"record {rec.id!r} cannot be written: maximum recursion depth exceeded")

    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", scenario=Scenario.QA, text="kept")], "in.jsonl")
    monkeypatch.setattr(cli, "dumps_record", refuse)
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", "kept.jsonl", "--report", "runs/rep"
    )
    assert (code, stdout) == (1, "")
    assert err == "error: record 'a' cannot be written: maximum recursion depth exceeded\n"
    assert os.listdir(tmp_path) == ["in.jsonl"]


def test_filter_refuses_dropped_naming_a_report_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_manifest([make_record(id="a", text="some text here")], "in.jsonl")
    code, stdout, err = run(
        capsys, "filter", "--manifest", "in.jsonl", "--out", "kept.jsonl",
        "--dropped", "reports/dedup.json", "--report", "reports",
    )
    assert (code, stdout) == (1, "")
    assert err == "error: outputs reports/dedup.json and reports/dedup.json name one file\n"
    assert os.listdir(tmp_path) == ["in.jsonl"]


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


@pytest.mark.parametrize("hypothesis", ["clean sample text", "other words"],
                         ids=["would-be-kept", "would-be-dropped"])
def test_filter_rejects_an_invalid_input_record_whatever_its_verdict(
    tmp_path, capsys, hypothesis
):
    # an ASR record without its audio ref, written past write_manifest's check
    rec = make_record(id="x", text="clean sample text", hypothesis=hypothesis, media=())
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(rec.to_json()) + "\n")
    kept_path, dropped_path = tmp_path / "kept.jsonl", tmp_path / "dropped.jsonl"
    code, out, err = run(
        capsys, "filter", "--manifest", str(src), "--out", str(kept_path),
        "--dropped", str(dropped_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: record 'x' invalid: ASR requires exactly one audio ref\n"
    assert not kept_path.exists() and not dropped_path.exists()


def test_filter_output_carries_only_this_runs_verdicts(tmp_path, capsys):
    stale = {"kept": False, "stage": "dedup", "metric_name": "exact-duplicate"}
    rows = [
        {**make_record(id="q", scenario=Scenario.QA, text="a question").to_json(),
         "verdict": stale},
        {**make_record(id="a", text="clean sample text", hypothesis="clean sample text")
         .to_json(), "verdict": stale},
    ]
    src = tmp_path / "in.jsonl"
    src.write_text("".join(json.dumps(row) + "\n" for row in rows))
    kept_path = tmp_path / "kept.jsonl"
    code, _, _ = run(capsys, "filter", "--manifest", str(src), "--out", str(kept_path))
    assert code == 0
    q, a = read_manifest(kept_path)
    assert q.verdict is None
    assert (a.verdict.stage, a.verdict.metric_name) == ("asr-filter", "wer")


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


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("config, code", [("missing", 2), ("malformed", 1)])
@pytest.mark.parametrize("command", ["stats", "metrics", "audio-profile"])
def test_config_is_loaded_by_commands_that_read_no_field(
    tmp_path, capsys, monkeypatch, command, config, code, via
):
    write_manifest([make_record(id="a")], tmp_path / "m.jsonl")
    (tmp_path / "r.tsv").write_text("a\thello\n")
    write_pcm16_wav(tmp_path / "a.wav", 16000)
    cfg = tmp_path / "cfg.json"
    if config == "malformed":
        cfg.write_text("{not json")
    argv = {"stats": ["stats", "--manifest", str(tmp_path / "m.jsonl")],
            "metrics": ["metrics", "wer", "--ref", str(tmp_path / "r.tsv"),
                        "--hyp", str(tmp_path / "r.tsv")],
            "audio-profile": ["audio-profile", "--wav", str(tmp_path / "a.wav")]}[command]
    if via == "flag":
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("CAPYPIPE_CONFIG", str(cfg))
    result = run(capsys, *argv)
    message = f"error: cannot read {cfg}: " if code == 2 else "error: invalid config: "
    assert result[:2] == (code, "")
    assert result[2].startswith(message)
    assert len(result[2].splitlines()) == 1


@pytest.mark.parametrize("ngram", ["0", "101", "99999999999999999999"])
def test_metrics_sim_rejects_ngram_out_of_range(tmp_path, capsys, ngram):
    tsv = tmp_path / "r.tsv"
    tsv.write_text("a\thello\n")
    code, out, err = run(
        capsys, "metrics", "sim", "--ref", str(tsv), "--hyp", str(tsv), "--ngram", ngram
    )
    assert (code, out) == (1, "")
    assert err == f"error: n must be in 1..100, got {ngram}\n"


def test_metrics_sim_rejects_ngram_out_of_range_on_empty_tsvs(tmp_path, capsys):
    tsv = tmp_path / "r.tsv"
    tsv.write_text("")
    code, out, err = run(
        capsys, "metrics", "sim", "--ref", str(tsv), "--hyp", str(tsv), "--ngram", "0"
    )
    assert (code, out) == (1, "")
    assert err == "error: n must be in 1..100, got 0\n"


def test_output_write_failing_midway_leaves_old_file_and_no_temp(tmp_path):
    from capypipe.cli import CliError, _emit

    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old\n")

    def lines():
        yield "first"
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(CliError, match=f"^cannot write {out}: ") as info:
        _emit(lines(), str(out))
    assert info.value.code == 2
    assert out.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


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
    "argv",
    [
        ["plan-tiles", "--width", "2000", "--height", "1500"],
        ["budget", "--manifest", "{manifest}"],
        ["audio-profile", "--wav", "{wav}"],
        ["video-schedule", "--duration", "300"],
        ["metrics", "cer", "--ref", "{ref}", "--hyp", "{hyp}"],
        ["metrics", "sim", "--ref", "{ref}", "--hyp", "{hyp}", "--ngram", "2"],
        ["metrics", "bleu", "--ref", "{ref}", "--hyp", "{hyp}"],
        ["stats", "--manifest", "{manifest}"],
    ],
    ids=["plan-tiles", "budget", "audio-profile", "video-schedule", "metrics-cer",
         "metrics-sim", "metrics-bleu", "stats"],
)
def test_stdout_and_out_get_the_same_bytes(tmp_path, capsys, argv):
    inputs = {name: tmp_path / name for name in ("manifest", "wav", "ref", "hyp")}
    write_manifest([
        make_record(id="a", text="ünïcode text"),
        make_record(id="b", scenario=Scenario.QA, text="你好 世界", source="web", media=(
            MediaRef(MediaKind.IMAGE, "i.png", width=1800, height=900),
            MediaRef(MediaKind.VIDEO, "v.mp4", duration=12.5),
        )),
    ], inputs["manifest"])
    write_pcm16_wav(inputs["wav"], 48000, n_samples=4800)
    inputs["ref"].write_text("a\tthe cat sat\nb\t你好世界\n", encoding="utf-8")
    inputs["hyp"].write_text("a\tthe cat sit\nb\t你好\n", encoding="utf-8")
    argv = [arg.format(**inputs) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n")
    dest = tmp_path / "out.jsonl"
    code, again, err = run(capsys, *argv, "--out", str(dest))
    assert (code, again, err) == (0, "", "")
    assert dest.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--shingle-n", "0"),
        ("--shingle-n", "-2"),
        ("--shingle-n", "101"),
        ("--shingle-n", "100000000000000000000000000000"),
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
        (["video-schedule", "--duration", "300", "--config", {"video_frame_cap": 2.5}],
         "video_frame_cap"),
        (["video-schedule", "--duration", "300", "--config", {"video_frame_cap": float("nan")}],
         "video_frame_cap"),
        (["plan-tiles", "--width", "2000", "--height", "1500", "--config", {"max_slices": 2.5}],
         "max_slices"),
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


def test_filter_rejects_unknown_dedup_normalization(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write_manifest([], src)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dedup_normalization": "bogus"}))
    code, out, err = run(
        capsys, "filter", "--manifest", str(src), "--out", str(tmp_path / "kept.jsonl"),
        "--config", str(cfg),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid config: ")
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
        # JSON has no NaN or Infinity, though Python's json reads and writes them
        {"media": [{"kind": "Audio", "path": "a.wav", "duration": float("nan")}]},
        {"media": [{"kind": "Audio", "path": "a.wav", "duration": float("inf")}]},
        {"media": [{"kind": "Image", "path": "i.png", "width": float("nan"), "height": 9}]},
        {"verdict": {"kept": "no", "stage": 5}},
        {"verdict": {"kept": False, "stage": 5, "metric_name": "m"}},
        {"verdict": {"kept": True, "metric_value": "x"}},
        {"id": "a\ud800"},
    ],
    ids=[
        "not-an-object", "id", "text", "hypothesis", "translation", "source",
        "media-string", "media-item", "width", "height", "asr-without-audio",
        "duration-nan", "duration-infinity", "width-nan", "verdict-kept", "verdict-stage",
        "verdict-metric-value", "lone-surrogate",
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


@pytest.mark.parametrize("kind", ["Video", "Audio"])
def test_filter_rejects_negative_duration_of_any_timed_ref(tmp_path, capsys, kind):
    line = {"id": "c", "scenario": "Caption", "language": "ENG", "text": "a clip",
            "media": [{"kind": kind, "path": "clip", "duration": -3}]}
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(line) + "\n")
    kept_path = tmp_path / "kept.jsonl"
    code, out, err = run(capsys, "filter", "--manifest", str(src), "--out", str(kept_path))
    assert (code, out) == (1, "")
    assert err == f"error: record 'c' invalid: {kind.lower()} duration must be >= 0, got -3\n"
    assert not kept_path.exists()


def _budget_line(tmp_path, capsys, *media):
    path = tmp_path / "m.jsonl"
    line = {"id": "a", "scenario": "QA", "language": "ENG", "media": list(media), "text": "hi"}
    path.write_text(json.dumps(line) + "\n")
    return run(capsys, "budget", "--manifest", str(path))


@pytest.mark.parametrize(
    "ref, message",
    [
        ({"kind": "Image", "path": "i.png", "width": -5, "height": 9},
         "image ref 'i.png': image dimensions must be positive"),
        ({"kind": "Image", "path": "i.png", "width": 0, "height": 9},
         "image ref 'i.png': image dimensions must be positive"),
        ({"kind": "Image", "path": "i.png", "width": 9}, "image ref 'i.png': lacks dimensions"),
        ({"kind": "Video", "path": "v.mp4", "duration": -3}, "video ref 'v.mp4': duration must be"),
        ({"kind": "Video", "path": "v.mp4"}, "video ref 'v.mp4': lacks duration"),
        ({"kind": "Audio", "path": "a.wav", "duration": -3}, "audio ref 'a.wav': duration must be"),
        ({"kind": "Audio", "path": "a.wav", "duration": 1e308},
         "audio ref 'a.wav': duration must be"),
        ({"kind": "Audio", "path": "a.wav", "duration": 10**307},
         "audio ref 'a.wav': duration must be"),
        ({"kind": "Audio", "path": "a.wav"}, "audio ref 'a.wav': lacks duration"),
    ],
    ids=[
        "width-negative", "width-zero", "no-height", "video-negative", "video-no-duration",
        "audio-negative", "audio-huge", "audio-huge-int", "audio-no-duration",
    ],
)
def test_budget_names_record_and_ref_it_cannot_price(tmp_path, capsys, ref, message):
    priced = {"kind": "Audio", "path": "ok.wav", "duration": 1.0}
    code, out, err = _budget_line(tmp_path, capsys, priced, ref)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: record 'a': {message}")
    assert len(err.splitlines()) == 1


def test_budget_prices_image_of_huge_finite_area(tmp_path, capsys):
    code, out, err = _budget_line(
        tmp_path, capsys, {"kind": "Image", "path": "i.png", "width": 1e308, "height": 1e308}
    )
    assert (code, err) == (0, "")
    # the area clamps to max_slices cells: a 3x3 grid plus the thumbnail
    assert json.loads(out)["total"] == 10 * 272 + 9 + 1


@pytest.mark.parametrize("duration", ["inf", "nan", "-1", "1e308"])
def test_video_schedule_rejects_uncountable_duration(capsys, duration):
    code, out, err = run(capsys, "video-schedule", "--duration", duration, "--video-fps", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: duration must be >= 0 with a finite frame count")
    assert len(err.splitlines()) == 1


# the value classes a hand-edited or corrupted manifest holds; optional keys may be missing
_FUZZ_TEXT = st.text(max_size=3) | st.sampled_from(["a\ud800", "\udfff", "\ud83d\ude00"])
_FUZZ_VALUE = st.one_of(
    st.integers(-3, 3),
    st.floats(-5.0, 5000.0),
    st.sampled_from(
        [1e308, -1e308, 10**300, 10**307, 10**400, float("nan"), float("inf"), float("-inf")]
    ),
    st.booleans(),
    _FUZZ_TEXT,
)
_FUZZ_REF = st.fixed_dictionaries(
    {"kind": st.sampled_from(["Image", "Video", "Audio"]), "path": _FUZZ_TEXT},
    optional={key: _FUZZ_VALUE for key in ("width", "height", "duration", "sample_rate")},
)
_FUZZ_RECORD = st.fixed_dictionaries(
    {
        "id": _FUZZ_TEXT,
        "scenario": st.sampled_from(["ASR", "QA", "S2TT"]),
        "language": st.sampled_from(["ENG", "ZH_ENG"]),
        "media": st.lists(_FUZZ_REF, max_size=3),
        "text": _FUZZ_TEXT,
    },
    optional={"hypothesis": _FUZZ_TEXT},
)


@settings(max_examples=40, deadline=None)
@given(records=st.lists(_FUZZ_RECORD, min_size=1, max_size=3))
def test_fuzzed_manifest_ends_in_exit_code_not_traceback(tmp_path_factory, records):
    work = tmp_path_factory.mktemp("fuzz")
    src = work / "in.jsonl"
    src.write_text("".join(json.dumps(r) + "\n" for r in records))
    for argv in (["budget", "--out", str(work / "budget.jsonl")],
                 ["filter", "--out", str(work / "kept.jsonl")]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = dispatch([*argv, "--manifest", str(src)])
        assert code in (0, 1)
        if code == 1:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")


def _assert_exit_code_not_traceback(argv):
    """Run argv: it exits 0, 1 or 2, and a failure prints one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


# config files: objects of known and unknown keys with the manifest fuzz's values
# (plus the valid ones of the enum field), other JSON values, and text that is
# not JSON at all
_FUZZ_CONFIG = st.one_of(
    st.dictionaries(
        st.sampled_from([*(f.name for f in dataclasses.fields(PipelineConfig)), "bogus"]),
        _FUZZ_VALUE | st.sampled_from(["none", "standard", None, [], {}]),
        max_size=4,
    ).map(json.dumps),
    st.sampled_from([[], [1], 3, "x", None, 1e308]).map(json.dumps),
    st.sampled_from(["", "{", "{not json", "\ufeff{}", '{"max_slices": 4,}']),
)


@settings(max_examples=40, deadline=None)
@given(config=_FUZZ_CONFIG)
def test_fuzzed_config_ends_in_exit_code_not_traceback(tmp_path_factory, config):
    work = tmp_path_factory.mktemp("config")
    (work / "cfg.json").write_text(config, encoding="utf-8")
    media = (MediaRef(kind=MediaKind.IMAGE, path="i.png", width=1344, height=900),
             MediaRef(kind=MediaKind.VIDEO, path="v.mp4", duration=30.0), audio_ref())
    write_manifest(
        [make_record(id="a", scenario=Scenario.QA, media=media, text="a clip and a photo"),
         make_record(id="b", text="clean sample text", hypothesis="clean sample text")],
        work / "in.jsonl",
    )
    for argv in (["plan-tiles", "--width", "1344", "--height", "900"],
                 ["budget", "--manifest", str(work / "in.jsonl")],
                 ["video-schedule", "--duration", "3"],
                 ["filter", "--manifest", str(work / "in.jsonl"), "--out", str(work / "k")]):
        _assert_exit_code_not_traceback([*argv, "--config", str(work / "cfg.json")])


# WAV headers: rates inside and outside 8-192 kHz, channel counts and sample
# widths `decode_wav` does and does not take, and files cut anywhere
@settings(max_examples=40, deadline=None)
@given(
    rate=st.sampled_from([0, 1, 7999, 8000, 16000, 44100, 48000, 192000, 192001, 2**32 - 1]),
    channels=st.sampled_from([0, 1, 2, 3]),
    bits=st.sampled_from([0, 8, 16, 24, 32]),
    n_samples=st.integers(0, 200),
    cut=st.none() | st.integers(0, 300),
)
def test_fuzzed_wav_ends_in_exit_code_not_traceback(
    tmp_path_factory, rate, channels, bits, n_samples, cut
):
    wav = tmp_path_factory.mktemp("wav") / "a.wav"
    write_pcm16_wav(wav, rate, n_samples, channels, bits)
    if cut is not None:
        wav.write_bytes(wav.read_bytes()[:cut])
    _assert_exit_code_not_traceback(["audio-profile", "--wav", str(wav)])


# argv fuzzing: each flag gets a value from a fixed pool ("2" and "0.5" are valid
# for every numeric flag; integers stay small so that no valid draw asks for a
# huge output) and each input flag one of four kinds of path
_ARGV_NUMBER = st.sampled_from(["nan", "inf", "1e400", "-1", "0", "1.5", "abc", "", "2", "0.5"])
_ARGV_INPUT = st.sampled_from(["valid", "missing", "directory", "wrong-format"])
_ARGV_OUTPUT = st.sampled_from(["fresh", "directory", "under-file"])
_ARGV_FLAGS = {
    "plan-tiles": ["--width", "--height", "--max-slices", "--cell-size"],
    "budget": ["--manifest", "--max-slices", "--cell-size", "--video-fps", "--video-frame-cap"],
    "audio-profile": ["--wav"],
    "video-schedule": ["--duration", "--video-fps", "--video-frame-cap"],
    "metrics": ["--ref", "--hyp", "--ngram"],
    "filter": ["--manifest", "--dropped", "--report", "--jobs", "--wer-threshold",
               "--s2tt-similarity-threshold", "--cluster-jaccard-threshold", "--shingle-n"],
    "stats": ["--manifest"],
}
_ARGV_REQUIRED = {"--width", "--height", "--duration", "--manifest", "--wav", "--ref", "--hyp"}
# the file of each input kind, and one of another format in its place
_ARGV_FILES = {"--manifest": ("in.jsonl", "a.wav"), "--wav": ("a.wav", "in.jsonl"),
               "--ref": ("r.tsv", "a.wav"), "--hyp": ("r.tsv", "a.wav"),
               "--config": ("cfg.json", "r.tsv")}


@pytest.fixture(scope="module")
def argv_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    write_manifest(
        [make_record(id="a", text="clean sample text", hypothesis="clean sample text"),
         make_record(id="b", text="clean sample text")],
        work / "in.jsonl",
    )
    write_pcm16_wav(work / "a.wav", 16000)
    (work / "r.tsv").write_text("a\tthe cat sat\nb\ton the mat\n")
    (work / "cfg.json").write_text(json.dumps({"max_slices": 4, "video_frame_cap": 2}))
    (work / "directory").mkdir()
    (work / "file").write_text("")
    return work


@pytest.mark.parametrize("command", sorted(_ARGV_FLAGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_ends_in_exit_code_not_traceback(argv_inputs, command, data):
    work = argv_inputs
    argv = [command]
    if command == "metrics":
        argv.append(data.draw(st.sampled_from(["wer", "cer", "bleu", "sim"])))
    for flag in [*_ARGV_FLAGS[command], "--config", "--out"]:
        if flag not in _ARGV_REQUIRED and not data.draw(st.booleans(), label=flag):
            continue
        if flag in _ARGV_FILES:
            kind = data.draw(_ARGV_INPUT, label=flag)
            name = {"valid": _ARGV_FILES[flag][0], "wrong-format": _ARGV_FILES[flag][1]}
            value = work / name.get(kind, kind)
        elif flag in ("--out", "--dropped", "--report"):
            kind = data.draw(_ARGV_OUTPUT, label=flag)
            value = {"fresh": work / f"out{flag}", "directory": work / "directory",
                     "under-file": work / "file" / "out"}[kind]
        else:
            value = data.draw(_ARGV_NUMBER, label=flag)
        argv += [flag, str(value)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


def _nested(depth):
    return "[" * depth + "]" * depth


def test_deep_nesting_ends_in_exit_code_not_traceback(tmp_path, capsys):
    # around the recursion limit, json reads or writes a value nested this
    # deep, or raises RecursionError, depending on the stack depth at the call
    limit = sys.getrecursionlimit()
    src, out, dropped = tmp_path / "in.jsonl", tmp_path / "kept.jsonl", tmp_path / "dropped.jsonl"
    report = tmp_path / "runs" / "rep"
    for depth in [*range(limit - 80, limit + 1), 100_000]:
        line = f'{{"id":"r","scenario":"QA","language":"ENG","text":"x","deep":{_nested(depth)}}}'
        src.write_text(line + "\n", encoding="utf-8")
        code, _, err = run(capsys, "filter", "--manifest", str(src), "--out", str(out),
                           "--dropped", str(dropped), "--report", str(report))
        if code == 0:
            assert out.read_text(encoding="utf-8") == line + "\n", depth
            assert dropped.read_text(encoding="utf-8") == "", depth
            for path in [out, dropped, *report.iterdir(), report, report.parent]:
                path.unlink() if path.is_file() else path.rmdir()
        else:
            assert code == 1, depth
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (depth, err)
            assert not out.exists() and not dropped.exists(), depth
            # no temp file and no report directory left either
            assert list(tmp_path.iterdir()) == [src], depth
        code, stdout, err = run(capsys, "budget", "--manifest", str(src))
        assert code in (0, 1), depth
        if code == 1:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (depth, err)
        else:
            assert stdout.startswith('{"id":"r",'), depth
    assert run(capsys, "budget", "--manifest", str(src))[2].startswith(
        f"error: {src}:1: malformed record: maximum recursion depth exceeded"
    )


def test_deeply_nested_config_is_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_nested(100_000), encoding="utf-8")
    code, _, err = run(capsys, "video-schedule", "--duration", "3", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error: invalid config: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1


def test_a_record_too_deep_to_write_fails_naming_it():
    deep: list = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    record = make_record(id="deep", scenario=Scenario.QA, extra={"deep": deep})
    with pytest.raises(ValueError, match=r"^record 'deep' cannot be written: maximum recursion"):
        dumps_record(record)

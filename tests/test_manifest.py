import copy
import dataclasses
import json
import os
import pickle
import re
import stat
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capypipe.manifest import (
    DedupNormalization,
    FilterVerdict,
    Language,
    ManifestError,
    MediaKind,
    MediaRef,
    PipelineConfig,
    SampleRecord,
    Scenario,
    read_keyed,
    read_manifest,
    validate,
    write_lines,
    write_manifest,
)
from capypipe.metrics import ngram_cosine
from capypipe.pipeline import cluster_prune
from capypipe.tiler import plan_tiles
from capypipe.video import frame_count

from conftest import audio_ref, make_record


def test_read_empty_file(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text("")
    assert read_manifest(p) == []


def test_read_preserves_order(tmp_path):
    p = tmp_path / "m.jsonl"
    rows = [
        {"id": i, "scenario": "QA", "language": "ENG", "text": "t"} for i in ("a", "b", "c")
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert [r.id for r in read_manifest(p)] == ["a", "b", "c"]


def test_duplicate_id_error_names_both_lines(tmp_path):
    p = tmp_path / "m.jsonl"
    rows = [
        json.dumps({"id": rid, "scenario": "QA", "language": "ENG", "text": "t"})
        for rid in ["a", "x", "b", "c", "x"]
    ]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ManifestError, match=r"lines 2 and 5"):
        read_manifest(p)


def test_malformed_line_error_names_line(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_text('{"id":"a","scenario":"QA","language":"ENG","text":"t"}\n{broken\n')
    with pytest.raises(ManifestError, match=r":2:"):
        read_manifest(p)


def test_a_line_with_a_byte_order_mark_is_named_as_such(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_bytes(b'\xef\xbb\xbf{"id":"a","scenario":"QA","language":"ENG","text":"t"}\n')
    with pytest.raises(ManifestError) as info:
        read_manifest(p)
    assert str(info.value) == (
        f"{p}:1: malformed record: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize("value", ["asr", "", "Image ", None, 0, 1.5, True, [], ["QA"], {"QA": 1}])
@pytest.mark.parametrize(
    "enum, field, later",
    [(Scenario, "scenario", "language"), (Language, "language", "kind"),
     (MediaKind, "kind", "text")],
)
def test_a_value_no_member_has_fails_as_the_enum_call_does(tmp_path, value, enum, field, later):
    # the decoder looks members up in a dict; a miss, unhashable values included,
    # fails with the `Enum` call's message, before any later field is checked
    obj = {"id": "a", "scenario": "QA", "language": "ENG",
           "media": [{"kind": "Image", "path": "i.png"}], "text": "t"}
    for key, val in ((field, value), (later, 5)):
        (obj["media"][0] if key == "kind" else obj)[key] = val
    p = tmp_path / "m.jsonl"
    p.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError) as called:
        enum(value)
    with pytest.raises(ManifestError) as read:
        read_manifest(p)
    assert str(read.value) == f"{p}:1: malformed record: {called.value}"


def test_undecodable_line_error_names_line(tmp_path):
    p = tmp_path / "m.jsonl"
    p.write_bytes(b'{"id":"a","scenario":"QA","language":"ENG","text":"t"}\n\xff\n')
    with pytest.raises(ManifestError, match=r"m\.jsonl:2: .*can't decode byte 0xff"):
        read_manifest(p)


@pytest.mark.parametrize(
    "escaped, lone",
    [(r"\u4e00\u9fa5", False), (r"\ud83d\ude00", False), (r"a\ud800", True), (r"\uDFFF", True)],
    ids=["cjk", "surrogate-pair", "lone-high", "lone-low-upper-case"],
)
def test_read_rejects_only_lone_surrogate_escapes(tmp_path, escaped, lone):
    p = tmp_path / "m.jsonl"
    p.write_text(f'{{"id":"a","scenario":"QA","language":"ENG","text":"{escaped}"}}\n')
    if lone:
        with pytest.raises(ManifestError, match=":1: .*lone surrogate"):
            read_manifest(p)
    else:
        assert read_manifest(p)[0].text == json.loads(f'"{escaped}"')


def test_write_empty_manifest(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest([], p)
    assert p.read_bytes() == b""


def test_write_rejects_invalid_verdict(tmp_path):
    rec = make_record(verdict=FilterVerdict(kept=False))
    with pytest.raises(ManifestError, match="stage"):
        write_manifest([rec], tmp_path / "m.jsonl")


def test_write_failing_midway_leaves_old_file_and_no_temp(tmp_path):
    p = tmp_path / "m.jsonl"
    write_manifest([make_record(id="old")], p)
    old = p.read_bytes()
    # the lone surrogate of the second record fails its encode after the first is written
    recs = [make_record(id="a"), make_record(id="b", text="x\ud800")]
    with pytest.raises(UnicodeEncodeError):
        write_manifest(recs, p)
    assert p.read_bytes() == old
    assert os.listdir(tmp_path) == ["m.jsonl"]


def test_written_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_manifest([make_record()], tmp_path / "m.jsonl")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "m.jsonl").st_mode) == 0o640


def test_write_lines_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_lines([(fifo, ["a", "b"])])
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"a\nb\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_write_lines_refuses_two_paths_naming_one_file(tmp_path, monkeypatch):
    # a mapping of outputs would fold these two keys and keep only the second
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=r"^outputs a\.txt and \./a\.txt name one file$"):
        write_lines([("a.txt", ["1"]), ("./a.txt", ["2"])])
    assert os.listdir(tmp_path) == []


def test_unknown_fields_round_trip(tmp_path):
    p = tmp_path / "m.jsonl"
    # a record's own unknown keys come back after its known fields; a media
    # ref's or a verdict's are dropped
    row = {"annotator": "team-3", "id": "a", "scenario": "QA", "language": "ENG", "text": "t",
           "media": [{"kind": "Audio", "path": "a.wav", "sha256": "ff", "duration": 1.0}],
           "verdict": {"kept": True, "by": "x"}, "weights": [1, 2]}
    p.write_text(json.dumps(row) + "\n")
    recs = read_manifest(p)
    assert recs[0].extra == {"annotator": "team-3", "weights": [1, 2]}
    out = tmp_path / "out.jsonl"
    write_manifest(recs, out)
    assert out.read_text() == (
        '{"id":"a","scenario":"QA","language":"ENG",'
        '"media":[{"kind":"Audio","path":"a.wav","duration":1.0}],"text":"t",'
        '"verdict":{"kept":true},"annotator":"team-3","weights":[1,2]}\n'
    )


_scenarios = st.sampled_from(list(Scenario))
_languages = st.sampled_from(list(Language))
_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)


@st.composite
def records(draw, ids):
    scenario = draw(_scenarios)
    language = draw(_languages)
    if scenario is Scenario.S2TT:
        language = draw(st.sampled_from([Language.ZH_ENG, Language.ENG_ZH]))
    media = []
    if scenario is Scenario.ASR:
        media = [audio_ref(duration=draw(st.floats(0, 100)), path=draw(ids) + ".wav")]
    return SampleRecord(
        id=draw(ids),
        scenario=scenario,
        language=language,
        text=draw(_text),
        media=tuple(media),
        hypothesis=draw(st.none() | _text),
        source=draw(st.sampled_from(["", "setA", "setB"])),
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_round_trip_property(tmp_path_factory, data):
    ids = st.uuids().map(str)
    recs = data.draw(st.lists(records(ids), max_size=20, unique_by=lambda r: r.id))
    path = tmp_path_factory.mktemp("rt") / "m.jsonl"
    write_manifest(list(recs), path)
    assert read_manifest(path) == list(recs)


def test_round_trip_byte_stable(tmp_path):
    recs = [make_record(id=f"r{i}", text=f"text {i}") for i in range(100)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(recs, p1)
    write_manifest(read_manifest(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_manifest_refuses_a_value_json_has_not_naming_the_record(tmp_path, value):
    records = [make_record(id="ok"), make_record(id="bad", extra={"meta": {"x": [1, value]}})]
    with pytest.raises(ValueError, match=r"^record 'bad' cannot be written: Out of range float"):
        write_manifest(records, tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_media_ref_refuses_a_non_finite_size():
    with pytest.raises(ValueError, match="^width must be a finite number, got nan$"):
        MediaRef.from_json({"kind": "Image", "path": "i.png", "width": float("nan")})


@pytest.mark.parametrize("verdict", [
    None,
    FilterVerdict(kept=True),
    FilterVerdict(kept=False, stage="asr-filter", metric_name="wer", metric_value=0.5),
])
def test_with_verdict_equals_replace(verdict):
    rec = SampleRecord(
        id="r", scenario=Scenario.S2TT, language=Language.ZH_ENG, text="text",
        media=(audio_ref(), MediaRef(kind=MediaKind.IMAGE, path="i.png", width=3, height=4)),
        hypothesis="hyp", translation="translation", source="setA",
        verdict=FilterVerdict(kept=False, stage="dedup", metric_name="exact-duplicate"),
        extra={"annotator": "team-3", "weights": [1, 2]},
    )
    new = rec.with_verdict(verdict)
    assert new == dataclasses.replace(rec, verdict=verdict)
    assert new.verdict is verdict
    assert new.extra is rec.extra and new.media is rec.media
    assert rec.verdict.stage == "dedup"


# the order in which `SampleRecord.from_json` checks its fields
_FIELD_FAULTS = [
    ("id", 5, "id must be a string, got int"),
    ("scenario", "asr", "'asr' is not a valid Scenario"),
    ("language", "EN", "'EN' is not a valid Language"),
    ("media", [{"kind": "Image", "path": 5}], "path must be a string, got int"),
    ("text", [], "text must be a string, got list"),
    ("hypothesis", 1.5, "hypothesis must be a string, got float"),
    ("translation", True, "translation must be a string, got bool"),
    ("source", None, "source must be a string, got NoneType"),
    ("verdict", {"kept": 1}, "kept must be a bool, got int"),
]


@pytest.mark.parametrize(
    "first, second", list(zip(_FIELD_FAULTS, _FIELD_FAULTS[1:])),
    ids=[f"{a[0]}-{b[0]}" for a, b in zip(_FIELD_FAULTS, _FIELD_FAULTS[1:])],
)
def test_a_record_with_two_faults_reports_the_field_checked_first(first, second):
    obj = {"id": "a", "scenario": "QA", "language": "ENG", "text": "t"}
    for key, value, _ in (first, second):
        obj[key] = value
    with pytest.raises(ValueError, match=f"^{re.escape(first[2])}$"):
        SampleRecord.from_json(obj)


_VALUES = {
    "MediaRef": MediaRef(MediaKind.IMAGE, "i.png", 3, 4),
    "FilterVerdict": FilterVerdict(False, "asr-filter", "wer", 0.5),
    "SampleRecord": make_record(
        verdict=FilterVerdict(False, "dedup", "exact-duplicate"), extra={"weights": [1, 2]}
    ),
    "TilePlan": plan_tiles(1000, 600, 9, 448),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_classes_are_frozen_slotted_and_copy_alike(name):
    value = _VALUES[name]
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    assert not hasattr(value, "__dict__")
    copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
    assert copies == [value] * 3
    if name == "SampleRecord":
        with pytest.raises(TypeError, match="unhashable"):  # `extra` is a dict
            hash(value)
    else:
        assert {hash(c) for c in copies} == {hash(value)}


def _held_bytes(path: Path) -> int:
    """Bytes that the records `read_manifest(path)` returns hold, by tracemalloc."""
    read_manifest(path)  # so that no first-call allocation is counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = read_manifest(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == 400
    return held


# bytes held by the 400 records of each fixture when the record classes kept a
# __dict__ each (Python 3.11): 620 B a record on mixed.jsonl, 850 B on budget.jsonl
@pytest.mark.parametrize("name, dict_backed", [("mixed", 247_980), ("budget", 340_189)])
def test_decoded_records_hold_at_most_nine_tenths_of_dict_backed_ones(name, dict_backed):
    golden = Path(__file__).resolve().parent / "golden"
    assert _held_bytes(golden / f"{name}.jsonl") <= 0.9 * dict_backed


class TestValidate:
    def test_valid_asr(self):
        assert validate(make_record()) == []

    def test_asr_two_audio_refs(self):
        rec = make_record(media=(audio_ref(path="a.wav"), audio_ref(path="b.wav")))
        assert validate(rec) == ["ASR requires exactly one audio ref"]

    def test_s2tt_single_language(self):
        rec = make_record(scenario=Scenario.S2TT, language=Language.ZH, media=())
        assert any("ZH_ENG or ENG_ZH" in v for v in validate(rec))

    def test_empty_id(self):
        assert "id must be non-empty" in validate(make_record(id=""))

    def test_bad_image_dims(self):
        ref = MediaRef(kind=MediaKind.IMAGE, path="i.ppm", width=0, height=10)
        rec = make_record(scenario=Scenario.CAPTION, media=(ref,))
        assert any("width" in v for v in validate(rec))

    def test_bad_audio_fields(self):
        ref = MediaRef(kind=MediaKind.AUDIO, path="a.wav", duration=-1.0, sample_rate=0)
        rec = make_record(scenario=Scenario.QA, media=(ref,))
        issues = validate(rec)
        assert any("duration" in v for v in issues)
        assert any("sample_rate" in v for v in issues)

    def test_dropped_verdict_needs_stage(self):
        rec = make_record(verdict=FilterVerdict(kept=False, stage="x"))
        assert any("metric_name" in v for v in validate(rec))


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.wer_threshold == 0.3
        assert cfg.cell_size == 448
        assert cfg.video_frame_cap == 128

    def test_invalid_threshold(self):
        with pytest.raises(ValueError, match="wer_threshold"):
            PipelineConfig(wer_threshold=0.0)

    def test_invalid_max_slices(self):
        with pytest.raises(ValueError, match="max_slices"):
            PipelineConfig(max_slices=10)

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.0000001, float("nan")])
    def test_invalid_cluster_threshold(self, value):
        with pytest.raises(ValueError, match="cluster_jaccard_threshold"):
            PipelineConfig(cluster_jaccard_threshold=value)

    @pytest.mark.parametrize("value", [0, -2, 1.5])
    def test_invalid_shingle_n(self, value):
        with pytest.raises(ValueError, match="shingle_n"):
            PipelineConfig(shingle_n=value)

    @pytest.mark.parametrize("value", [0.0, -0.1, 5.0, float("nan")])
    def test_invalid_s2tt_threshold(self, value):
        with pytest.raises(ValueError, match="s2tt_similarity_threshold"):
            PipelineConfig(s2tt_similarity_threshold=value)

    @pytest.mark.parametrize("value", [0, -5, 448.0])
    def test_invalid_cell_size(self, value):
        with pytest.raises(ValueError, match="cell_size"):
            PipelineConfig(cell_size=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_invalid_video_fps(self, value):
        with pytest.raises(ValueError, match="video_fps"):
            PipelineConfig(video_fps=value)

    def test_dedup_normalization_coerced_by_value(self):
        cfg = PipelineConfig(dedup_normalization="none")
        assert cfg.dedup_normalization is DedupNormalization.NONE

    def test_invalid_dedup_normalization(self):
        with pytest.raises(ValueError, match="bogus"):
            PipelineConfig(dedup_normalization="bogus")

    def test_from_file_and_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"wer_threshold": 0.2, "max_slices": 4}))
        cfg = PipelineConfig.from_file(p, max_slices=9)
        assert cfg.wer_threshold == 0.2
        assert cfg.max_slices == 9

    def test_from_file_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"no_such_option": 1}))
        with pytest.raises(ManifestError, match="no_such_option"):
            PipelineConfig.from_file(p)


@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize(
    "field, library",
    [
        ("cell_size", lambda v: plan_tiles(1344, 1344, 9, v)),
        ("max_slices", lambda v: plan_tiles(1344, 1344, v, 448)),
        ("video_frame_cap", lambda v: frame_count(10.0, 1.0, v)),
        ("shingle_n", lambda v: cluster_prune([make_record(text="same text")], 0.8, v)),
        # the n of ngram_cosine has shingle_n's rule
        ("shingle_n", lambda v: ngram_cosine("abc", "abd", v)),
    ],
    ids=["cell_size", "max_slices", "video_frame_cap", "shingle_n", "ngram_n"],
)
def test_config_and_library_reject_a_non_integer_count_alike(field, library, value):
    with pytest.raises(ValueError) as config_exc:
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError) as library_exc:
        library(value)
    config_name, config_rule = str(config_exc.value).split(" ", 1)
    assert config_name == field
    assert str(library_exc.value).split(" ", 1)[1] == config_rule
    assert config_rule == f"must be an integer >= 1, got {value!r}"


def test_read_keyed_names_a_repeated_id_and_skips_blank_lines(tmp_path):
    p = tmp_path / "pairs.tsv"

    def pair(line):
        return tuple(line.rstrip("\n").split("\t"))

    p.write_text("a\t1\n\n  \nb\t2\n")
    assert dict(read_keyed(p, pair, "line")) == {"a": "1", "b": "2"}
    p.write_text("a\t1\n\n  \nb\t2\na\t3\n")
    with pytest.raises(ManifestError, match=rf"^{re.escape(str(p))}: duplicate id 'a' on lines 1 and 5$"):
        list(read_keyed(p, pair, "line"))

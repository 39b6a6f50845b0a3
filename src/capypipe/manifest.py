"""Sample data model, pipeline configuration, and JSONL manifest persistence."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# the padded n-grams of a text hold about n * (len + n) characters
MAX_NGRAM = 100
# the most cells an image is split into
MAX_SLICES = 9
# the largest finite float: a number is in the float range when -max <= x <= max
_FLOAT_MAX = sys.float_info.max


class Scenario(str, Enum):
    ASR = "ASR"
    S2TT = "S2TT"
    CAPTION = "Caption"
    QA = "QA"
    CROSS_MODAL = "CrossModal"


class Language(str, Enum):
    ZH = "ZH"
    ENG = "ENG"
    ZH_ENG = "ZH_ENG"
    ENG_ZH = "ENG_ZH"


class MediaKind(str, Enum):
    IMAGE = "Image"
    VIDEO = "Video"
    AUDIO = "Audio"


def _lookup(enum: type[Enum]) -> Callable[[Any], Any]:
    """`enum` as a function of a value, which looks the member up in a dict
    built once; a miss, or a value that cannot be a dict key, takes the `Enum`
    call, so that its `ValueError` is the one raised."""
    members = {member.value: member for member in enum}

    def member(value: Any) -> Any:
        try:
            return members[value]
        except (KeyError, TypeError):
            pass
        return enum(value)  # outside the handler, so no KeyError rides along as its context

    return member


_scenario, _language, _media_kind = map(_lookup, (Scenario, Language, MediaKind))


class DedupNormalization(str, Enum):
    STANDARD = "standard"
    NONE = "none"


class ManifestError(ValueError):
    """Raised for malformed manifest files or invalid records."""


def _object(what: str, val: Any) -> dict[str, Any]:
    if not isinstance(val, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(val).__name__}")
    return val


# a JSON escape of a UTF-16 surrogate, \ud800-\udfff, paired or not
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# the encoders of every JSON line and of every --report file capypipe writes, built
# once; each refuses NaN and Infinity, which JSON has not, with a `ValueError`
_COMPACT_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), allow_nan=False)
_REPORT_JSON = json.JSONEncoder(ensure_ascii=False, indent=2, sort_keys=True, allow_nan=False)


def _str(key: str, val: Any, optional: bool = False) -> str | None:
    if isinstance(val, str) or (optional and val is None):
        return val
    raise ValueError(f"{key} must be a string, got {type(val).__name__}")


def _is_number(val: Any) -> bool:
    # a bool is an int to Python, but never a count or a measure here
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _number(key: str, val: Any) -> int | float | None:
    if val is None:
        return val
    # the common case at once: an exact int or float in the float range; a bool,
    # a subclass or a value past the range takes the checks below
    if (type(val) is int or type(val) is float) and -_FLOAT_MAX <= val <= _FLOAT_MAX:
        return val
    if not _is_number(val):
        raise ValueError(f"{key} must be a number, got {type(val).__name__}")
    # NaN or Infinity from a library caller (the reader refuses them), or an
    # int past the float range, which would overflow later
    if not -_FLOAT_MAX <= val <= _FLOAT_MAX:
        raise ValueError(f"{key} must be a finite number, got {val}")
    return val


def _count(name: str, value: Any, most: int | None = None) -> int:
    """`value` as a count or a size: an int, not a bool, in 1..most (or >= 1)."""
    is_int = _is_number(value) and isinstance(value, int)
    if is_int and most is not None and not 1 <= value <= most:
        raise ValueError(f"{name} must be in 1..{most}, got {value}")
    if not is_int or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _fraction(name: str, value: Any) -> float:
    """`value` as a threshold: a number in (0, 1]."""
    if not (_is_number(value) and 0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def _rate(name: str, value: Any) -> float:
    """`value` as a rate: a number, finite and > 0."""
    if not (_is_number(value) and 0.0 < value <= _FLOAT_MAX):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class MediaRef:
    kind: MediaKind
    path: str
    width: int | None = None
    height: int | None = None
    duration: float | None = None
    sample_rate: int | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind.value, "path": self.path}
        for key in ("width", "height", "duration", "sample_rate"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "MediaRef":
        _object("media ref", obj)
        return cls(
            _media_kind(obj["kind"]),
            _str("path", obj["path"]),
            _number("width", obj.get("width")),
            _number("height", obj.get("height")),
            _number("duration", obj.get("duration")),
            _number("sample_rate", obj.get("sample_rate")),
        )


@dataclass(frozen=True, slots=True)
class FilterVerdict:
    kept: bool
    stage: str | None = None
    metric_name: str | None = None
    metric_value: float | None = None

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kept": self.kept}
        for key in ("stage", "metric_name", "metric_value"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "FilterVerdict":
        _object("verdict", obj)
        if not isinstance(obj["kept"], bool):
            raise ValueError(f"kept must be a bool, got {type(obj['kept']).__name__}")
        return cls(
            obj["kept"],
            _str("stage", obj.get("stage"), optional=True),
            _str("metric_name", obj.get("metric_name"), optional=True),
            _number("metric_value", obj.get("metric_value")),
        )


@dataclass(frozen=True, slots=True)
class SampleRecord:
    id: str
    scenario: Scenario
    language: Language
    text: str
    media: tuple[MediaRef, ...] = ()
    hypothesis: str | None = None
    translation: str | None = None
    source: str = ""
    verdict: FilterVerdict | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def with_verdict(self, verdict: FilterVerdict | None) -> "SampleRecord":
        """This record with `verdict`: `dataclasses.replace(self, verdict=verdict)`,
        built directly, at half its cost."""
        return SampleRecord(
            self.id, self.scenario, self.language, self.text, self.media,
            self.hypothesis, self.translation, self.source, verdict, self.extra,
        )

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "scenario": self.scenario.value,
            "language": self.language.value,
        }
        if self.media:
            out["media"] = [m.to_json() for m in self.media]
        out["text"] = self.text
        if self.hypothesis is not None:
            out["hypothesis"] = self.hypothesis
        if self.translation is not None:
            out["translation"] = self.translation
        if self.source:
            out["source"] = self.source
        if self.verdict is not None:
            out["verdict"] = self.verdict.to_json()
        out.update(self.extra)
        return out

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> "SampleRecord":
        _object("record", obj)
        media = obj.get("media", [])
        if not isinstance(media, list):
            raise ValueError(f"media must be a list of objects, got {type(media).__name__}")
        extra = {k: v for k, v in obj.items() if k not in _KNOWN_KEYS}
        # each field checked in this order, so that a record with two faults
        # reports the first; the call below takes them in field order
        id_ = _str("id", obj["id"])
        scenario = _scenario(obj["scenario"])
        language = _language(obj["language"])
        refs = tuple(map(MediaRef.from_json, media))
        text = _str("text", obj.get("text", ""))
        hypothesis = _str("hypothesis", obj.get("hypothesis"), optional=True)
        translation = _str("translation", obj.get("translation"), optional=True)
        source = _str("source", obj.get("source", ""))
        verdict = FilterVerdict.from_json(obj["verdict"]) if "verdict" in obj else None
        return _checked(cls(
            id_, scenario, language, text, refs, hypothesis, translation, source, verdict, extra
        ))


_KNOWN_KEYS = {f.name for f in dataclasses.fields(SampleRecord)} - {"extra"}


@dataclass(frozen=True)
class PipelineConfig:
    wer_threshold: float = 0.3
    s2tt_similarity_threshold: float = 0.5
    dedup_normalization: DedupNormalization = DedupNormalization.STANDARD
    cluster_jaccard_threshold: float = 0.8
    shingle_n: int = 3
    max_slices: int = 9
    cell_size: int = 448
    video_fps: float = 1.0
    video_frame_cap: int = 128

    def __post_init__(self) -> None:
        _fraction("wer_threshold", self.wer_threshold)
        _fraction("s2tt_similarity_threshold", self.s2tt_similarity_threshold)
        # a value that is not a member raises ValueError
        object.__setattr__(
            self, "dedup_normalization", DedupNormalization(self.dedup_normalization)
        )
        _fraction("cluster_jaccard_threshold", self.cluster_jaccard_threshold)
        _count("shingle_n", self.shingle_n, MAX_NGRAM)
        _count("max_slices", self.max_slices, MAX_SLICES)
        _count("cell_size", self.cell_size)
        _rate("video_fps", self.video_fps)
        _count("video_frame_cap", self.video_frame_cap)

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError as exc:  # nested past the interpreter's recursion limit
            raise ValueError(str(exc)) from exc
        data = _object("config file", data)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ManifestError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


# bound once for `validate`, run on every record read: `MediaKind.IMAGE` costs 0.18 us on 3.11
_ASR, _S2TT, _IMAGE, _AUDIO = Scenario.ASR, Scenario.S2TT, MediaKind.IMAGE, MediaKind.AUDIO
_S2TT_PAIRS = (Language.ZH_ENG, Language.ENG_ZH)


def validate(record: SampleRecord) -> list[str]:
    """Return a list of invariant violations; empty means the record is valid."""
    violations = []
    if not record.id:
        violations.append("id must be non-empty")
    if record.scenario is _ASR:
        audio = [m for m in record.media if m.kind is _AUDIO]
        if len(audio) != 1:
            violations.append("ASR requires exactly one audio ref")
    if record.scenario is _S2TT and record.language not in _S2TT_PAIRS:
        violations.append(
            f"S2TT requires language pair ZH_ENG or ENG_ZH, got {record.language.value}"
        )
    for m in record.media:
        if m.kind is _IMAGE:
            for key in ("width", "height"):
                if (val := getattr(m, key)) is not None and val <= 0:
                    violations.append(f"image {key} must be > 0, got {val}")
        elif m.duration is not None and m.duration < 0:
            violations.append(f"{m.kind.value.lower()} duration must be >= 0, got {m.duration}")
        if m.kind is _AUDIO and m.sample_rate is not None and m.sample_rate <= 0:
            violations.append(f"audio sample_rate must be > 0, got {m.sample_rate}")
    if record.verdict is not None and not record.verdict.kept:
        if not record.verdict.stage or not record.verdict.metric_name:
            violations.append("dropped verdict must carry stage and metric_name")
    return violations


def _checked(record: SampleRecord) -> SampleRecord:
    """`record`, or a `ManifestError` naming it and every fault `validate` finds."""
    if problems := validate(record):
        raise ManifestError(f"record {record.id!r} invalid: {'; '.join(problems)}")
    return record


def dumps_record(record: SampleRecord) -> str:
    """The record as one compact JSON line; a `ValueError` naming the record
    where a value nests past the interpreter's recursion limit or is not
    finite (NaN, Infinity)."""
    try:
        return _COMPACT_JSON.encode(record.to_json())
    except (RecursionError, ValueError) as exc:
        raise ValueError(f"record {record.id!r} cannot be written: {exc}") from exc


def read_keyed(
    path: str | Path, parse: Callable[[str], tuple[str, Any]], what: str
) -> Iterator[tuple[str, Any]]:
    """Yield one (id, item) pair per line, `parse(line) -> (id, item)`, in file
    order, skipping blank lines. A line not UTF-8, led by a BOM, or that `parse`
    rejects (KeyError, TypeError, ValueError, or RecursionError for a value nested
    past the interpreter's limit) fails as `path:line: malformed <what>`, and an
    id seen twice fails naming both lines; each is a `ManifestError`."""
    lines: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line or line.isspace():
                    continue
                if line.startswith("\ufeff"):  # worded as `json.loads` reports it
                    raise ValueError("Unexpected UTF-8 BOM (decode using utf-8-sig): "
                                     "line 1 column 1 (char 0)")
                key, item = parse(line)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ManifestError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
            if (first := lines.setdefault(key, lineno)) != lineno:
                raise ManifestError(f"{path}: duplicate id {key!r} on lines {first} and {lineno}")
            yield key, item


def _finite(literal: str) -> float:
    """A JSON float literal as a float; NaN, ±Infinity and 1e400 are refused."""
    value = float(literal)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{literal} is not a finite JSON number")
    return value


# the decoder of every record line: strict JSON numbers in every field
_STRICT_JSON = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def _keyed_record(line: str) -> tuple[str, SampleRecord]:
    obj = _STRICT_JSON.decode(line)
    if _SURROGATE_ESCAPE.search(line):
        # only a \ud800-\udfff escape can put a lone surrogate in UTF-8 text,
        # and one would make every later write fail
        try:
            _COMPACT_JSON.encode(obj).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a string holds a lone surrogate escape") from None
    rec = SampleRecord.from_json(obj)
    return rec.id, rec


def read_manifest(path: str | Path) -> list[SampleRecord]:
    """Read a JSONL manifest; one record per line, order preserved."""
    return [rec for _, rec in read_keyed(path, _keyed_record, "record")]


def write_lines(files: list[tuple[str | Path, Iterable[str]]]) -> None:
    """Write each (path, lines) pair's lines, LF-terminated, as UTF-8, so that
    the files end whole or untouched together: every file's lines go to a temp
    file beside it, and only when all are written do the temp files replace
    their targets. Two paths naming one file (by `os.path.realpath`) are
    refused before any is written, by a `ValueError` naming both as given, the
    earlier first. An existing non-regular file (a device, a pipe) is written
    in place, since replacing it would not reach the reader behind it. An
    `OSError` names the target path, not its temp file."""
    first: dict[str, int] = {}
    for i, (path, _) in enumerate(files):
        if (j := first.setdefault(os.path.realpath(path), i)) != i:
            raise ValueError(f"outputs {files[j][0]} and {path} name one file")
    renames: list[tuple[str, str | Path]] = []
    try:
        for i, (path, lines) in enumerate(files):
            if os.path.exists(path) and not os.path.isfile(path):
                target = path
            else:
                head, name = os.path.split(path)
                target = os.path.join(head, f".{name}.{os.getpid()}.{i}.tmp")
                renames.append((target, path))
            # a plain open, not mkstemp, so that the file's mode follows the umask
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(f"{line}\n" for line in lines)
        for target, path in renames:
            os.replace(target, path)
    except BaseException as exc:
        for target, _ in renames:
            with contextlib.suppress(OSError):
                os.remove(target)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_manifest(records: list[SampleRecord], path: str | Path) -> None:
    """Write records as UTF-8 JSONL, LF-terminated, validating invariants first
    (a library caller can build a record that `from_json` would refuse); the
    file ends whole or untouched (`write_lines`), so a record that
    `dumps_record` cannot write leaves it as it was."""
    for rec in records:
        _checked(rec)
    write_lines([(path, map(dumps_record, records))])

"""Sample data model, pipeline configuration, and JSONL manifest persistence."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any


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


class DedupNormalization(str, Enum):
    STANDARD = "standard"
    NONE = "none"


class ManifestError(Exception):
    """Raised for malformed manifest files or invalid records."""


@dataclass(frozen=True)
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
        return cls(
            kind=MediaKind(obj["kind"]),
            path=obj["path"],
            width=obj.get("width"),
            height=obj.get("height"),
            duration=obj.get("duration"),
            sample_rate=obj.get("sample_rate"),
        )


@dataclass(frozen=True)
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
        return cls(
            kept=obj["kept"],
            stage=obj.get("stage"),
            metric_name=obj.get("metric_name"),
            metric_value=obj.get("metric_value"),
        )


_KNOWN_KEYS = (
    "id",
    "scenario",
    "language",
    "media",
    "text",
    "hypothesis",
    "translation",
    "source",
    "verdict",
)


@dataclass(frozen=True)
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

    def with_verdict(self, verdict: FilterVerdict) -> "SampleRecord":
        return dataclasses.replace(self, verdict=verdict)

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
        extra = {k: v for k, v in obj.items() if k not in _KNOWN_KEYS}
        return cls(
            id=obj["id"],
            scenario=Scenario(obj["scenario"]),
            language=Language(obj["language"]),
            media=tuple(MediaRef.from_json(m) for m in obj.get("media", [])),
            text=obj.get("text", ""),
            hypothesis=obj.get("hypothesis"),
            translation=obj.get("translation"),
            source=obj.get("source", ""),
            verdict=FilterVerdict.from_json(obj["verdict"]) if "verdict" in obj else None,
            extra=extra,
        )


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
        if not 0.0 < self.wer_threshold <= 1.0:
            raise ValueError(f"wer_threshold must be in (0, 1], got {self.wer_threshold}")
        if not 0.0 < self.s2tt_similarity_threshold <= 1.0:
            raise ValueError(
                "s2tt_similarity_threshold must be in (0, 1], "
                f"got {self.s2tt_similarity_threshold}"
            )
        if not 0.0 < self.cluster_jaccard_threshold <= 1.0:
            raise ValueError(
                "cluster_jaccard_threshold must be in (0, 1], "
                f"got {self.cluster_jaccard_threshold}"
            )
        if not isinstance(self.shingle_n, int) or self.shingle_n < 1:
            raise ValueError(f"shingle_n must be an integer >= 1, got {self.shingle_n}")
        if not 1 <= self.max_slices <= 9:
            raise ValueError(f"max_slices must be in 1..9, got {self.max_slices}")
        if not isinstance(self.cell_size, int) or self.cell_size < 1:
            raise ValueError(f"cell_size must be an integer >= 1, got {self.cell_size}")
        if not 0.0 < self.video_fps < math.inf:
            raise ValueError(f"video_fps must be finite and > 0, got {self.video_fps}")
        if self.video_frame_cap < 1:
            raise ValueError(f"video_frame_cap must be >= 1, got {self.video_frame_cap}")

    @classmethod
    def from_file(cls, path: str | Path, **overrides: Any) -> "PipelineConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if "dedup_normalization" in data:
            data["dedup_normalization"] = DedupNormalization(data["dedup_normalization"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ManifestError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


def validate(record: SampleRecord) -> list[str]:
    """Return a list of invariant violations; empty means the record is valid."""
    violations = []
    if not record.id:
        violations.append("id must be non-empty")
    if record.scenario is Scenario.ASR:
        audio = [m for m in record.media if m.kind is MediaKind.AUDIO]
        if len(audio) != 1:
            violations.append("ASR requires exactly one audio ref")
    if record.scenario is Scenario.S2TT and record.language not in (
        Language.ZH_ENG,
        Language.ENG_ZH,
    ):
        violations.append(
            f"S2TT requires language pair ZH_ENG or ENG_ZH, got {record.language.value}"
        )
    for m in record.media:
        if m.kind is MediaKind.IMAGE:
            if m.width is not None and m.width <= 0:
                violations.append(f"image width must be > 0, got {m.width}")
            if m.height is not None and m.height <= 0:
                violations.append(f"image height must be > 0, got {m.height}")
        if m.kind is MediaKind.AUDIO:
            if m.duration is not None and m.duration < 0:
                violations.append(f"audio duration must be >= 0, got {m.duration}")
            if m.sample_rate is not None and m.sample_rate <= 0:
                violations.append(f"audio sample_rate must be > 0, got {m.sample_rate}")
    if record.verdict is not None and not record.verdict.kept:
        if not record.verdict.stage or not record.verdict.metric_name:
            violations.append("dropped verdict must carry stage and metric_name")
    return violations


def dumps_record(record: SampleRecord) -> str:
    return json.dumps(record.to_json(), ensure_ascii=False, separators=(",", ":"))


def read_manifest(path: str | Path) -> list[SampleRecord]:
    """Read a JSONL manifest; one record per line, order preserved."""
    path = Path(path)
    records: list[SampleRecord] = []
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rec = SampleRecord.from_json(obj)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ManifestError(f"{path}:{lineno}: malformed record: {exc}") from exc
            if rec.id in seen:
                raise ManifestError(
                    f"{path}: duplicate id {rec.id!r} on lines {seen[rec.id]} and {lineno}"
                )
            seen[rec.id] = lineno
            records.append(rec)
    return records


def write_manifest(records: list[SampleRecord], path: str | Path) -> None:
    """Write records as UTF-8 JSONL, LF-terminated, validating invariants first."""
    for rec in records:
        problems = validate(rec)
        if problems:
            raise ManifestError(f"record {rec.id!r} invalid: {'; '.join(problems)}")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(dumps_record(rec))
            fh.write("\n")

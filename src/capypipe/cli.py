"""Command-line interface: one subcommand per pipeline stage.

JSON results go to stdout (or --out); diagnostics go to stderr. Exit codes:
0 success, 1 validation failure, 2 I/O failure. Flag values override the
config file (--config or $CAPYPIPE_CONFIG), which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import audio as audio_mod
from . import pipeline as pipeline_mod
from . import tokens as tokens_mod
from . import video as video_mod
from .manifest import (
    ManifestError,
    MediaKind,
    PipelineConfig,
    dumps_record,
    read_manifest,
    write_manifest,
)
from .metrics import bleu, cer, ngram_cosine, wer
from .tiler import plan_tiles

CONFIG_ENV = "CAPYPIPE_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    overrides = {
        name: getattr(args, name)
        for name in (f.name for f in dataclasses.fields(PipelineConfig))
        if getattr(args, name, None) is not None
    }
    try:
        if path:
            return PipelineConfig.from_file(path, **overrides)
        return PipelineConfig(**overrides)
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {path}", EXIT_IO) from exc
    except (ManifestError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"invalid config: {exc}", EXIT_INVALID) from exc


def _read_records(path: str):
    try:
        return read_manifest(path)
    except FileNotFoundError as exc:
        raise CliError(f"manifest not found: {path}", EXIT_IO) from exc
    except ManifestError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}", EXIT_IO) from exc
    else:
        sys.stdout.write(text)


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan_tiles(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        plan = plan_tiles(args.width, args.height, config.max_slices, config.cell_size)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    _emit(
        [
            _dumps(
                {
                    "rows": plan.grid_rows,
                    "cols": plan.grid_cols,
                    "cell_size": plan.cell_size,
                    "resized_width": plan.resized_width,
                    "resized_height": plan.resized_height,
                    "thumbnail": plan.thumbnail,
                    "score": plan.score,
                }
            )
        ],
        args.out,
    )
    return EXIT_OK


def cmd_budget(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = _read_records(args.manifest)
    lines = []
    for rec in records:
        plans: list[object] = []  # one per media ref, in manifest order
        for ref in rec.media:
            kind = ref.kind.value.lower()
            if ref.kind is MediaKind.IMAGE:
                if not ref.width or not ref.height:
                    raise CliError(
                        f"record {rec.id!r}: {kind} ref {ref.path!r} lacks dimensions",
                        EXIT_INVALID,
                    )
                plans.append(
                    plan_tiles(ref.width, ref.height, config.max_slices, config.cell_size)
                )
                continue
            if ref.duration is None:
                raise CliError(
                    f"record {rec.id!r}: {kind} ref {ref.path!r} lacks duration", EXIT_INVALID
                )
            if ref.kind is MediaKind.VIDEO:
                plans.append(
                    video_mod.schedule(ref.duration, config.video_fps, config.video_frame_cap)
                )
            else:
                plans.append(tokens_mod.audio_budget(ref.duration))
        layout = tokens_mod.assemble_layout(rec, plans)
        lines.append(_dumps({"id": rec.id, **layout.to_json()}))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_audio_profile(args: argparse.Namespace) -> int:
    try:
        prof = audio_mod.profile(args.wav)
    except FileNotFoundError as exc:
        raise CliError(f"audio file not found: {args.wav}", EXIT_IO) from exc
    except (audio_mod.AudioFormatError, ValueError) as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    _emit([_dumps(prof.to_json())], args.out)
    return EXIT_OK


def cmd_video_schedule(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        sched = video_mod.schedule(args.duration, config.video_fps, config.video_frame_cap)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    _emit([_dumps(list(sched.timestamps))], args.out)
    return EXIT_OK


def _read_tsv(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CliError(f"TSV file not found: {path}", EXIT_IO) from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise CliError(f"{path}:{lineno}: expected two tab-separated columns", EXIT_INVALID)
        key, value = line.split("\t", 1)
        out[key] = value
    return out


def cmd_metrics(args: argparse.Namespace) -> int:
    refs = _read_tsv(args.ref)
    hyps = _read_tsv(args.hyp)
    missing = [k for k in refs if k not in hyps]
    if missing:
        raise CliError(f"hypothesis file lacks ids: {missing[:5]}", EXIT_INVALID)
    lines = []
    values = []
    if args.metric == "bleu":
        ref_corpus = [refs[k].split() for k in refs]
        hyp_corpus = [hyps[k].split() for k in refs]
        score = bleu(ref_corpus, hyp_corpus)
        lines.append(_dumps({"summary": "bleu", "count": len(refs), "value": score}))
    else:
        for key in refs:
            try:
                if args.metric == "wer":
                    value = wer(refs[key], hyps[key]).rate
                elif args.metric == "cer":
                    value = cer(refs[key], hyps[key]).rate
                else:
                    value = ngram_cosine(refs[key], hyps[key], args.ngram)
            except ValueError as exc:
                raise CliError(f"id {key!r}: {exc}", EXIT_INVALID) from exc
            values.append(value)
            lines.append(_dumps({"id": key, "metric": args.metric, "value": value}))
        mean = sum(values) / len(values) if values else 0.0
        lines.append(_dumps({"summary": args.metric, "count": len(values), "mean": mean}))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if not args.out:
        raise CliError("filter requires --out for the kept manifest", EXIT_INVALID)
    records = _read_records(args.manifest)
    result = pipeline_mod.curate(records, config)
    try:
        write_manifest(result.kept, args.out)
        if args.dropped:
            with Path(args.dropped).open("w", encoding="utf-8", newline="\n") as fh:
                for rec in result.dropped:
                    fh.write(dumps_record(rec) + "\n")
        if args.report:
            report_dir = Path(args.report)
            report_dir.mkdir(parents=True, exist_ok=True)
            for rep in result.reports:
                (report_dir / f"{rep.stage}.json").write_text(
                    json.dumps(rep.to_json(), ensure_ascii=False, indent=2, sort_keys=True)
                    + "\n",
                    encoding="utf-8",
                )
    except ManifestError as exc:
        raise CliError(str(exc), EXIT_INVALID) from exc
    except OSError as exc:
        raise CliError(f"cannot write output: {exc}", EXIT_IO) from exc
    for rep in result.reports:
        print(
            f"{rep.stage}: {rep.input_count} in, {rep.kept} kept, {rep.dropped} dropped",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    records = _read_records(args.manifest)
    lines = [_dumps(row) for row in pipeline_mod.stats(records)]
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, manifest: bool = False) -> None:
    sub.add_argument("--config", default=None, help=f"config file (default: ${CONFIG_ENV})")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    if manifest:
        sub.add_argument("--manifest", required=True, help="input JSONL manifest")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capypipe",
        description="Manifest curation and token budgeting for multimodal training data",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = subs.add_parser("plan-tiles", formatter_class=fmt, help="plan sub-image grid")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--max-slices", dest="max_slices", type=int, default=None)
    p.add_argument("--cell-size", dest="cell_size", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_plan_tiles)

    p = subs.add_parser("budget", formatter_class=fmt, help="token budget per record")
    p.add_argument("--max-slices", dest="max_slices", type=int, default=None)
    p.add_argument("--cell-size", dest="cell_size", type=int, default=None)
    p.add_argument("--video-fps", dest="video_fps", type=float, default=None)
    p.add_argument("--video-frame-cap", dest="video_frame_cap", type=int, default=None)
    _add_common(p, manifest=True)
    p.set_defaults(func=cmd_budget)

    p = subs.add_parser("audio-profile", formatter_class=fmt, help="profile one WAV file")
    p.add_argument("--wav", required=True, help="input RIFF/WAVE PCM16 file")
    _add_common(p)
    p.set_defaults(func=cmd_audio_profile)

    p = subs.add_parser("video-schedule", formatter_class=fmt, help="frame timestamps")
    p.add_argument("--duration", type=float, required=True, help="video length in seconds")
    p.add_argument("--video-fps", dest="video_fps", type=float, default=None)
    p.add_argument("--video-frame-cap", dest="video_frame_cap", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_video_schedule)

    p = subs.add_parser("metrics", formatter_class=fmt, help="text metrics over TSV pairs")
    p.add_argument("metric", choices=("wer", "cer", "bleu", "sim"))
    p.add_argument("--ref", required=True, help="reference TSV (id<TAB>text)")
    p.add_argument("--hyp", required=True, help="hypothesis TSV (id<TAB>text)")
    p.add_argument("--ngram", type=int, default=3, help="n-gram size for sim")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("filter", formatter_class=fmt, help="run the curation pipeline")
    p.add_argument("--dropped", default=None, help="manifest for dropped records")
    p.add_argument("--report", default=None, help="directory for per-stage report JSON")
    p.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS,
        help="no effect: curation runs in one thread; accepted so existing scripts keep working",
    )
    p.add_argument("--wer-threshold", dest="wer_threshold", type=float, default=None)
    p.add_argument(
        "--s2tt-similarity-threshold",
        dest="s2tt_similarity_threshold", type=float, default=None,
    )
    p.add_argument(
        "--cluster-jaccard-threshold",
        dest="cluster_jaccard_threshold", type=float, default=None,
    )
    p.add_argument("--shingle-n", dest="shingle_n", type=int, default=None)
    _add_common(p, manifest=True)
    p.set_defaults(func=cmd_filter)

    p = subs.add_parser("stats", formatter_class=fmt, help="scenario/language/source counts")
    _add_common(p, manifest=True)
    p.set_defaults(func=cmd_stats)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

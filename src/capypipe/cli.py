"""Command-line interface: one subcommand per pipeline stage.

JSON results go to stdout (or --out); diagnostics go to stderr. Each
subcommand but `filter` returns its output lines, and `dispatch` alone writes
them; `budget` returns them as a generator, so that each record is read, priced
and written before the next is decoded. `filter` writes its kept, dropped and
report files itself, together.
Every output file goes through `manifest.write_lines`, which refuses two that
name one file; `filter` makes its --report directory first, so a fault there is
reported first, and a failed run removes each directory it made.
Exit codes: 0 success, 1 invalid input, 2 I/O failure; `dispatch` alone maps a
failure to its code and one `error:` line. Flag values override the config
file (--config or $CAPYPIPE_CONFIG), which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
from typing import Iterable, Iterator

from . import audio as audio_mod
from . import pipeline as pipeline_mod
from . import tokens as tokens_mod
from . import video as video_mod
from .manifest import (
    MAX_NGRAM,
    PipelineConfig,
    SampleRecord,
    _COMPACT_JSON,
    _REPORT_JSON,
    _count,
    _keyed_record,
    dumps_record,
    read_keyed,
    read_manifest,
    write_lines,
    write_manifest,  # noqa: F401  not called here, but perfbench hooks this name
)
from .metrics import PairError, bleu, error_rate, ngram_cosines
from .tiler import plan_tiles

CONFIG_ENV = "CAPYPIPE_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    overrides = {
        name: getattr(args, name)
        for name in _CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    try:
        if path:
            return PipelineConfig.from_file(path, **overrides)
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise CliError(f"invalid config: {exc}", EXIT_INVALID) from exc


@contextlib.contextmanager
def _writing():
    """Turn an `OSError` that names the path it failed on, such as one from
    `write_lines` or `os.mkdir`, into the `cannot write` failure."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename}: {exc.strerror}", EXIT_IO) from exc


@contextlib.contextmanager
def _directory(path: str):
    """Make the directory `path` as `os.makedirs` does, errors included: one
    `os.mkdir` for it and for each missing level above it, as the path is given.
    If the block fails, remove exactly those made here, deepest first (`x` too,
    for `x/../rep`)."""
    levels = [path]
    while (head := os.path.dirname(levels[-1].rstrip(os.sep))) and not os.path.exists(head):
        levels.append(head)
    made = []
    try:
        for level in reversed(levels):
            try:
                os.mkdir(level)
                made.append(level)
            except FileExistsError:
                # as in `os.makedirs`, only the last level must end up a directory
                if level == path and not os.path.isdir(path):
                    raise
        yield
    except BaseException:
        for level in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(level)
        raise


def _records(path: str) -> Iterator[SampleRecord]:
    """The manifest's records, decoded one at a time. An `OSError` from reading
    it, at open or mid-stream, is the `cannot read` failure, also where the
    reader runs inside `write_lines`, which would name the output instead."""
    try:
        for _, rec in read_keyed(path, _keyed_record, "record"):
            yield rec
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}", EXIT_IO) from exc


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write each line, LF-terminated, to `out` (or stdout), with no joined copy;
    `out` ends whole or untouched (`manifest.write_lines`)."""
    if not out:
        try:
            sys.stdout.writelines(f"{line}\n" for line in lines)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left (`| head`): point stdout at devnull so that the flush
            # at exit cannot fail too, as the SIGPIPE note of the signal docs does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    with _writing():
        write_lines([(out, lines)])


_dumps = _COMPACT_JSON.encode


# ---------------------------------------------------------------------------
# subcommands


def cmd_plan_tiles(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    plan = plan_tiles(args.width, args.height, config.max_slices, config.cell_size)
    return [
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
    ]


def cmd_budget(args: argparse.Namespace, config: PipelineConfig) -> Iterator[str]:
    for rec in _records(args.manifest):
        layout = tokens_mod.assemble_layout(rec, config)
        # the text `_dumps({"id": rec.id, **layout.to_json()})` gives, without the dicts
        segments = layout.segments_json()
        yield f'{{"id":{_dumps(rec.id)},"total":{layout.total},"segments":{segments}}}'


def cmd_audio_profile(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    return [_dumps(audio_mod.profile(args.wav).to_json())]


def cmd_video_schedule(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    sched = video_mod.schedule(args.duration, config.video_fps, config.video_frame_cap)
    return [_dumps(list(sched.timestamps))]


def _tsv_pair(line: str) -> tuple[str, str]:
    key, tab, value = line.rstrip("\r\n").partition("\t")
    if not tab:
        raise ValueError("expected two tab-separated columns")
    return key, value


def cmd_metrics(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    if args.metric == "sim":
        # before the files are read, so that no TSV content can hide a bad flag
        _count("n", args.ngram, MAX_NGRAM)
    refs = dict(read_keyed(args.ref, _tsv_pair, "line"))
    hyps = dict(read_keyed(args.hyp, _tsv_pair, "line"))
    missing = [k for k in refs if k not in hyps]
    if missing:
        raise CliError(f"hypothesis file lacks ids: {missing[:5]}", EXIT_INVALID)
    if args.metric == "bleu":
        score = bleu([refs[k].split() for k in refs], [hyps[k].split() for k in refs])
        return [_dumps({"summary": "bleu", "count": len(refs), "value": score})]
    keys = list(refs)
    if args.metric == "sim":
        try:
            values = ngram_cosines([refs[k] for k in keys], [hyps[k] for k in keys], args.ngram)
        except PairError as exc:
            raise CliError(f"id {keys[exc.index]!r}: {exc}", EXIT_INVALID) from exc
    else:
        values = []
        for key in keys:
            try:
                values.append(error_rate(args.metric, refs[key], hyps[key]))
            except ValueError as exc:
                raise CliError(f"id {key!r}: {exc}", EXIT_INVALID) from exc
    lines = [_dumps({"id": k, "metric": args.metric, "value": v}) for k, v in zip(keys, values)]
    mean = sum(values) / len(values) if values else 0.0
    lines.append(_dumps({"summary": args.metric, "count": len(values), "mean": mean}))
    return lines


def cmd_filter(args: argparse.Namespace, config: PipelineConfig) -> None:
    if not args.out:
        raise CliError("filter requires --out for the kept manifest", EXIT_INVALID)
    result = pipeline_mod.curate(read_manifest(args.manifest), config)
    outputs = [(args.out, map(dumps_record, result.kept))]
    if args.dropped:
        outputs.append((args.dropped, map(dumps_record, result.dropped)))
    if args.report:
        for rep in result.reports:
            text = _REPORT_JSON.encode(rep.to_json())
            outputs.append((os.path.join(args.report, f"{rep.stage}.json"), [text]))
    # every output is written, or none is replaced and no new directory stays
    with _writing(), _directory(args.report or os.curdir):
        write_lines(outputs)
    for rep in result.reports:
        print(
            f"{rep.stage}: {rep.input_count} in, {rep.kept} kept, {rep.dropped} dropped",
            file=sys.stderr,
        )


def cmd_stats(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    return [_dumps(row) for row in pipeline_mod.stats(_records(args.manifest))]


# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *fields: str, manifest: bool = False) -> None:
    """Add a flag for each named `PipelineConfig` field, then --config, --out and
    (with `manifest`) --manifest. A field's flag is its name with dashes, typed
    like the field; it defaults to None so that the config file's value holds."""
    for name in fields:
        field_type = {"int": int, "float": float}[_CONFIG_FIELDS[name].type]
        sub.add_argument("--" + name.replace("_", "-"), type=field_type, default=None)
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
    _add_common(p, "max_slices", "cell_size")
    p.set_defaults(func=cmd_plan_tiles)

    p = subs.add_parser("budget", formatter_class=fmt, help="token budget per record")
    _add_common(p, "max_slices", "cell_size", "video_fps", "video_frame_cap", manifest=True)
    p.set_defaults(func=cmd_budget)

    p = subs.add_parser("audio-profile", formatter_class=fmt, help="profile one WAV file")
    p.add_argument("--wav", required=True, help="input RIFF/WAVE PCM16 file")
    _add_common(p)
    p.set_defaults(func=cmd_audio_profile)

    p = subs.add_parser("video-schedule", formatter_class=fmt, help="frame timestamps")
    p.add_argument("--duration", type=float, required=True, help="video length in seconds")
    _add_common(p, "video_fps", "video_frame_cap")
    p.set_defaults(func=cmd_video_schedule)

    p = subs.add_parser("metrics", formatter_class=fmt, help="text metrics over TSV pairs")
    p.add_argument("metric", choices=("wer", "cer", "bleu", "sim"))
    p.add_argument("--ref", required=True, help="reference TSV (id<TAB>text)")
    p.add_argument("--hyp", required=True, help="hypothesis TSV (id<TAB>text)")
    p.add_argument("--ngram", type=int, default=3, help=f"n-gram size for sim (1..{MAX_NGRAM})")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("filter", formatter_class=fmt, help="run the curation pipeline")
    p.add_argument("--dropped", default=None, help="manifest for dropped records")
    p.add_argument("--report", default=None, help="directory for per-stage report JSON")
    p.add_argument(
        "--jobs", type=int, default=argparse.SUPPRESS,
        help="no effect: curation runs in one thread; accepted so existing scripts keep working",
    )
    _add_common(
        p, "wer_threshold", "s2tt_similarity_threshold", "cluster_jaccard_threshold",
        "shingle_n", manifest=True,
    )
    p.set_defaults(func=cmd_filter)

    p = subs.add_parser("stats", formatter_class=fmt, help="scenario/language/source counts")
    _add_common(p, manifest=True)
    p.set_defaults(func=cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `dispatch` call, built once per process."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    """Run one subcommand and return its exit code: 1 for invalid input (a
    `ValueError`, `ManifestError` and `AudioFormatError` among them), 2 for an
    input that cannot be read (any other `OSError`) or an output that cannot
    be written. A failure prints one `error:` line to stderr."""
    args = _parser().parse_args(argv)
    try:
        # loaded for every subcommand, also those that read no field of it, so
        # that a bad --config or $CAPYPIPE_CONFIG fails the same way everywhere
        lines = args.func(args, _load_config(args))
        if lines is not None:
            _emit(lines, args.out)
        return EXIT_OK
    except CliError as exc:
        message, code = str(exc), exc.code
    except ValueError as exc:
        message, code = str(exc), EXIT_INVALID
    except OSError as exc:  # outputs fail inside `cannot write` blocks
        message = f"cannot read {exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        code = EXIT_IO
    print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Staged manifest curation: exact dedup, near-duplicate clustering, and
consistency filters for speech-recognition and speech-translation samples.

Near-duplicate detection is an exact prefix-filter join: its candidate pairs
provably include every pair at or above the Jaccard threshold, and each is
verified by its exact shingle overlap, so results are identical to the O(n^2)
brute force.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .manifest import (
    DedupNormalization,
    FilterVerdict,
    Language,
    PipelineConfig,
    SampleRecord,
    Scenario,
)
from .metrics import cer, jaccard_shingles, ngram_cosine, normalize, wer

_HIST_BUCKETS = 10


@dataclass
class FilterReport:
    stage: str
    input_count: int = 0
    kept: int = 0
    dropped: int = 0
    drop_reasons: dict[str, int] = field(default_factory=dict)
    metric_histogram: list[int] = field(default_factory=lambda: [0] * _HIST_BUCKETS)

    def record_drop(self, reason: str) -> None:
        self.dropped += 1
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def record_metric(self, value: float) -> None:
        bucket = min(int(value * _HIST_BUCKETS), _HIST_BUCKETS - 1)
        self.metric_histogram[max(bucket, 0)] += 1

    def to_json(self) -> dict:
        return {
            "stage": self.stage,
            "input_count": self.input_count,
            "kept": self.kept,
            "dropped": self.dropped,
            "drop_reasons": self.drop_reasons,
            "metric_histogram": self.metric_histogram,
        }


@dataclass(frozen=True)
class ClusterAssignment:
    sample_id: str
    cluster_id: int
    representative: bool


@dataclass
class PipelineResult:
    kept: list[SampleRecord]
    dropped: list[SampleRecord]  # input order, verdicts attached
    reports: list[FilterReport]


def _normalized_text(record: SampleRecord, mode: DedupNormalization) -> str:
    if mode is DedupNormalization.NONE:
        return record.text
    return normalize(record.text)


def dedup_exact(
    records: list[SampleRecord],
    mode: DedupNormalization = DedupNormalization.STANDARD,
) -> tuple[list[SampleRecord], FilterReport]:
    """Keep the first record for each normalized text, drop later copies."""
    kept, _, report = _dedup_exact_full(records, mode)
    return kept, report


def _dedup_exact_full(records, mode):
    report = FilterReport(stage="dedup", input_count=len(records))
    seen: set[str] = set()
    kept: list[SampleRecord] = []
    dropped: list[SampleRecord] = []
    for rec in records:
        key = _normalized_text(rec, mode)
        if key in seen:
            report.record_drop("exact-duplicate")
            dropped.append(
                rec.with_verdict(
                    FilterVerdict(kept=False, stage="dedup", metric_name="exact-duplicate")
                )
            )
        else:
            seen.add(key)
            kept.append(rec)
    report.kept = len(kept)
    return kept, dropped, report


def exact_jaccard(a: str, b: str, n: int) -> float:
    """Shingle Jaccard with short-string fallback: texts below n characters
    compare by equality."""
    if len(a) < n or len(b) < n:
        return 1.0 if a == b else 0.0
    return jaccard_shingles(a, b, n)


def _min_overlap(size: int, threshold: float) -> int:
    """Smallest a with a / size >= threshold in floating point.

    If |y| <= |x| = size, the float Jaccard inter / (|x| + |y| - inter) is at
    most inter / |x| and at most |y| / |x| (rounding keeps the order), so a
    pair reaching the threshold has inter >= a and |y| >= a, boundary pairs
    such as J = 4/5 at threshold 0.8 included.
    """
    a = math.ceil(threshold * size)
    while a > 1 and (a - 1) / size >= threshold:
        a -= 1
    while a / size < threshold:
        a += 1
    return a


def _similar_pairs(texts: list[str], threshold: float, n: int):
    """Yield index pairs whose exact_jaccard reaches the threshold: every such
    pair of texts of n or more characters, and each shorter text paired with
    the first text equal to it.

    The longer texts join by prefix filtering (Bayardo, Ma & Srikant, WWW
    2007). Shingles rank rarest first; sets sharing a = _min_overlap tokens
    share one among the first |x| - a + 1 of each. Texts are visited shortest
    first, so a posting too short for the current text ends its list's scan.
    """
    short: dict[str, int] = {}
    long_ids: list[int] = []
    df: Counter[str] = Counter()
    for i, text in enumerate(texts):
        if len(text) < n:
            first = short.setdefault(text, i)
            if first != i:
                yield first, i
        else:
            long_ids.append(i)
            df.update({text[k : k + n] for k in range(len(text) - n + 1)})
    rank = {g: r for r, g in enumerate(sorted(df, key=lambda g: (df[g], g)))}
    del df
    tokens = [
        tuple(sorted({rank[t[k : k + n]] for k in range(len(t) - n + 1)}))
        for t in (texts[i] for i in long_ids)
    ]
    del rank
    index: dict[int, list[int]] = {}
    for x in sorted(range(len(tokens)), key=lambda k: (len(tokens[k]), k)):
        xt = tokens[x]
        size = len(xt)
        need = _min_overlap(size, threshold)
        candidates = set()
        for tok in xt[: size - need + 1]:
            postings = index.setdefault(tok, [])
            for y in reversed(postings):
                if len(tokens[y]) < need:
                    break
                candidates.add(y)
            postings.append(x)
        xset = set(xt)
        for y in candidates:
            inter = len(xset.intersection(tokens[y]))
            if inter / (size + len(tokens[y]) - inter) >= threshold:
                yield long_ids[y], long_ids[x]


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # attach the later root under the earlier so representatives stay minimal
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def cluster_prune(
    records: list[SampleRecord],
    jaccard_threshold: float = 0.8,
    shingle_n: int = 3,
) -> tuple[list[SampleRecord], list[ClusterAssignment], FilterReport]:
    """Cluster near-duplicate texts and keep one representative per cluster."""
    kept, _, assignments, report = _cluster_prune_full(records, jaccard_threshold, shingle_n)
    return kept, assignments, report


def _cluster_prune_full(records, jaccard_threshold, shingle_n):
    if not 0.0 < jaccard_threshold <= 1.0:
        raise ValueError(f"jaccard_threshold must be in (0, 1], got {jaccard_threshold}")
    if shingle_n < 1:
        raise ValueError(f"shingle_n must be >= 1, got {shingle_n}")
    report = FilterReport(stage="near-duplicate-cluster", input_count=len(records))
    texts = [normalize(r.text) for r in records]
    uf = _UnionFind(len(records))
    for i, j in _similar_pairs(texts, jaccard_threshold, shingle_n):
        uf.union(i, j)
    cluster_ids: dict[int, int] = {}
    assignments = []
    kept = []
    dropped = []
    for i, rec in enumerate(records):
        root = uf.find(i)
        if root not in cluster_ids:
            cluster_ids[root] = len(cluster_ids)
        representative = root == i
        assignments.append(ClusterAssignment(rec.id, cluster_ids[root], representative))
        if representative:
            kept.append(rec)
        else:
            report.record_drop("near-duplicate")
            dropped.append(
                rec.with_verdict(
                    FilterVerdict(
                        kept=False, stage="near-duplicate-cluster", metric_name="jaccard"
                    )
                )
            )
    report.kept = len(kept)
    return kept, dropped, assignments, report


def _asr_verdict(record: SampleRecord, threshold: float) -> FilterVerdict | str:
    """The error-rate verdict, or the drop reason when no rate is defined."""
    if record.hypothesis is None:
        return "no-hypothesis"
    if not normalize(record.text):
        return "empty-reference"
    if record.language is Language.ZH:
        summary, name = cer(record.text, record.hypothesis), "cer"
    else:
        summary, name = wer(record.text, record.hypothesis), "wer"
    return FilterVerdict(
        kept=summary.rate <= threshold, stage="asr-filter",
        metric_name=name, metric_value=summary.rate,
    )


def _s2tt_verdict(record: SampleRecord, threshold: float) -> FilterVerdict | str:
    if record.translation is None:
        return "no-translation"
    sim = ngram_cosine(normalize(record.text), normalize(record.translation), n=3)
    return FilterVerdict(
        kept=sim >= threshold, stage="s2tt-filter",
        metric_name="ngram_cosine", metric_value=sim,
    )


def _map_verdicts(records, fn, jobs):
    if jobs > 1 and len(records) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, records))
    return [fn(r) for r in records]


def _metric_filter(records, verdict_fn, stage, drop_reason, jobs):
    """Partition by verdict_fn, which returns a metric verdict or, for a
    record it cannot score, the reason to drop it unscored."""
    report = FilterReport(stage=stage, input_count=len(records))
    verdicts = _map_verdicts(records, verdict_fn, jobs)
    kept, dropped = [], []
    for rec, verdict in zip(records, verdicts):
        if isinstance(verdict, str):
            report.record_drop(verdict)
            dropped.append(
                rec.with_verdict(FilterVerdict(kept=False, stage=stage, metric_name=verdict))
            )
            continue
        report.record_metric(min(max(verdict.metric_value, 0.0), 1.0))
        if verdict.kept:
            kept.append(rec.with_verdict(verdict))
        else:
            report.record_drop(drop_reason)
            dropped.append(rec.with_verdict(verdict))
    report.kept = len(kept)
    return kept, dropped, report


def filter_asr(
    records: list[SampleRecord], threshold: float = 0.3, jobs: int = 1
) -> tuple[list[SampleRecord], FilterReport]:
    """Drop samples whose external transcript disagrees with the ground truth.

    Chinese samples are scored by character error rate, other languages by
    word error rate; a rate strictly above the threshold drops the sample.
    Samples without a hypothesis, or whose reference is empty after
    normalization, are dropped unscored.
    """
    kept, _, report = _metric_filter(
        records, lambda r: _asr_verdict(r, threshold),
        "asr-filter", "error-rate-above-threshold", jobs,
    )
    return kept, report


def filter_s2tt(
    records: list[SampleRecord], threshold: float = 0.5, jobs: int = 1
) -> tuple[list[SampleRecord], FilterReport]:
    """Keep translation samples whose target text is similar to the reference."""
    kept, _, report = _metric_filter(
        records, lambda r: _s2tt_verdict(r, threshold),
        "s2tt-filter", "low-similarity", jobs,
    )
    return kept, report


def curate(
    records: list[SampleRecord],
    config: PipelineConfig | None = None,
    jobs: int = 1,
) -> PipelineResult:
    """Full pipeline: dedup, near-duplicate pruning, per-scenario consistency.

    Produces three stage reports; the consistency stage routes ASR samples
    through the error-rate filter and S2TT samples through the similarity
    filter, passing every other scenario through untouched.
    """
    config = config or PipelineConfig()
    kept, dd_dropped, dedup_report = _dedup_exact_full(records, config.dedup_normalization)
    kept, cl_dropped, _, cluster_report = _cluster_prune_full(
        kept, config.cluster_jaccard_threshold, config.shingle_n
    )

    consistency = FilterReport(stage="consistency-filter", input_count=len(kept))
    asr_in = [r for r in kept if r.scenario is Scenario.ASR]
    s2tt_in = [r for r in kept if r.scenario is Scenario.S2TT]
    asr_kept, asr_dropped, asr_report = _metric_filter(
        asr_in, lambda r: _asr_verdict(r, config.wer_threshold),
        "asr-filter", "error-rate-above-threshold", jobs,
    )
    s2tt_kept, s2tt_dropped, s2tt_report = _metric_filter(
        s2tt_in, lambda r: _s2tt_verdict(r, config.s2tt_similarity_threshold),
        "s2tt-filter", "low-similarity", jobs,
    )
    surviving = {r.id: r for r in asr_kept + s2tt_kept}
    fc_dropped_by_id = {r.id: r for r in asr_dropped + s2tt_dropped}
    final, fc_dropped = [], []
    for rec in kept:
        if rec.scenario in (Scenario.ASR, Scenario.S2TT):
            if rec.id in surviving:
                final.append(surviving[rec.id])
            else:
                fc_dropped.append(fc_dropped_by_id[rec.id])
        else:
            final.append(rec)
    consistency.kept = len(final)
    consistency.dropped = len(fc_dropped)
    for rep in (asr_report, s2tt_report):
        for reason, count in rep.drop_reasons.items():
            consistency.drop_reasons[reason] = (
                consistency.drop_reasons.get(reason, 0) + count
            )
        consistency.metric_histogram = [
            x + y for x, y in zip(consistency.metric_histogram, rep.metric_histogram)
        ]

    dropped_by_id = {r.id: r for r in dd_dropped + cl_dropped + fc_dropped}
    kept_ids = {r.id for r in final}
    dropped = [dropped_by_id[r.id] for r in records if r.id not in kept_ids]
    return PipelineResult(final, dropped, [dedup_report, cluster_report, consistency])


def run_pipeline(
    records: list[SampleRecord],
    config: PipelineConfig | None = None,
    jobs: int = 1,
) -> tuple[list[SampleRecord], list[FilterReport]]:
    """Curate and return (kept records, stage reports)."""
    result = curate(records, config, jobs)
    return result.kept, result.reports


def stats(records: list[SampleRecord]) -> list[dict]:
    """Counts grouped by (scenario, language, source), in first-seen order."""
    counts: dict[tuple[str, str, str], int] = {}
    for rec in records:
        key = (rec.scenario.value, rec.language.value, rec.source)
        counts[key] = counts.get(key, 0) + 1
    return [
        {"scenario": s, "language": lang, "source": src, "count": c}
        for (s, lang, src), c in counts.items()
    ]

"""Staged manifest curation: exact dedup, near-duplicate clustering, and
consistency filters for speech-recognition and speech-translation samples.

Near-duplicate detection is an exact prefix-filter join over shingles interned
to ints: two texts are candidates only when their rarest-first prefixes share
two tokens (one, when a single shared shingle can reach the threshold). The
candidates provably include every pair at or above the Jaccard threshold, and
each is verified by its exact shingle overlap, so results are identical to
the O(n^2) brute force.

`_run` alone attaches stage verdicts to records and fills the stage reports:
`curate` and each public stage function go through it. Every stage reads its
parameters from the one `PipelineConfig` that `_run` passes it; the public
stage functions build it from their arguments, so only the config checks them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field

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
        return asdict(self)


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


# the report's drop reason for each metric; an unscored drop's metric_name is
# its own reason
_DROP_REASONS = {
    "jaccard": "near-duplicate",
    "wer": "error-rate-above-threshold",
    "cer": "error-rate-above-threshold",
    "ngram_cosine": "low-similarity",
}
_EXACT_DUPLICATE = FilterVerdict(kept=False, stage="dedup", metric_name="exact-duplicate")
_NEAR_DUPLICATE = FilterVerdict(kept=False, stage="near-duplicate-cluster", metric_name="jaccard")


def _run(records, stages, config: PipelineConfig) -> PipelineResult:
    """Run each (stage, verdicts_of) in turn; verdicts_of(live records, config)
    gives one verdict per live record, and None keeps a record as is. Records
    are tracked by input position, so duplicate ids stay apart and both
    outputs keep input order.
    """
    current = list(records)
    live = list(range(len(records)))
    gone: list[int] = []
    reports = []
    for stage, verdicts_of in stages:
        report = FilterReport(stage=stage, input_count=len(live))
        kept = []
        for i, verdict in zip(live, verdicts_of([current[i] for i in live], config), strict=True):
            if verdict is not None:
                current[i] = current[i].with_verdict(verdict)
                if verdict.metric_value is not None:
                    report.record_metric(verdict.metric_value)
                if not verdict.kept:
                    report.record_drop(_DROP_REASONS.get(verdict.metric_name, verdict.metric_name))
                    gone.append(i)
                    continue
            kept.append(i)
        live = kept
        report.kept = len(live)
        reports.append(report)
    return PipelineResult(
        [current[i] for i in live], [current[i] for i in sorted(gone)], reports
    )


def _each(verdict_of):
    """A stage that gives each record `verdict_of(record, config)`."""
    return lambda records, config: [verdict_of(rec, config) for rec in records]


def _dedup_verdicts(records, config):
    raw = config.dedup_normalization is DedupNormalization.NONE
    seen: set[str] = set()
    verdicts = []
    for rec in records:
        key = rec.text if raw else normalize(rec.text)
        verdicts.append(_EXACT_DUPLICATE if key in seen else None)
        seen.add(key)
    return verdicts


def dedup_exact(
    records: list[SampleRecord],
    mode: DedupNormalization = DedupNormalization.STANDARD,
) -> tuple[list[SampleRecord], FilterReport]:
    """Keep the first record for each normalized text, drop later copies."""
    result = _run(records, [("dedup", _dedup_verdicts)], PipelineConfig(dedup_normalization=mode))
    return result.kept, result.reports[0]


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
    """Yield index pairs whose exact_jaccard reaches the threshold, enough to
    cluster by: each text paired with the first text equal to it (Jaccard 1
    meets any threshold in (0, 1]), and every pair of distinct texts of n or
    more characters that reaches the threshold, by their first copies.

    Only those distinct texts join, by prefix filtering (Bayardo, Ma &
    Srikant, WWW 2007) with the ell-prefix filter of Wang, Li & Feng (SIGMOD
    2012). Each shingle is interned to an int in order of first appearance,
    and the ids rank rarest first, ties by id, so the ranks and the order of
    the pairs do not depend on str hashing. A text's tokens are its
    shingles' ranks, sorted.

    Texts are visited shortest first. x probes the postings of its first
    |x| - a + ell tokens, where a = _min_overlap(|x|, threshold) and
    ell = min(2, a), and is then indexed under the same tokens; only a y met
    on at least ell of those lists is verified. This is exact by the
    ell-prefix lemma: if x and y share alpha >= ell tokens, the ell rarest of
    them lie among the first |x| - alpha + ell tokens of x, since alpha - ell
    shared tokens follow them, and likewise of y. A pair reaching the
    threshold shares alpha >= a tokens, so x's probed prefix is long enough.
    y was indexed under its own a_y and ell_y. As |y| <= |x|, a_y <= a, so
    a_y - ell_y = max(a_y - 2, 0) <= a - ell <= alpha - ell, and y's indexed
    prefix of |y| - a_y + ell_y tokens reaches |y| - alpha + ell. Postings
    grow in visiting order, so a text with fewer than a tokens ends a scan.
    """
    first: dict[str, int] = {}
    joined: list[int] = []  # the input index of each text in the join
    ids: dict[str, int] = {}
    shingles: list[tuple[int, ...]] = []  # each joined text's distinct shingle ids
    for i, text in enumerate(texts):
        j = first.setdefault(text, i)
        if j != i:
            yield j, i
        elif len(text) >= n:
            joined.append(i)
            shingles.append(tuple(
                {ids.setdefault(text[k : k + n], len(ids)) for k in range(len(text) - n + 1)}
            ))
    df = [0] * len(ids)
    del ids, first
    for ids_of_text in shingles:
        for g in ids_of_text:
            df[g] += 1
    rank = [0] * len(df)
    for r, g in enumerate(sorted(range(len(df)), key=df.__getitem__)):
        rank[g] = r
    del df
    tokens = [sorted(map(rank.__getitem__, ids_of_text)) for ids_of_text in shingles]
    del shingles, rank
    index: dict[int, list[int]] = {}
    for x in sorted(range(len(tokens)), key=lambda k: (len(tokens[k]), k)):
        xt = tokens[x]
        size = len(xt)
        need = _min_overlap(size, threshold)
        ell = min(2, need)
        hits: dict[int, int] = {}
        for tok in xt[: size - need + ell]:
            postings = index.setdefault(tok, [])
            for y in reversed(postings):
                if len(tokens[y]) < need:
                    break
                hits[y] = hits.get(y, 0) + 1
            postings.append(x)
        xset = None
        for y, c in hits.items():
            if c >= ell:
                if xset is None:
                    xset = set(xt)
                inter = len(xset.intersection(tokens[y]))
                if inter / (size + len(tokens[y]) - inter) >= threshold:
                    yield joined[y], joined[x]


def _cluster_verdicts(records, config):
    """The near-duplicate verdicts, and the cluster assignment of each record."""
    texts = [normalize(r.text) for r in records]
    parent = list(range(len(records)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in _similar_pairs(texts, config.cluster_jaccard_threshold, config.shingle_n):
        ri, rj = find(i), find(j)
        # the later root goes under the earlier: a cluster's first record represents it
        parent[max(ri, rj)] = min(ri, rj)
    cluster_ids: dict[int, int] = {}
    assignments = []
    verdicts = []
    for i, rec in enumerate(records):
        root = find(i)
        cluster_id = cluster_ids.setdefault(root, len(cluster_ids))
        assignments.append(ClusterAssignment(rec.id, cluster_id, root == i))
        verdicts.append(None if root == i else _NEAR_DUPLICATE)
    return verdicts, assignments


def cluster_prune(
    records: list[SampleRecord],
    jaccard_threshold: float = 0.8,
    shingle_n: int = 3,
) -> tuple[list[SampleRecord], list[ClusterAssignment], FilterReport]:
    """Cluster near-duplicate texts and keep one representative per cluster."""
    config = PipelineConfig(cluster_jaccard_threshold=jaccard_threshold, shingle_n=shingle_n)
    verdicts, assignments = _cluster_verdicts(records, config)
    result = _run(records, [("near-duplicate-cluster", lambda recs, config: verdicts)], config)
    return result.kept, assignments, result.reports[0]


def _asr_verdict(record: SampleRecord, config: PipelineConfig) -> FilterVerdict:
    """The error-rate verdict; a drop without a value when no rate is defined."""
    if record.hypothesis is None:
        return FilterVerdict(kept=False, stage="asr-filter", metric_name="no-hypothesis")
    score, name = (cer, "cer") if record.language is Language.ZH else (wer, "wer")
    try:
        summary = score(record.text, record.hypothesis)
    except ValueError:  # no rate is defined: the reference is empty after normalization
        return FilterVerdict(kept=False, stage="asr-filter", metric_name="empty-reference")
    return FilterVerdict(
        kept=summary.rate <= config.wer_threshold, stage="asr-filter",
        metric_name=name, metric_value=summary.rate,
    )


def _s2tt_verdict(record: SampleRecord, config: PipelineConfig) -> FilterVerdict:
    if record.translation is None:
        return FilterVerdict(kept=False, stage="s2tt-filter", metric_name="no-translation")
    sim = ngram_cosine(normalize(record.text), normalize(record.translation), n=3)
    return FilterVerdict(
        kept=sim >= config.s2tt_similarity_threshold, stage="s2tt-filter",
        metric_name="ngram_cosine", metric_value=sim,
    )


def _consistency_verdict(record: SampleRecord, config: PipelineConfig) -> FilterVerdict | None:
    if record.scenario is Scenario.ASR:
        return _asr_verdict(record, config)
    if record.scenario is Scenario.S2TT:
        return _s2tt_verdict(record, config)
    return None


def filter_asr(
    records: list[SampleRecord], threshold: float = 0.3
) -> tuple[list[SampleRecord], FilterReport]:
    """Drop samples whose external transcript disagrees with the ground truth.

    Chinese samples are scored by character error rate, other languages by
    word error rate; a rate strictly above the threshold drops the sample.
    Samples without a hypothesis, or whose reference is empty after
    normalization, are dropped unscored.
    """
    config = PipelineConfig(wer_threshold=threshold)
    result = _run(records, [("asr-filter", _each(_asr_verdict))], config)
    return result.kept, result.reports[0]


def filter_s2tt(
    records: list[SampleRecord], threshold: float = 0.5
) -> tuple[list[SampleRecord], FilterReport]:
    """Keep translation samples whose target text is similar to the reference."""
    config = PipelineConfig(s2tt_similarity_threshold=threshold)
    result = _run(records, [("s2tt-filter", _each(_s2tt_verdict))], config)
    return result.kept, result.reports[0]


def curate(records: list[SampleRecord], config: PipelineConfig | None = None) -> PipelineResult:
    """Full pipeline: dedup, near-duplicate pruning, per-scenario consistency.

    Produces three stage reports; the consistency stage scores ASR samples
    by error rate and S2TT samples by similarity, passing every other
    scenario through untouched. Each output record carries only this run's verdict.
    """
    config = config or PipelineConfig()
    records = [rec if rec.verdict is None else rec.with_verdict(None) for rec in records]
    return _run(records, [
        ("dedup", _dedup_verdicts),
        ("near-duplicate-cluster", lambda recs, config: _cluster_verdicts(recs, config)[0]),
        ("consistency-filter", _each(_consistency_verdict)),
    ], config)


def stats(records: list[SampleRecord]) -> list[dict]:
    """Counts grouped by (scenario, language, source), in first-seen order."""
    counts = Counter((rec.scenario.value, rec.language.value, rec.source) for rec in records)
    return [
        {"scenario": s, "language": lang, "source": src, "count": c}
        for (s, lang, src), c in counts.items()
    ]

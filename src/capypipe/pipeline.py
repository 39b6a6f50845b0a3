"""Staged manifest curation: exact dedup, near-duplicate clustering, and
consistency filters for speech-recognition and speech-translation samples.

Near-duplicate detection is an exact prefix-filter join in numpy. Each text's
distinct shingles become integer tokens ranked rarest first, by sorting and
without hashing. Texts are visited shortest first: each probes an index
with a prefix of its tokens, and is indexed under a shorter prefix, its
mid-prefix (PPJoin). Both are just long enough that any pair reaching the
Jaccard threshold shares two tokens in them (one, when a single shared
shingle can reach it), so only such pairs are verified, by their exact shingle
overlap. The bounds are computed in floating point, like the Jaccard test
itself, so every pair at or above the threshold is found and the results
are identical to the O(n^2) brute force. Scan and verify run a span of texts
at a time within a fixed memory budget.

`_run` alone attaches stage verdicts to records and fills the stage reports:
`curate` and each public stage function go through it. Every stage reads its
parameters from the one `PipelineConfig` that `_run` passes it; the public
stage functions build it from their arguments, so only the config checks them.
`_run` also passes each stage one memoized `normalize`, so that a run
normalizes each distinct text once, whichever stages read it.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from . import _kernels
from ._kernels import _heads, _int, _ranges, _spans, text_ngrams
from .manifest import (
    DedupNormalization,
    FilterVerdict,
    Language,
    PipelineConfig,
    SampleRecord,
    Scenario,
)
from .metrics import (  # noqa: F401  ngram_cosine: not called here, but perfbench hooks this name
    error_rate,
    jaccard_shingles,
    ngram_cosine,
    ngram_cosines,
    normalize,
)

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
_NO_HYPOTHESIS = FilterVerdict(kept=False, stage="asr-filter", metric_name="no-hypothesis")
_EMPTY_REFERENCE = FilterVerdict(kept=False, stage="asr-filter", metric_name="empty-reference")
_NO_TRANSLATION = FilterVerdict(kept=False, stage="s2tt-filter", metric_name="no-translation")


def _run(records, stages, config: PipelineConfig) -> PipelineResult:
    """Run each (stage, verdicts_of) in turn; verdicts_of(live records,
    config, norm) gives one verdict per live record, and None keeps a record
    as is. norm is `normalize`, memoized for this run only. Records are
    tracked by input position, so duplicate ids stay apart and both outputs
    keep input order.
    """
    norm = functools.cache(normalize)
    current = list(records)
    live = list(range(len(records)))
    gone: list[int] = []
    reports = []
    for stage, verdicts_of in stages:
        report = FilterReport(stage=stage, input_count=len(live))
        kept = []
        verdicts = verdicts_of([current[i] for i in live], config, norm)
        for i, verdict in zip(live, verdicts, strict=True):
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


def _first_copies(keys: list) -> dict[int, int]:
    """{i: j} for each key i equal to an earlier key, j the first of them, i ascending."""
    first: dict = {}
    return {i: j for i, key in enumerate(keys) if (j := first.setdefault(key, i)) != i}


def _dedup_verdicts(records, config, norm):
    raw = config.dedup_normalization is DedupNormalization.NONE
    verdicts = [None] * len(records)
    for i in _first_copies([rec.text if raw else norm(rec.text) for rec in records]):
        verdicts[i] = _EXACT_DUPLICATE
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


def _shingle_rows(texts: list[str], n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Each text's distinct n-grams as tokens that rank rarest first, ties in
    code-point order, returned as (tokens, offsets, vocabulary size): text i's
    tokens, ascending, are tokens[offsets[i] : offsets[i + 1]]. Every text has
    n or more characters. The n-grams are ranked exactly, without hashing,
    by `text_ngrams`.
    """
    m = len(texts)
    # each distinct (n-gram, text) pair once, n-gram major
    pairs = text_ngrams(texts, n)
    pairs = pairs[_heads(pairs)]
    text_of = np.empty(len(pairs), np.int32)
    np.remainder(pairs, m, out=text_of, casting="unsafe")  # below m, so exact
    pairs //= m
    heads = _heads(pairs)
    del pairs
    vocab = int(np.count_nonzero(heads))
    # an n-gram's df is the length of its run; rarest first, ties in n-gram order
    df = np.diff(np.append(np.flatnonzero(heads), len(heads)))
    # one packed sort, not np.argsort(df, kind="stable"): the same ranks, but
    # that is 3-4x slower (numpy 2.4 on 2 vCPUs: 4.1 vs 0.9 ms at a 60k
    # vocabulary, 62 vs 21 ms at 1M)
    rank = np.empty(vocab, np.int32)
    rank[np.sort(df * vocab + np.arange(vocab)) % vocab] = np.arange(vocab, dtype=np.int32)
    del df
    rows = text_of.astype(_int(m * vocab))
    rows *= vocab
    rows += rank[np.cumsum(heads, dtype=np.int32) - 1]
    del heads, rank
    rows.sort()
    rows %= vocab
    offsets = np.zeros(m + 1, np.int64)
    np.cumsum(np.bincount(text_of, minlength=m), out=offsets[1:])
    return rows.astype(np.int32, copy=False), offsets, vocab


def _least(threshold: float, guess, ratio) -> int | np.ndarray:
    """Smallest a >= 1 with ratio(a) >= threshold in floating point, elementwise,
    searched from ceil(guess); ratio must not fall as a grows, and must reach
    the threshold. An int for a scalar guess, else an int64 array."""
    a = np.ceil(guess).astype(np.int64)
    while (down := (a > 1) & (ratio(a - 1) >= threshold)).any():
        a -= down
    while (up := ratio(a) < threshold).any():
        a += up
    return a if a.ndim else int(a)


def _min_overlap(size: int | np.ndarray, threshold: float) -> int | np.ndarray:
    """Smallest a with a / size >= threshold in floating point, elementwise
    over an array of sizes.

    If |y| <= |x| = size, the float Jaccard inter / (|x| + |y| - inter) is at
    most inter / |x| and at most |y| / |x| (rounding keeps the order), so a
    pair reaching the threshold has inter >= a and |y| >= a, boundary pairs
    such as J = 4/5 at threshold 0.8 included.
    """
    return _least(threshold, threshold * size, lambda a: a / size)


def _mid_overlap(size: int | np.ndarray, threshold: float) -> int | np.ndarray:
    """Smallest a with a / (2 size - a) >= threshold in floating point,
    elementwise over an array of sizes.

    If size = |y| <= |x|, the float Jaccard inter / (|x| + |y| - inter) is at
    most inter / (2|y| - inter), which does not fall as inter grows, so a
    pair reaching the threshold has inter >= a: about 2t / (1 + t) |y|.
    """
    return _least(threshold, 2 * threshold / (1 + threshold) * size,
                  lambda a: a / (2 * size - a))


def _similar_pairs(texts: list[str], threshold: float, n: int):
    """Yield index pairs whose exact_jaccard reaches the threshold, enough to
    cluster by: each text paired with the first text equal to it (Jaccard 1
    meets any threshold in (0, 1]), and every pair of distinct texts of n or
    more characters that reaches the threshold, by their first copies.

    Only those distinct texts join, by prefix filtering (Bayardo, Ma &
    Srikant, WWW 2007) with PPJoin's shorter indexing prefix (Xiao, Wang, Lin
    & Yu, WWW 2008) and the ell-prefix filter of Wang, Li & Feng (SIGMOD
    2012). A text's tokens are its distinct shingles, ranked rarest first
    (_shingle_rows). Texts are visited shortest first, so a text x meets only
    texts y with |y| <= |x|. Each y is indexed under its first
    |y| - b + min(2, b) tokens, where b = _mid_overlap(|y|, threshold); x
    probes with its first |x| - a + ell tokens, where
    a = _min_overlap(|x|, threshold) and ell = min(2, a); a pair is verified,
    by its exact overlap and the float division exact_jaccard makes, only
    when x meets y on at least ell of those tokens. No pair reaching the
    threshold is missed:
    - float-safe bounds: rounding keeps the order of exact quotients, so if
      the float Jaccard alpha / (|x| + |y| - alpha) of a pair sharing alpha
      tokens reaches the threshold, so do alpha / |x| and
      alpha / (2|y| - alpha), whose denominators are no larger; hence
      alpha >= a, alpha >= b and |y| >= alpha >= a;
    - the ell-prefix lemma: if x and y share alpha >= ell tokens, the ell
      rarest of them lie among the first |x| - alpha + ell tokens of x,
      since alpha - ell shared tokens follow them, and likewise of y;
    - x's probed prefix holds them, as alpha >= a; so does y's indexed
      prefix, by the mid-prefix lemma: alpha - ell >= b - min(2, b), since
      alpha >= b, and alpha >= 2 when ell = 2.
    The index is one sorted array of token * m + visit position, where two
    searchsorted calls per probe token cut out the texts visited before x
    with at least a tokens (_candidates). Overlaps are counted in a mark
    matrix of one vocabulary-wide row per x. Each span of probing texts, of
    posting entries and of verified pairs holds about _kernels._BLOCK_BYTES.
    """
    copies = _first_copies(texts)
    yield from ((j, i) for i, j in copies.items())
    # the input index of each text in the join: a first copy of n or more characters
    joined = [i for i, text in enumerate(texts) if i not in copies and len(text) >= n]
    m = len(joined)
    if m < 2:
        return
    tokens, offsets, vocab = _shingle_rows([texts[i] for i in joined], n)
    # everything below is in visit order: shortest first, ties by input order
    visit = np.argsort(np.diff(offsets), kind="stable")
    size = np.diff(offsets)[visit]
    start = offsets[visit]
    del offsets
    need, mid = _min_overlap(size, threshold), _mid_overlap(size, threshold)
    ell = np.minimum(need, 2)
    probed = size - need + ell
    indexed = size - mid + np.minimum(mid, 2)
    # the first visit position of a text of at least `need` tokens
    low = np.searchsorted(size, need)
    del mid
    key = _int(vocab * m)
    index = tokens[_ranges(start, indexed)].astype(key)
    index *= m
    index += np.repeat(np.arange(m, dtype=key), indexed)
    index.sort()
    del indexed
    # mark[row * vocab + token]: the row's x holds the token; a span of
    # candidates may begin inside an x's run, so it holds one row more
    mark = np.zeros(_kernels._BLOCK_BYTES + vocab, bool)
    for x, y in _candidates(index, tokens, start, probed, low, ell):
        for c, d in _spans(size[y] * _kernels._CELL_BYTES + _heads(x) * vocab):
            xc, yc, ny = x[c:d], y[c:d], size[y[c:d]]
            fresh = _heads(xc)
            rows = xc[fresh]
            cells = np.repeat(np.arange(len(rows)) * vocab, size[rows])
            cells += tokens[_ranges(start[rows], size[rows])]
            mark[cells] = True
            cells_y = np.repeat((np.cumsum(fresh) - 1) * vocab, ny)
            cells_y += tokens[_ranges(start[yc], ny)]
            inter = np.add.reduceat(mark[cells_y], np.cumsum(ny) - ny, dtype=np.int64)
            mark[cells] = False
            del cells, cells_y
            ok = inter / (size[xc] + ny - inter) >= threshold
            for j, i in zip(visit[yc[ok]].tolist(), visit[xc[ok]].tolist()):
                yield joined[j], joined[i]


def _candidates(index, tokens, start, probed, low, ell):
    """Yield the candidate pairs of visit positions (x, y) as two arrays, x
    ascending, a span of probing texts at a time: y < x, y >= low[x], and y
    is indexed under at least ell[x] of x's first probed[x] tokens. `index`
    holds token * m + y for each indexed token of each y, sorted.

    A span's probe tokens, and then the posting entries it scans, stay within
    _kernels._BLOCK_BYTES. The two posting bounds of each probe token are searched in
    (token, x) order, in which both ascend, since low grows with x.
    """
    m = len(start)
    for top, stop in _spans(probed * _kernels._CELL_BYTES):
        xs = np.repeat(np.arange(top, stop, dtype=index.dtype), probed[top:stop])
        probes = tokens[_ranges(start[top:stop], probed[top:stop])].astype(index.dtype)
        probes *= m
        order = np.argsort(probes + xs)
        lo = np.empty(len(xs), np.int64)
        hits = np.empty(len(xs), np.int64)
        lo[order] = np.searchsorted(index, (probes + low[xs].astype(index.dtype))[order])
        hits[order] = np.searchsorted(index, (probes + xs)[order])
        hits -= lo
        del probes, order
        bounds = np.append(0, np.cumsum(probed[top:stop]))
        for a, b in _spans(np.add.reduceat(hits, bounds[:-1]) * _kernels._CELL_BYTES):
            part = slice(bounds[a], bounds[b])
            runs = np.repeat(xs[part].astype(np.int64) * m, hits[part])
            runs += index[_ranges(lo[part], hits[part])] % m
            runs.sort()
            heads = np.flatnonzero(_heads(runs))
            keep = heads[np.diff(np.append(heads, len(runs))) >= ell[runs[heads] // m]]
            del heads
            yield np.divmod(runs[keep], m)


def _cluster_roots(texts: list[str], config: PipelineConfig) -> list[int]:
    """Each text's cluster root by union-find: the index of its cluster's first text."""
    parent = list(range(len(texts)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in _similar_pairs(texts, config.cluster_jaccard_threshold, config.shingle_n):
        ri, rj = find(i), find(j)
        # the later root goes under the earlier: a cluster's first record represents it
        parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(texts))]


def _cluster_verdicts(records, config, norm):
    """The near-duplicate verdicts: each cluster keeps its first record."""
    roots = _cluster_roots([norm(r.text) for r in records], config)
    return [None if root == i else _NEAR_DUPLICATE for i, root in enumerate(roots)]


def cluster_prune(
    records: list[SampleRecord],
    jaccard_threshold: float = 0.8,
    shingle_n: int = 3,
) -> tuple[list[SampleRecord], list[ClusterAssignment], FilterReport]:
    """Cluster near-duplicate texts and keep one representative per cluster."""
    config = PipelineConfig(cluster_jaccard_threshold=jaccard_threshold, shingle_n=shingle_n)
    roots = _cluster_roots([normalize(r.text) for r in records], config)
    ids = {root: k for k, root in enumerate(dict.fromkeys(roots))}
    assignments = [ClusterAssignment(rec.id, ids[root], root == i)
                   for i, (rec, root) in enumerate(zip(records, roots))]
    verdicts = [None if a.representative else _NEAR_DUPLICATE for a in assignments]
    result = _run(records, [("near-duplicate-cluster", lambda *_: verdicts)], config)
    return result.kept, assignments, result.reports[0]


def _asr_verdicts(records, config, norm):
    """The error-rate verdicts; a drop without a value where no rate is defined."""
    verdicts = []
    for rec in records:
        if rec.hypothesis is None:
            verdicts.append(_NO_HYPOTHESIS)
            continue
        name = "cer" if rec.language is Language.ZH else "wer"
        try:
            rate = error_rate(name, rec.text, rec.hypothesis, norm)
        except ValueError:  # no rate is defined: the reference is empty after normalization
            verdicts.append(_EMPTY_REFERENCE)
            continue
        verdicts.append(FilterVerdict(
            kept=rate <= config.wer_threshold, stage="asr-filter",
            metric_name=name, metric_value=rate,
        ))
    return verdicts


def _s2tt_verdicts(records, config, norm):
    """The similarity verdicts, every translation scored in one batch."""
    scored = [rec for rec in records if rec.translation is not None]
    sims = iter(ngram_cosines(
        [norm(rec.text) for rec in scored], [norm(rec.translation) for rec in scored], n=3
    ))
    verdicts = []
    for rec in records:
        if rec.translation is None:
            verdicts.append(_NO_TRANSLATION)
            continue
        sim = next(sims)
        verdicts.append(FilterVerdict(
            kept=sim >= config.s2tt_similarity_threshold, stage="s2tt-filter",
            metric_name="ngram_cosine", metric_value=sim,
        ))
    return verdicts


def _consistency_verdicts(records, config, norm):
    """ASR records get their error-rate verdict and S2TT records their
    similarity verdict; every other record passes as it is (None)."""
    verdicts = [None] * len(records)
    for scenario, verdicts_of in ((Scenario.ASR, _asr_verdicts), (Scenario.S2TT, _s2tt_verdicts)):
        picked = [i for i, rec in enumerate(records) if rec.scenario is scenario]
        for i, verdict in zip(picked, verdicts_of([records[i] for i in picked], config, norm)):
            verdicts[i] = verdict
    return verdicts


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
    result = _run(records, [("asr-filter", _asr_verdicts)], config)
    return result.kept, result.reports[0]


def filter_s2tt(
    records: list[SampleRecord], threshold: float = 0.5
) -> tuple[list[SampleRecord], FilterReport]:
    """Keep translation samples whose target text is similar to the reference."""
    config = PipelineConfig(s2tt_similarity_threshold=threshold)
    result = _run(records, [("s2tt-filter", _s2tt_verdicts)], config)
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
        ("near-duplicate-cluster", _cluster_verdicts),
        ("consistency-filter", _consistency_verdicts),
    ], config)


def stats(records: Iterable[SampleRecord]) -> list[dict]:
    """Counts grouped by (scenario, language, source), in first-seen order; the
    records are read once, so a generator of them is counted as it goes."""
    counts = Counter((rec.scenario.value, rec.language.value, rec.source) for rec in records)
    return [
        {"scenario": s, "language": lang, "source": src, "count": c}
        for (s, lang, src), c in counts.items()
    ]

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import capypipe
from capypipe import _kernels, pipeline
from capypipe.manifest import (
    DedupNormalization,
    FilterVerdict,
    Language,
    PipelineConfig,
    Scenario,
)
from capypipe.metrics import cer, ngram_cosine, normalize, wer
from capypipe.pipeline import (
    _mid_overlap,
    _min_overlap,
    _similar_pairs,
    cluster_prune,
    curate,
    dedup_exact,
    exact_jaccard,
    filter_asr,
    filter_s2tt,
    stats,
)

from conftest import make_record


def brute_force_cluster_kept(texts, threshold, n):
    """O(n^2) oracle: union every pair at or above the exact Jaccard threshold,
    keep the earliest member of each component."""

    def jac(a, b):
        if len(a) < n or len(b) < n:
            return 1.0 if a == b else 0.0
        sa = {a[i : i + n] for i in range(len(a) - n + 1)}
        sb = {b[i : i + n] for i in range(len(b) - n + 1)}
        return len(sa & sb) / len(sa | sb)

    parent = list(range(len(texts)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if jac(texts[i], texts[j]) >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return [i for i in range(len(texts)) if find(i) == i]


# exact fractions, so that pairs with Jaccard equal to the threshold occur
BOUNDARY_FRACTIONS = [Fraction(1, 2), Fraction(2, 3), Fraction(4, 5), Fraction(7, 10), Fraction(1)]


@st.composite
def neardup_corpora(draw):
    """Base texts of a few words and copies with up to three words replaced,
    shuffled with short texts (some repeated) that fall below the shingle
    size."""
    vocab = draw(st.lists(st.text("abcde", min_size=1, max_size=4), min_size=2, max_size=10,
                          unique=True))
    bases = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=8), min_size=1, max_size=5))
    short = draw(st.lists(st.text("ab ", max_size=4), min_size=1, max_size=3))
    texts = []
    for _ in range(draw(st.integers(1, 24))):
        if draw(st.integers(0, 4)) == 0:
            texts.append(draw(st.sampled_from(short)))
            continue
        words = list(draw(st.sampled_from(bases)))
        for _ in range(draw(st.integers(0, 3)) if words else 0):
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(vocab))
        texts.append(" ".join(words))
    return texts


class TestDedupExact:
    def test_no_duplicates(self):
        recs = [make_record(id=f"r{i}", text=f"text {i}") for i in range(5)]
        kept, report = dedup_exact(recs)
        assert kept == recs
        assert report.dropped == 0

    def test_first_wins(self):
        recs = [
            make_record(id="a", text="same"),
            make_record(id="b", text="same"),
            make_record(id="c", text="other"),
        ]
        kept, report = dedup_exact(recs)
        assert [r.id for r in kept] == ["a", "c"]
        assert report.drop_reasons == {"exact-duplicate": 1}

    def test_whitespace_runs_are_duplicates(self):
        recs = [
            make_record(id="a", text="hello  world"),
            make_record(id="b", text="hello world"),
        ]
        kept, _ = dedup_exact(recs)
        assert [r.id for r in kept] == ["a"]

    def test_case_variant_with_combining_mark_is_a_duplicate(self):
        # capital iota with dialytika and an acute mark, then its lowercase form
        recs = [
            make_record(id="a", text="\u03aa\u0301"),
            make_record(id="b", text="\u0390"),
        ]
        kept, report = dedup_exact(recs)
        assert [r.id for r in kept] == ["a"]
        assert report.drop_reasons == {"exact-duplicate": 1}

    def test_none_mode_keeps_whitespace_variants(self):
        recs = [
            make_record(id="a", text="hello  world"),
            make_record(id="b", text="hello world"),
        ]
        kept, _ = dedup_exact(recs, DedupNormalization.NONE)
        assert len(kept) == 2

    def test_none_mode_by_value_keeps_case_variants(self):
        recs = [
            make_record(id="a", text="Hello World"),
            make_record(id="b", text="hello  world"),
        ]
        kept, report = dedup_exact(recs, "none")
        assert [r.id for r in kept] == ["a", "b"]
        assert report.dropped == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="bogus"):
            dedup_exact([], "bogus")

    def test_idempotent(self):
        recs = [make_record(id=f"r{i}", text="t" * (i % 3 + 1)) for i in range(9)]
        kept, _ = dedup_exact(recs)
        again, report = dedup_exact(kept)
        assert again == kept
        assert report.dropped == 0


class TestClusterPrune:
    def test_all_distinct(self):
        recs = [
            make_record(id=f"r{i}", text=t)
            for i, t in enumerate(["alpha bravo", "charlie delta", "echo foxtrot"])
        ]
        kept, assignments, report = cluster_prune(recs, 0.8, 3)
        assert kept == recs
        assert len({a.cluster_id for a in assignments}) == 3
        assert all(a.representative for a in assignments)

    def test_near_copy_merged(self):
        base = "the quick brown fox jumps over the lazy dog"
        recs = [
            make_record(id="a", text=base),
            make_record(id="b", text=base.replace("dog", "dig")),
        ]
        assert exact_jaccard(normalize(base), normalize(base.replace("dog", "dig")), 3) >= 0.8
        kept, assignments, report = cluster_prune(recs, 0.8, 3)
        assert [r.id for r in kept] == ["a"]
        assert assignments[0].cluster_id == assignments[1].cluster_id
        assert report.drop_reasons == {"near-duplicate": 1}

    def test_dense_cluster_ids(self):
        texts = ["north wind rises", "quiet harbor lights", "dusty mountain road", "green river bend"]
        recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        _, assignments, _ = cluster_prune(recs, 0.8, 3)
        assert sorted({a.cluster_id for a in assignments}) == [0, 1, 2, 3]

    @pytest.mark.parametrize("threshold", [0.5, 0.8])
    def test_matches_brute_force(self, rng, threshold):
        for _ in range(20):
            texts = [
                "".join(rng.choice(list("abc"), size=rng.integers(4, 14)))
                for _ in range(50)
            ]
            recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
            kept, _, _ = cluster_prune(recs, threshold, 3)
            expect = brute_force_cluster_kept(texts, threshold, 3)
            assert [r.id for r in kept] == [f"r{i}" for i in expect]

    @pytest.mark.parametrize("fraction", BOUNDARY_FRACTIONS)
    def test_pair_exactly_at_threshold_merged(self, fraction):
        # single-letter shingles: B is a p-letter prefix of the q distinct letters of A
        a = "abcdefghij"[: fraction.denominator]
        b = a[: fraction.numerator]
        t = float(fraction)
        assert exact_jaccard(a, b, 1) == t
        recs = [make_record(id="a", text=a), make_record(id="b", text=b)]
        assert [r.id for r in cluster_prune(recs, t, 1)[0]] == ["a"]
        if t < 1.0:
            above = math.nextafter(t, 2.0)
            assert [r.id for r in cluster_prune(recs, above, 1)[0]] == ["a", "b"]

    @settings(max_examples=300, deadline=None)
    @given(corpus=neardup_corpora(), n=st.sampled_from([1, 2, 3, 5]),
           fraction=st.sampled_from(BOUNDARY_FRACTIONS))
    def test_matches_brute_force_on_near_duplicates(self, corpus, n, fraction):
        recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(corpus)]
        kept, _, _ = cluster_prune(recs, float(fraction), n)
        expect = brute_force_cluster_kept([normalize(t) for t in corpus], float(fraction), n)
        assert [r.id for r in kept] == [f"r{i}" for i in expect]

    def test_one_shared_shingle_makes_a_candidate_when_a_is_one(self, rng):
        # t = 1/8 and at most 8 distinct letters: a = 1, so ell clamps to 1
        assert {_min_overlap(size, 0.125) for size in range(1, 9)} == {1}
        for _ in range(200):
            texts = ["".join(rng.choice(list("abcdefgh"), size=rng.integers(1, 6)))
                     for _ in range(rng.integers(2, 7))]
            recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
            kept, _, _ = cluster_prune(recs, 0.125, 1)
            expect = brute_force_cluster_kept(texts, 0.125, 1)
            assert [r.id for r in kept] == [f"r{i}" for i in expect]

    def test_whole_set_is_probed_when_a_is_at_most_two(self, rng):
        # 2 to 4 distinct letters at t = 1/2: a <= 2, so ell = a and the
        # probed prefix of |x| - a + ell tokens is the whole set
        assert [_min_overlap(size, 0.5) for size in (2, 3, 4)] == [1, 2, 2]
        for _ in range(200):
            texts = ["".join(rng.choice(list("abcdef"), size=rng.integers(2, 5), replace=False))
                     for _ in range(rng.integers(2, 7))]
            recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
            kept, _, _ = cluster_prune(recs, 0.5, 1)
            expect = brute_force_cluster_kept(texts, 0.5, 1)
            assert [r.id for r in kept] == [f"r{i}" for i in expect]

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
    def test_matches_brute_force_on_a_small_flat_vocabulary(self, rng, threshold):
        # six words drawn uniformly: every trigram is common, so posting lists are long
        vocab = ["alder", "birch", "cedar", "hazel", "larch", "maple"]
        for _ in range(5):
            texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 9))) for _ in range(60)]
            recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
            kept, _, _ = cluster_prune(recs, threshold, 3)
            expect = brute_force_cluster_kept(texts, threshold, 3)
            assert [r.id for r in kept] == [f"r{i}" for i in expect]

    def test_pair_order_does_not_depend_on_str_hashing(self):
        # every word is in as many texts, so shingles of different words tie on
        # df and their rank order decides each text's prefix
        words = ["alder", "birch", "cedar", "hazel", "larch", "maple", "olive", "rowan"]
        texts = [" ".join(c) for c in itertools.combinations(words, 4)]
        script = (
            "import json, sys\n"
            "from capypipe.pipeline import _similar_pairs\n"
            "print(json.dumps(list(_similar_pairs(json.load(sys.stdin), 0.5, 3))))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(capypipe.__file__)))
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            out = subprocess.run([sys.executable, "-c", script], input=json.dumps(texts),
                                 capture_output=True, text=True, env=env, check=True).stdout
            runs.append([tuple(p) for p in json.loads(out)])
        assert len(runs[0]) >= 100
        assert runs[0] == runs[1] == list(_similar_pairs(texts, 0.5, 3))

    def test_rejects_shingle_n_below_one(self):
        with pytest.raises(ValueError, match="shingle_n"):
            cluster_prune([make_record(text="abc")], 0.8, 0)

    @pytest.mark.parametrize("shingle_n", [101, 10**29], ids=["101", "1e29"])
    def test_rejects_shingle_n_above_max(self, shingle_n):
        recs = [make_record(id="a", text="same text here"),
                make_record(id="b", text="same text here!")]
        with pytest.raises(ValueError, match=rf"shingle_n must be in 1\.\.100, got {shingle_n}"):
            cluster_prune(recs, 0.8, shingle_n)

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.1, 1.5])
    def test_rejects_threshold_with_the_config_message(self, threshold):
        with pytest.raises(ValueError) as config_exc:
            PipelineConfig(cluster_jaccard_threshold=threshold)
        with pytest.raises(ValueError) as library_exc:
            cluster_prune([make_record(text="same text here")], threshold)
        assert str(library_exc.value) == str(config_exc.value)
        expect = f"cluster_jaccard_threshold must be in (0, 1], got {threshold}"
        assert str(config_exc.value) == expect

    def test_copies_of_one_long_text_pair_only_with_the_first(self):
        pairs = list(_similar_pairs(["the same long sentence"] * 2000, 0.8, 3))
        assert pairs == [(0, i) for i in range(1, 2000)]

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    def test_repeated_texts_meet_their_first_copy_once(self, rng, n, threshold):
        # repeated long, repeated short and near-duplicate texts; already normalized
        base = ["the quiet harbor", "the quiet harbour", "quiet harbor", "dusty road",
                "ab", "ba", "a", ""]
        for _ in range(20):
            texts = [str(t) for t in rng.choice(base, size=rng.integers(2, 30))]
            recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
            kept, _, _ = cluster_prune(recs, threshold, n)
            expect = brute_force_cluster_kept(texts, threshold, n)
            assert [r.id for r in kept] == [f"r{i}" for i in expect]
            first: dict[str, int] = {}
            pairs = set()
            for i, t in enumerate(texts):
                if first.setdefault(t, i) != i:
                    pairs.add((first[t], i))
            pairs |= {(i, j) for i, j in itertools.combinations(sorted(first.values()), 2)
                      if exact_jaccard(texts[i], texts[j], n) >= threshold}
            got = [tuple(sorted(p)) for p in _similar_pairs(texts, threshold, n)]
            assert sorted(got) == sorted(pairs)

    def test_idempotent(self, rng):
        texts = ["".join(rng.choice(list("ab"), size=8)) for _ in range(30)]
        recs = [make_record(id=f"r{i}", text=t) for i, t in enumerate(texts)]
        kept, _, _ = cluster_prune(recs, 0.6, 2)
        again, _, report = cluster_prune(kept, 0.6, 2)
        assert again == kept
        assert report.dropped == 0


def brute_force_pairs(texts, threshold, n):
    """What _similar_pairs yields, as sorted index pairs, by brute force: each
    text with the first text equal to it, and each pair of distinct texts of
    n or more characters, by their first copies, whose shingle Jaccard
    reaches the threshold."""
    first = {}
    pairs = set()
    for i, text in enumerate(texts):
        if first.setdefault(text, i) != i:
            pairs.add((first[text], i))
    grams = {i: {t[k : k + n] for k in range(len(t) - n + 1)}
             for t, i in first.items() if len(t) >= n}
    for i, j in itertools.combinations(sorted(grams), 2):
        inter = len(grams[i] & grams[j])
        if inter / (len(grams[i]) + len(grams[j]) - inter) >= threshold:
            pairs.add((i, j))
    return pairs


def near_copies(rng, alphabet, count, lo, hi):
    """Random texts over alphabet, half of them copies of an earlier text with
    one to three characters replaced."""
    texts = []
    for _ in range(count):
        if texts and rng.integers(0, 2):
            chars = list(texts[rng.integers(0, len(texts))])
            for _ in range(rng.integers(1, 4)):
                chars[rng.integers(0, len(chars))] = alphabet[rng.integers(0, len(alphabet))]
        else:
            chars = [alphabet[k] for k in rng.integers(0, len(alphabet), rng.integers(lo, hi))]
        texts.append("".join(chars))
    return texts


class TestSimilarPairsEdges:
    """The join against brute force where its array bookkeeping could slip:
    shingle sizes, code points, text boundaries, block edges and budgets."""

    @staticmethod
    def check(texts, threshold, n):
        got = [tuple(sorted(p)) for p in _similar_pairs(texts, threshold, n)]
        assert len(got) == len(set(got))
        assert set(got) == brute_force_pairs(texts, threshold, n)

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.8])
    def test_shingle_sizes(self, rng, n, threshold):
        for _ in range(10):
            self.check(near_copies(rng, "abcd ", 40, 1, 20), threshold, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_chinese_text(self, rng, n):
        for _ in range(10):
            self.check(near_copies(rng, "数据的训练模型语音", 40, 2, 16), 0.5, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_any_code_point_and_no_separator(self, rng, n):
        # NUL, a lone surrogate and the last code point are ordinary characters;
        # texts such as "a" + NUL and NUL + "a" would meet across a separator
        alphabet = ["a", "\x00", "\ud800", "\U0010ffff"]
        for _ in range(20):
            self.check(near_copies(rng, alphabet, 30, 1, 9), 0.5, n)
        self.check(["a\x00", "\x00a", "a\x00a", "\x00\x00\x00", "\x00\x00"], 0.3, 2)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_texts_of_exactly_n_characters(self, rng, n):
        for _ in range(20):
            texts = ["".join(rng.choice(list("abc"), size=rng.integers(n - 1, n + 2)))
                     for _ in range(30)]
            self.check(texts, 0.5, n)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_corpus_at_a_block_edge(self, rng, monkeypatch, extra):
        # five distinct letters each, n = 1 and t = 0.6: a = 3 and ell = 2, so
        # every text probes 4 tokens, and the budget holds the probes of 7 texts
        assert _min_overlap(5, 0.6) == 3
        block = 7
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block * 4 * _kernels._CELL_BYTES)
        pool = ["".join(c) for c in itertools.combinations("abcdefgh", 5)]
        for _ in range(50):
            texts = [str(t) for t in rng.choice(pool, size=block + extra, replace=False)]
            self.check(texts, 0.6, 1)
            self.check(texts * 2, 0.6, 1)

    @pytest.mark.parametrize("budget", [1, 64, 1000])
    def test_vocabulary_above_the_budget(self, rng, monkeypatch, budget):
        # more than a thousand distinct shingles; every span is then one text
        # or one candidate, and a mark row alone exceeds the budget
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", budget)
        alphabet = [chr(0x4E00 + k) for k in range(1500)]
        texts = near_copies(rng, alphabet, 60, 20, 40)
        texts += near_copies(rng, "abcdefgh", 60, 3, 12)
        for n, threshold in ((1, 0.5), (2, 0.3), (3, 0.8)):
            self.check(texts, threshold, n)

    def test_pair_at_the_threshold_where_the_mid_prefix_is_tight(self):
        # |x| = |y| = s sharing a letters, at t = a / (2s - a): the smallest
        # overlap the indexed prefix allows is a itself
        for s in range(2, 12):
            for a in range(1, s):
                t = a / (2 * s - a)
                assert _mid_overlap(s, t) == a
                x = "abcdefghijk"[:s]
                y = x[:a] + "lmnopqrstuv"[: s - a]
                assert exact_jaccard(x, y, 1) == t
                pairs = [tuple(sorted(p)) for p in _similar_pairs([x, y, "z"], t, 1)]
                assert pairs == [(0, 1)]
                self.check([x, y, "z"], t, 1)
                self.check([x, y, "z"], math.nextafter(t, 2.0), 1)

    def test_mid_overlap_is_the_least_overlap_reaching_the_threshold(self):
        # just above 1/3 and 2/3, the product t * s rounds down onto an integer,
        # so both bounds must step up from its ceiling
        above = (math.nextafter(1 / 3, 2.0), math.nextafter(2 / 3, 2.0))
        sizes = np.arange(1, 60)
        for t in (0.05, 0.3, 1 / 3, 0.5, 2 / 3, 0.7, 0.8, 0.9, 1.0, *above):
            for s in sizes.tolist():
                a, b = _mid_overlap(s, t), _min_overlap(s, t)
                assert a / (2 * s - a) >= t
                assert a == 1 or (a - 1) / (2 * s - a + 1) < t
                assert a >= b
                assert b / s >= t and (b == 1 or (b - 1) / s < t)
            # the join calls both on its array of sizes at once
            assert _mid_overlap(sizes, t).tolist() == [_mid_overlap(s, t) for s in sizes.tolist()]
            assert _min_overlap(sizes, t).tolist() == [_min_overlap(s, t) for s in sizes.tolist()]


def test_join_memory_stays_within_its_budget():
    # 2,000 texts of 5-10 random words, like the filter-mixed bench corpus;
    # one call peaked at 2.9 MiB of traced memory when this test was written
    rng = np.random.default_rng(5)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    texts = [" ".join("".join(rng.choice(letters, size=rng.integers(4, 9)))
                      for _ in range(rng.integers(5, 11)))
             for _ in range(2000)]
    list(_similar_pairs(texts[:100], 0.8, 3))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        list(_similar_pairs(texts, 0.8, 3))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4.5 * 2**20


class TestFilterAsr:
    def test_boundary_inclusive_keep(self):
        # 10 ref words, 3 edits -> rate exactly 0.30
        ref = " ".join(f"w{i}" for i in range(10))
        hyp = " ".join(["x0", "x1", "x2"] + [f"w{i}" for i in range(3, 10)])
        rec = make_record(text=ref, hypothesis=hyp)
        kept, report = filter_asr([rec], 0.3)
        assert len(kept) == 1
        assert kept[0].verdict.metric_value == pytest.approx(0.3)

    def test_above_boundary_dropped(self):
        ref = " ".join(f"w{i}" for i in range(10))
        hyp = " ".join(["x"] * 4 + [f"w{i}" for i in range(4, 10)])  # rate 0.4
        kept, report = filter_asr([make_record(text=ref, hypothesis=hyp)], 0.3)
        assert kept == []
        assert report.drop_reasons == {"error-rate-above-threshold": 1}

    def test_identical_kept(self):
        rec = make_record(text="same words here", hypothesis="same words here")
        kept, _ = filter_asr([rec], 0.3)
        assert kept[0].verdict.metric_value == 0.0
        assert kept[0].verdict.metric_name == "wer"

    def test_chinese_uses_cer(self):
        rec = make_record(language=Language.ZH, text="今天天气好", hypothesis="今天天汽好")
        kept, _ = filter_asr([rec], 0.3)
        assert kept[0].verdict.metric_name == "cer"
        assert kept[0].verdict.metric_value == pytest.approx(0.2)

    def test_missing_hypothesis(self):
        kept, report = filter_asr([make_record(hypothesis=None)], 0.3)
        assert kept == []
        assert report.drop_reasons == {"no-hypothesis": 1}

    @pytest.mark.parametrize(
        "language, metric", [(Language.ENG, "wer"), (Language.ZH, "cer")]
    )
    def test_empty_reference_dropped_unscored(self, language, metric):
        recs = [
            make_record(id="e", language=language, text=" \t ", hypothesis="x y"),
            make_record(id="k", language=language, text="ab cd", hypothesis="ab cd"),
        ]
        kept, report = filter_asr(recs, 0.3)
        assert [r.id for r in kept] == ["k"]
        assert kept[0].verdict.metric_name == metric
        assert report.drop_reasons == {"empty-reference": 1}
        # only the scored record enters the histogram
        assert sum(report.metric_histogram) == 1

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.1, 1.5])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        rec = make_record(text="same words here", hypothesis="same words here")
        with pytest.raises(ValueError, match=r"wer_threshold must be in \(0, 1\]"):
            filter_asr([rec], threshold)


class TestFilterS2tt:
    def _rec(self, text, translation, id="s1"):
        return make_record(
            id=id, scenario=Scenario.S2TT, language=Language.ZH_ENG, media=(),
            text=text, translation=translation,
        )

    def test_identical_kept(self):
        kept, _ = filter_s2tt([self._rec("the same sentence", "the same sentence")], 1.0)
        assert len(kept) == 1
        assert kept[0].verdict.metric_value == pytest.approx(1.0)

    def test_disjoint_dropped(self):
        kept, report = filter_s2tt([self._rec("aaaa aaaa", "bbbb bbbb")], 0.5)
        assert kept == []
        assert report.drop_reasons == {"low-similarity": 1}

    def test_threshold_boundary_kept(self):
        text, translation = "abcd", "abce"
        sim = ngram_cosine(normalize(text), normalize(translation), 3)
        kept, _ = filter_s2tt([self._rec(text, translation)], sim)
        assert len(kept) == 1

    def test_missing_translation(self):
        kept, report = filter_s2tt([self._rec("x y z", None)], 0.5)
        assert kept == []
        assert report.drop_reasons == {"no-translation": 1}

    @pytest.mark.parametrize("threshold", [math.nan, 0.0, -0.1, 1.5])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        rec = self._rec("the same sentence", "the same sentence")
        with pytest.raises(ValueError, match=r"s2tt_similarity_threshold must be in \(0, 1\]"):
            filter_s2tt([rec], threshold)


class TestRunPipeline:
    def test_empty(self):
        result = curate([])
        assert result.kept == result.dropped == []
        assert len(result.reports) == 3
        assert all(r.input_count == 0 for r in result.reports)

    def test_qa_passes_metric_stage(self):
        recs = [
            make_record(id=f"q{i}", scenario=Scenario.QA, media=(), text=f"question {i}")
            for i in range(5)
        ]
        result = curate(recs)
        assert result.kept == recs
        assert result.reports[2].dropped == 0

    def test_mixed_manifest_hand_traced(self):
        recs = [
            make_record(id="a1", text="good transcript here", hypothesis="good transcript here"),
            make_record(id="a2", text="good transcript here"),  # exact dup of a1
            make_record(id="a3", text="totally different words", hypothesis="zz yy xx ww"),
            make_record(id="q1", scenario=Scenario.QA, media=(), text="what is this"),
            make_record(
                id="s1", scenario=Scenario.S2TT, language=Language.ZH_ENG, media=(),
                text="matching translation text", translation="matching translation text",
            ),
            make_record(
                id="s2", scenario=Scenario.S2TT, language=Language.ENG_ZH, media=(),
                text="source sentence words", translation="qqqq pppp rrrr",
            ),
        ]
        result = curate(recs, PipelineConfig())
        kept, reports = result.kept, result.reports
        # a2 dies in dedup; a3 fails WER; s2 fails similarity
        assert [r.id for r in kept] == ["a1", "q1", "s1"]
        assert reports[0].drop_reasons == {"exact-duplicate": 1}
        assert reports[2].drop_reasons == {
            "error-rate-above-threshold": 1,
            "low-similarity": 1,
        }
        assert [r.id for r in result.dropped] == ["a2", "a3", "s2"]
        assert [r.verdict.stage for r in result.dropped] == ["dedup", "asr-filter", "s2tt-filter"]

    def test_order_preserved_and_reasons_sum(self):
        recs = [
            make_record(id=f"r{i}", text=f"text number {i}",
                        hypothesis=f"text number {i}" if i % 2 else None)
            for i in range(10)
        ]
        result = curate(recs)
        kept_ids = [r.id for r in result.kept]
        dropped_ids = [r.id for r in result.dropped]
        ids = [f"r{n}" for n in range(10)]
        assert kept_ids == [i for i in ids if i in set(kept_ids)]
        assert dropped_ids == [i for i in ids if i in set(dropped_ids)]
        # every input lands in exactly one of the two outputs
        assert sorted(kept_ids + dropped_ids) == sorted(ids)
        for rep in result.reports:
            assert rep.kept + rep.dropped == rep.input_count
            assert sum(rep.drop_reasons.values()) == rep.dropped

    def test_duplicate_ids_tracked_by_position(self):
        """Library callers may pass records sharing an id; each input is
        judged on its own and ends in exactly one output."""
        passing = make_record(id="x", text="same words here", hypothesis="same words here")
        failing = make_record(id="x", text="other text entirely", hypothesis="nothing alike")
        result = curate([passing, failing])
        assert [r.text for r in result.kept] == [passing.text]
        assert [r.text for r in result.dropped] == [failing.text]
        assert result.dropped[0].verdict.metric_name == "wer"

        copy = make_record(id="x", text="same words here", hypothesis="same words here")
        result = curate([passing, copy])
        assert len(result.kept) == 1
        assert len(result.dropped) == 1
        assert result.dropped[0].verdict.metric_name == "exact-duplicate"

    def test_stage_functions_agree_with_curate(self):
        """Each public stage function keeps the records and writes the report
        that its stage does inside `curate`."""
        base = "the quick brown fox jumps over the lazy dog"
        recs = [
            make_record(id="a1", text="Good transcript here", hypothesis="good transcript here"),
            make_record(id="a2", text="good  transcript here", hypothesis="good transcript"),
            make_record(id="a3", text=base, hypothesis=base),
            make_record(id="a4", text=base.replace("dog", "dig"), hypothesis=base),
            make_record(id="a5", text="totally different words", hypothesis="zz yy xx ww"),
            make_record(id="a6", text="no hypothesis at all"),
            make_record(id="q1", scenario=Scenario.QA, media=(), text="what is this"),
            make_record(id="q2", scenario=Scenario.QA, media=(), text="What is  this"),
            make_record(
                id="s1", scenario=Scenario.S2TT, language=Language.ZH_ENG, media=(),
                text="matching translation text", translation="matching translation text",
            ),
            make_record(
                id="s2", scenario=Scenario.S2TT, language=Language.ENG_ZH, media=(),
                text="source sentence words", translation="qqqq pppp rrrr",
            ),
            make_record(
                id="s3", scenario=Scenario.S2TT, language=Language.ENG_ZH, media=(),
                text="a sentence without its translation",
            ),
        ]
        config = PipelineConfig()
        result = curate(recs, config)
        dedup_report, cluster_report, consistency_report = result.reports
        dropped_at = {r.id: r.verdict.stage for r in result.dropped}

        def survivors(*stages):
            return [r.id for r in recs if dropped_at.get(r.id) not in stages]

        kept, report = dedup_exact(recs, config.dedup_normalization)
        assert report == dedup_report
        assert [r.id for r in kept] == survivors("dedup")
        kept, _, report = cluster_prune(kept, config.cluster_jaccard_threshold, config.shingle_n)
        assert report == cluster_report
        assert [r.id for r in kept] == survivors("dedup", "near-duplicate-cluster")
        assert (dedup_report.dropped, cluster_report.dropped) == (2, 1)

        # alone, the ASR or S2TT records of `kept` pass dedup and clustering
        # untouched, so `curate` runs only its consistency stage on them
        for scenario, stage_fn, threshold in [
            (Scenario.ASR, filter_asr, config.wer_threshold),
            (Scenario.S2TT, filter_s2tt, config.s2tt_similarity_threshold),
        ]:
            part = [r for r in kept if r.scenario is scenario]
            alone = curate(part, config)
            part_kept, report = stage_fn(part, threshold)
            assert [r.dropped for r in alone.reports[:2]] == [0, 0]
            assert part_kept == alone.kept
            assert dataclasses.replace(report, stage="consistency-filter") == alone.reports[2]
            assert report.dropped == 2
        assert consistency_report.input_count == len(kept)
        assert [r.id for r in result.kept] == ["a1", "a3", "q1", "s1"]

    def test_dropped_records_carry_verdicts(self):
        recs = [
            make_record(id="a", text="words match fine", hypothesis="words match fine"),
            make_record(id="b", text="other thing entirely", hypothesis="no match at all"),
        ]
        result = curate(recs)
        assert [r.id for r in result.dropped] == ["b"]
        verdict = result.dropped[0].verdict
        assert verdict.kept is False
        assert verdict.stage == "asr-filter"
        assert verdict.metric_value is not None


def _consistency_corpus(rng, empty_language):
    """ASR records in English and Chinese and S2TT records, each text distinct,
    with hypotheses and translations equal, perturbed, unrelated, missing and
    past 64 units, and one ASR record whose reference is empty after
    normalization."""
    words = ["alpha", "beta", "Gamma", "delta", "ｅｐｓ", "０７", "zeta"]
    chars = list("的一是在不了有和人这中大为上个国我") + ["\U00020000", "\u3000", "Ａ", "５"]

    def text(i, units, joiner, size):
        return f"t{i} " + joiner.join(rng.choice(units, size=size))

    def variant(i, units, joiner, base):
        roll = i % 5
        if roll == 0:
            return None
        if roll == 1:
            return base.upper()
        if roll == 2:
            return text(i, units, joiner, int(rng.integers(0, 90)))
        cut = list(base)
        for _ in range(int(rng.integers(1, 8))):
            cut[int(rng.integers(0, len(cut)))] = str(rng.choice(units))[0]
        return "".join(cut)

    recs = []
    for i in range(240):
        zh = i % 3 == 0
        units, joiner = (chars, "") if zh else (words, " ")
        base = text(i, units, joiner, int(rng.choice([3, 12, 70, 150])))
        if i % 4 == 3:
            recs.append(make_record(
                id=f"s{i}", scenario=Scenario.S2TT, language=Language.ZH_ENG, media=(),
                text=base, translation=variant(i, units, joiner, base),
            ))
        else:
            recs.append(make_record(
                id=f"a{i}", language=Language.ZH if zh else Language.ENG,
                text=base, hypothesis=variant(i, units, joiner, base),
            ))
    recs.append(make_record(id="empty", language=empty_language, text=" \u3000 ", hypothesis="x"))
    recs.append(make_record(id="q", scenario=Scenario.QA, media=(), text="a question"))
    return recs


class TestConsistencyStage:
    @pytest.mark.parametrize("empty_language", [Language.ZH, Language.ENG])
    def test_verdicts_equal_the_per_pair_metrics(self, rng, empty_language):
        recs = _consistency_corpus(rng, empty_language)
        # so that every record reaches the consistency stage
        config = PipelineConfig(cluster_jaccard_threshold=1.0)
        result = curate(recs, config)
        assert [r.dropped for r in result.reports[:2]] == [0, 0]
        judged = {r.id: r.verdict for r in result.kept + result.dropped}
        for rec in recs:
            if rec.scenario is Scenario.S2TT:
                if rec.translation is None:
                    expect = FilterVerdict(False, "s2tt-filter", "no-translation")
                else:
                    sim = ngram_cosine(normalize(rec.text), normalize(rec.translation), 3)
                    expect = FilterVerdict(
                        sim >= config.s2tt_similarity_threshold, "s2tt-filter", "ngram_cosine", sim
                    )
            elif rec.scenario is Scenario.ASR:
                score, name = (cer, "cer") if rec.language is Language.ZH else (wer, "wer")
                if rec.hypothesis is None:
                    expect = FilterVerdict(False, "asr-filter", "no-hypothesis")
                else:
                    try:
                        rate = score(rec.text, rec.hypothesis).rate
                    except ValueError:
                        expect = FilterVerdict(False, "asr-filter", "empty-reference")
                    else:
                        expect = FilterVerdict(
                            rate <= config.wer_threshold, "asr-filter", name, rate
                        )
            else:
                expect = None
            assert judged[rec.id] == expect, rec
        reasons = result.reports[2].drop_reasons
        assert reasons["empty-reference"] == 1
        assert {"no-hypothesis", "no-translation", "low-similarity",
                "error-rate-above-threshold"} <= set(reasons)

    def test_normalizes_each_distinct_string_once(self, rng, monkeypatch):
        recs = _consistency_corpus(rng, Language.ZH)
        # exact and normalized copies, and a translation equal to its text
        recs += [
            dataclasses.replace(recs[1], id="copy"),
            dataclasses.replace(recs[2], id="case", text=recs[2].text.upper()),
            make_record(id="same", scenario=Scenario.S2TT, language=Language.ZH_ENG, media=(),
                        text="one more text", translation="one more text"),
        ]
        calls = []

        def counted(text):
            calls.append(text)
            return normalize(text)

        monkeypatch.setattr(pipeline, "normalize", counted)
        curate(recs)
        strings = {s for r in recs for s in (r.text, r.hypothesis, r.translation) if s is not None}
        assert len(calls) == len(set(calls))
        assert set(calls) <= strings
        assert {r.text for r in recs} <= set(calls)


class TestStats:
    def test_empty(self):
        assert stats([]) == []

    def test_counts(self):
        recs = [make_record(id=f"a{i}", language=Language.ZH, source="Aishell") for i in range(5)]
        recs += [
            make_record(
                id=f"s{i}", scenario=Scenario.S2TT, language=Language.ZH_ENG,
                media=(), source="CoVoST2",
            )
            for i in range(3)
        ]
        rows = stats(recs)
        assert rows == [
            {"scenario": "ASR", "language": "ZH", "source": "Aishell", "count": 5},
            {"scenario": "S2TT", "language": "ZH_ENG", "source": "CoVoST2", "count": 3},
        ]

    def test_table_sources(self):
        sources = [
            "WenetSpeech4TTS (Premium)", "FreeST", "Aishell", "Zhvoice",
            "LibriTTS", "VCTK", "CoVoST2",
        ]
        recs = [
            make_record(id=f"r{i}", source=src, text=f"t{i}") for i, src in enumerate(sources)
        ]
        rows = stats(recs)
        assert [r["source"] for r in rows] == sources

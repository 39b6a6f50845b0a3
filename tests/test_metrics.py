import itertools
import math
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capypipe.metrics import (
    EditSummary,
    bleu,
    cer,
    jaccard_shingles,
    ngram_cosine,
    normalize,
    wer,
)


def brute_force_distance(ref, hyp):
    """Exhaustive minimum over all edit scripts (recursive enumeration)."""

    def go(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        best = go(i + 1, j + 1) + (0 if ref[i] == hyp[j] else 1)
        best = min(best, go(i + 1, j) + 1)
        best = min(best, go(i, j + 1) + 1)
        return best

    return go(0, 0)


class TestNormalize:
    def test_collapse_whitespace(self):
        assert normalize("a  b\t c") == "a b c"

    def test_lowercase(self):
        assert normalize("Hello WORLD") == "hello world"

    def test_fullwidth_digits(self):
        assert normalize("１２３") == "123"

    def test_nfc(self):
        assert normalize("é") == "é"

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(st.characters(max_codepoint=127)),
        # full-width digits, combining marks, ideographic space, dotted I, sharp s
        st.text(st.sampled_from(list(
            "aZ9 \t\n\x1f\x85e\uff10\uff19\u0301\u0327\u3000\u0130\u00df"
        ))),
    ))
    def test_matches_the_full_path_on_any_text(self, text):
        # lowercase, NFC and digit fold on every text; ASCII text skips them
        full = unicodedata.normalize("NFC", text.lower())
        full = full.translate({0xFF10 + d: str(d) for d in range(10)})
        assert normalize(text) == " ".join(full.split())

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        # capitals whose lowercase composes with a following mark under NFC
        st.text(st.sampled_from(list(
            "TI\u0130\u0386\u0399\u03aa\u03ab\u1fbc a\u0301\u0308\u0345\u0327\uff10"
        ))),
    ))
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)


class TestWer:
    def test_identity(self):
        s = wer("a b c", "a b c")
        assert (s.substitutions, s.insertions, s.deletions, s.rate) == (0, 0, 0, 0.0)

    def test_sub_plus_insert(self):
        s = wer("a b c", "a x c d")
        assert (s.substitutions, s.insertions, s.deletions) == (1, 1, 0)
        assert s.rate == pytest.approx(2 / 3)

    def test_empty_hypothesis(self):
        s = wer("a b c", "")
        assert s.deletions == 3
        assert s.rate == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer("   ", "a b")

    def test_matches_brute_force_exhaustive(self):
        alphabet = "abc"
        pairs = 0
        for rlen in range(1, 5):
            for hlen in range(0, 5):
                for ref in itertools.product(alphabet, repeat=rlen):
                    for hyp in itertools.product(alphabet, repeat=hlen):
                        s = wer(" ".join(ref), " ".join(hyp))
                        total = s.substitutions + s.insertions + s.deletions
                        assert total == brute_force_distance(ref, hyp)
                        pairs += 1
        assert pairs > 1000

    def test_swap_exchanges_insertions_deletions(self):
        a, b = "x y z w", "x q z"
        fwd = wer(a, b)
        rev = wer(b, a)
        assert fwd.substitutions == rev.substitutions
        assert fwd.insertions == rev.deletions
        assert fwd.deletions == rev.insertions


class TestCer:
    def test_chinese_substitution(self):
        s = cer("今天天气", "今天天汽")
        assert s.substitutions == 1
        assert s.rate == 0.25

    def test_identity(self):
        assert cer("同样的字", "同样的字").rate == 0.0

    def test_insertion(self):
        s = cer("abc", "abcd")
        assert s.insertions == 1
        assert s.rate == pytest.approx(1 / 3)

    def test_whitespace_removed(self):
        assert cer("a b c", "abc").rate == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            cer("", "abc")


def cosine_oracle(a_grams: Counter, b_grams: Counter) -> float:
    dot = sum(a_grams[g] * b_grams[g] for g in set(a_grams) | set(b_grams))
    na = math.sqrt(sum(v * v for v in a_grams.values()))
    nb = math.sqrt(sum(v * v for v in b_grams.values()))
    return dot / (na * nb)


class TestNgramCosine:
    def test_identical(self):
        assert ngram_cosine("hello", "hello", 3) == 1.0

    def test_disjoint(self):
        assert ngram_cosine("aaaa", "bbbb", 2) == 0.0

    def test_hand_built_vectors(self):
        # pad with one boundary char each side for n=2
        a = Counter(["\x01a", "ab", "bc", "cd", "d\x01"])
        b = Counter(["\x01a", "ab", "bc", "ce", "e\x01"])
        assert ngram_cosine("abcd", "abce", 2) == pytest.approx(cosine_oracle(a, b))

    def test_symmetric(self):
        assert ngram_cosine("abcdef", "abxdef", 3) == ngram_cosine("abxdef", "abcdef", 3)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            ngram_cosine("", "", 1)

    @pytest.mark.parametrize("n", [0, -1, 101, 10**20])
    def test_n_out_of_range_rejected(self, n):
        with pytest.raises(ValueError, match=r"^n must be in 1\.\.100, got "):
            ngram_cosine("abc", "abd", n)

    def test_largest_n_accepted(self):
        assert ngram_cosine("abc", "abc", 100) == 1.0


class TestJaccard:
    def test_identical(self):
        assert jaccard_shingles("same text", "same text", 3) == 1.0

    def test_disjoint(self):
        assert jaccard_shingles("aaaa", "bbbb", 2) == 0.0

    def test_hand_enumerated(self):
        # A = {ab, bc, ca}, B = {ab, bc}
        assert jaccard_shingles("abcab", "abc", 2) == pytest.approx(2 / 3)

    def test_empty_identical(self):
        assert jaccard_shingles("", "", 2) == 1.0

    def test_empty_mismatch_rejected(self):
        with pytest.raises(ValueError):
            jaccard_shingles("a", "b", 3)

    @settings(max_examples=100, deadline=None)
    @given(st.text("ab", min_size=3, max_size=20), st.text("ab", min_size=3, max_size=20))
    def test_symmetric_and_bounded(self, a, b):
        j = jaccard_shingles(a, b, 2)
        assert j == jaccard_shingles(b, a, 2)
        assert 0.0 <= j <= 1.0


class TestBleu:
    def test_identical_corpus(self):
        corpus = [["the", "cat", "sat", "on", "the", "mat"], ["a", "b", "c", "d", "e"]]
        assert bleu(corpus, corpus) == pytest.approx(1.0)

    def test_disjoint_unigrams(self):
        assert bleu([["a", "b", "c", "d"]], [["x", "y", "z", "w"]]) == 0.0

    def test_hand_computed_pair(self):
        ref = [["the", "cat", "sat", "on", "the", "mat"]]
        hyp = [["the", "cat", "sat", "on", "mat"]]
        # clipped precisions: 5/5, 3/4, 2/3, 1/2; BP = exp(1 - 6/5)
        expect = math.exp(1 - 6 / 5) * (1.0 * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
        assert bleu(ref, hyp) == pytest.approx(expect, abs=1e-12)

    def test_pair_order_invariant(self):
        refs = [["a", "b", "c", "d"], ["e", "f", "g", "h"], ["i", "j", "k", "l"]]
        hyps = [["a", "b", "c", "x"], ["e", "f", "g", "h"], ["i", "j", "y", "l"]]
        assert bleu(refs, hyps) == pytest.approx(bleu(refs[::-1], hyps[::-1]))

    def test_duplication_invariant(self):
        refs = [["a", "b", "c", "d", "e"]]
        hyps = [["a", "b", "c", "d", "x"]]
        assert bleu(refs * 3, hyps * 3) == pytest.approx(bleu(refs, hyps))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([["a"]], [])

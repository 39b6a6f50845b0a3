"""Text metrics for curation and evaluation: WER, CER, n-gram similarity, BLEU."""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import _kernels
from .manifest import MAX_NGRAM, _count

_BOUNDARY = ""
_FULL_WIDTH_DIGITS = str.maketrans("０１２３４５６７８９", "0123456789")


@dataclass(frozen=True)
class EditSummary:
    substitutions: int
    insertions: int
    deletions: int
    ref_len: int
    rate: float


def normalize(text: str) -> str:
    """Canonical text form: lowercased, then NFC; idempotent. Full-width digits
    are folded and whitespace runs collapsed."""
    # NFC and the digit fold leave ASCII as it is
    if text.isascii():
        return " ".join(text.lower().split())
    text = unicodedata.normalize("NFC", text.lower()).translate(_FULL_WIDTH_DIGITS)
    return " ".join(text.split())


def _edit_summary(ref_units: Sequence[str], hyp_units: Sequence[str]) -> EditSummary:
    s, i, d = _kernels.edit_ops(ref_units, hyp_units)
    return EditSummary(s, i, d, len(ref_units), (s + i + d) / len(ref_units))


def wer(reference: str, hypothesis: str) -> EditSummary:
    """Word error rate over whitespace tokens of the normalized strings."""
    ref_tokens = normalize(reference).split()
    if not ref_tokens:
        raise ValueError("reference is empty after tokenization; WER undefined")
    return _edit_summary(ref_tokens, normalize(hypothesis).split())


def cer(reference: str, hypothesis: str) -> EditSummary:
    """Character error rate over non-whitespace Unicode scalars."""
    ref_chars = [c for c in normalize(reference) if not c.isspace()]
    if not ref_chars:
        raise ValueError("reference is empty after normalization; CER undefined")
    hyp_chars = [c for c in normalize(hypothesis) if not c.isspace()]
    return _edit_summary(ref_chars, hyp_chars)


def _char_ngrams(text: str, n: int, pad: bool) -> Counter:
    if pad and n > 1:
        text = _BOUNDARY * (n - 1) + text + _BOUNDARY * (n - 1)
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def ngram_cosine(a: str, b: str, n: int = 3) -> float:
    """Cosine similarity of boundary-padded character n-gram count vectors."""
    _count("n", n, MAX_NGRAM)
    va = _char_ngrams(a, n, pad=True)
    vb = _char_ngrams(b, n, pad=True)
    if not va and not vb:
        raise ValueError(f"both strings are shorter than n={n} after padding")
    if not va or not vb:
        return 0.0
    if va == vb:
        return 1.0
    dot = sum(cnt * vb[g] for g, cnt in va.items())
    norm = math.sqrt(sum(c * c for c in va.values())) * math.sqrt(sum(c * c for c in vb.values()))
    return dot / norm


def jaccard_shingles(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets (no padding)."""
    _count("n", n)
    sa = set(_char_ngrams(a, n, pad=False))
    sb = set(_char_ngrams(b, n, pad=False))
    if not sa and not sb:
        if a == b:
            return 1.0
        raise ValueError(f"both strings are shorter than n={n}; Jaccard undefined")
    union = len(sa | sb)
    return len(sa & sb) / union


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    references: Sequence[Sequence[str]],
    hypotheses: Sequence[Sequence[str]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU with clipped n-gram precisions and brevity penalty.

    Counts aggregate over the corpus before the geometric mean; one reference
    per hypothesis.
    """
    if len(references) != len(hypotheses):
        raise ValueError("references and hypotheses must have equal length")
    if not references:
        raise ValueError("empty corpus; BLEU undefined")
    matched = [0] * max_n
    total = [0] * max_n
    ref_len = hyp_len = 0
    for ref, hyp in zip(references, hypotheses):
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, max_n + 1):
            ref_counts = _ngrams(ref, n)
            hyp_counts = _ngrams(hyp, n)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total[n - 1] += max(0, len(hyp) - n + 1)
    # orders with no n-grams anywhere (very short corpus) drop out of the mean
    orders = [(m, t) for m, t in zip(matched, total) if t > 0]
    if not orders or any(m == 0 for m, _ in orders):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in orders) / len(orders)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * math.exp(log_prec)

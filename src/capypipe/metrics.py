"""Text metrics for curation and evaluation: WER, CER, n-gram similarity, BLEU."""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from ._kernels import _group_sums, _heads, _int, _spans
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
        out = " ".join(text.lower().split())
    else:
        out = unicodedata.normalize("NFC", text.lower()).translate(_FULL_WIDTH_DIGITS)
        out = " ".join(out.split())
    # a text already in this form comes back as itself: a memo then holds one copy
    return text if out == text else out


class PairError(ValueError):
    """A pair of a batch that has no value; `index` is its position."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


# why each rate is undefined for a reference without units
_UNDEFINED = {
    "wer": "reference is empty after tokenization; WER undefined",
    "cer": "reference is empty after normalization; CER undefined",
}


def _aligned(
    metric: str, reference: str, hypothesis: str, norm: Callable[[str], str]
) -> tuple[Sequence[str], Sequence[str]]:
    """The units `metric` aligns in each text after `norm`: words for "wer",
    non-whitespace scalars for "cer" (`split` drops exactly the characters
    that `str.isspace` names). A `ValueError` when the reference has none."""
    ref, hyp = norm(reference).split(), norm(hypothesis).split()
    if metric == "cer":
        ref, hyp = "".join(ref), "".join(hyp)
    if not ref:
        raise ValueError(_UNDEFINED[metric])
    return ref, hyp


def _edit_summary(ref_units: Sequence[str], hyp_units: Sequence[str]) -> EditSummary:
    s, i, d = _kernels.edit_ops(ref_units, hyp_units)
    return EditSummary(s, i, d, len(ref_units), (s + i + d) / len(ref_units))


def wer(reference: str, hypothesis: str) -> EditSummary:
    """Word error rate over whitespace tokens of the normalized strings."""
    return _edit_summary(*_aligned("wer", reference, hypothesis, normalize))


def cer(reference: str, hypothesis: str) -> EditSummary:
    """Character error rate over non-whitespace Unicode scalars."""
    return _edit_summary(*_aligned("cer", reference, hypothesis, normalize))


def error_rate(
    metric: str, reference: str, hypothesis: str, norm: Callable[[str], str] = normalize
) -> float:
    """`wer(reference, hypothesis).rate` for metric "wer", and `cer`'s for
    "cer"; equal units give 0.0 without an alignment. `norm` stands in for
    `normalize`, so a caller may memoize it."""
    ref, hyp = _aligned(metric, reference, hypothesis, norm)
    if ref == hyp:
        return 0.0
    return _edit_summary(ref, hyp).rate


def _char_ngrams(text: str, n: int) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def ngram_cosine(a: str, b: str, n: int = 3) -> float:
    """Cosine similarity of character n-gram count vectors, each text padded
    with n - 1 boundary characters on both sides; a batch of one."""
    return ngram_cosines([a], [b], n)[0]


def ngram_cosines(a: Sequence[str], b: Sequence[str], n: int = 3) -> list[float]:
    """ngram_cosine(a[k], b[k], n) for each k, with the same float.

    n outside 1..100 is a `ValueError`, and the first pair whose strings are
    both shorter than n after padding (both empty, at n = 1) a `PairError`.
    A pair with one side empty scores 0.0, and one with equal count vectors
    1.0. The other pairs are scored in array passes over spans of pairs
    within the array-pass memory budget: n-grams are keyed by
    `_kernels.text_ngrams`, each pair's counts come from one sort, and the
    dot product and the squared norms are summed as integers, so that the
    one float step, dot / (sqrt(na) * sqrt(nb)), rounds as it does on
    Python ints.
    """
    _count("n", n, MAX_NGRAM)
    sims = [0.0] * len(a)
    scored = []
    for k, (x, y) in enumerate(zip(a, b, strict=True)):
        if x == y:  # equal strings have equal vectors
            if n == 1 and not x:
                raise PairError(f"both strings are shorter than n={n} after padding", k)
            sims[k] = 1.0
        elif (x and y) or n > 1:  # padding gives every string n-grams when n > 1
            scored.append(k)
    # characters held per pair: both padded texts
    size = np.fromiter((len(a[k]) + len(b[k]) for k in scored), np.int64, len(scored))
    for start, stop in _spans((size + 4 * (n - 1)) * _kernels._CELL_BYTES):
        part = scored[start:stop]
        values = _cosines([text for k in part for text in (a[k], b[k])], n)
        for k, value in zip(part, values.tolist()):
            sims[k] = value
    return sims


def _cosines(texts: list[str], n: int) -> np.ndarray:
    """The n-gram cosine of texts[2k] and texts[2k + 1] for each k; every
    text has an n-gram once padded."""
    m = len(texts)
    pad = _BOUNDARY * (n - 1)
    grams, bound, counts = _kernels.text_ngrams([pad + text + pad for text in texts], n)
    # (pair, n-gram, side) as (pair * bound + n-gram) * 2 + side, side 1 for b
    keys = grams.astype(_int(bound * m))
    del grams
    keys *= 2
    owner = np.repeat(np.arange(m, dtype=keys.dtype), counts)  # 2 * pair + side
    keys += owner & 1
    owner -= owner & 1
    keys += owner * bound
    del owner
    keys.sort()
    heads = np.flatnonzero(_heads(keys))
    count = np.diff(np.append(heads, len(keys)))
    runs = keys[heads]
    del keys, heads
    pair = (runs >> 1) // bound
    side = (runs & 1).astype(bool)
    square = count * count
    na = _group_sums(pair[~side], square[~side], m // 2)
    nb = _group_sums(pair[side], square[side], m // 2)
    # a's run of an n-gram, then b's run of it in the same pair
    shared = np.flatnonzero((runs[1:] >> 1) == (runs[:-1] >> 1))
    dot = _group_sums(pair[shared], count[shared] * count[shared + 1], m // 2)
    sims = dot / (np.sqrt(na) * np.sqrt(nb))
    sims[(dot == na) & (dot == nb)] = 1.0  # equal vectors: 1.0 exactly, not a rounding of it
    return sims


def jaccard_shingles(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets (no padding)."""
    _count("n", n)
    sa = _char_ngrams(a, n)
    sb = _char_ngrams(b, n)
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

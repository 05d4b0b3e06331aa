"""String-similarity primitives shared by entity linking and candidates.

The demo agent "corrects misspellings" of user-provided values; both the
NLU entity linker and the candidate-set refinement rely on the same
tolerant string matching: Levenshtein edit distance (iterative DP with
two rows) and character-trigram Jaccard similarity for longer strings.

:func:`best_match` searches a :class:`MatchIndex`, a pool prepared once
(the entity linker keeps one per value pool and data version): a
``lowered -> first candidate`` map answers exact matches in O(1), and
each candidate's lowered length and trigram set give upper bounds on its
blend score (edit similarity can be no better than the length
difference allows, Jaccard no better than the smaller trigram set over
the larger), so only candidates that could still beat the running best
and reach the threshold pay for a Levenshtein DP.  The bounds are
computed with the same floating-point operations as the score, so
pruning never changes a result.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "damerau_levenshtein",
    "levenshtein",
    "normalized_edit_similarity",
    "trigrams",
    "trigram_similarity",
    "MatchIndex",
    "best_match",
]


def damerau_levenshtein(left: str, right: str) -> int:
    """Optimal-string-alignment distance (edits + adjacent transpositions).

    A transposition ("gmup" -> "gump") counts as one edit, matching how
    humans actually mistype values.
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    rows = [list(range(len(right) + 1))]
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            best = min(
                rows[i - 1][j] + 1,
                current[j - 1] + 1,
                rows[i - 1][j - 1] + cost,
            )
            if (
                i > 1
                and j > 1
                and left_char == right[j - 2]
                and left[i - 2] == right_char
            ):
                best = min(best, rows[i - 2][j - 2] + 1)
            current.append(best)
        rows.append(current)
    return rows[-1][-1]


def levenshtein(left: str, right: str) -> int:
    """Edit distance between two strings (insert/delete/substitute = 1)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(left) < len(right):
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            cost = 0 if left_char == right_char else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def normalized_edit_similarity(left: str, right: str) -> float:
    """1 - normalised edit distance, in [0, 1] (1 = identical)."""
    if not left and not right:
        return 1.0
    longest = max(len(left), len(right))
    return 1.0 - levenshtein(left, right) / longest


def trigrams(text: str) -> set[str]:
    """Padded character trigrams of a lower-cased string."""
    padded = f"  {text.lower().strip()} "
    if len(padded.strip()) == 0:
        return set()
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def trigram_similarity(left: str, right: str) -> float:
    """Jaccard similarity of character trigram sets."""
    return _jaccard(trigrams(left), trigrams(right))


def _jaccard(left_grams: set[str], right_grams: set[str]) -> float:
    if not left_grams and not right_grams:
        return 1.0
    if not left_grams or not right_grams:
        return 0.0
    union = left_grams | right_grams
    return len(left_grams & right_grams) / len(union)


class MatchIndex:
    """A candidate pool prepared for repeated :func:`best_match` calls.

    Keeps the pool order (the first of equally good candidates wins), a
    map from each lowered value to its first candidate, and per
    candidate the lowered form, its length and its trigram set.
    Immutable once built, so concurrent lookups need no lock.
    """

    __slots__ = ("values", "_exact", "_entries")

    def __init__(self, values: Iterable[str]) -> None:
        self.values = tuple(values)
        exact: dict[str, str] = {}
        entries = []
        for candidate in self.values:
            lowered = candidate.strip().lower()
            exact.setdefault(lowered, candidate)
            grams = trigrams(lowered)
            entries.append((candidate, lowered, len(lowered), grams, len(grams)))
        self._exact = exact
        self._entries = tuple(entries)

    def __len__(self) -> int:
        return len(self.values)


def best_match(
    needle: str,
    haystack: MatchIndex | Iterable[str],
    threshold: float = 0.75,
) -> tuple[str, float] | None:
    """Best fuzzy match for ``needle`` among ``haystack`` strings.

    Uses a blend of normalised edit similarity and trigram similarity;
    returns ``(match, score)`` or ``None`` when nothing reaches
    ``threshold``.  Exact (case-insensitive) matches short-circuit.  Of
    equally scored candidates the first in pool order wins.  A plain
    iterable is prepared into a throwaway :class:`MatchIndex`.
    """
    index = haystack if isinstance(haystack, MatchIndex) else MatchIndex(haystack)
    target = needle.strip().lower()
    exact = index._exact.get(target)
    if exact is not None:
        return (exact, 1.0)
    target_length = len(target)
    target_grams = trigrams(target)
    target_count = len(target_grams)
    best: tuple[str, float] | None = None
    # A candidate must beat the running best strictly and reach the
    # threshold; its bound is at least its score in floating point too
    # (the same operations, applied to operands that are never smaller).
    floor = float("-inf")
    for candidate, lowered, length, grams, count in index._entries:
        longest = max(target_length, length)
        length_bound = 0.6 * (1.0 - abs(target_length - length) / longest)
        larger = max(target_count, count)
        gram_bound = min(target_count, count) / larger if larger else 1.0
        bound = length_bound + 0.4 * gram_bound
        if bound < threshold or bound <= floor:
            continue
        similarity = _jaccard(target_grams, grams)
        bound = length_bound + 0.4 * similarity
        if bound < threshold or bound <= floor:
            continue
        score = 0.6 * normalized_edit_similarity(target, lowered)
        score += 0.4 * similarity
        if score > floor:
            best, floor = (candidate, score), score
    if best is not None and best[1] >= threshold:
        return best
    return None

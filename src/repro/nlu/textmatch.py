"""String-similarity primitives (re-exported from :mod:`repro.textutil`).

Kept as an alias module so NLU code can import matching helpers from its
own package; the implementation lives in :mod:`repro.textutil` because
the candidate-set machinery needs it without importing the NLU package.
"""

from repro.textutil import (
    MatchIndex,
    best_match,
    levenshtein,
    normalized_edit_similarity,
    trigram_similarity,
    trigrams,
)

__all__ = [
    "MatchIndex",
    "best_match",
    "levenshtein",
    "normalized_edit_similarity",
    "trigram_similarity",
    "trigrams",
]

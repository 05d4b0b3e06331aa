"""The indexed fuzzy matcher against the linear reference scan.

``best_match`` over a prepared :class:`MatchIndex` must return exactly
the ``(match, score)`` tuple (or ``None``) of the original loop, for
every entity-linker text pool of the cinema and hotel databases.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.types import DataType
from repro.nlu import EntityLinker
from repro.textutil import MatchIndex, best_match
from tests.nlu.reference import reference_best_match

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_THRESHOLDS = (0.72, 0.75, 0.5, 0.0, 1.0)


def _misspell(rng: random.Random, value: str) -> str:
    """1-5 random insert/delete/substitute/transpose edits."""
    chars = list(value)
    for __ in range(rng.randint(1, 5)):
        edit = rng.choice("idst")
        if edit == "i" or not chars:
            chars.insert(rng.randint(0, len(chars)), rng.choice(_LETTERS + " "))
        elif edit == "d":
            del chars[rng.randrange(len(chars))]
        elif edit == "s":
            chars[rng.randrange(len(chars))] = rng.choice(_LETTERS)
        elif len(chars) > 1:
            i = rng.randrange(len(chars) - 1)
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def _needles(rng: random.Random, pool: tuple[str, ...]) -> list[str]:
    sample = rng.sample(pool, min(len(pool), 8))
    needles = ["", "   ", "\t", "zzzz", "a"]
    for value in sample:
        needles += [_misspell(rng, value) for __ in range(3)]
        needles += [value.upper(), value.swapcase(), f"  {value.title()} "]
    for __ in range(10):
        needles.append("".join(rng.choice(_LETTERS + " .@-")
                               for __ in range(rng.randint(1, 24))))
    return needles


def _linker_pools(domain) -> dict[str, MatchIndex]:
    linker = EntityLinker(domain.database, domain.vocabulary)
    pools = {}
    for slot in domain.vocabulary.names():
        source = domain.vocabulary.source(slot)
        if source.dtype is DataType.TEXT and source.attribute is not None:
            pools[slot] = linker._text_pool(slot)
    return pools


def _assert_same(needle, index, threshold):
    expected = reference_best_match(needle, list(index.values), threshold)
    assert best_match(needle, index, threshold) == expected
    return expected


def _assert_same_at_every_threshold(needle, index):
    # The reference's answer at threshold t is its best candidate when
    # that scores at least t (an exact match scores 1.0), else None; one
    # unthresholded scan yields the expectation for every t <= 1.
    best = reference_best_match(needle, list(index.values), -math.inf)
    for threshold in _THRESHOLDS:
        expected = best if best is not None and best[1] >= threshold else None
        assert best_match(needle, index, threshold) == expected, threshold


class TestLinkerPools:
    def test_every_pool_matches_reference(self, domain):
        pools = _linker_pools(domain)
        assert pools, domain.name
        rng = random.Random(f"{domain.name}-misspellings")
        for slot, index in pools.items():
            assert len(index) > 0, slot
            for needle in _needles(rng, index.values):
                _assert_same_at_every_threshold(needle, index)

    def test_scores_exactly_on_the_threshold(self, domain):
        rng = random.Random(f"{domain.name}-boundary")
        for index in _linker_pools(domain).values():
            for value in rng.sample(index.values, min(len(index), 5)):
                needle = _misspell(rng, value)
                found = reference_best_match(needle, list(index.values), 0.0)
                assert found is not None
                score = found[1]
                # Reaching the threshold exactly still matches; the next
                # float up rejects.
                assert _assert_same(needle, index, score) == found
                _assert_same(needle, index, math.nextafter(score, 2.0))
                _assert_same(needle, index, math.nextafter(score, -1.0))


class TestPoolOrder:
    POOL = ["Alpha", "alpha", " ALPHA ", "Beta", "beta", "Alpine", "Alpina",
            "", "  "]

    @pytest.mark.parametrize("needle", ["alpha", "ALPHA", "beta ", "alpin",
                                        "alph", "alpne", "", " ", "bet"])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 0.72])
    def test_first_in_pool_order_wins(self, needle, threshold):
        index = MatchIndex(self.POOL)
        _assert_same(needle, index, threshold)

    def test_duplicate_lowered_values_keep_first(self):
        assert best_match("ALPHA", self.POOL) == ("Alpha", 1.0)
        assert best_match("beta", ["Beta", "beta"]) == ("Beta", 1.0)

    def test_equal_scores_keep_first(self):
        pool = ["abcx", "abcy", "abcz"]
        expected = reference_best_match("abcq", pool, 0.0)
        assert best_match("abcq", pool, 0.0) == expected
        assert expected[0] == "abcx"

    def test_plain_list_and_index_agree(self):
        index = MatchIndex(self.POOL)
        for needle in ("alpah", "bet", "gamma"):
            assert best_match(needle, self.POOL, 0.3) == best_match(
                needle, index, 0.3
            )

    def test_empty_pool(self):
        assert best_match("anything", MatchIndex([])) is None
        assert len(MatchIndex([])) == 0


class TestRandomPools:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(st.text(alphabet="abAB c", max_size=6), max_size=8),
        needle=st.text(alphabet="abAB c", max_size=6),
        threshold=st.sampled_from([0.0, 0.3, 0.6, 0.72, 0.75, 1.0]),
    )
    def test_matches_reference(self, pool, needle, threshold):
        expected = reference_best_match(needle, pool, threshold)
        assert best_match(needle, pool, threshold) == expected
        assert best_match(needle, MatchIndex(pool), threshold) == expected

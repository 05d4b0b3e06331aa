"""The compiled slot tagger against the dict-keyed reference oracle.

Training must produce ``==`` label lists and weight dicts, and tagging
must produce identical spans, on the full synthesized corpora and on
fuzzed inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlu import SlotTagger
from repro.synthesis import NLUDataset, NLUExample, SlotSpan
from tests.nlu.reference import ReferenceTagger


def _fit_pair(corpus, gazetteers=None, epochs=8):
    return (
        SlotTagger(epochs=epochs, gazetteers=gazetteers).fit(corpus),
        ReferenceTagger(epochs=epochs, gazetteers=gazetteers).fit(corpus),
    )


def _assert_same_model(compiled, reference):
    assert compiled.labels == reference._labels
    assert compiled._weights == reference._weights
    assert compiled._transitions == reference._transitions


@pytest.fixture(scope="module")
def cinema_taggers(cinema_domain):
    return _fit_pair(cinema_domain.corpus, cinema_domain.gazetteers)


@pytest.fixture(scope="module")
def hotel_taggers(hotel_domain):
    return _fit_pair(hotel_domain.corpus, hotel_domain.gazetteers)


@pytest.fixture(params=["cinema", "hotel"])
def taggers(request):
    domain = request.getfixturevalue(f"{request.param}_domain")
    return domain, request.getfixturevalue(f"{request.param}_taggers")


class TestFullCorpora:
    def test_fit_matches_reference(self, taggers):
        __, (compiled, reference) = taggers
        assert len(compiled._weights) > 100
        _assert_same_model(compiled, reference)

    def test_tag_matches_reference_on_corpus(self, taggers):
        domain, (compiled, reference) = taggers
        for example in domain.corpus:
            assert compiled.tag(example.text) == reference.tag(example.text)


_WORDS = [
    "i", "want", "to", "watch", "forrest", "gump", "tickets", "my", "name",
    "is", "alice", "the", "first", "one", "2022-03-28", "at", "20:00", "4",
    "zebra", "qwxz", "hotel", "grand", "plaza", "room", "nights", "please",
]
_PUNCTUATION = list(".,!?;:'\"-()@#&/")


def _cased(draw, word):
    style = draw(st.sampled_from(["lower", "upper", "title", "swap"]))
    return {"lower": word.lower(), "upper": word.upper(),
            "title": word.title(), "swap": word.swapcase()}[style]


@st.composite
def utterances(draw):
    kind = draw(st.sampled_from(["words", "punctuation", "single", "long"]))
    unseen = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFXYZ0123456789",
                     min_size=1, max_size=9)
    word = st.one_of(st.sampled_from(_WORDS), unseen,
                     st.sampled_from(_PUNCTUATION))
    if kind == "punctuation":
        return "".join(draw(st.lists(st.sampled_from(_PUNCTUATION + [" "]),
                                     min_size=1, max_size=12)))
    if kind == "single":
        return _cased(draw, draw(word))
    size = 40 if kind == "long" else draw(st.integers(1, 12))
    words = draw(st.lists(word, min_size=size, max_size=size))
    return " ".join(_cased(draw, w) for w in words)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(text=utterances())
    def test_tag_matches_reference(self, cinema_taggers, text):
        compiled, reference = cinema_taggers
        assert compiled.tag(text) == reference.tag(text)

    @settings(max_examples=60, deadline=None)
    @given(text=utterances())
    def test_tag_matches_reference_hotel(self, hotel_taggers, text):
        compiled, reference = hotel_taggers
        assert compiled.tag(text) == reference.tag(text)


def _tiny_corpus():
    examples = []
    for city in ("rome", "oslo", "lima"):
        text = f"fly to {city}"
        examples.append(NLUExample(text, "flight",
                                   (SlotSpan("dst", city, 7, 7 + len(city)),)))
    examples.append(NLUExample("hello there", "greet"))
    return NLUDataset(examples)


class TestTies:
    def test_untrained_weights_tie_on_every_label(self):
        # Zero epochs leave every weight at zero: each decision is a tie
        # the first label must win.
        compiled, reference = _fit_pair(_tiny_corpus(), epochs=0)
        _assert_same_model(compiled, reference)
        assert compiled._weights == {}
        for text in ("fly to rome", "hello", "x y z", "Oslo!"):
            assert compiled.tag(text) == reference.tag(text)

    @pytest.mark.parametrize("epochs", [1, 2, 5])
    def test_tiny_corpus_training(self, epochs):
        compiled, reference = _fit_pair(_tiny_corpus(), epochs=epochs)
        _assert_same_model(compiled, reference)
        for text in ("fly to rome", "fly to paris", "hello there", "to"):
            assert compiled.tag(text) == reference.tag(text)

    def test_outside_only_corpus(self):
        corpus = NLUDataset([NLUExample("hello there", "greet"),
                             NLUExample("good bye", "goodbye")])
        compiled, reference = _fit_pair(corpus, epochs=3)
        _assert_same_model(compiled, reference)
        assert compiled.tag("hello good bye") == []

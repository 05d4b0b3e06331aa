"""Synthesized NLU corpora of the cinema and hotel domains.

The differential tests run the production tagger and matcher against
the reference oracles in :mod:`tests.nlu.reference` on the full corpora
that agent synthesis trains on, with the databases the linker reads.
"""

from __future__ import annotations

import datetime as dt
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro import CAT
from repro.datasets import MovieConfig, build_movie_database, movie_templates
from repro.db import Database
from repro.nlu import build_gazetteers
from repro.synthesis import NLUDataset, SlotVocabulary

_HOTEL_DEMO = Path(__file__).resolve().parents[2] / "examples" / "hotel_demo.py"


@dataclass(frozen=True)
class Domain:
    name: str
    database: Database
    vocabulary: SlotVocabulary
    corpus: NLUDataset
    gazetteers: dict[str, frozenset[str]]


def _domain(name: str, cat: CAT) -> Domain:
    vocabulary = cat.generator.vocabulary
    return Domain(
        name=name,
        database=cat.database,
        vocabulary=vocabulary,
        corpus=cat.generator.generate_nlu(),
        gazetteers=build_gazetteers(cat.database, vocabulary),
    )


def _hotel_demo():
    spec = importlib.util.spec_from_file_location("hotel_demo", _HOTEL_DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def cinema_domain() -> Domain:
    """The default cinema database and its synthesized NLU corpus."""
    database, annotations = build_movie_database(MovieConfig())
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    return _domain("cinema", cat)


@pytest.fixture(scope="session")
def hotel_domain() -> Domain:
    """The hotel example's database, annotations and templates."""
    demo = _hotel_demo()
    cat = CAT(demo.build_hotel_database(), reference_date=dt.date(2022, 6, 1))
    cat.annotations.annotate("hotel", "name", awareness_prior=0.8,
                             display_name="hotel name")
    cat.annotations.annotate("hotel", "city", awareness_prior=0.95)
    cat.annotations.annotate("room", "room_type", awareness_prior=0.9,
                             display_name="room type")
    cat.annotations.annotate("guest", "email", awareness_prior=0.5)
    cat.add_template_catalog(demo.hotel_templates())
    return _domain("hotel", cat)


@pytest.fixture(params=["cinema", "hotel"])
def domain(request) -> Domain:
    return request.getfixturevalue(f"{request.param}_domain")

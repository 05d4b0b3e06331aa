"""Match indexes follow commits, and parsing is safe under concurrency."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.datasets import movie_templates
from repro.nlu import EntityLinker, NLUPipeline
from repro.synthesis import GenerationConfig, SlotVocabulary, TrainingDataGenerator


class TestFreshness:
    def test_committed_title_is_linked_exact_and_misspelled(self, movie_tasks):
        database, __, catalog, tasks = movie_tasks
        linker = EntityLinker(database, SlotVocabulary.from_tasks(tasks, catalog))
        assert linker.link("movie_title", "Zebra Quest Returns") is None
        before = linker._text_pool("movie_title")
        with database.connect().transaction():
            database.insert(
                "movie",
                {"movie_id": 999, "title": "Zebra Quest Returns",
                 "genre": "drama", "year": 2020, "duration_minutes": 100,
                 "language_id": 1},
            )
        # No explicit invalidation: the commit moves the data version.
        assert linker._text_pool("movie_title") is not before
        exact = linker.link("movie_title", "zebra quest returns")
        assert exact.value == "Zebra Quest Returns" and exact.score == 1.0
        assert not exact.corrected
        fuzzy = linker.link("movie_title", "zebra quest retruns")
        assert fuzzy.value == "Zebra Quest Returns" and fuzzy.corrected


@pytest.fixture()
def pipeline(movie_tasks):
    database, __, catalog, tasks = movie_tasks
    generator = TrainingDataGenerator(
        database, catalog, tasks, GenerationConfig(samples_per_template=2)
    )
    for intent, texts in movie_templates().items():
        generator.add_templates(intent, texts)
    nlu = NLUPipeline(database, generator.vocabulary)
    return database, nlu.train(generator.generate_nlu())


def _utterances(database) -> list[str]:
    movies = database.rows("movie")[:6]
    customers = database.rows("customer")[:6]
    texts = ["i want to buy 2 tickets", "yes please", "the first one",
             "i do not know", "qzx vbn", "tomorrow at 20:00"]
    for movie, customer in zip(movies, customers):
        title = movie["title"]
        texts += [
            f"i want to watch {title}",
            f"i want to watch {title.lower()[:-1]}",
            f"my name is {customer['first_name']} {customer['last_name']}",
            f"my email is {customer['email']}",
            f"my last name is {customer['last_name'][1:]}",
        ]
    return texts


class TestConcurrentParsing:
    def test_parallel_parses_match_serial_replay(self, pipeline):
        database, nlu = pipeline
        texts = _utterances(database)
        serial = [nlu.parse(text) for text in texts]
        assert any(v.corrected for r in serial for v in r.linked)

        screening = database.rows("screening")[0]["screening_id"]
        customer = database.rows("customer")[0]["customer_id"]
        stop = threading.Event()
        commits = []
        failures = []
        results: dict[int, list] = {}

        def writer():
            conn = database.connect()
            try:
                while not stop.is_set():
                    booked = conn.call(
                        "ticket_reservation", customer_id=customer,
                        screening_id=screening, ticket_amount=1,
                    ).value
                    conn.call("cancel_reservation",
                              reservation_id=booked["reservation_id"])
                    commits.append(2)
            except Exception as error:  # surfaced by the assertion below
                failures.append(error)

        def reader(worker: int):
            try:
                order = texts[worker % len(texts):] + texts[:worker % len(texts)]
                parsed = [nlu.parse(text) for __ in range(2) for text in order]
                results[worker] = (order * 2, parsed)
            except Exception as error:
                failures.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writers = [threading.Thread(target=writer) for __ in range(2)]
        readers = [threading.Thread(target=reader, args=(i,))
                   for i in range(16)]
        try:
            for thread in writers + readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=120)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=30)
            sys.setswitchinterval(previous)

        assert not any(t.is_alive() for t in writers + readers)
        assert not failures, failures
        assert commits, "no booking committed while parsing"
        expected = dict(zip(texts, serial))
        assert len(results) == 16
        for order, parsed in results.values():
            assert parsed == [expected[text] for text in order]

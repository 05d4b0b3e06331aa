"""Goal-driven, text-level simulated users for the turn benchmark.

A :class:`Goal` is drawn from the workload seed: a target customer,
screening and ticket count to book or to decline at confirmation, a
movie whose screenings to list, or a reservation booked earlier in the
same goal sequence to cancel.  A :class:`SimulatedUser` pursues one goal through one
session.  It reads the open question from the session's dialogue state
(``pending_question``, ``current_slot``, ``phase``) and answers it with
the target's true value, phrased like the cinema inform templates.  The
runtime only ever receives the utterances.

:class:`World` is the benchmark's own record of the cinema rows, read
straight from the tables once and then kept in step with every
transaction the users confirm.  It is what goals are drawn from and what
outcomes are checked against.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass, field
from typing import Any

# Answer phrasings, following the inform templates of the cinema domain.
# Attributes without an inform template are answered with the bare value,
# like the bare ``{movie_title}`` template.
INFORM = {
    ("movie", "title"): "the movie title is {}",
    ("movie", "genre"): "the genre is {}",
    ("movie", "year"): "the movie is from {}",
    ("screening", "date"): "the screening is on the {}",
    ("screening", "start_time"): "the screening starts at {}",
    ("customer", "first_name"): "i am {}",
    ("customer", "last_name"): "my last name is {}",
    ("customer", "city"): "i live in {}",
    ("customer", "street"): "my street is {}",
    ("customer", "email"): "my email is {}",
    ("customer", "birth_year"): "i was born in {}",
    ("actor", "name"): "the movie stars {}",
}

# Probability that a user does not know an attribute when asked for it.
DONT_KNOW = {
    ("customer", "first_name"): 0.02,
    ("customer", "last_name"): 0.02,
    ("customer", "city"): 0.05,
    ("customer", "street"): 0.1,
    ("customer", "email"): 0.5,
    ("customer", "birth_year"): 0.1,
    ("movie", "title"): 0.05,
    ("movie", "genre"): 0.2,
    ("movie", "year"): 0.6,
    ("movie", "duration_minutes"): 0.9,
    ("actor", "name"): 0.4,
    ("screening", "date"): 0.15,
    ("screening", "start_time"): 0.3,
    ("screening", "room"): 0.85,
    ("screening", "price"): 0.8,
    ("reservation", "no_tickets"): 0.2,
}
DEFAULT_DONT_KNOW = 0.7

OPENINGS = {
    "book": (
        "i want to buy {tickets} tickets",
        "i would like to reserve {tickets} tickets for {title}",
        "book {tickets} seats for the movie {title}",
        "i need tickets for a movie",
        "can i book a screening",
    ),
    "cancel": (
        "i want to cancel my reservation",
        "drop my reservation",
        "i cannot make it to the movie, cancel my tickets",
    ),
    "list": (
        "when is {title} playing",
        "which screenings do you have for {title}",
        "list the screenings of {title}",
    ),
}
OPENINGS["decline"] = OPENINGS["book"]

TASKS = {
    "book": "ticket_reservation",
    "decline": "ticket_reservation",
    "cancel": "cancel_reservation",
    "list": "list_screenings",
}

DONT_KNOW_UTTERANCE = "i do not know"
CONFIRM_UTTERANCE = "yes please"
DENY_UTTERANCE = "no"
ABORT_UTTERANCE = "actually forget it"
_ORDINALS = ("first", "second", "third", "fourth", "fifth",
             "sixth", "seventh", "eighth", "ninth", "tenth")

MAX_USER_TURNS = 40
MAX_TICKETS = 4


def phrase_value(value: Any) -> str:
    """A stored value as a user would type it."""
    if isinstance(value, _dt.date):
        return value.isoformat()
    if isinstance(value, _dt.time):
        return value.strftime("%H:%M")
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


class World:
    """The benchmark's own record of the cinema rows goals refer to."""

    def __init__(self, database) -> None:
        def rows(name: str) -> dict[int, dict]:
            table = database.table(name)
            key = f"{name}_id"
            return {
                row[key]: row for row in map(table.get, table.row_ids())
            }

        self.customers = rows("customer")
        self.screenings = rows("screening")
        self.movies = rows("movie")
        self.reservations = rows("reservation")
        actors = rows("actor")
        self.actors_of: dict[int, list[str]] = {}
        for link in rows("movie_actor").values():
            self.actors_of.setdefault(link["movie_id"], []).append(
                actors[link["actor_id"]]["name"]
            )
        # Dimension tables hanging off movie (language, country, ...).
        self.dimensions: dict[str, dict[int, dict]] = {
            fk.target_table: rows(fk.target_table)
            for fk in database.schema.table("movie").foreign_keys
        }
        self.booked_seats: dict[int, int] = {}
        for reservation in self.reservations.values():
            self._add_seats(reservation["screening_id"],
                            reservation["no_tickets"])

    def _add_seats(self, screening_id: int, n: int) -> None:
        self.booked_seats[screening_id] = (
            self.booked_seats.get(screening_id, 0) + n
        )

    def free_seats(self, screening_id: int) -> int:
        capacity = self.screenings[screening_id]["capacity"]
        return capacity - self.booked_seats.get(screening_id, 0)

    def record_booking(self, row: dict) -> None:
        self.reservations[row["reservation_id"]] = dict(row)
        self._add_seats(row["screening_id"], row["no_tickets"])

    def record_cancellation(self, reservation_id: int) -> None:
        row = self.reservations.pop(reservation_id)
        self._add_seats(row["screening_id"], -row["no_tickets"])

    # ------------------------------------------------------------------
    # Facts: (table, column) -> true values, for answering questions
    # ------------------------------------------------------------------
    def movie_facts(self, movie_id: int) -> dict[tuple[str, str], list]:
        movie = self.movies[movie_id]
        facts = _row_facts("movie", movie)
        facts[("actor", "name")] = list(self.actors_of.get(movie_id, ()))
        for table, dimension in self.dimensions.items():
            row = dimension.get(movie.get(f"{table}_id"))
            if row is not None:
                facts[(table, "name")] = [row["name"]]
        return facts

    def screening_facts(
        self, screening_id: int
    ) -> dict[tuple[str, str], list]:
        screening = self.screenings[screening_id]
        facts = self.movie_facts(screening["movie_id"])
        facts.update(_row_facts("screening", screening))
        return facts

    def customer_facts(self, customer_id: int) -> dict[tuple[str, str], list]:
        return _row_facts("customer", self.customers[customer_id])

    def reservation_facts(
        self, reservation_id: int
    ) -> dict[tuple[str, str], list]:
        reservation = self.reservations[reservation_id]
        facts = self.screening_facts(reservation["screening_id"])
        facts.update(self.customer_facts(reservation["customer_id"]))
        facts.update(_row_facts("reservation", reservation))
        return facts


def _row_facts(table: str, row: dict) -> dict[tuple[str, str], list]:
    return {
        (table, column): [value]
        for column, value in row.items()
        if value is not None
    }


@dataclass
class Goal:
    """One user goal: what to do, on which rows, and the opening line."""

    index: int
    kind: str
    keys: dict[str, int]          # entity table -> target key
    expected: dict[str, Any]      # the task slots confirmation must show
    facts: dict[tuple[str, str], list]
    opening: str

    @property
    def task(self) -> str:
        return TASKS[self.kind]


class GoalSource:
    """Draws the seeded goal sequence of one run."""

    def __init__(self, world: World, mix: dict[str, int], seed: int) -> None:
        self._world = world
        # Kinds come from a shuffled deck holding each kind as often as
        # its weight, so every run gets the same mix of goals.
        self._deck = [kind for kind in sorted(mix) for __ in range(mix[kind])]
        self._dealt: list[str] = []
        self._rng = random.Random(seed)
        self._customer_ids = sorted(world.customers)
        self._screening_ids = sorted(world.screenings)
        self._movie_ids = sorted(world.movies)
        # Reservations booked by earlier goals of this sequence and not
        # yet claimed by a cancel goal; only these are cancelled.
        self.cancellable: list[int] = []
        # Seats held by booking goals still in progress.
        self._held: dict[int, int] = {}
        self.count = 0

    def release(self, goal: Goal) -> None:
        """A booking goal ended: its seats are booked or given back."""
        screening_id = goal.keys.get("screening")
        if goal.kind == "book" and screening_id is not None:
            self._held[screening_id] -= goal.expected["ticket_amount"]

    def next_goal(self) -> Goal:
        rng = self._rng
        world = self._world
        if not self._dealt:
            self._dealt = rng.sample(self._deck, len(self._deck))
        kind = self._dealt.pop()
        if kind == "cancel" and not self.cancellable:
            kind = "book"
        index = self.count
        self.count += 1
        if kind == "cancel":
            reservation_id = self.cancellable.pop(
                rng.randrange(len(self.cancellable))
            )
            return Goal(
                index, kind, {"reservation": reservation_id},
                {"reservation_id": reservation_id},
                world.reservation_facts(reservation_id),
                rng.choice(OPENINGS[kind]),
            )
        if kind == "list":
            movie_id = rng.choice(self._movie_ids)
            title = world.movies[movie_id]["title"]
            return Goal(
                index, kind, {"movie": movie_id}, {"movie_id": movie_id},
                world.movie_facts(movie_id),
                rng.choice(OPENINGS[kind]).format(title=title),
            )
        customer_id = rng.choice(self._customer_ids)
        tickets = rng.randint(1, MAX_TICKETS)
        while True:
            screening_id = rng.choice(self._screening_ids)
            held = self._held.get(screening_id, 0)
            if world.free_seats(screening_id) - held >= tickets:
                break
        if kind == "book":
            self._held[screening_id] = held + tickets
        facts = world.screening_facts(screening_id)
        facts.update(world.customer_facts(customer_id))
        movie_id = world.screenings[screening_id]["movie_id"]
        title = world.movies[movie_id]["title"]
        return Goal(
            index, kind,
            {"customer": customer_id, "screening": screening_id},
            {"customer_id": customer_id, "screening_id": screening_id,
             "ticket_amount": tickets},
            facts,
            rng.choice(OPENINGS[kind]).format(tickets=tickets, title=title),
        )


@dataclass
class SimulatedUser:
    """Pursues one goal, one utterance per agent reply."""

    goal: Goal
    rng: random.Random
    turns: int = 0
    finished: bool = False
    success: bool = False
    reason: str = ""
    confirmed: bool = False
    # Decline goals: whether confirmation showed exactly the targets.
    confirmation_matched: bool = False
    declined: bool = False
    # Per attribute, the value this user gives (drawn once per goal).
    _answers: dict[tuple[str, str], str | None] = field(default_factory=dict)
    _last_answered: tuple[str, str] | None = None
    # (entity table, keys) of the choice list the last reply showed.
    _choices: tuple[str, list] | None = None

    def next_utterance(self, state) -> str:
        """The reply to the agent's open question in ``state``."""
        self.turns += 1
        if self.turns == 1:
            return self.goal.opening
        if self.declined:
            return ABORT_UTTERANCE
        phase = state.phase.value
        if phase == "confirming":
            matched = (
                state.task is not None
                and state.task.name == self.goal.task
                and dict(state.collected) == self.goal.expected
            )
            if matched and self.goal.kind in ("book", "cancel"):
                self.confirmed = True
                return CONFIRM_UTTERANCE
            self.confirmation_matched = matched
            self.declined = True
            return DENY_UTTERANCE
        identification = state.identification
        if phase == "choosing" and self._choices is not None:
            return self._choose(*self._choices)
        if identification is not None:
            question = identification.pending_question
            if question is not None:
                attribute = (question.table, question.column)
                if attribute == self._last_answered:
                    # The agent did not take the answer: give up on it.
                    self._answers[attribute] = None
                self._last_answered = attribute
                return self._answer(attribute)
        self._last_answered = None
        if state.current_slot == "ticket_amount":
            return f"i need {self.goal.expected['ticket_amount']} tickets"
        # Nothing is asked (the task was lost or the agent asked us to
        # rephrase): state the goal again.
        return self.goal.opening

    def _choose(self, table: str, keys: list) -> str:
        target = self.goal.keys.get(table)
        for position, key in enumerate(keys, start=1):
            if key == target:
                if position <= len(_ORDINALS):
                    return f"the {_ORDINALS[position - 1]} one"
                return f"number {position}"
        self.fail("target missing from the choice list")
        return ABORT_UTTERANCE

    def _answer(self, attribute: tuple[str, str]) -> str:
        if attribute not in self._answers:
            values = self.goal.facts.get(attribute)
            knows = self.rng.random() >= DONT_KNOW.get(
                attribute, DEFAULT_DONT_KNOW
            )
            if values and knows:
                value = phrase_value(self.rng.choice(values))
                template = INFORM.get(attribute, "{}")
                self._answers[attribute] = template.format(value)
            else:
                self._answers[attribute] = None
        answer = self._answers[attribute]
        return DONT_KNOW_UTTERANCE if answer is None else answer

    # ------------------------------------------------------------------
    def after_reply(self, reply, state) -> None:
        """Update the goal's progress from the agent's reply."""
        # Remember the choice list as shown: another session's commit
        # may delete one of its rows before this user's next turn.
        identification = state.identification
        self._choices = None
        if state.phase.value == "choosing" and identification is not None:
            key_column = identification.key_column
            self._choices = (
                identification.candidates.table,
                [row[key_column] for row in identification.choice_list()],
            )
        executed = reply.executed
        if executed is not None and executed.procedure == self.goal.task:
            if self.goal.kind == "list" or self.confirmed:
                self.finished = True
                self.success = True  # pending the database check
                return
        if self.confirmed:
            self.fail(f"confirmed {self.goal.task} did not execute")
        elif self.declined and state.task is None:
            self.finished = True
            self.success = self.confirmation_matched
            if not self.success:
                self.reason = "confirmation did not show the targets"
        elif self.turns >= MAX_USER_TURNS:
            self.fail("turn limit reached")

    def fail(self, reason: str) -> None:
        self.finished = True
        self.success = False
        self.reason = reason

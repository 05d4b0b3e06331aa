"""The closed conversation loop and its outcome checks.

One client thread serves ``sessions`` slots round-robin.  Each slot
holds one simulated user pursuing one goal in its own session; when the
goal ends, the slot's session closes and the next goal of the seeded
sequence starts in a new one.

The loop runs in passes.  A pass plays the first ``n`` goals of the
seeded sequence and ends when all of them have finished; the next pass
replays the same goals from the same database contents, because the
reservations a pass booked and did not cancel are deleted between
passes.  So every pass does the same turns, and a turn is named by its
goal and its place in the goal's dialogue.  Every finished goal is
checked against the database:

* a booking's row holds the target customer, screening and ticket count;
* a cancelled reservation is gone, and no other row is;
* a listing returns exactly the target movie's screenings;
* a declined goal reached confirmation with exactly the target ids.

A goal that misses its target counts against goal completion.  A
database effect that disagrees with what the agent confirmed, or a row
changed that no goal touched, is a correctness violation.
"""

from __future__ import annotations

import random
from time import perf_counter

from simuser import GoalSource, SimulatedUser, World


class ConversationLoop:
    def __init__(self, database, runtime, workload, seed: int) -> None:
        self.database = database
        self.runtime = runtime
        self.world = World(database)
        self.mix = workload.mix
        self.seed = seed
        self.slots: list[tuple[str, SimulatedUser] | None] = (
            [None] * workload.sessions
        )
        self._next_slot = 0
        self.goals: GoalSource | None = None
        self._pass_seed = seed
        self._pass_goals = 0
        self._booked: list[int] = []     # reservations this pass booked
        # goal index -> (met target, user turns, reason), this pass
        self.outcomes: dict[int, tuple[bool, int, str]] = {}
        self.violations: list[str] = []
        self.errors: list[str] = []
        self.turns = 0

    # ------------------------------------------------------------------
    def start_pass(self, goals: int, seed: int | None = None) -> None:
        """Start a pass over the first ``goals`` goals of the sequence
        drawn from ``seed`` (by default the run's seed)."""
        self._pass_seed = self.seed if seed is None else seed
        self.goals = GoalSource(self.world, self.mix, self._pass_seed)
        self._pass_goals = goals
        self._booked = []
        self.outcomes = {}

    def step(self) -> tuple[tuple[int, int], float] | None:
        """Send one utterance for the next busy slot.

        Returns the turn's name, ``(goal index, user turn)``, and its
        wall time in seconds; None once every goal of the pass finished.
        """
        slot = self._next_busy_slot()
        if slot is None:
            return None
        session, user = self.slots[slot]
        runtime = self.runtime
        text = user.next_utterance(runtime.peek_session(session).context.state)
        name = (user.goal.index, user.turns)
        self.turns += 1
        started = perf_counter()
        try:
            reply = runtime.respond(session, text)
        except Exception as exc:  # a turn must never raise: count it
            elapsed = perf_counter() - started
            self.errors.append(f"{type(exc).__name__}: {exc}")
            user.fail(f"turn raised {type(exc).__name__}")
            self._finish(slot, None)
            return name, elapsed
        elapsed = perf_counter() - started
        if not user.finished:
            state = runtime.peek_session(session).context.state
            user.after_reply(reply, state)
        if user.finished:
            self._finish(slot, reply)
        return name, elapsed

    def _next_busy_slot(self) -> int | None:
        """The next slot round-robin that holds a goal, starting the
        pass's next goal in an empty slot while any are left."""
        count = len(self.slots)
        for offset in range(count):
            slot = (self._next_slot + offset) % count
            if self.slots[slot] is None and self.goals.count < self._pass_goals:
                goal = self.goals.next_goal()
                rng = random.Random(self._pass_seed * 1_000_003 + goal.index)
                self.slots[slot] = (
                    self.runtime.create_session(), SimulatedUser(goal, rng)
                )
            if self.slots[slot] is not None:
                self._next_slot = (slot + 1) % count
                return slot
        return None

    def end_pass(self) -> None:
        """Delete the reservations the pass booked and did not cancel, so
        the next pass starts from the same rows."""
        table = self.database.table("reservation")
        for reservation_id in self._booked:
            if reservation_id not in self.world.reservations:
                continue
            for row_id in table.lookup("reservation_id", reservation_id):
                self.database.delete("reservation", row_id)
            self.world.record_cancellation(reservation_id)
        self._booked = []

    # ------------------------------------------------------------------
    def _finish(self, slot: int, reply) -> None:
        session, user = self.slots[slot]
        self.slots[slot] = None
        self.runtime.end_session(session)
        goal = user.goal
        met = user.success
        reason = user.reason
        executed = None if reply is None else reply.executed
        if met and executed is not None and executed.procedure == goal.task:
            check = getattr(self, f"_check_{goal.kind}")
            met, reason = check(goal, executed.value)
        self.goals.release(goal)
        self.outcomes[goal.index] = (met, user.turns, reason)

    def _reservation_row(self, reservation_id: int) -> dict | None:
        rows = self.database.find("reservation", "reservation_id",
                                  reservation_id)
        return rows[0] if len(rows) == 1 else None

    def _check_book(self, goal, value) -> tuple[bool, str]:
        row = self._reservation_row(value["reservation_id"])
        expected = goal.expected
        if row is None or (
            row["customer_id"], row["screening_id"], row["no_tickets"]
        ) != (expected["customer_id"], expected["screening_id"],
              expected["ticket_amount"]):
            self.violations.append(
                f"goal {goal.index}: booked row {row} is not the confirmed "
                f"{expected}"
            )
            return False, "booked row differs from the confirmation"
        self.world.record_booking(row)
        self.goals.cancellable.append(row["reservation_id"])
        self._booked.append(row["reservation_id"])
        return True, ""

    def _check_cancel(self, goal, value) -> tuple[bool, str]:
        target = goal.expected["reservation_id"]
        remaining = self.database.count("reservation")
        if (
            value.get("cancelled") != target
            or self._reservation_row(target) is not None
            or remaining != len(self.world.reservations) - 1
        ):
            self.violations.append(
                f"goal {goal.index}: cancelling {target} left "
                f"{remaining} rows, expected "
                f"{len(self.world.reservations) - 1}"
            )
            return False, "cancellation changed other rows"
        self.world.record_cancellation(target)
        return True, ""

    def _check_list(self, goal, value) -> tuple[bool, str]:
        if not value:
            # A movie without screenings; it must be the target's own.
            if any(row["movie_id"] == goal.keys["movie"]
                   for row in self.world.screenings.values()):
                return False, "listed another movie"
            return True, ""
        listed = sorted(row["screening_id"] for row in value)
        movies = {row["movie_id"] for row in value}
        movie_id = movies.pop() if len(movies) == 1 else goal.keys["movie"]
        truth = sorted(
            screening_id
            for screening_id, row in self.world.screenings.items()
            if row["movie_id"] == movie_id
        )
        if movies or listed != truth:
            self.violations.append(
                f"goal {goal.index}: listing {listed} is not the "
                f"screenings {truth} of movie {movie_id}"
            )
            return False, "listing differs from the table"
        if movie_id != goal.keys["movie"]:
            return False, "listed another movie"
        return True, ""

    # ------------------------------------------------------------------
    def check_tables(self) -> None:
        """The reservation table holds exactly the rows the run expects."""
        table = self.database.table("reservation")
        stored = {
            row["reservation_id"]: (row["customer_id"], row["screening_id"],
                                    row["no_tickets"])
            for row in map(table.get, table.row_ids())
        }
        expected = {
            rid: (row["customer_id"], row["screening_id"], row["no_tickets"])
            for rid, row in self.world.reservations.items()
        }
        if stored != expected:
            extra = sorted(set(stored) - set(expected))[:5]
            missing = sorted(set(expected) - set(stored))[:5]
            self.violations.append(
                f"reservation table differs: unexpected {extra}, "
                f"missing {missing}"
            )

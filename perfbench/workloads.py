"""The benchmark's conversation workloads and how each is set up.

Both run goal-driven simulated users on the cinema domain as a closed
loop from one client thread: a session sends its next utterance only
after the reply to its last one arrived, with no think time.

* ``browse`` — default database.  Users identify a customer and a
  screening and decline at confirmation, or list a movie's screenings.
  Nothing commits, so the version-stamped caches stay valid: NLU and
  scoring do the work, and write-path changes should not show here.
* ``rush`` — about ten times the default rows, eight sessions open at
  once and served round-robin, browsing mixed with bookings and
  cancellations, so one session's commit lands between another
  session's turns.  Each commit moves the data version, so value maps,
  linker pools and plans rebuild on the next turn; this is where
  commits and ``prune_missing`` after deletes run, and larger columns
  stress linking, scoring and value-map rebuilds.

A third workload, bookings and cancellations on the default database
(``book``), was dropped: with three workloads the time allowed for a
full set of runs left each run too short for steady timings, and
``rush`` runs every layer it did.

Which end-to-end metric a faster layer should move, and where:
``nlu.slots`` and ``nlu.intent`` move ``turn_p50_ms`` on browse (flat on
rush); ``nlu.link`` moves ``turn_p50_ms`` on browse and ``turns_per_s``
on rush, its cost growing with the value pools; ``dataaware.policy`` and
``dataaware.candidates`` move ``turn_p99_ms`` on rush, where candidate
sets are large; ``dataaware.value_maps`` moves ``turns_per_s`` and
``turn_p99_ms`` on rush and is the flat control on browse; ``db.execute``
and ``db.commit`` move ``turns_per_s`` on rush and stay flat on browse.
Every ``setup.*`` layer moves ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

# The rush database: about ten times the default row counts.
RUSH_ROWS = dict(
    n_customers=2000,
    n_screenings=1200,
    n_movies=200,
    n_actors=300,
    n_reservations=800,
)


@dataclass(frozen=True)
class Workload:
    name: str
    rows: dict | None      # MovieConfig overrides; None is the default db
    sessions: int          # sessions open at once, served round-robin
    mix: dict[str, int]    # goal kind -> weight
    warmup_goals: int      # untimed goals that let lazy caches fill
    pass_goals: int        # goals of one timed pass
    # goal_completion and turns_per_goal cover the warm-up goals and the
    # first pass's: the warm-up draws its goals from a sequence of its
    # own, so they add to the goals a run scores.


WORKLOADS = {
    "browse": Workload(
        "browse", None, 1, {"decline": 3, "list": 1},
        warmup_goals=8, pass_goals=400,
    ),
    "rush": Workload(
        "rush", RUSH_ROWS, 8,
        {"decline": 4, "list": 1, "book": 3, "cancel": 2},
        warmup_goals=32, pass_goals=64,
    ),
}


def build_runtime(rows: dict | None, tracer=None):
    """Build the cinema database and synthesize its runtime.

    Returns ``(database, runtime)``.  With a tracer, the database build
    and the whole set-up are recorded as spans.
    """
    from repro import CAT
    from repro.datasets import build_movie_database, movie_templates
    from repro.datasets.movies import MovieConfig

    config = MovieConfig(**rows) if rows else None
    if tracer is None:
        database, annotations = build_movie_database(config)
    else:
        with tracer.span("setup.datasets.build"):
            database, annotations = build_movie_database(config)
    cat = CAT(database, annotations)
    cat.add_template_catalog(movie_templates())
    return database, cat.synthesize_runtime()


# Scenario 1 of the cinema demo (the paper's Figure 1).
FIGURE1 = (
    "hello",
    "i want to buy 2 tickets",
    "my name is alice",
    "my last name is quandt",
    "i want to watch forest gump",
    "the first one",
    "yes please",
)


def replay_figure1(database, runtime) -> str | None:
    """Replay the Figure 1 dialogue; None when it booked as in the paper.

    The last turn must execute ``ticket_reservation`` and the booked
    row must hold two tickets for Alice Quandt to a Forrest Gump
    screening.  Otherwise the reason is returned.
    """
    session = runtime.create_session()
    try:
        for utterance in FIGURE1:
            reply = runtime.respond(session, utterance)
    finally:
        runtime.end_session(session)
    executed = reply.executed
    if executed is None or executed.procedure != "ticket_reservation":
        return f"figure 1 did not book: last reply {reply.text!r}"
    row = database.find_one("reservation", "reservation_id",
                            executed.value["reservation_id"])
    if row is None:
        return "figure 1 booking is not in the reservation table"
    customer = database.find_one("customer", "customer_id", row["customer_id"])
    screening = database.find_one("screening", "screening_id",
                                  row["screening_id"])
    movie = database.find_one("movie", "movie_id", screening["movie_id"])
    booked = (customer["first_name"], customer["last_name"], movie["title"],
              row["no_tickets"])
    if booked != ("Alice", "Quandt", "Forrest Gump", 2):
        return f"figure 1 booked the wrong row: {booked}"
    return None

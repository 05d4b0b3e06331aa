"""Bench-side span recorder over the program's public entry points.

:class:`Tracer` wraps the methods named in :data:`TURN_LAYERS` and
:data:`SETUP_LAYERS` on their classes, so every call records a span:
layer name, start, end, parent span and turn id.  Spans stay in memory
and are written out when the run ends.  A call into a layer from inside
the same layer (a prepared statement executed by ``Connection.execute``,
one responder method realising another) belongs to the outer span.

A layer's self time is its spans' durations minus the part their child
spans cover; because every span of a turn nests inside the turn's
``serving.respond`` span, the self times of all layers add up to the
traced turn wall time.

``install`` and ``uninstall`` swap the wrappers in and out, so the
untraced stretches of a run execute the program's own methods.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module, class, method names, layer) of the per-turn layers.
TURN_LAYERS = (
    ("repro.serving.runtime", "AgentRuntime", ("respond",),
     "serving.respond"),
    ("repro.agent.agent", "ConversationalAgent", ("respond",), "agent.respond"),
    ("repro.nlu.intent", "IntentClassifier", ("predict",), "nlu.intent"),
    ("repro.nlu.slots", "SlotTagger", ("tag",), "nlu.slots"),
    ("repro.nlu.entity_linking", "EntityLinker", ("link",), "nlu.link"),
    ("repro.dialogue.manager", "DialogueManager", ("propose",),
     "dialogue.propose"),
    ("repro.dataaware.policies", "DataAwarePolicy", ("next_attribute",),
     "dataaware.policy"),
    ("repro.dataaware.candidates", "CandidateSet",
     ("initial", "refine", "prune_missing"), "dataaware.candidates"),
    ("repro.dataaware.caching", "AttributeValueCache", ("full_map",),
     "dataaware.value_maps"),
    ("repro.db.api", "Connection", ("execute",), "db.execute"),
    ("repro.db.api", "PreparedStatement", ("execute",), "db.execute"),
    ("repro.agent.executor", "TransactionExecutor", ("execute",), "db.commit"),
    ("repro.agent.responses", "Responder", None, "agent.nlg"),
)

# Layers of agent synthesis, traced around the set-up of a run.
SETUP_LAYERS = (
    ("repro.synthesis.pipeline", "TrainingDataGenerator",
     ("generate_nlu", "generate_flows"), "setup.synthesis.generate"),
    ("repro.nlu.slots", "SlotTagger", ("fit",), "setup.nlu.train_slots"),
    ("repro.nlu.intent", "IntentClassifier", ("fit",),
     "setup.nlu.train_intent"),
    ("repro.dialogue.policy", "NextActionModel", ("fit",),
     "setup.dialogue.train"),
    ("repro.agent.artifacts", "AgentArtifacts", ("build",),
     "setup.agent.artifacts"),
)


def layer_names(points) -> list[str]:
    """The distinct layer names of ``points``, in order."""
    return list(dict.fromkeys(layer for *__, layer in points))


def _resolve(points):
    """(class, method name, layer) for every wrapped entry point."""
    resolved = []
    for module_name, class_name, methods, layer in points:
        owner = getattr(importlib.import_module(module_name), class_name)
        if methods is None:  # every public method of the class
            methods = tuple(
                name for name, value in vars(owner).items()
                if callable(value) and not name.startswith("_")
            )
        for method in methods:
            resolved.append((owner, method, layer))
    return resolved


class Tracer:
    """In-memory spans of one run plus the counters taken at the spans."""

    def __init__(self) -> None:
        # (layer, start, end, parent index, turn id)
        self.spans: list[tuple | None] = []
        self.turn = -1
        self.link_calls = 0
        self.link_resolved = 0
        self.prune_drops = 0
        self._stack: list[tuple[str, int]] = []
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def install(self, points) -> None:
        """Wrap every entry point in ``points``; ``uninstall`` undoes it."""
        for owner, method, layer in _resolve(points):
            raw = vars(owner)[method]
            self._saved.append((owner, method, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, method))
            else:
                wrapped = self._wrap(raw, layer, method)
            setattr(owner, method, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, method, raw = self._saved.pop()
            setattr(owner, method, raw)

    def _wrap(self, fn, layer: str, method: str):
        stack = self._stack
        observe = None
        if layer == "nlu.link":
            observe = self._observe_link
        elif method == "prune_missing":
            observe = self._observe_prune

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            with self.span(layer):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observe_link(self, args, result) -> None:
        self.link_calls += 1
        self.link_resolved += result is not None

    def _observe_prune(self, args, result) -> None:
        self.prune_drops += len(args[0]) - len(result)

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str):
        """Record one span around the ``with`` block."""
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][1] if stack else -1
        stack.append((layer, index))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (layer, start, end, parent, self.turn)

    # ------------------------------------------------------------------
    def self_times(self, turns_only: bool) -> tuple[dict, dict, float]:
        """Per layer: (self seconds, calls), plus the root spans' total.

        ``turns_only`` keeps the spans recorded inside a turn; otherwise
        only the spans recorded outside any turn (set-up) count.
        """
        keep = [
            span is not None and (span[4] >= 0) == turns_only
            for span in self.spans
        ]
        own = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if keep[index]:
                own[index] += span[2] - span[1]
                if span[3] >= 0:
                    own[span[3]] -= span[2] - span[1]
        self_seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        root_total = 0.0
        for index, span in enumerate(self.spans):
            if not keep[index]:
                continue
            layer = span[0]
            self_seconds[layer] = self_seconds.get(layer, 0.0) + own[index]
            calls[layer] = calls.get(layer, 0) + 1
            if span[3] < 0:
                root_total += span[2] - span[1]
        return self_seconds, calls, root_total

    def write(self, path) -> None:
        """Write every span as one JSON line (times in microseconds)."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, turn = span
                out.write(json.dumps({
                    "id": index, "name": layer, "parent": parent,
                    "turn": turn,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                }) + "\n")

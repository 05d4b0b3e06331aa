"""Slot filling: averaged structured perceptron over BIO tags.

A classic sequence labeller: hand-crafted per-token features (word
identity, shape, affixes, context window) scored against label weights
plus first-order transition weights, decoded with Viterbi and trained
with averaged perceptron updates.  This is the from-scratch equivalent
of the CRF-style slot filler RASA trains.

Weights live in compiled form: each feature owns a per-label row and the
transitions form an (L+1)×L matrix whose last row scores the sentence
start.  One decoder (:func:`_decode`, a max-plus recurrence with
first-index argmax, i.e. the earliest label wins a tie) serves training
and tagging.  Tagging folds a token's emission per label with the
builtin ``sum`` over the feature rows in feature order — the exact
floating-point fold of summing ``weights[(feature, label)]`` lookups —
from rows compiled once at the end of :meth:`SlotTagger.fit` and never
mutated afterwards, so concurrent sessions may tag without locking.
Training works on dense matrices updated in place: perceptron weights
stay integer-valued until averaging, so its sums are exact in any order.
The averaged weights are also kept as ``{(feature, label): w}`` and
``{(previous, label): w}`` dicts (``_weights``/``_transitions``).
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import NLUError, NotFittedError
from repro.nlu.tokenizer import Token, bio_to_spans, spans_to_bio, tokenize
from repro.synthesis.corpus import NLUDataset, SlotSpan

__all__ = ["SlotTagger"]

_OUTSIDE = "O"
_START = "<s>"


def _shape(word: str) -> str:
    out = []
    for char in word:
        if char.isupper():
            out.append("X")
        elif char.islower():
            out.append("x")
        elif char.isdigit():
            out.append("d")
        else:
            out.append(char)
    # Collapse runs so shapes generalise ("Xxxxx" -> "Xx+").
    collapsed: list[str] = []
    for char in out:
        if collapsed and collapsed[-1] == char:
            continue
        collapsed.append(char)
    return "".join(collapsed)


def _token_features(
    tokens: list[Token],
    index: int,
    gazetteers: dict[str, frozenset[str]] | None = None,
) -> list[str]:
    token = tokens[index]
    word = token.lower
    features = [
        f"w={word}",
        f"shape={_shape(token.text)}",
        f"pre2={word[:2]}",
        f"pre3={word[:3]}",
        f"suf2={word[-2:]}",
        f"suf3={word[-3:]}",
        f"isdigit={word.isdigit()}",
    ]
    if index == 0:
        features.append("bos")
    else:
        features.append(f"w-1={tokens[index - 1].lower}")
    if index == len(tokens) - 1:
        features.append("eos")
    else:
        features.append(f"w+1={tokens[index + 1].lower}")
    if index >= 2:
        features.append(f"w-2={tokens[index - 2].lower}")
    if index + 2 < len(tokens):
        features.append(f"w+2={tokens[index + 2].lower}")
    if gazetteers:
        for slot_name, lexicon in gazetteers.items():
            if word in lexicon:
                features.append(f"gaz={slot_name}")
    return features


def _decode(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Viterbi label-index path for an (n×L) emission matrix.

    ``transitions`` is (L+1)×L: row ``p`` scores ``p -> label`` and the
    last row scores the sentence start.  Every argmax takes the first
    maximal index, so ties resolve to the earliest label exactly like a
    strict ``>`` scan in label order.
    """
    # incoming[label, previous]: reducing along the contiguous axis.
    incoming = np.ascontiguousarray(transitions[:-1].T)
    labels = np.arange(len(incoming))
    scores = emissions[0] + transitions[-1]
    back = []
    for emission in emissions[1:]:
        candidates = incoming + scores
        pointers = candidates.argmax(axis=1)
        back.append(pointers)
        scores = candidates[labels, pointers] + emission
    best = int(scores.argmax())
    path = [best]
    for pointers in reversed(back):
        best = int(pointers[best])
        path.append(best)
    path.reverse()
    return path


def _apply_updates(
    weights: np.ndarray,
    totals: np.ndarray,
    stamps: np.ndarray,
    step: int,
    keys: np.ndarray,
    deltas: np.ndarray,
) -> None:
    """One step's perceptron updates with lazy averaging bookkeeping.

    Settling a key twice within one step adds ``0 * weight``, so settling
    each touched key once and then adding every delta is exact.
    """
    touched = np.unique(keys)
    totals[touched] += (step - stamps[touched]) * weights[touched]
    stamps[touched] = step
    np.add.at(weights, keys, deltas)


def _training_sequence(feature_ids: list[list[int]], gold: list[int]):
    """(flat feature ids, token start offsets, token of each id, gold
    label array, gold label list) of one training sentence."""
    lengths = [len(ids) for ids in feature_ids]
    return (
        np.fromiter((f for ids in feature_ids for f in ids), dtype=np.intp),
        np.cumsum([0] + lengths[:-1], dtype=np.intp),
        np.repeat(np.arange(len(lengths)), lengths),
        np.array(gold, dtype=np.intp),
        gold,
    )


class SlotTagger:
    """Averaged structured perceptron BIO tagger.

    ``gazetteers`` maps slot names to lower-cased token lexicons (e.g.
    every word of every movie title); membership becomes a feature, the
    equivalent of RASA's lookup tables.
    """

    def __init__(
        self,
        epochs: int = 8,
        seed: int = 11,
        gazetteers: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.epochs = epochs
        self.seed = seed
        self.gazetteers = gazetteers or {}
        self._labels: list[str] | None = None
        self._weights: dict[tuple[str, str], float] | None = None
        self._transitions: dict[tuple[str, str], float] | None = None
        # feature -> ((label index, weight), ...) and the (L+1)×L
        # transition matrix; built once by ``fit``.
        self._compiled: tuple[dict[str, tuple], np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            raise NotFittedError("slot tagger is not trained")
        return list(self._labels)

    def fit(self, dataset: NLUDataset) -> "SlotTagger":
        if len(dataset) == 0:
            raise NLUError("cannot train on an empty dataset")
        feature_index: dict[str, int] = {}
        sentences: list[tuple[list[list[int]], list[str]]] = []
        label_set = {_OUTSIDE}
        for example in dataset:
            tokens = tokenize(example.text)
            if not tokens:
                continue
            labels = spans_to_bio(tokens, example.slots)
            label_set.update(labels)
            feature_ids = [
                [
                    feature_index.setdefault(feature, len(feature_index))
                    for feature in _token_features(tokens, i, self.gazetteers)
                ]
                for i in range(len(tokens))
            ]
            sentences.append((feature_ids, labels))
        labels = sorted(label_set)
        label_index = {label: i for i, label in enumerate(labels)}
        size = len(labels)
        sequences = [
            _training_sequence(ids, [label_index[g] for g in gold])
            for ids, gold in sentences
        ]

        # Flat arrays with 2-D views: key = row * L + label.
        weights = np.zeros(len(feature_index) * size)
        transitions = np.zeros((size + 1) * size)
        totals_w, totals_t = np.zeros_like(weights), np.zeros_like(transitions)
        stamps_w = np.zeros(weights.shape, dtype=np.int64)
        stamps_t = np.zeros(transitions.shape, dtype=np.int64)
        weight_rows = weights.reshape(-1, size)
        transition_rows = transitions.reshape(size + 1, size)
        step = 0

        rng = random.Random(self.seed)
        for __ in range(self.epochs):
            rng.shuffle(sequences)
            for features, starts, token_of, gold, gold_list in sequences:
                step += 1
                # Every token has at least seven features, so no
                # reduceat segment is empty.
                emissions = np.add.reduceat(weight_rows[features], starts)
                predicted = _decode(emissions, transition_rows)
                if predicted == gold_list:
                    continue
                guess = np.array(predicted, dtype=np.intp)
                wrong = (guess != gold)[token_of]
                rows = features[wrong] * size
                at = token_of[wrong]
                _apply_updates(
                    weights, totals_w, stamps_w, step,
                    np.concatenate((rows + gold[at], rows + guess[at])),
                    np.repeat((1.0, -1.0), len(rows)),
                )
                gold_edges = np.append(size, gold[:-1]) * size + gold
                guess_edges = np.append(size, guess[:-1]) * size + guess
                differ = gold_edges != guess_edges
                _apply_updates(
                    transitions, totals_t, stamps_t, step,
                    np.concatenate((gold_edges[differ], guess_edges[differ])),
                    np.repeat((1.0, -1.0), int(differ.sum())),
                )

        # Finalise averaging.
        totals_w += (step - stamps_w) * weights
        totals_t += (step - stamps_t) * transitions
        denominator = max(step, 1)
        averaged_t = (totals_t / denominator).reshape(size + 1, size)
        averaged_t.flags.writeable = False
        self._labels = labels
        self._weights = _as_dict(
            totals_w / denominator, list(feature_index), labels
        )
        self._transitions = _as_dict(averaged_t, labels + [_START], labels)
        rows: dict[str, list[tuple[int, float]]] = {}
        for (feature, label), weight in self._weights.items():
            rows.setdefault(feature, []).append((label_index[label], weight))
        self._compiled = ({f: tuple(r) for f, r in rows.items()}, averaged_t)
        return self

    # ------------------------------------------------------------------
    def tag(self, text: str) -> list[SlotSpan]:
        """Predict character-span slots for ``text``."""
        if self._compiled is None:
            raise NotFittedError("slot tagger is not trained")
        rows, transitions = self._compiled
        tokens = tokenize(text)
        if not tokens:
            return []
        size = transitions.shape[1]
        emissions = np.array(
            [
                _fold(rows, _token_features(tokens, i, self.gazetteers), size)
                for i in range(len(tokens))
            ],
            dtype=float,
        )
        labels = self._labels
        path = [labels[i] for i in _decode(emissions, transitions)]
        return bio_to_spans(text, tokens, path)


def _fold(rows: dict[str, tuple], features: list[str], size: int) -> list:
    """Per-label emission of one token.

    Each label's weights are summed with the builtin ``sum`` in feature
    order; absent weights are exact no-ops in that fold, so skipping them
    gives the same float as summing a lookup for every feature.
    """
    columns: list[list[float]] = [[] for __ in range(size)]
    for feature in features:
        for label, weight in rows.get(feature, ()):
            columns[label].append(weight)
    return list(map(sum, columns))


def _as_dict(
    averaged: np.ndarray, row_names: list[str], labels: list[str]
) -> dict[tuple[str, str], float]:
    """``{(row name, label): weight}`` for the nonzero weights."""
    size = len(labels)
    keys = np.flatnonzero(averaged)
    return {
        (row_names[key // size], labels[key % size]): weight
        for key, weight in zip(keys.tolist(), averaged.flat[keys].tolist())
    }

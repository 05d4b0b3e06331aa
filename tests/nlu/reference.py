"""Reference oracles for the NLU hot paths.

These are the original dict-keyed implementations the compiled slot
decoder and the indexed matcher replaced; the differential tests require
the production code to reproduce them bit for bit.  They are slow on
purpose (no compilation, no pruning) and live only in the test suite.
"""

from __future__ import annotations

import random
from collections import defaultdict

from repro.nlu.slots import _OUTSIDE, _START, _token_features
from repro.nlu.tokenizer import Token, bio_to_spans, spans_to_bio, tokenize
from repro.synthesis.corpus import NLUDataset, SlotSpan
from repro.textutil import normalized_edit_similarity, trigram_similarity


class ReferenceTagger:
    """Dict-keyed averaged perceptron with a label-by-label Viterbi scan."""

    def __init__(self, epochs=8, seed=11, gazetteers=None) -> None:
        self.epochs = epochs
        self.seed = seed
        self.gazetteers = gazetteers or {}
        self._labels: list[str] | None = None
        self._weights: dict[tuple[str, str], float] | None = None
        self._transitions: dict[tuple[str, str], float] | None = None

    def fit(self, dataset: NLUDataset) -> "ReferenceTagger":
        sequences: list[tuple[list[Token], list[str]]] = []
        label_set = {_OUTSIDE}
        for example in dataset:
            tokens = tokenize(example.text)
            if not tokens:
                continue
            labels = spans_to_bio(tokens, example.slots)
            label_set.update(labels)
            sequences.append((tokens, labels))
        self._labels = sorted(label_set)

        weights: dict = defaultdict(float)
        transitions: dict = defaultdict(float)
        totals_w: dict = defaultdict(float)
        totals_t: dict = defaultdict(float)
        stamps_w: dict = defaultdict(int)
        stamps_t: dict = defaultdict(int)
        step = 0

        rng = random.Random(self.seed)
        for __ in range(self.epochs):
            rng.shuffle(sequences)
            for tokens, gold in sequences:
                step += 1
                predicted = self.viterbi(tokens, weights, transitions)
                if predicted == gold:
                    continue
                previous_gold, previous_pred = _START, _START
                for i in range(len(tokens)):
                    if predicted[i] != gold[i]:
                        for feature in _token_features(tokens, i,
                                                       self.gazetteers):
                            _update(weights, totals_w, stamps_w, step,
                                    (feature, gold[i]), 1.0)
                            _update(weights, totals_w, stamps_w, step,
                                    (feature, predicted[i]), -1.0)
                    gold_edge = (previous_gold, gold[i])
                    pred_edge = (previous_pred, predicted[i])
                    if gold_edge != pred_edge:
                        _update(transitions, totals_t, stamps_t, step,
                                gold_edge, 1.0)
                        _update(transitions, totals_t, stamps_t, step,
                                pred_edge, -1.0)
                    previous_gold, previous_pred = gold[i], predicted[i]

        for key, weight in weights.items():
            totals_w[key] += (step - stamps_w[key]) * weight
        for key, weight in transitions.items():
            totals_t[key] += (step - stamps_t[key]) * weight
        denominator = max(step, 1)
        self._weights = {k: v / denominator for k, v in totals_w.items() if v}
        self._transitions = {
            k: v / denominator for k, v in totals_t.items() if v
        }
        return self

    def tag(self, text: str) -> list[SlotSpan]:
        tokens = tokenize(text)
        if not tokens:
            return []
        labels = self.viterbi(tokens, self._weights, self._transitions)
        return bio_to_spans(text, tokens, labels)

    def viterbi(self, tokens, weights, transitions) -> list[str]:
        labels = self._labels
        n = len(tokens)
        scores = [dict.fromkeys(labels, float("-inf")) for __ in range(n)]
        back: list[dict[str, str]] = [{} for __ in range(n)]

        features0 = _token_features(tokens, 0, self.gazetteers)
        for label in labels:
            emission = sum(weights.get((f, label), 0.0) for f in features0)
            scores[0][label] = emission + transitions.get((_START, label), 0.0)

        for i in range(1, n):
            features = _token_features(tokens, i, self.gazetteers)
            emissions = {
                label: sum(weights.get((f, label), 0.0) for f in features)
                for label in labels
            }
            for label in labels:
                best_prev, best_score = None, float("-inf")
                for previous in labels:
                    score = (
                        scores[i - 1][previous]
                        + transitions.get((previous, label), 0.0)
                    )
                    if score > best_score:
                        best_prev, best_score = previous, score
                scores[i][label] = best_score + emissions[label]
                back[i][label] = best_prev or _OUTSIDE

        last = max(labels, key=lambda lb: scores[n - 1][lb])
        path = [last]
        for i in range(n - 1, 0, -1):
            path.append(back[i][path[-1]])
        path.reverse()
        return path


def _update(weights, totals, stamps, step, key, delta) -> None:
    totals[key] += (step - stamps[key]) * weights[key]
    stamps[key] = step
    weights[key] += delta


def reference_best_match(needle, haystack, threshold=0.75):
    """Linear blend-score scan with the exact-match short-circuit."""
    target = needle.strip().lower()
    best = None
    for candidate in haystack:
        lowered = candidate.strip().lower()
        if lowered == target:
            return (candidate, 1.0)
        score = 0.6 * normalized_edit_similarity(target, lowered)
        score += 0.4 * trigram_similarity(target, lowered)
        if best is None or score > best[1]:
            best = (candidate, score)
    if best is not None and best[1] >= threshold:
        return best
    return None

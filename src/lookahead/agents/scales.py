"""Value scales, rationale score parsing and aggregation.

Every value model declares a :class:`ValueScale`.  Numeric ten-point scales
carry a discrete admissible set for raw samples plus continuous bounds for
aggregated values; the arithmetic-puzzle scale maps the verdict words
sure / likely / impossible, in ASCII letters of either case, onto 20 / 1 / 0.001.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from ..core import Aggregation, ValueEstimate, aggregate


class MalformedRationale(Exception):
    """A rationale that cannot be turned into a value, with a reason code."""

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class ValueScale:
    """A value vocabulary: bounds, optionally a discrete admissible sample set.

    ``labels`` maps verdict words to values for label-based scales.
    """

    name: str
    bounds: tuple[float, float]
    admissible: frozenset[float] | None = None
    labels: Mapping[str, float] | None = None

    @property
    def upper(self) -> float:
        return self.bounds[1]

    def in_bounds(self, value: float) -> bool:
        low, high = self.bounds
        return low <= value <= high


LIKERT10 = ValueScale(
    name="likert10",
    bounds=(1.0, 10.0),
    admissible=frozenset({1.0, 2.0, 4.0, 6.0, 8.0, 10.0}),
)

GAME24 = ValueScale(
    name="game24",
    bounds=(0.001, 20.0),
    admissible=frozenset({0.001, 1.0, 20.0}),
    labels=MappingProxyType({"sure": 20.0, "likely": 1.0, "impossible": 0.001}),
)

# Continuous ten-point scale for scripted test doubles, whose fixture values
# (and the aggregated values they mimic) need not sit on the discrete sample
# grid.
NUMERIC10 = ValueScale(name="numeric10", bounds=(0.0, 10.0))

SCALES: dict[str, ValueScale] = {scale.name: scale for scale in (LIKERT10, GAME24, NUMERIC10)}


def get_scale(name: str) -> ValueScale:
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(f"unknown value scale {name!r}") from None


SCORE_SENTENCE_RE = re.compile(
    r"Thus,?\s+the\s+correctness\s+score\s+is\s+"
    r"(-?\d+(?:\.\d+)?)(?:\s*/\s*10(?:\.0+)?)?",
    re.IGNORECASE,
)

LABEL_RE = re.compile(r"\b(?ai:(sure|likely|impossible))\b")


def _last_label(text: str, scale: ValueScale) -> float:
    assert scale.labels is not None
    matches = list(LABEL_RE.finditer(text))
    if not matches:
        raise MalformedRationale("scaffolding-missing", "no verdict label found")
    lines = [line for line in text.splitlines() if line.strip()]
    if lines:
        final_labels = {m.group(1).lower() for m in LABEL_RE.finditer(lines[-1])}
        if len(final_labels) > 1:
            raise MalformedRationale(
                "conflicting-labels", f"final line mixes {sorted(final_labels)}"
            )
    return scale.labels[matches[-1].group(1).lower()]


def parse_value(text: str, scale: ValueScale) -> float:
    """Extract the value asserted by a raw rationale sample.

    Ten-point scales read the number in the last occurrence of the score
    sentence ("Thus the correctness score is ..."); label scales read the last
    verdict word.  Values outside the scale's admissible set are rejected;
    every admissible value lies inside the scale's bounds.
    """
    value = parse_bounded_value(text, scale)
    if scale.admissible is not None and value not in scale.admissible:
        raise MalformedRationale(
            "value-not-admissible", f"{value} not in scale {scale.name!r}"
        )
    return value


def parse_bounded_value(text: str, scale: ValueScale) -> float:
    """Like :func:`parse_value` but enforcing bounds only.

    Training completions carry aggregated (and possibly discounted) targets
    that need not lie on the discrete sample grid.
    """
    if scale.labels is not None:
        return _last_label(text, scale)
    matches = list(SCORE_SENTENCE_RE.finditer(text))
    if not matches:
        raise MalformedRationale("scaffolding-missing", "no score sentence found")
    value = float(matches[-1].group(1))
    if not scale.in_bounds(value):
        raise MalformedRationale(
            "value-not-admissible", f"{value} outside bounds of {scale.name!r}"
        )
    return value


def format_score_sentence(value: float, scale: ValueScale) -> str:
    """Render a value as the canonical final sentence (or verdict label).

    Ten-point scales use fixed two-decimal form, e.g.
    ``Thus, the correctness score is 6.00 / 10.00.``; the label scale renders
    the verdict word alone and requires the value to be exactly a label value.
    """
    if scale.labels is not None:
        for label, label_value in scale.labels.items():
            if abs(value - label_value) <= 1e-9:
                return label
        words = ", ".join(f"{label} {label_value}" for label, label_value in scale.labels.items())
        raise ValueError(f"value {value} is not one of the {scale.name!r} label values ({words})")
    return f"Thus, the correctness score is {value:.2f} / 10.00."


def with_score(text: str, value: float, scale: ValueScale) -> str:
    """``text`` ending in ``value``'s score form under ``scale``.

    A verdict label goes on a line of its own (leading newlines dropped), a
    score sentence follows after a space; an empty ``text`` gives the score
    form alone.  Raises ``ValueError`` for a value a label scale has no word
    for.
    """
    score = format_score_sentence(value, scale)
    if scale.labels is not None:
        return f"{text}\n{score}".lstrip("\n")
    return f"{text} {score}" if text else score


def strip_score_sentence(text: str, scale: ValueScale) -> str:
    """Remove a rationale's own trailing score sentence (or verdict label line)."""
    if scale.labels is not None:
        lines = text.splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        if lines and LABEL_RE.search(lines[-1]) is not None:
            lines.pop()
        return "\n".join(lines).rstrip()
    matches = list(SCORE_SENTENCE_RE.finditer(text))
    if not matches:
        return text.rstrip()
    return text[: matches[-1].start()].rstrip()


def aggregate_estimate(
    samples: list[tuple[str, float]], aggregation: Aggregation
) -> ValueEstimate:
    """Aggregate (rationale, value) samples into one estimate.

    The representative rationale is the sample whose value is nearest the
    median; ties go to the earliest sample.
    """
    if not samples:
        raise ValueError("cannot aggregate zero samples")
    values = [value for _, value in samples]
    median = float(statistics.median(values))
    best_index = min(range(len(values)), key=lambda i: (abs(values[i] - median), i))
    return ValueEstimate(
        rationale=samples[best_index][0],
        value=aggregate(values, aggregation),
        samples=tuple(values),
    )


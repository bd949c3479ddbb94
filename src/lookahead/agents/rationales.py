"""Formatting and parsing of simulated-lookahead rationale blocks.

A trained value model answers with a block that names the best next action,
the observation of the resulting successor state, and a reflection that ends
with the value.  The same layout is used when rendering training completions,
so formatting followed by parsing is an exact round trip.
"""

from __future__ import annotations

from .scales import (
    MalformedRationale,
    ValueScale,
    parse_bounded_value,
    strip_score_sentence,
    with_score,
)

LOOKAHEAD_HEADER = "I will evaluate the best successor state from the current state:"
ACTION_LABEL = "Best Next Action:"
OBSERVATION_LABEL = "Observation of Best Successor State:"
REFLECTION_LABEL = "Reflection of the Best Successor State:"

_SECTION_LABELS = (ACTION_LABEL, OBSERVATION_LABEL, REFLECTION_LABEL)


def format_lookahead_block(
    action_text: str,
    observation: str,
    rationale: str,
    value: float,
    scale: ValueScale,
) -> str:
    """Render a lookahead block; ``rationale`` must not already end in a score sentence."""
    return (
        f"{LOOKAHEAD_HEADER}\n\n"
        f"{ACTION_LABEL} {action_text}\n\n"
        f"{OBSERVATION_LABEL} {observation}\n\n"
        f"{REFLECTION_LABEL} {with_score(rationale, value, scale)}"
    )


def parse_simulated_lookahead(
    text: str, scale: ValueScale
) -> tuple[str, str, str, float]:
    """Split a lookahead block into (action, observation, rationale, value).

    The three section labels must each occur exactly once and in order; the
    value is read from the reflection's trailing score sentence (or verdict
    label) and the returned rationale excludes that final sentence.
    """
    positions = []
    for label in _SECTION_LABELS:
        first = text.find(label)
        if first < 0:
            raise MalformedRationale("section-missing", label)
        if text.find(label, first + len(label)) >= 0:
            raise MalformedRationale("section-repeated", label)
        positions.append(first)
    if not (positions[0] < positions[1] < positions[2]):
        raise MalformedRationale(
            "sections-out-of-order",
            "expected action, observation, reflection in order",
        )
    action_text = text[positions[0] + len(ACTION_LABEL) : positions[1]].strip()
    observation = text[positions[1] + len(OBSERVATION_LABEL) : positions[2]].strip()
    reflection = text[positions[2] + len(REFLECTION_LABEL) :].strip()
    if not action_text:
        raise MalformedRationale("section-missing", "empty action section")
    value = parse_bounded_value(reflection, scale)
    rationale = strip_score_sentence(reflection, scale)
    return action_text, observation, rationale, value

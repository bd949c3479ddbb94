"""Value scales: score-sentence parsing, formatting, aggregation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lookahead.agents.scales import (
    GAME24,
    LIKERT10,
    NUMERIC10,
    MalformedRationale,
    aggregate_estimate,
    format_score_sentence,
    get_scale,
    parse_bounded_value,
    parse_value,
    strip_score_sentence,
    with_score,
)
from lookahead.core import Aggregation


class TestParseValue:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Looks promising. Thus, the correctness score is 8.00 / 10.00.", 8.0),
            ("Thus the correctness score is 6.00 / 10.00.", 6.0),
            ("thus, THE CORRECTNESS SCORE IS 4.00 / 10.0.", 4.0),
            ("On track. Thus, the correctness score is 10.00.", 10.0),
            ("Thus, the correctness score is 2 / 10.00.", 2.0),
        ],
    )
    def test_sentence_variants(self, text, expected):
        assert parse_value(text, LIKERT10) == expected

    def test_last_occurrence_wins(self):
        text = (
            "Earlier I wrote: Thus, the correctness score is 2.00 / 10.00.\n"
            "After reflection: Thus, the correctness score is 8.00 / 10.00."
        )
        assert parse_value(text, LIKERT10) == 8.0

    def test_missing_sentence(self):
        with pytest.raises(MalformedRationale) as err:
            parse_value("A rationale with no verdict at all.", LIKERT10)
        assert err.value.reason == "scaffolding-missing"

    def test_off_grid_value_rejected(self):
        with pytest.raises(MalformedRationale) as err:
            parse_value("Thus, the correctness score is 7.00 / 10.00.", LIKERT10)
        assert err.value.reason == "value-not-admissible"

    @pytest.mark.parametrize("score", sorted(LIKERT10.admissible))
    def test_grid_scale_accepts_its_points(self, score):
        text = f"Thus, the correctness score is {score:.2f} / 10.00."
        assert parse_value(text, LIKERT10) == score

    @pytest.mark.parametrize("score", ["0.00", "2.50", "5.00"])
    def test_grid_scale_rejects_other_scores(self, score):
        with pytest.raises(MalformedRationale) as err:
            parse_value(f"Thus, the correctness score is {score} / 10.00.", LIKERT10)
        assert err.value.reason == "value-not-admissible"

    def test_continuous_scale_enforces_bounds_only(self):
        assert parse_value("Thus, the correctness score is 6.35 / 10.00.", NUMERIC10) == 6.35
        with pytest.raises(MalformedRationale):
            parse_value("Thus, the correctness score is 11.00 / 10.00.", NUMERIC10)

    @pytest.mark.parametrize(
        "text,expected",
        [("sure", 20.0), ("These numbers work out.\nlikely", 1.0), ("impossible", 0.001)],
    )
    def test_labels(self, text, expected):
        assert parse_value(text, GAME24) == expected

    def test_label_last_occurrence_wins(self):
        assert parse_value("likely at first glance.\nimpossible", GAME24) == 0.001

    def test_conflicting_labels_on_final_line(self):
        with pytest.raises(MalformedRationale) as err:
            parse_value("sure or likely", GAME24)
        assert err.value.reason == "conflicting-labels"

    def test_label_missing(self):
        with pytest.raises(MalformedRationale) as err:
            parse_value("no verdict here", GAME24)
        assert err.value.reason == "scaffolding-missing"


class TestParseBoundedValue:
    def test_accepts_off_grid_targets(self):
        text = "Thus, the correctness score is 5.40 / 10.00."
        with pytest.raises(MalformedRationale):
            parse_value(text, LIKERT10)
        assert parse_bounded_value(text, LIKERT10) == 5.4

    def test_still_rejects_out_of_bounds(self):
        with pytest.raises(MalformedRationale):
            parse_bounded_value("Thus, the correctness score is 0.50 / 10.00.", LIKERT10)

    def test_labels_unchanged(self):
        assert parse_bounded_value("sure", GAME24) == 20.0

    @pytest.mark.parametrize("word", ["ſURE", "lıkely", "İmpossible"])
    def test_a_lookalike_letter_makes_no_verdict(self, word):
        # re's Unicode IGNORECASE equates ſ with s and ı, İ with i, but none
        # of them lower-cases to its ASCII letter: the lookup raised KeyError.
        with pytest.raises(MalformedRationale) as info:
            parse_bounded_value(f"Close.\n{word}", GAME24)
        assert str(info.value) == "scaffolding-missing: no verdict label found"


class TestFormatAndStrip:
    @given(st.integers(min_value=100, max_value=1000))
    def test_round_trip_on_two_decimal_grid(self, hundredths):
        value = hundredths / 100.0
        sentence = format_score_sentence(value, NUMERIC10)
        assert parse_bounded_value(f"Reasoning.\n{sentence}", NUMERIC10) == value

    def test_label_format_round_trip(self):
        for value in (20.0, 1.0, 0.001):
            assert parse_value(format_score_sentence(value, GAME24), GAME24) == value

    def test_label_format_rejects_non_label_value(self):
        with pytest.raises(ValueError, match="label"):
            format_score_sentence(10.0, GAME24)

    def test_strip_removes_last_sentence_only(self):
        text = (
            "Thus, the correctness score is 2.00 / 10.00. But wait.\n"
            "Thus, the correctness score is 8.00 / 10.00."
        )
        stripped = strip_score_sentence(text, LIKERT10)
        assert stripped.endswith("But wait.")
        assert "2.00" in stripped

    def test_strip_without_sentence_is_rstrip(self):
        assert strip_score_sentence("plain text  \n", LIKERT10) == "plain text"

    def test_strip_label_line(self):
        assert strip_score_sentence("Numbers combine cleanly.\nsure\n", GAME24) == (
            "Numbers combine cleanly."
        )

    def test_strip_label_line_above_trailing_blank_lines(self):
        text = "Numbers combine cleanly.\nsure\n\n  \n"
        assert strip_score_sentence(text, GAME24) == "Numbers combine cleanly."

    def test_strip_then_format_reparses(self):
        original = "The search looks stalled. Thus, the correctness score is 2.00 / 10.00."
        body = strip_score_sentence(original, LIKERT10)
        assert parse_value(with_score(body, 6.0, LIKERT10), LIKERT10) == 6.0

    @pytest.mark.parametrize(
        "text,value,scale,expected",
        [
            ("Close.", 6.0, LIKERT10, "Close. Thus, the correctness score is 6.00 / 10.00."),
            ("", 6.0, LIKERT10, "Thus, the correctness score is 6.00 / 10.00."),
            ("Close.", 20.0, GAME24, "Close.\nsure"),
            ("\nClose.", 1.0, GAME24, "Close.\nlikely"),
            ("", 0.001, GAME24, "impossible"),
        ],
    )
    def test_with_score_puts_a_label_on_its_own_line(self, text, value, scale, expected):
        assert with_score(text, value, scale) == expected


class TestAggregateEstimate:
    def test_mean_value_and_median_rationale(self):
        samples = [("low", 2.0), ("mid", 6.0), ("high", 10.0)]
        estimate = aggregate_estimate(samples, Aggregation.MEAN)
        assert estimate.value == 6.0
        assert estimate.rationale == "mid"
        assert estimate.samples == (2.0, 6.0, 10.0)

    def test_tie_goes_to_earliest(self):
        samples = [("a", 4.0), ("b", 8.0)]
        estimate = aggregate_estimate(samples, Aggregation.MEAN)
        # Median 6.0 is equidistant from both samples; the earlier one wins.
        assert estimate.rationale == "a"
        assert estimate.value == 6.0

    def test_median_aggregation(self):
        samples = [("a", 2.0), ("b", 8.0), ("c", 4.0), ("d", 10.0)]
        assert aggregate_estimate(samples, Aggregation.MEDIAN).value == 6.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_estimate([], Aggregation.MEAN)

    @given(st.lists(st.sampled_from([1.0, 2.0, 4.0, 6.0, 8.0, 10.0]), min_size=1, max_size=8))
    def test_representative_rationale_is_a_sample(self, values):
        samples = [(f"s{i}", v) for i, v in enumerate(values)]
        estimate = aggregate_estimate(samples, Aggregation.MEAN)
        assert estimate.rationale in {r for r, _ in samples}
        assert min(values) <= estimate.value <= max(values)


class TestGetScale:
    @pytest.mark.parametrize("name", ["likert10", "game24", "numeric10"])
    def test_known_names(self, name):
        assert get_scale(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown value scale"):
            get_scale("likert99")

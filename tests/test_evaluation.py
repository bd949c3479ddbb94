"""Efficiency accounting, pricing, bootstrap significance, report emission."""

import json
import sys
import threading
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lookahead.evaluation import (
    Ledger,
    MethodResult,
    PricingError,
    PricingTable,
    TaskOutcome,
    cost,
    emit_report,
    paired_bootstrap,
    pass_at_k,
    summary_row,
)

usage_entries = st.lists(
    st.tuples(
        st.sampled_from(["policy", "value"]),
        st.sampled_from(["gpt-4o", "llama-3.1-8b-instruct"]),
        st.integers(0, 500),
        st.integers(0, 500),
        st.sampled_from(["t1", "t2", "t3"]),
    ),
    max_size=30,
)


class TestLedger:
    @given(usage_entries)
    def test_totals_equal_per_task_sums(self, entries):
        ledger = Ledger()
        for role, model, prompt, completion, task_id in entries:
            ledger.add_tokens(role, model, prompt, completion, task_id=task_id)
        prompt_total, completion_total = ledger.total_tokens()
        per_task_prompt = sum(
            counts.prompt
            for task_counts in ledger.per_task_tokens.values()
            for counts in task_counts.values()
        )
        per_task_completion = sum(
            counts.completion
            for task_counts in ledger.per_task_tokens.values()
            for counts in task_counts.values()
        )
        assert (prompt_total, completion_total) == (per_task_prompt, per_task_completion)

    def test_states_split_by_task(self):
        ledger = Ledger()
        ledger.add_states(3, task_id="t1")
        ledger.add_states(2, task_id="t2")
        ledger.add_states(1, task_id="t1")
        assert ledger.states_expanded == 6
        assert ledger.per_task_states == {"t1": 4, "t2": 2}

    def test_negative_counts_rejected(self):
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.add_tokens("policy", "m", -1, 0, task_id="t1")
        with pytest.raises(ValueError):
            ledger.add_states(-1, task_id="t1")

    def test_round_trip_through_dict(self):
        ledger = Ledger()
        ledger.add_tokens("policy", "gpt-4o", 10, 20, task_id="t1")
        ledger.add_tokens("value", "gpt-4o", 5, 5, task_id="t2")
        ledger.add_states(7, task_id="t1")
        restored = Ledger.from_dict(ledger.to_dict())
        assert restored.to_dict() == ledger.to_dict()

    def test_thread_safety_under_concurrent_adds(self):
        ledger = Ledger()
        per_thread = 500

        def worker(task_id):
            for _ in range(per_thread):
                ledger.add_tokens("value", "m", 1, 2, task_id=task_id)
                ledger.add_states(1, task_id=task_id)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        prompt, completion = ledger.total_tokens()
        assert prompt == 8 * per_thread
        assert completion == 16 * per_thread
        assert ledger.states_expanded == 8 * per_thread

    def test_layout_of_two_tasks_roles_and_models_filled_from_eight_threads(self):
        # Thread i bills role i % 2 and model i // 2 % 2 on task t1 or t2
        # (i // 4), and every thread also expands states on t3, which has
        # no tokens: the totals are sums across tasks, roles and models.
        ledger = Ledger()
        roles, models = ("policy", "value"), ("gpt-4o", "llama-3.1-8b-instruct")

        def worker(i):
            for _ in range(50):
                ledger.add_tokens(roles[i % 2], models[i // 2 % 2], i + 1, 2 * i, f"t{i // 4 + 1}")
                ledger.add_states(1, f"t{i // 4 + 1}")
                ledger.add_states(2, "t3")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = (
            '{"tokens": {'
            '"policy|gpt-4o": {"prompt": 300, "completion": 400}, '
            '"policy|llama-3.1-8b-instruct": {"prompt": 500, "completion": 800}, '
            '"value|gpt-4o": {"prompt": 400, "completion": 600}, '
            '"value|llama-3.1-8b-instruct": {"prompt": 600, "completion": 1000}}, '
            '"states_expanded": 1200, '
            '"per_task": {'
            '"t1": {"tokens": {'
            '"policy|gpt-4o": {"prompt": 50, "completion": 0}, '
            '"policy|llama-3.1-8b-instruct": {"prompt": 150, "completion": 200}, '
            '"value|gpt-4o": {"prompt": 100, "completion": 100}, '
            '"value|llama-3.1-8b-instruct": {"prompt": 200, "completion": 300}}, '
            '"states_expanded": 200}, '
            '"t2": {"tokens": {'
            '"policy|gpt-4o": {"prompt": 250, "completion": 400}, '
            '"policy|llama-3.1-8b-instruct": {"prompt": 350, "completion": 600}, '
            '"value|gpt-4o": {"prompt": 300, "completion": 500}, '
            '"value|llama-3.1-8b-instruct": {"prompt": 400, "completion": 700}}, '
            '"states_expanded": 200}, '
            '"t3": {"tokens": {}, "states_expanded": 800}}}'
        )
        assert json.dumps(ledger.to_dict()) == expected
        assert json.dumps(Ledger.from_dict(json.loads(expected)).to_dict()) == expected

    def test_tokens_by_model_merges_roles(self):
        ledger = Ledger()
        ledger.add_tokens("policy", "m", 10, 1, task_id="t1")
        ledger.add_tokens("value", "m", 5, 2, task_id="t1")
        by_model = ledger.tokens_by_model()
        assert by_model["m"].prompt == 15
        assert by_model["m"].completion == 3


class TestCost:
    def ledger_with(self, model: str, prompt: int, completion: int) -> Ledger:
        ledger = Ledger()
        ledger.add_tokens("value", model, prompt, completion, task_id="t1")
        return ledger

    @pytest.mark.parametrize(
        "model,expected",
        [
            ("gpt-3.5-turbo", Decimal("0.002000")),
            ("gpt-4o", Decimal("0.012500")),
            ("llama-3.1-8b-instruct", Decimal("0.000130")),
        ],
    )
    def test_exact_decimal_totals(self, model, expected):
        per_model = cost(self.ledger_with(model, 1000, 1000), PricingTable())
        assert per_model == {model: expected}

    def test_linear_in_token_counts(self):
        one = cost(self.ledger_with("gpt-4o", 123, 456), PricingTable())["gpt-4o"]
        ten = cost(self.ledger_with("gpt-4o", 1230, 4560), PricingTable())["gpt-4o"]
        assert ten == one * 10

    def test_multiple_models_sum(self):
        ledger = Ledger()
        ledger.add_tokens("value", "gpt-4o", 1000, 1000, task_id="t1")
        ledger.add_tokens("policy", "gpt-3.5-turbo", 1000, 1000, task_id="t1")
        per_model = cost(ledger, PricingTable())
        assert sum(per_model.values()) == Decimal("0.0145")
        assert set(per_model) == {"gpt-4o", "gpt-3.5-turbo"}

    def test_unknown_model_named_in_error(self):
        with pytest.raises(PricingError, match="mystery-model"):
            cost(self.ledger_with("mystery-model", 1, 1), PricingTable())

    def test_custom_table_from_dict(self):
        table = PricingTable.from_dict(
            {"local": {"prompt_per_1k": "0.001", "completion_per_1k": 0.002, "open_source": True}}
        )
        per_model = cost(self.ledger_with("local", 2000, 500), table)
        assert per_model == {"local": Decimal("0.003")}
        assert table.get("local").open_source is True


class TestPassAtK:
    def test_any_of_first_k(self):
        assert pass_at_k([False, True, False], 2) is True
        assert pass_at_k([False, False, True], 2) is False

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            pass_at_k([True], 0)
        with pytest.raises(ValueError, match="exceeds"):
            pass_at_k([True], 2)


class TestPairedBootstrap:
    def test_dominant_difference_gives_zero(self):
        scores_a = [1.0] * 20
        scores_b = [0.0] * 20
        assert paired_bootstrap(scores_a, scores_b, b_samples=20_000, seed=7) == (0.0, 1.0)

    def test_balanced_unit_differences_match_binomial(self):
        # Twenty ±1 diffs resample to a mean above zero exactly when more
        # than ten +1s are drawn: P = (1 - C(20,10)/2^20) / 2 = 0.41190...
        scores_a = [1.0, 0.0] * 10
        scores_b = [0.0, 1.0] * 10
        p, _ = paired_bootstrap(scores_a, scores_b, b_samples=100_000, seed=7)
        assert abs(p - 0.4119015) < 0.01

    def test_tie_free_symmetric_differences_near_half(self):
        # Distinct magnitudes make exact cancellation vanishingly rare, so
        # symmetry pins the exceedance probability near one half.
        magnitudes = [1.0 + i / 97.0 for i in range(10)]
        scores_a = [m for m in magnitudes] + [0.0] * 10
        scores_b = [0.0] * 10 + [m for m in magnitudes]
        p, _ = paired_bootstrap(scores_a, scores_b, b_samples=100_000, seed=7)
        assert 0.45 <= p <= 0.55

    def test_same_seed_same_result(self):
        scores_a = [0.9, 0.4, 0.7, 0.2, 0.8, 0.6]
        scores_b = [0.5, 0.5, 0.6, 0.3, 0.4, 0.7]
        first = paired_bootstrap(scores_a, scores_b, b_samples=30_000, seed=11)
        second = paired_bootstrap(scores_a, scores_b, b_samples=30_000, seed=11)
        assert first == second

    def test_different_seed_can_differ(self):
        scores_a = [0.9, 0.4, 0.7, 0.2, 0.8, 0.6]
        scores_b = [0.5, 0.5, 0.6, 0.3, 0.4, 0.7]
        results = {
            paired_bootstrap(scores_a, scores_b, b_samples=5_000, seed=s)
            for s in range(4)
        }
        assert len(results) > 1

    def test_task_order_invariance(self):
        scores_a = [0.9, 0.4, 0.7, 0.2]
        scores_b = [0.5, 0.5, 0.6, 0.3]
        forward = paired_bootstrap(scores_a, scores_b, b_samples=10_000, seed=3)
        backward = paired_bootstrap(scores_a[::-1], scores_b[::-1], b_samples=10_000, seed=3)
        assert forward == backward

    def test_single_resample_allowed(self):
        assert paired_bootstrap([1.0], [0.0], b_samples=1, seed=0)[0] in (0.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            paired_bootstrap([1.0], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            paired_bootstrap([], [])

    def test_numpy_arrays_match_lists(self):
        scores_a = [0.9, 0.4, 0.7, 0.2, 0.8]
        scores_b = [0.5, 0.5, 0.6, 0.3, 0.4]
        from_lists = paired_bootstrap(scores_a, scores_b, b_samples=10_000, seed=5)
        from_arrays = paired_bootstrap(
            np.array(scores_a), np.array(scores_b), b_samples=10_000, seed=5
        )
        assert from_arrays == from_lists

    def test_empty_numpy_arrays_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            paired_bootstrap(np.array([]), np.array([]))

    def test_chunking_invariant(self):
        # Crossing the chunk boundary must not change earlier resamples:
        # p at 10k samples uses exactly the first 10k of the 20k stream.
        scores_a = [0.9, 0.4, 0.7, 0.2, 0.8]
        scores_b = [0.5, 0.5, 0.6, 0.3, 0.4]
        p_10k, _ = paired_bootstrap(scores_a, scores_b, b_samples=10_000, seed=5)
        p_20k, _ = paired_bootstrap(scores_a, scores_b, b_samples=20_000, seed=5)
        # Counts, not probabilities, are additive across the two halves.
        exceed_10k = round(p_10k * 10_000)
        exceed_20k = round(p_20k * 20_000)
        assert 0 <= exceed_20k - exceed_10k <= 10_000


def outcome(task_id: str, score: float, attempts: tuple[bool, ...]) -> TaskOutcome:
    return TaskOutcome(
        task_id=task_id, score=score, success=any(attempts), attempts=attempts
    )


def demo_result(method: str) -> MethodResult:
    ledger = Ledger()
    ledger.add_tokens("value", "gpt-4o", 1000, 1000, task_id="t1")
    ledger.add_tokens("policy", "llama-3.1-8b-instruct", 2000, 0, task_id="t2")
    ledger.add_states(5, task_id="t1")
    return MethodResult(
        method=method,
        outcomes=[
            outcome("t2", 0.5, (False, True, False)),
            outcome("t1", 1.0, (True, True, False)),
        ],
        ledger=ledger,
    )


class TestReports:
    def test_summary_row_contents(self):
        row = summary_row(demo_result("beam+oracle"), PricingTable(), k=2)
        assert row["method"] == "beam+oracle"
        assert row["tasks"] == "2"
        assert row["score_mean"] == "0.750000"
        assert row["success_rate"] == "1.000000"
        assert row["pass_at_k"] == "1.000000"
        assert row["prompt_tokens"] == "3000"
        assert row["completion_tokens"] == "1000"
        assert row["tokens_open_source"] == "2000"
        assert row["tokens_closed_source"] == "2000"
        assert row["states_expanded"] == "5"
        assert row["cost_usd"] == "0.012600"

    def test_emit_report_sorted_and_deterministic(self, tmp_path):
        results = [demo_result("zeta"), demo_result("alpha")]
        paths_one = emit_report(results, tmp_path / "one", PricingTable(), k=2)
        paths_two = emit_report(list(reversed(results)), tmp_path / "two", PricingTable(), k=2)
        assert (
            paths_one["summary"].read_bytes() == paths_two["summary"].read_bytes()
        )
        assert (
            paths_one["per_task"].read_bytes() == paths_two["per_task"].read_bytes()
        )
        lines = paths_one["summary"].read_text().splitlines()
        assert lines[1].startswith("alpha,")
        assert lines[2].startswith("zeta,")

    def test_per_task_rows_sorted_by_task(self, tmp_path):
        paths = emit_report([demo_result("m")], tmp_path, PricingTable(), k=2)
        lines = paths["per_task"].read_text().splitlines()
        assert lines[0] == "method,task_id,score,success,attempts"
        assert lines[1].split(",")[1] == "t1"
        assert lines[2].split(",")[1] == "t2"
        assert lines[1].split(",")[4] == "110"

    def test_method_result_round_trip(self):
        result = demo_result("m")
        restored = MethodResult.from_dict(result.to_dict())
        assert restored.to_dict() == result.to_dict()

    def test_pass_at_k_skips_short_attempt_lists(self, tmp_path):
        result = MethodResult(
            method="m",
            outcomes=[
                outcome("t1", 1.0, (True,)),
                outcome("t2", 0.0, (False, False, True)),
            ],
        )
        row = summary_row(result, PricingTable(), k=3)
        # Only t2 has three attempts; its pass@3 is True.
        assert row["pass_at_k"] == "1.000000"

"""Arithmetic environment: exact transitions, enumeration order, the oracle."""

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute24
from lookahead.agents.values import OracleValueModel
from lookahead.core import Action, State, Task, Trajectory
from lookahead.envs import game24
from lookahead.envs.base import ActionRejected
from lookahead.envs.game24 import (
    Game24Env,
    Verdict,
    parse_numbers,
    render_number,
    render_numbers,
    solve_verdict,
)


def task_for(numbers: str) -> Task:
    return Task(id=f"24:{numbers}", instruction=numbers)


def actions_on(numbers: str) -> list[Action]:
    """The actions ``Game24Env`` lists on the initial state of ``numbers``."""
    env = Game24Env()
    return env.enumerable_actions(env.initial_state(task_for(numbers)))


def flat(numbers) -> tuple[int, ...]:
    """Ascending fractions as an oracle key: numerator, denominator, ..."""
    return tuple(x for n in numbers for x in (n.numerator, n.denominator))


small_fractions = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
# Signed fractions with zero drawn often: zero is where division is skipped.
fractions_with_zero = st.one_of(st.just(Fraction(0)), small_fractions)


class TestNumberRendering:
    def test_integers_render_plainly(self):
        assert render_number(Fraction(24)) == "24"
        assert render_number(Fraction(-3)) == "-3"

    def test_fractions_render_as_ratio(self):
        assert render_number(Fraction(8, 3)) == "8/3"
        assert render_number(Fraction(-1, 2)) == "-1/2"

    @given(st.lists(small_fractions, min_size=1, max_size=4))
    def test_parse_inverts_render(self, numbers):
        rendered = render_numbers(sorted(numbers))
        assert parse_numbers(rendered) == tuple(sorted(numbers))

    def test_parse_sorts(self):
        assert parse_numbers("8 4 6 6") == tuple(
            Fraction(n) for n in (4, 6, 6, 8)
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_numbers("4 six 6 8")
        with pytest.raises(ValueError, match="no numbers"):
            parse_numbers("   ")


class TestEnumeration:
    def test_pair_major_order_with_dedup(self):
        actions = [a.text for a in actions_on("1 2 3")]
        # Pair (1,2) first: a+b, a-b, b-a, a*b, a/b, b/a; then (1,3); then (2,3).
        assert actions[:6] == ["1 + 2", "1 - 2", "2 - 1", "1 * 2", "1 / 2", "2 / 1"]
        assert actions[6:12] == ["1 + 3", "1 - 3", "3 - 1", "1 * 3", "1 / 3", "3 / 1"]
        assert actions[12:] == ["2 + 3", "2 - 3", "3 - 2", "2 * 3", "2 / 3", "3 / 2"]

    def test_equal_operands_collapse_duplicates(self):
        actions = [a.text for a in actions_on("3 3")]
        assert actions == ["3 + 3", "3 - 3", "3 * 3", "3 / 3"]

    def test_zero_divisor_skipped(self):
        actions = [a.text for a in actions_on("0 5")]
        assert "5 / 0" not in actions
        assert "0 / 5" in actions

    @given(st.lists(small_fractions, min_size=2, max_size=4))
    def test_all_action_texts_distinct(self, numbers):
        actions = actions_on(" ".join(map(str, numbers)))
        texts = [a.text for a in actions]
        assert len(texts) == len(set(texts))


class TestEnvironment:
    def test_initial_state_uses_sorted_signature(self):
        env = Game24Env()
        state = env.initial_state(task_for("8 4 6 6"))
        assert state.signature == "4 6 6 8"
        assert state.observation == "4 6 6 8"
        assert state.id == "24[4 6 6 8]"
        assert not env.is_terminal(state)

    def test_initial_state_rejects_wrong_arity(self):
        env = Game24Env()
        with pytest.raises(ValueError, match="between 1 and 4"):
            env.initial_state(task_for("1 2 3 4 5"))

    def test_transition_consumes_operands_once(self):
        env = Game24Env()
        state = env.initial_state(task_for("6 6 4 8"))
        successor = env.transition(state, Action.make("6 * 4"))
        assert successor.oracle_key == flat(parse_numbers("6 8 24")) == (6, 1, 8, 1, 24, 1)
        assert successor.observation == "6 * 4 = 24 (left: 24 6 8)"
        assert successor.depth == 1

    def test_observation_puts_result_before_ascending_rest(self):
        env = Game24Env()
        state = env.initial_state(task_for("1 2 3 12"))
        successor = env.transition(state, Action.make("1 + 2"))
        assert successor.observation.endswith("(left: 3 3 12)")

    def test_duplicate_operands_need_two_copies(self):
        env = Game24Env()
        state = env.initial_state(task_for("5 7 9"))
        with pytest.raises(ActionRejected, match="not present"):
            env.transition(state, Action.make("5 * 5"))

    def test_division_by_zero_rejected(self):
        env = Game24Env()
        state = env.initial_state(task_for("0 5 7"))
        with pytest.raises(ActionRejected, match="division by zero"):
            env.transition(state, Action.make("5 / 0"))

    def test_terminal_state_rejects_actions(self):
        env = Game24Env()
        state = env.initial_state(task_for("24"))
        assert env.is_terminal(state)
        with pytest.raises(ActionRejected, match="terminal"):
            env.transition(state, Action.make("24 + 0"))

    def test_malformed_action_rejected(self):
        env = Game24Env()
        state = env.initial_state(task_for("1 2 3"))
        with pytest.raises(ActionRejected, match="unparseable"):
            env.transition(state, Action.make("click[buy]"))

    def test_fractional_intermediates(self):
        env = Game24Env()
        state = env.initial_state(task_for("3 3 8 8"))
        step = env.transition(state, Action.make("8 / 3"))
        assert step.signature == "8/3 3 8"
        step = env.transition(step, Action.make("3 - 8/3"))
        assert step.signature == "1/3 8"
        step = env.transition(step, Action.make("8 / 1/3"))
        assert step.signature == "24"
        assert env.is_terminal(step)

    def test_ground_truth_score(self):
        env = Game24Env()
        task = task_for("12 12")
        root = env.initial_state(task)
        win = env.transition(root, Action.make("12 + 12"))
        lose_root = env.initial_state(task_for("12 13"))
        lose = env.transition(lose_root, Action.make("12 + 13"))
        assert env.ground_truth_score(Trajectory.from_state(task, win)) == 1.0
        assert env.ground_truth_score(Trajectory.from_state(task, lose)) == 0.0

    def test_enumerable_actions_empty_at_terminal(self):
        env = Game24Env()
        assert env.enumerable_actions(env.initial_state(task_for("24"))) == []


def reference_reachable(key: tuple[int, ...], memo: dict) -> bool:
    """The oracle's generic recursion over :func:`reference_reductions`, at
    every key size, filling ``memo`` as the package's memo is filled."""
    if len(key) == 2:
        return key == (24, 1)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(key) == 4:
        result = game24._pair_reaches_target(*key)
    else:
        result = any(reference_reachable(k, memo) for k in reference_reductions(key))
    memo[key] = result
    return result


def reference_reductions(key: tuple[int, ...]):
    """Successor keys by sorted pair index; within a pair a+b, a*b, a-b, b-a,
    a/b, b/a, skipping division by zero."""
    for i in range(0, len(key), 2):
        p, q = key[i], key[i + 1]
        for j in range(i + 2, len(key), 2):
            r, s = key[j], key[j + 1]
            rest = key[:i] + key[i + 2 : j] + key[j + 2 :]
            ps, rq, qs = p * s, r * q, q * s
            yield reference_insert(rest, ps + rq, qs)
            yield reference_insert(rest, p * r, qs)
            yield reference_insert(rest, ps - rq, qs)
            yield reference_insert(rest, rq - ps, qs)
            if r:
                yield reference_insert(rest, ps, rq)
            if p:
                yield reference_insert(rest, rq, ps)


def reference_insert(rest: tuple[int, ...], num: int, den: int) -> tuple[int, ...]:
    """``rest`` with ``num/den`` in lowest terms placed by value."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    num, den = num // g, den // g
    for k in range(0, len(rest), 2):
        if num * rest[k + 1] < rest[k] * den:
            return (*rest[:k], num, den, *rest[k:])
    return (*rest, num, den)


class TestOracle:
    @pytest.mark.parametrize(
        "numbers,verdict",
        [
            ("4 6 6 8", Verdict.SURE),
            ("1 1 1 8", Verdict.SURE),
            ("3 3 8 8", Verdict.SURE),
            ("1 2 3 4", Verdict.SURE),
            ("1 1 1 1", Verdict.IMPOSSIBLE),
            ("1 1 1 2", Verdict.IMPOSSIBLE),
            ("24", Verdict.SURE),
            ("23", Verdict.IMPOSSIBLE),
            ("6 4", Verdict.SURE),
        ],
    )
    def test_known_verdicts(self, numbers, verdict):
        assert solve_verdict(parse_numbers(numbers)) is verdict

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_verdict(())

    @given(st.lists(st.integers(1, 13), min_size=4, max_size=4))
    def test_permutation_invariant(self, numbers):
        forward = solve_verdict(numbers)
        assert solve_verdict(list(reversed(numbers))) is forward

    @given(st.lists(st.integers(1, 10), min_size=2, max_size=3))
    def test_agrees_with_expression_enumeration(self, numbers):
        expected = brute24.solvable(numbers)
        assert (solve_verdict(numbers) is Verdict.SURE) == expected

    @given(st.lists(small_fractions, min_size=2, max_size=2))
    def test_pairs_of_signed_fractions_agree_with_expression_enumeration(self, numbers):
        expected = brute24.solvable(numbers)
        assert (solve_verdict(numbers) is Verdict.SURE) == expected

    @settings(max_examples=20)
    @given(st.lists(fractions_with_zero, min_size=3, max_size=4))
    def test_signed_fractions_with_zero_agree_with_expression_enumeration(self, numbers):
        expected = brute24.solvable(numbers)
        assert (solve_verdict(numbers) is Verdict.SURE) == expected

    def test_fixture_puzzles_are_pinned(self):
        tasks = json.loads(Path("fixtures/game24_test_50.json").read_text())["tasks"]
        game24._oracle_cache.clear()
        verdicts = [solve_verdict(parse_numbers(t["instruction"])) for t in tasks]
        assert verdicts == [Verdict.SURE] * 50
        assert len(game24._oracle_cache) == 704

    def test_every_puzzle_from_1_to_13_is_pinned(self):
        game24._oracle_cache.clear()
        puzzles = combinations_with_replacement(range(1, 14), 4)
        verdicts = [solve_verdict(puzzle) for puzzle in puzzles]
        assert len(verdicts) == 1820
        assert verdicts.count(Verdict.SURE) == 1362
        assert len(game24._oracle_cache) == 42553

    def test_three_number_kernel_memoizes_what_the_generic_recursion_does(self):
        env = Game24Env()
        successors = []
        for puzzle in combinations_with_replacement(range(1, 14), 4):
            root = env.initial_state(task_for(" ".join(map(str, puzzle))))
            successors += [env.transition(root, a) for a in env.enumerable_actions(root)]
        assert all(len(s.oracle_key) == 6 for s in successors)
        game24._oracle_cache.clear()
        for state in successors:
            solve_verdict(state)
        memo: dict = {}
        for state in successors:
            reference_reachable(state.oracle_key, memo)
        # Same keys, same verdicts, filled in the same order.
        assert list(game24._oracle_cache.items()) == list(memo.items())
        assert any(memo.values()) and not all(memo.values())

    @given(st.lists(fractions_with_zero, min_size=1, max_size=4))
    def test_memo_keys_are_flat_ascending_ints_in_lowest_terms(self, numbers):
        game24._oracle_cache.clear()
        solve_verdict(numbers)
        for key in game24._oracle_cache:
            assert type(key) is tuple and len(key) % 2 == 0 and len(key) >= 4
            assert all(type(x) is int for x in key)
            pairs = list(zip(key[::2], key[1::2]))
            assert all(q > 0 and gcd(p, q) == 1 for p, q in pairs)
            assert all(a * d <= c * b for (a, b), (c, d) in zip(pairs, pairs[1:]))

    def test_sure_state_has_sure_successor(self):
        # The hereditary property that makes oracle-guided search complete:
        # from any solvable non-terminal state some successor is solvable.
        env = Game24Env()
        state = env.initial_state(task_for("4 6 6 8"))
        frontier = [state]
        while frontier:
            current = frontier.pop()
            if env.is_terminal(current):
                continue
            assert solve_verdict(current) is Verdict.SURE
            successors = [
                env.transition(current, action)
                for action in env.enumerable_actions(current)
            ]
            sure = [
                s
                for s in successors
                if solve_verdict(s) is Verdict.SURE
            ]
            assert sure, f"no solvable successor below {current.signature}"
            frontier.append(sure[0])


class TestCarriedNumbers:
    """A game24 state carries its numbers as the oracle's integer key."""

    @given(
        st.lists(st.integers(0, 13), min_size=1, max_size=4),
        st.lists(st.integers(0, 10**6), max_size=3),
    )
    def test_random_walk_states_agree_with_their_signature(self, puzzle, picks):
        env = Game24Env()
        state = env.initial_state(task_for(" ".join(map(str, puzzle))))
        for pick in [*picks, None]:
            numbers = parse_numbers(state.signature)
            assert state.oracle_key == flat(numbers)
            assert state.id == f"24[{state.signature}]"
            assert env.is_terminal(state) == (len(numbers) == 1)
            solvable = solve_verdict(state) is Verdict.SURE
            assert solvable == brute24.solvable(numbers)
            actions = env.enumerable_actions(state)
            assert actions == game24._combine_actions([render_number(n) for n in numbers])
            if pick is None or not actions:
                break
            state = env.transition(state, actions[pick % len(actions)])

    def test_each_listing_makes_one_combine_call(self, monkeypatch):
        listed = []
        real = game24._combine_actions

        def spy(texts):
            listed.append(list(texts))
            return real(texts)

        monkeypatch.setattr(game24, "_combine_actions", spy)
        env = Game24Env()
        state = env.initial_state(task_for("1/2 0 -3 8"))
        env.enumerable_actions(state)
        assert listed == [["-3", "0", "1/2", "8"]]

    def test_no_fraction_is_built_below_the_initial_state(self, monkeypatch):
        env = Game24Env()
        task = task_for("1 5 11 13")
        state = env.initial_state(task)
        built = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        model = OracleValueModel()
        frontier = [state]
        while frontier:
            current = frontier.pop()
            trajectory = Trajectory.from_state(task, current)
            model.evaluate(trajectory)
            if env.is_terminal(current):
                env.ground_truth_score(trajectory)
                continue
            frontier += [env.transition(current, a) for a in env.enumerable_actions(current)]
        assert built == []
        env.transition(state, Action.make("05 + 1"))
        assert built == [("05",)]

    def test_hand_built_state_has_no_numbers(self):
        state = State(id="24[4 6 6 8]", depth=0, observation="4 6 6 8", signature="4 6 6 8")
        env = Game24Env()
        for judge in (env.is_terminal, env.enumerable_actions, solve_verdict):
            with pytest.raises(ValueError, match="not an arithmetic state"):
                judge(state)
        with pytest.raises(ValueError, match="not an arithmetic state"):
            env.transition(state, Action.make("4 + 6"))

    def test_key_stays_out_of_equality_and_repr(self):
        env = Game24Env()
        state = env.initial_state(task_for("8 4 6 6"))
        assert "oracle_key" not in repr(state)
        assert state == env.initial_state(task_for("4 6 6 8"))
        assert hash(state) == hash(env.initial_state(task_for("6 8 6 4")))

    @pytest.mark.parametrize("action", ["04 + 6", "8/2 + 6", "4 + 6/1"])
    def test_operands_spelled_otherwise_are_found_by_value(self, action):
        env = Game24Env()
        state = env.initial_state(task_for("4 6 6 8"))
        successor = env.transition(state, Action.make(action))
        assert successor.signature == "6 8 10"
        assert successor.observation == "4 + 6 = 10 (left: 10 6 8)"

    def test_operand_with_zero_denominator_is_rejected(self):
        env = Game24Env()
        state = env.initial_state(task_for("1 3 4 6"))
        with pytest.raises(ActionRejected, match="divides by zero"):
            env.transition(state, Action.make("1/0 + 3"))


def fraction_transition(state: State, action: Action) -> tuple[str, str, str, int]:
    """Reference transition in ``Fraction`` arithmetic that the integer one
    must match.

    Returns the successor's ``(id, observation, signature, depth)``.
    """
    numbers = parse_numbers(state.signature)
    if len(numbers) <= 1:
        raise ActionRejected("state is terminal")
    match = game24._ACTION_RE.match(action.text)
    if match is None:
        raise ActionRejected(f"unparseable combine action {action.text!r}")
    left_text, op, right_text = match.groups()
    texts = state.signature.split(" ")
    remaining = list(numbers)
    operands, operand_texts = [], []
    for text in (left_text, right_text):
        try:
            index = texts.index(text)
        except ValueError:
            try:
                operand = Fraction(text)
            except ZeroDivisionError:
                raise ActionRejected(f"operand {text!r} divides by zero") from None
            if operand not in remaining:
                raise ActionRejected(
                    f"operand {render_number(operand)} not present in {state.signature!r}"
                )
            index = remaining.index(operand)
        operands.append(remaining.pop(index))
        operand_texts.append(texts.pop(index))
    a, b = operands
    if op == "/" and b == 0:
        raise ActionRejected("division by zero")
    result = {"+": a + b, "-": a - b, "*": a * b}[op] if op != "/" else a / b
    result_text = render_number(result)
    left_list = " ".join([result_text, *texts])
    position = bisect_right(remaining, result)
    texts.insert(position, result_text)
    signature = " ".join(texts)
    observation = (
        f"{operand_texts[0]} {op} {operand_texts[1]} = {result_text} (left: {left_list})"
    )
    return f"24[{signature}]", observation, signature, state.depth + 1


def respellings(number: Fraction) -> list[str]:
    """Non-canonical texts of ``number`` the action grammar still accepts."""
    p, q = number.numerator, number.denominator
    spellings = [f"{2 * p}/{2 * q}"]
    if q == 1:
        spellings.append(f"{p}/1")
        spellings.append("-0" if p == 0 else (f"0{p}" if p > 0 else f"-0{-p}"))
    return spellings


@st.composite
def states_and_actions(draw):
    """A state reached by a short walk from random signed fractions (zero
    drawn often), and an action whose operands are canonical texts of its
    numbers, respellings of them, or numbers it does not hold."""
    env = Game24Env()
    numbers = draw(st.lists(fractions_with_zero, min_size=1, max_size=4))
    state = env.initial_state(task_for(render_numbers(numbers)))
    for _ in range(draw(st.integers(0, 2))):
        actions = env.enumerable_actions(state)
        if not actions:
            break
        state = env.transition(state, draw(st.sampled_from(actions)))
    held = parse_numbers(state.signature)

    def operand() -> str:
        kind = draw(st.sampled_from(["canonical", "canonical", "respelled", "absent"]))
        if kind == "absent":
            return draw(
                st.one_of(
                    small_fractions.map(render_number),
                    st.integers(1, 9).map(lambda n: f"{n}/0"),
                )
            )
        number = held[draw(st.integers(0, len(held) - 1))]
        if kind == "canonical":
            return render_number(number)
        return draw(st.sampled_from(respellings(number)))

    left, op, right = operand(), draw(st.sampled_from("+-*/")), operand()
    return state, Action.make(f"{left} {op} {right}")


def assert_canonical_key(key: tuple[int, ...]) -> None:
    assert len(key) % 2 == 0 and all(type(x) is int for x in key)
    pairs = list(zip(key[::2], key[1::2]))
    assert all(q > 0 and gcd(p, q) == 1 for p, q in pairs)
    assert all(a * d <= c * b for (a, b), (c, d) in zip(pairs, pairs[1:]))


class TestIntegerTransition:
    """The integer transition agrees with the ``Fraction`` reference."""

    def check(self, state: State, action: Action) -> None:
        try:
            expected = fraction_transition(state, action)
        except ActionRejected as exc:
            with pytest.raises(ActionRejected) as raised:
                Game24Env().transition(state, action)
            assert str(raised.value) == str(exc)
            return
        successor = Game24Env().transition(state, action)
        got = (successor.id, successor.observation, successor.signature, successor.depth)
        assert got == expected
        assert_canonical_key(successor.oracle_key)
        assert successor.oracle_key == flat(parse_numbers(successor.signature))

    @pytest.mark.parametrize(
        "numbers,action",
        [
            ("0 0 5", "0 * 5"),  # zero result
            ("0 3 7", "0 - 7"),  # negative result
            ("1 2 5", "2 - 5"),
            ("3 4 8", "3 / 4"),  # fractional result
            ("-3/4 1/6 2", "-3/4 / 1/6"),  # negative fraction over a fraction
            ("-3/4 1/6 2", "1/6 / -3/4"),  # negative divisor
            ("-3 2 5", "2 / -3"),
            ("1/2 1/2 3", "1/2 + 1/2"),  # fractions summing to a whole
            ("2/3 3/2 5", "2/3 * 3/2"),
            ("2 3 4", "6/4 - 2"),  # respelled absent
            ("0 5 7", "5 / 0"),  # division by zero
            ("0 5 7", "7 / -0"),
            ("4 6 6 8", "04 + 6"),  # respelled operands
            ("1/2 3 4", "2/4 * 4"),
            ("4 6 8", "6/1 - 8"),
            ("-2 0 9", "-0 - -2"),
            ("2 6 7", "9 + 2"),  # absent operand
            ("2 6 7", "2 + 1/0"),
            ("5 7 9", "5 * 5"),  # one copy used twice
            ("5 7 9", "05 + 5"),
            ("5 5 9", "5 * 5"),  # two copies, fine
            ("1 4 6 6", "6 * 4"),  # result ties an equal number
            ("2 3 3", "1 + 2"),
            ("24", "24 + 0"),  # terminal
        ],
    )
    def test_named_cases(self, numbers, action):
        state = Game24Env().initial_state(task_for(numbers))
        self.check(state, Action.make(action))

    @settings(max_examples=300)
    @given(states_and_actions())
    def test_agrees_with_fraction_reference(self, state_and_action):
        self.check(*state_and_action)

"""Tree-search engines guided by a value model.

Three engines share one contract: each takes ``(task, env, policy,
value_model, config, ledger=None)`` and returns the :class:`SearchTree` it
built, whose ``stats.best_path`` ends at the state the engine settled on
(:meth:`SearchTree.final_trajectory`).  :data:`ENGINES` maps each engine's
name to its function.

* ``greedy_search`` — evaluate every proposed successor, descend into the
  argmax, repeat until a terminal state or the depth limit.
* ``beam_search`` — level-synchronous: expand every frontier state, judge
  the whole level in one value call, keep the global top ``beam_width``
  successors by value.
* ``mcts_search`` — UCT with the value estimate as a proxy reward; each
  iteration selects a leaf, expands and evaluates up to ``branching``
  children, and backs every new value up the path.

All engines are deterministic given the same configuration and scripted
agents: proposal order breaks every tie.  ``stats.states_expanded`` counts
environment transition calls exactly.  A tree node holds its state, whose
``incoming_action`` is the action that led to it; a trajectory is the tree's
task plus the state it ends at, so the engines hand value models and
policies trajectories, and nothing else, without copying any path.

:func:`run_rollouts` runs engines over tasks, writes each tree and reduces it
to what its caller keeps; ``search`` and every ``stl`` iteration call it.

:func:`render_tree` holds the one description of the tree-dump layout and
:func:`dump_tree` writes it.  The text is what ``json.dumps`` writes with
sorted keys, a two-space indent and ``ensure_ascii=False``, plus one
trailing newline, but each node is filled into a fixed template, because
``json``'s indenting encoder runs in pure Python and dominated the cost of
writing trees.  Each distinct estimate object is encoded once per tree: a
value model may hand one estimate to many nodes (the oracle's two verdicts).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _string
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .core import State, Task, Trajectory, ValueEstimate
from .envs.base import ActionRejected, Environment
from .agents.policies import Policy
from .agents.scales import MalformedRationale
from .agents.values import ValueModel

if TYPE_CHECKING:
    from .evaluation import Ledger


_EXPLORATION = math.sqrt(2.0)
"""UCT's exploration constant."""


@dataclass(frozen=True)
class SearchConfig:
    """Engine parameters; defaults match the desk-scale experiment setup.

    MCTS explores with :data:`_EXPLORATION` and backs up each value divided
    by the upper bound of the value model's scale.
    """

    branching: int = 5
    max_depth: int = 5
    beam_width: int = 5
    mcts_iterations: int = 5
    excluded_actions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError("branching must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.mcts_iterations < 1:
            raise ValueError("mcts_iterations must be at least 1")


@dataclass
class TreeNode:
    uid: int
    state: State
    parent_uid: int | None = None
    estimate: ValueEstimate | None = None
    terminal: bool = False
    expanded: bool = False
    visits: int = 0
    total_reward: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return self.state.depth


@dataclass
class SearchStats:
    states_expanded: int = 0
    evaluations: int = 0
    terminal_reached: bool = False
    backup_total: float = 0.0
    failures: list[str] = field(default_factory=list)
    best_path: list[int] = field(default_factory=list)


class SearchTree:
    """All states materialized during one search, with values and visit counts."""

    def __init__(self, task: Task, engine: str, root_state: State) -> None:
        self.task = task
        self.engine = engine
        self.nodes: list[TreeNode] = []
        self.stats = SearchStats()
        self._add(root_state, None)

    def _add(self, state: State, parent_uid: int | None) -> TreeNode:
        node = TreeNode(len(self.nodes), state, parent_uid)
        self.nodes.append(node)
        if parent_uid is not None:
            self.nodes[parent_uid].children.append(node.uid)
        return node

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def trajectory_to(self, uid: int) -> Trajectory:
        return Trajectory.from_state(self.task, self.nodes[uid].state)

    def final_trajectory(self) -> Trajectory:
        """The trajectory ending at ``stats.best_path[-1]``, else at the root."""
        uid = self.stats.best_path[-1] if self.stats.best_path else 0
        return self.trajectory_to(uid)

    def path_to(self, uid: int) -> list[int]:
        path = []
        current: int | None = uid
        while current is not None:
            path.append(current)
            current = self.nodes[current].parent_uid
        path.reverse()
        return path

    def evaluated_children(self, uid: int) -> list[TreeNode]:
        return [
            self.nodes[child]
            for child in self.nodes[uid].children
            if self.nodes[child].estimate is not None
        ]

    def lookahead_entries(self) -> Iterator[tuple[TreeNode, list[TreeNode]]]:
        """Nodes (in creation order) paired with their evaluated children."""
        for node in self.nodes:
            children = self.evaluated_children(node.uid)
            if children:
                yield node, children


_FILENAME_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def safe_name(task_id: str) -> str:
    """``task_id`` as one file-name component: each run of other characters
    becomes ``-``, so no id can name a directory or leave the trees folder."""
    return _FILENAME_UNSAFE_RE.sub("-", task_id)


def _number(x: float) -> str:
    """``x`` spelled as :func:`json.dumps` spells it."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    return int.__repr__(x)


def _list(items: list[str], indent: str) -> str:
    """Encoded ``items`` as an indented JSON list whose brackets sit at ``indent``."""
    if not items:
        return "[]"
    return "[\n" + indent + "  " + (",\n" + indent + "  ").join(items) + "\n" + indent + "]"


def _node_text(node: TreeNode, encoded: dict[int, tuple[str, str, str]]) -> str:
    """One node's text.  ``encoded`` maps the ``id`` of each estimate met so
    far to its encoded value, samples and rationale, and gains this node's."""
    estimate = node.estimate
    if estimate is None:
        value = samples = rationale = "null"
    else:
        texts = encoded.get(id(estimate))
        if texts is None:
            texts = encoded[id(estimate)] = (
                _number(estimate.value),
                _list([_number(s) for s in estimate.samples], "      "),
                _string(estimate.rationale),
            )
        value, samples, rationale = texts
    state = node.state
    action = state.incoming_action
    uids = node.children
    children = _list([str(uid) for uid in uids], "      ") if uids else "[]"
    return (
        "{\n"
        f'      "action": {"null" if action is None else _string(action.text)},\n'
        f'      "children": {children},\n'
        f'      "depth": {state.depth},\n'
        f'      "observation": {_string(state.observation)},\n'
        f'      "parent": {"null" if node.parent_uid is None else node.parent_uid},\n'
        f'      "rationale": {rationale},\n'
        f'      "samples": {samples},\n'
        f'      "signature": {"null" if state.signature is None else _string(state.signature)},\n'
        f'      "terminal": {"true" if node.terminal else "false"},\n'
        f'      "total_reward": {_number(node.total_reward)},\n'
        f'      "uid": {node.uid},\n'
        f'      "value": {value},\n'
        f'      "visits": {node.visits}\n'
        "    }"
    )


def render_tree(tree: SearchTree) -> str:
    """The tree-dump text of ``tree``: exactly ``json.dumps(layout,
    sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``, filled in from
    one fixed template per node.  A node without an estimate has null
    ``rationale``, ``samples`` and ``value``.  Each distinct estimate object
    is encoded once: value models hand many nodes the same one."""
    stats = tree.stats
    # By id: the tree keeps every estimate alive while this runs.
    encoded: dict[int, tuple[str, str, str]] = {}
    return (
        "{\n"
        f'  "engine": {_string(tree.engine)},\n'
        f'  "nodes": {_list([_node_text(node, encoded) for node in tree.nodes], "  ")},\n'
        '  "stats": {\n'
        f'    "backup_total": {_number(stats.backup_total)},\n'
        f'    "best_path": {_list([str(uid) for uid in stats.best_path], "    ")},\n'
        f'    "evaluations": {stats.evaluations},\n'
        f'    "failures": {_list([_string(f) for f in stats.failures], "    ")},\n'
        f'    "states_expanded": {stats.states_expanded},\n'
        f'    "terminal_reached": {"true" if stats.terminal_reached else "false"}\n'
        "  },\n"
        '  "task": {\n'
        f'    "id": {_string(tree.task.id)},\n'
        f'    "instruction": {_string(tree.task.instruction)}\n'
        "  }\n"
        "}\n"
    )


def dump_tree(tree: SearchTree, path: str | Path) -> None:
    """Write :func:`render_tree`'s text to ``path`` as UTF-8, creating the
    parent directory.  The bytes equal :func:`~lookahead.core.write_json`'s
    for the same layout."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_tree(tree), encoding="utf-8")


class _Expander:
    """Shared expansion step: propose, materialize, evaluate, count.

    One :meth:`expand` call takes a list of nodes (a beam frontier, or the
    single node greedy and MCTS expand) and judges all their children with a
    single :meth:`ValueModel.evaluate_many` call, so a model may overlap
    every value call of a beam level.  Each node's trajectory comes from
    :meth:`SearchTree.trajectory_to`, for ``propose``; each child's is built
    from the tree's task and the child's state.
    """

    def __init__(
        self,
        env: Environment,
        policy: Policy,
        value_model: ValueModel,
        config: SearchConfig,
        tree: SearchTree,
        ledger: "Ledger | None",
    ) -> None:
        self.env = env
        self.policy = policy
        self.value_model = value_model
        self.config = config
        self.tree = tree
        self.ledger = ledger
        self.excluded = frozenset(config.excluded_actions)

    def expand(self, nodes: Sequence[TreeNode]) -> list[list[TreeNode]]:
        """Materialize and evaluate up to ``branching`` children of each node.

        Returns each node's evaluated children, in ``nodes`` order.  Children
        whose evaluation fails to parse stay in the tree without an estimate
        and are excluded from selection.  Node uids and failure lines come
        out as if the nodes were expanded one after another.
        """
        # The per-child callables and counters, looked up once per call.
        tree = self.tree
        task = tree.task
        stats = tree.stats
        transition = self.env.transition
        is_terminal = self.env.is_terminal
        add_node = tree._add
        add_states = None if self.ledger is None else self.ledger.add_states
        # Pass 1: propose and transition for every node, in order.  A slot
        # holds a child awaiting its estimate, or a failure line.
        node_slots: list[list[TreeNode | str]] = []
        trajectories: list[Trajectory] = []
        for node in nodes:
            slots: list[TreeNode | str] = []
            node_slots.append(slots)
            node.expanded = True
            trajectory = tree.trajectory_to(node.uid)
            try:
                proposals = self.policy.propose(trajectory, self.config.branching, self.excluded)
            except ValueError as exc:
                slots.append(f"propose-error@{node.depth}: {exc}")
                continue
            if not proposals:
                slots.append(f"empty-proposal@{node.depth}")
                continue
            state, uid = node.state, node.uid
            for action in proposals:
                try:
                    successor = transition(state, action)
                except ActionRejected as exc:
                    slots.append(f"rejected-action@{node.depth}: {action.text} ({exc})")
                    continue
                stats.states_expanded += 1
                if add_states is not None:
                    add_states(1, task_id=task.id)
                child = add_node(successor, uid)
                child.terminal = is_terminal(successor)
                trajectories.append(Trajectory(task, successor))
                slots.append(child)
        # Pass 2: judge every child of every node in one call.
        estimates = iter(self.value_model.evaluate_many(trajectories))
        # Pass 3: record estimates and failures node by node, in proposal order.
        failures = stats.failures
        evaluated: list[list[TreeNode]] = []
        for slots in node_slots:
            kept: list[TreeNode] = []
            evaluated.append(kept)
            for slot in slots:
                if isinstance(slot, str):
                    failures.append(slot)
                    continue
                estimate = next(estimates)
                if isinstance(estimate, MalformedRationale):
                    failures.append(f"unparseable-value@{slot.depth}: {estimate.reason}")
                    continue
                slot.estimate = estimate
                kept.append(slot)
            stats.evaluations += len(kept)
        return evaluated


def _best_by_value(nodes: list[TreeNode]) -> TreeNode:
    """Highest value; earlier-generated wins ties."""
    return max(nodes, key=lambda n: (n.estimate.value, -n.uid))  # type: ignore[union-attr]


def greedy_search(
    task: Task,
    env: Environment,
    policy: Policy,
    value_model: ValueModel,
    config: SearchConfig,
    ledger: "Ledger | None" = None,
) -> SearchTree:
    """Descend into the best-valued successor until terminal or depth limit."""
    root = env.initial_state(task)
    tree = SearchTree(task, "greedy", root)
    expander = _Expander(env, policy, value_model, config, tree, ledger)
    node = tree.root
    while node.depth < config.max_depth and not node.terminal:
        [evaluated] = expander.expand([node])
        if not evaluated:
            break
        node = _best_by_value(evaluated)
    if node.terminal:
        tree.stats.terminal_reached = True
    tree.stats.best_path = tree.path_to(node.uid)
    return tree


def beam_search(
    task: Task,
    env: Environment,
    policy: Policy,
    value_model: ValueModel,
    config: SearchConfig,
    ledger: "Ledger | None" = None,
) -> SearchTree:
    """Level-synchronous beam.

    At each level all frontier states are expanded in one
    :meth:`_Expander.expand` call, so the value model judges the whole level
    at once; the next frontier is the global top ``beam_width`` non-terminal
    successors by value (ties to the earlier-generated node).  Terminal
    successors are collected and never re-expanded; every one found is an
    evaluated terminal node of the tree, and ``best_path`` ends at the
    best-valued of them.
    """
    root = env.initial_state(task)
    tree = SearchTree(task, "beam", root)
    expander = _Expander(env, policy, value_model, config, tree, ledger)
    frontier = [tree.root]
    terminals: list[TreeNode] = []
    for _level in range(config.max_depth):
        successors = [child for children in expander.expand(frontier) for child in children]
        if not successors:
            if not terminals:
                tree.stats.failures.append(f"empty-frontier@{frontier[0].depth}")
            break
        new_terminals = [n for n in successors if n.terminal]
        terminals.extend(new_terminals)
        survivors = [n for n in successors if not n.terminal]
        survivors.sort(key=lambda n: (-n.estimate.value, n.uid))  # type: ignore[union-attr]
        frontier = survivors[: config.beam_width]
        if not frontier:
            break
    if terminals:
        tree.stats.terminal_reached = True
        best_terminal = _best_by_value(terminals)
        tree.stats.best_path = tree.path_to(best_terminal.uid)
    elif frontier:
        with_estimates = [n for n in frontier if n.estimate is not None]
        best = _best_by_value(with_estimates) if with_estimates else frontier[0]
        tree.stats.best_path = tree.path_to(best.uid)
    return tree


def _select_child(node: TreeNode, children: list[TreeNode]) -> TreeNode:
    for child in children:
        if child.visits == 0:
            return child
    log_parent = math.log(node.visits)

    def uct(child: TreeNode) -> tuple[float, int]:
        score = child.total_reward / child.visits + _EXPLORATION * math.sqrt(
            log_parent / child.visits
        )
        return (score, -child.uid)

    return max(children, key=uct)


def mcts_search(
    task: Task,
    env: Environment,
    policy: Policy,
    value_model: ValueModel,
    config: SearchConfig,
    ledger: "Ledger | None" = None,
) -> SearchTree:
    """UCT search using normalized value estimates as proxy rewards.

    Each iteration walks from the root by the UCT rule (unvisited children
    first, in proposal order), expands the reached leaf, evaluates the new
    children, and backs each child's normalized value up the selection path.
    Budget exhaustion is the normal termination.
    """
    root_state = env.initial_state(task)
    tree = SearchTree(task, "mcts", root_state)
    expander = _Expander(env, policy, value_model, config, tree, ledger)
    upper = value_model.scale.upper

    def backup(path: list[int], value: float) -> None:
        for uid in path:
            node = tree.nodes[uid]
            node.visits += 1
            node.total_reward += value
        tree.stats.backup_total += value

    for _iteration in range(config.mcts_iterations):
        node = tree.root
        path = [node.uid]
        while node.expanded and not node.terminal:
            children = tree.evaluated_children(node.uid)
            if not children:
                break
            node = _select_child(node, children)
            path.append(node.uid)
        if node.terminal or node.expanded or node.depth >= config.max_depth:
            # Terminal, dead end revisited by selection, or depth limit:
            # nothing below to try, so back up the node's own value.
            if node.terminal:
                tree.stats.terminal_reached = True
            backup(path, node.estimate.value / upper if node.estimate is not None else 0.0)
            continue
        [evaluated] = expander.expand([node])
        if not evaluated:
            backup(path, 0.0)
            continue
        for child in evaluated:
            assert child.estimate is not None
            backup(path + [child.uid], child.estimate.value / upper)

    # Best trajectory: follow the most-visited (then best-valued) child.
    node = tree.root
    while True:
        children = tree.evaluated_children(node.uid)
        visited = [c for c in children if c.visits > 0]
        if not visited:
            break
        node = max(
            visited,
            key=lambda c: (c.visits, c.estimate.value, -c.uid),  # type: ignore[union-attr]
        )
        if node.terminal:
            break
    tree.stats.best_path = tree.path_to(node.uid)
    return tree


ENGINES: dict[str, Callable[..., SearchTree]] = {
    "greedy": greedy_search,
    "beam": beam_search,
    "mcts": mcts_search,
}


def run_rollouts(
    jobs: Sequence[tuple[Task, Path]],
    engine: str,
    env: Environment,
    policy: Policy,
    value_model: ValueModel,
    config: SearchConfig,
    reduce: Callable[[SearchTree], Any],
    ledger: "Ledger | None" = None,
    parallel: int = 1,
) -> list:
    """Run the named engine on each ``(task, tree_path)`` job, ``parallel``
    at a time; write each tree to its path and reduce it in the job's worker,
    so a run holds at most ``parallel`` trees.  Returns the reductions in job
    order, and writes what a serial run writes.  A failing job raises once
    the jobs before it are done and cancels those not yet started.  Threads
    share the agents and ``reduce``, so transports must be concurrency-safe.
    """

    def rollout(job: tuple[Task, Path]) -> Any:
        task, tree_path = job
        # ENGINES and dump_tree are looked up per call, so rebinding them reaches every rollout.
        tree = ENGINES[engine](task, env, policy, value_model, config, ledger)
        dump_tree(tree, tree_path)
        return reduce(tree)

    if parallel == 1:
        return [rollout(job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor  # serial runs never load it

    with ThreadPoolExecutor(max_workers=parallel) as pool:
        return list(pool.map(rollout, jobs))

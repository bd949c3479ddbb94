"""Lookahead: search-guided self-training for value models.

Tree-search engines (greedy, beam, MCTS) guided by pluggable value models;
rollouts distilled into lookahead training examples; trained models plugged
back into search, with token/state/cost accounting throughout.
"""

from .core import (
    Action,
    Aggregation,
    State,
    Task,
    Trajectory,
    TrainingExample,
    ValueEstimate,
    canonicalize,
    render_context,
    state_key,
)
from .search import SearchConfig, SearchTree, beam_search, greedy_search, mcts_search
from .stl import Dataset, StlConfig, stl_run
from .evaluation import Ledger, PricingTable, cost, paired_bootstrap, pass_at_k

__version__ = "0.1.0"

__all__ = [
    "Action",
    "Aggregation",
    "Dataset",
    "Ledger",
    "PricingTable",
    "SearchConfig",
    "SearchTree",
    "State",
    "StlConfig",
    "Task",
    "Trajectory",
    "TrainingExample",
    "ValueEstimate",
    "__version__",
    "beam_search",
    "canonicalize",
    "cost",
    "greedy_search",
    "mcts_search",
    "paired_bootstrap",
    "pass_at_k",
    "render_context",
    "state_key",
    "stl_run",
]

"""Lookahead: search-guided self-training for value models.

Tree-search engines (greedy, beam, MCTS) guided by pluggable value models;
rollouts distilled into lookahead training examples; trained models plugged
back into search, with token/state/cost accounting throughout.  Each name is
imported from the module that defines it, so ``import lookahead`` loads no
submodule.
"""

__version__ = "0.1.0"

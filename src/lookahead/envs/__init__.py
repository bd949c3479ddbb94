"""Task environments: the exact-arithmetic 24 puzzle and fixture-scripted DAGs."""

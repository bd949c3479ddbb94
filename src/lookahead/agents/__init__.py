"""Policies, value models, scales and the transports that back them."""

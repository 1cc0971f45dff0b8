"""Brute-force reference oracles for the greedy engines."""

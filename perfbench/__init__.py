"""Benchmark of modfeat; see run.py."""

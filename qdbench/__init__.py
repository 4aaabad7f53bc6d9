"""Benchmark of the real QD-step loop; entry point ``qdbench/run.py``."""

"""Benchmark of the IMCIS reproduction; run ``python3 perfbench/run.py --help``."""

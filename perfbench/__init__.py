"""Benchmark of the gridfluct package; run ``python3 perfbench/run.py --help``."""

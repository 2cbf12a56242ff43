"""Benchmark harness for lurestab; run.py is the entry point."""

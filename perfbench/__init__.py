"""End-to-end and per-layer benchmark of blockgibbs; run `python3 perfbench/run.py --help`."""

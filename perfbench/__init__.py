"""Repository benchmark package (see README.md); run via perfbench/run.py."""

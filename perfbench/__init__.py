"""The benchmark of record; see README.md and run.py."""

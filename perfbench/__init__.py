"""Seeded benchmark for tokfst; `run.py` is the entry point."""

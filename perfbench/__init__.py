"""The repository benchmark: seeded workloads, answer checks and a
per-layer span ledger for the cost-model service and library.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""

"""Standalone end-to-end and per-layer benchmark of the ``repro`` library.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
The benchmark drives the program only through its public API and owns
its tracing (``perfbench.layers``), so rewriting the program's own
bench harness or observers cannot change how it measures.
"""

"""Performance measurement harnesses for the hot-path engine.

:mod:`repro.perf.hotpath` measures mediation throughput across the
fast engine (fused kernel and scalar path) and the event-faithful
engine, and checks their digest parity.  ``sbqa bench`` drives it;
``BENCH_core.json`` records its output.
"""

from repro.perf.hotpath import run_bench  # noqa: F401

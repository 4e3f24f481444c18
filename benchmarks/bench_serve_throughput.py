"""Serving-subsystem bench: ``sbqa bench --serve`` under its CI script name.

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --json BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --smoke

The harness is :mod:`repro.perf.servebench`; exit status is non-zero
when the batch-recording vs serve-replay digest parity breaks.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", "--serve", *sys.argv[1:]]))

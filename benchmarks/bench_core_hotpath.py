"""Core hot-path bench: ``sbqa bench`` under its CI script name.

    PYTHONPATH=src python benchmarks/bench_core_hotpath.py --json BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core_hotpath.py --smoke

Every flag is ``sbqa bench``'s (``sbqa bench --help``); the harness is
:mod:`repro.perf.hotpath`, the record layout is in docs/performance.md.
"""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))

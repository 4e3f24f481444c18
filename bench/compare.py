"""Diff benchmark records: ``compare.py old.json new.json [more.json ...]``.

The first record is the base; every further record is compared with
it.  A perf claim is a diff between two records, not a sentence:

* one row per (end-to-end metric, workload) with both medians and
  quartiles, the ratio **with its base**, and a verdict --

  ``improved``      better, by more than the base's own run-to-run
                    spread, the quartile ranges do not overlap, and both
                    sides were run at least twice;
  ``within bound``  not worse than the base by more than the metric's
                    bound (``BENCHMARK.json``);
  ``regressed``     worse by more than the bound;
  ``unresolved``    the run-to-run spread of either side is wider than
                    the bound and the runs overlap -- the records
                    cannot tell, so the row is *not* reported as
                    unchanged;

* below, per-layer values side by side with their change and no
  verdict (per-layer metrics carry no bound: they explain a row, they
  do not gate it).

Exit status 1 on any ``regressed`` row or any difference in the
correctness checks or result digests; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

VERDICTS = ("improved", "within bound", "regressed", "unresolved")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if "workloads" not in record:
        raise SystemExit(f"{path}: not a bench/run.py record (no 'workloads')")
    return record


def verdict(old: dict, new: dict) -> Tuple[str, float]:
    """Verdict of one end-to-end row and how much worse it got (as a
    share of the base's median; negative = better)."""
    bound = old["bound"]
    lower_is_better = old["better"] == "lower"
    base = old["median"]
    change = (new["median"] - base) / base
    worse_by = change if lower_is_better else -change
    old_runs, new_runs = old["runs"], new["runs"]
    if lower_is_better:
        all_better = max(new_runs) < min(old_runs)
        all_worse = min(new_runs) > max(old_runs)
        clear_of_base = new["q3"] < old["q1"]
    else:
        all_better = min(new_runs) > max(old_runs)
        all_worse = max(new_runs) < min(old_runs)
        clear_of_base = new["q1"] > old["q3"]
    wide = max(old["spread"], new["spread"]) > bound
    if wide and not (all_better or all_worse):
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    # One run per side carries no spread to hold a gain against.
    repeated = len(old_runs) >= 2 and len(new_runs) >= 2
    if repeated and -worse_by > old["spread"] and clear_of_base:
        return "improved", worse_by
    return "within bound", worse_by


def compare(old: dict, new: dict, out=None) -> Dict[str, List[str]]:
    """Print the diff of two records; returns the row keys per verdict
    plus the ``checks`` differences under ``"checks"``."""
    out = out or sys.stdout
    rows: Dict[str, List[str]] = {v: [] for v in VERDICTS}
    rows["checks"] = []
    if old.get("mode") != new.get("mode"):
        rows["checks"].append(f"mode differs: {old.get('mode')} vs {new.get('mode')}")
    print(
        f"{'workload':<20} {'metric':<18} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict",
        file=out,
    )
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None:
            rows["checks"].append(f"{name}: workload missing from the new record")
            continue
        for metric, o in old_w["end_to_end"].items():
            n = new_w["end_to_end"].get(metric)
            if n is None:
                rows["checks"].append(f"{name}/{metric}: metric missing from the new record")
                continue
            what, worse_by = verdict(o, n)
            rows[what].append(f"{name}/{metric}")
            print(
                f"{name:<20} {metric:<18} "
                f"{o['median']:>12.4f} [{o['q1']:>9.4f},{o['q3']:>9.4f}] "
                f"{n['median']:>12.4f} [{n['q1']:>9.4f},{n['q3']:>9.4f}] "
                f"{n['median'] / o['median']:>8.3f}x  {what} "
                f"({'worse' if worse_by > 0 else 'better'} by {abs(worse_by):.1%} of base, "
                f"bound {o['bound']:.0%}, {o['unit']}, n={len(o['runs'])}/{len(n['runs'])})",
                file=out,
            )
        old_checks = {k: v["ok"] for k, v in old_w["checks"].items()}
        new_checks = {k: v["ok"] for k, v in new_w["checks"].items()}
        for check in sorted(set(old_checks) | set(new_checks)):
            if old_checks.get(check) != new_checks.get(check):
                rows["checks"].append(
                    f"{name}: check {check!r}: {old_checks.get(check)} -> {new_checks.get(check)}"
                )
        same_inputs = old.get("seed") == new.get("seed") and old_w["params"] == new_w["params"]
        if same_inputs and old_w["digest"] != new_w["digest"]:
            rows["checks"].append(f"{name}: result digest {old_w['digest']} -> {new_w['digest']}")

    print("\nper-layer (traced pass; no bound, no verdict)", file=out)
    for name, old_w in old["workloads"].items():
        new_w = new["workloads"].get(name)
        if new_w is None or not old_w.get("per_layer") or not new_w.get("per_layer"):
            continue
        for metric, o in old_w["per_layer"].items():
            n = new_w["per_layer"].get(metric)
            if n is None or (o["value"] == 0 and n["value"] == 0):
                continue
            delta = f"{(n['value'] - o['value']) / o['value']:+.1%}" if o["value"] else "new"
            print(
                f"{name:<20} {metric:<44} {o['value']:>14.6g} -> {n['value']:>14.6g} {o['unit']:<6} {delta}",
                file=out,
            )

    print("", file=out)
    for what in VERDICTS:
        print(f"{what}: {len(rows[what])}" + (f"  ({', '.join(rows[what])})" if rows[what] and what != "within bound" else ""), file=out)
    for line in rows["checks"]:
        print(f"checks differ: {line}", file=out)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base = load(argv[0])
    status = 0
    for path in argv[1:]:
        print(f"== base {argv[0]}  vs  {path}")
        rows = compare(base, load(path))
        if rows["regressed"] or rows["checks"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

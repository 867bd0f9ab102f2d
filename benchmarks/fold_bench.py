"""Fold benchmark runs into a committed BENCH_<n>.json and print the delta.

``perfbench/run.py`` writes one results file per run,
``<workload>-seed<N>-trace0.json``, into the gitignored
``perfbench/results/``.  This script takes the end-to-end metrics of a seed
set from such a directory, keeps per workload and metric the median and the
quartiles over the seeds, writes them to ``benchmarks/BENCH_<n>.json`` and
prints the change of each median against the newest earlier BENCH file.
With ``--parent-results`` the same seeds, run on the parent commit, are
folded too and printed as parent -> change.  With ``--traced-seed N`` the
per-layer counts in ``TRACED`` from the ``--trace 1`` run of seed N of each
workload that has one go in as well, under ``"traced"``.

    python benchmarks/fold_bench.py --number 6 --seeds 1401-1410 \\
        [--results perfbench/results] [--parent-results DIR] [--traced-seed N]

Every workload with a results file for one of the seeds is folded; a
workload that misses one of the seeds is an error, so a file never mixes
seed sets.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds 24 --trace 0"
TRACED = ("matrices.matmul_calls", "matrices.cert_verify_calls")


def parse_seeds(text):
    """'1301-1310' or '901,902' into a sorted list of ints."""
    seeds = set()
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fold(results, seeds):
    """{workload: {"runs", "attempted", "failed", "stamp", "metrics"}} over
    the trace-0 results of `seeds` in directory `results`."""
    runs = {}
    for path in sorted(Path(results).glob("*-trace0.json")):
        match = re.fullmatch(r"(.+)-seed(-?\d+)-trace0", path.stem)
        if match and int(match.group(2)) in seeds:
            runs.setdefault(match.group(1), []).append(json.loads(path.read_text()))
    if not runs:
        raise SystemExit(f"error: no trace-0 results for seeds {seeds} in {results}")
    out = {}
    for workload, docs in sorted(runs.items()):
        have = sorted(doc["seed"] for doc in docs)
        if have != seeds:
            raise SystemExit(f"error: {workload} has seeds {have} in {results}, "
                             f"expected {seeds}")
        metrics = {}
        for name, first in docs[0]["metrics"].items():
            values = [doc["metrics"][name]["value"] for doc in docs]
            q1, q3 = quartiles(values)
            metrics[name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "unit": first["unit"],
            }
        stamp = dict(docs[0]["stamp"])
        # Runs from a checkout without .git record no sha.
        stamp["git_sha"] = sorted({doc["stamp"]["git_sha"] for doc in docs} - {None})
        out[workload] = {
            "runs": len(docs),
            "attempted": sum(doc["attempted"] for doc in docs),
            "failed": sum(doc["failed"] for doc in docs),
            "stamp": stamp,
            "metrics": metrics,
        }
    return out


def fold_traced(results, seed):
    """{workload: {metric: value}} of the TRACED counts in the trace-1
    results of `seed` in directory `results`."""
    out = {}
    for path in sorted(Path(results).glob(f"*-seed{seed}-trace1.json")):
        doc = json.loads(path.read_text())
        out[doc["workload"]] = {name: doc["metrics"][name]["value"] for name in TRACED}
    return out


def previous_file(number):
    """The BENCH file with the largest number below `number`, or None."""
    found = []
    for path in HERE.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)", path.stem)
        if match and int(match.group(1)) < number:
            found.append((int(match.group(1)), path))
    return max(found)[1] if found else None


def print_delta(title, before, after):
    print(title)
    for workload, side in after.items():
        old = before.get(workload)
        for name, metric in side["metrics"].items():
            new = metric["median"]
            line = f"  {workload:<20} {name:<16} {new:>10.4g} {metric['unit']}"
            if old is not None and name in old["metrics"]:
                ref = old["metrics"][name]["median"]
                pct = (new - ref) / ref * 100 if ref else float("inf")
                line = (f"  {workload:<20} {name:<16} {ref:>10.4g} -> {new:<10.4g} "
                        f"{metric['unit']:<6} {pct:+.1f} %")
            print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="number of the BENCH file")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seed range or list, e.g. 1301-1310 or 901,902")
    parser.add_argument("--results", default=str(ROOT / "perfbench" / "results"),
                        help="results directory of the change (default: this checkout's)")
    parser.add_argument("--parent-results",
                        help="results directory of the same seeds run on the parent commit")
    parser.add_argument("--traced-seed", type=int,
                        help="seed of the --trace 1 runs whose per-layer counts to keep")
    args = parser.parse_args(argv)

    doc = {"number": args.number, "command": COMMAND, "seeds": args.seeds,
           "change": fold(args.results, args.seeds)}
    if args.parent_results:
        doc["parent"] = fold(args.parent_results, args.seeds)
    if args.traced_seed is not None:
        doc["traced"] = {"seed": args.traced_seed,
                         "change": fold_traced(args.results, args.traced_seed)}
        if args.parent_results:
            doc["traced"]["parent"] = fold_traced(args.parent_results, args.traced_seed)
    path = HERE / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")

    if "parent" in doc:
        print_delta("parent -> change, this file:", doc["parent"], doc["change"])
    prev = previous_file(args.number)
    if prev is None:
        print("no earlier BENCH file to compare with")
    else:
        before = json.loads(prev.read_text())["change"]
        print_delta(f"{prev.name} -> {path.name} (change medians; runs made at "
                    "different times may differ by the host's drift):", before, doc["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main())

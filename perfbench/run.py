"""kcert benchmark: closed-loop CLI workloads with a correctness gate.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-digests

One process, one thread, one closed-loop client.  Each request writes a
spec document generated from the workload seed and calls
``kcert.cli.main([<subcommand>, --spec, ..., --format, json, --report, ...])``
in-process, which is the path a user's ``kcert verify|exactness|boundary``
takes.  Scalars are forced onto the pure ``fractions.Fraction`` path
(``KCERT_PURE=1``); the mode that ran is stamped into the results file.

A run cycles through the workload's pool of distinct requests until
``--seconds`` have gone by.  On a shared host the CPU speed can drift by
up to 3x for seconds at a time (measured on a 2-vCPU Xeon), so every timing
is scaled by the speed of the moment: around each request the client times
``host_probe()``, a fixed Fraction loop outside kcert, and reports the
request as if the probe had taken ``PROBE_REFERENCE_S``.  The ratio keeps
every change in kcert's own cost and drops the neighbours'.  A request's
latency is the median of its scaled executions; ``requests_per_s`` is the
number of requests over the sum of their latencies.  ``setup_s`` is the
median over ``SETUP_LAUNCHES`` launches, spread over the run, of a fresh
interpreter that imports kcert and builds the first spec, each scaled by
two bare-interpreter launches around it.  Unscaled figures go into the
results file.

Every execution is gated.  It fails on exit code != 0, on ``result`` != pass,
on zero check samples, on a report that differs from an earlier execution
of the same request, and at the pinned seed on a report whose sha256
differs from ``digests.json``.  Failures are counted, never dropped.

``--trace 1`` runs a fixed prefix of the pool twice, untraced then traced
(see ``tracer.py``), byte-compares the two sets of reports and reports the
per-layer metrics instead of the end-to-end ones.  The last line of stdout
is one JSON object; a results file stamped with the machine, Python and
scalar mode goes to ``perfbench/results/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
TAIL_PERCENTILE = 90
# The traced run replays the first TRACE_REQUESTS requests of the pool.
TRACE_REQUESTS = 32
# Loop length of host_probe().
PROBE_ITERATIONS = 400
# Set-up measurements per run, spread evenly over its seconds.
SETUP_LAUNCHES = 12
# `python3 -c pass` on the same quiet host; set-up times are reported as if
# the bare interpreter had started this fast.
BARE_REFERENCE_S = 0.041
# host_probe() on a quiet 2-vCPU Intel Xeon under CPython 3.11: request
# times are reported as if every probe had taken this long.
PROBE_REFERENCE_S = 0.00145

END_TO_END_UNITS = {
    "requests_per_s": "req/s",
    "request_p50_ms": "ms",
    f"request_p{TAIL_PERCENTILE}_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CHILD = """
import sys
import kcert.cli
from kcert.specdoc import SpecDocument
SpecDocument.from_path(sys.argv[1])
"""


def load_kcert():
    """Import kcert from this checkout's src/, pure scalar mode."""
    os.environ["KCERT_PURE"] = "1"
    if not (SRC / "kcert" / "__init__.py").is_file():
        raise SystemExit(f"error: no kcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kcert.cli
    import kcert.scalars

    if Path(kcert.__file__).resolve().parent != SRC / "kcert":
        raise SystemExit(f"error: imported kcert from {kcert.__file__}, not {SRC}")
    return kcert


def stamp(kcert):
    """Where and how the run was made, so results from different boxes or
    scalar modes are never compared silently."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scalar_mode": {
            "compiled": bool(getattr(kcert.scalars, "COMPILED", False)),
            "KCERT_PURE": os.environ.get("KCERT_PURE"),
        },
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def check_report(raw):
    """Why the report is not a real pass, or None."""
    try:
        report = json.loads(raw)
    except ValueError:
        return "report is not JSON"
    if report.get("result") != "pass":
        return f"result is {report.get('result')!r}"
    if "segments" in report:
        ran = [s for s in report["segments"] if s.get("status") != "skipped"]
        if not ran or any(s.get("samples", 0) < 1 for s in ran):
            return "a segment ran no samples"
    elif not report.get("checks"):
        return "no checks ran"
    elif any("samples" in c and c["samples"] < 1 for c in report["checks"]):
        return "a check ran no samples"
    return None


class Client:
    """The closed-loop client of one workload at one seed.  `pins` are the
    pinned report digests of the pool, or None off the pinned seed."""

    def __init__(self, kcert, workload, seed, pins=None):
        self.cli = kcert.cli
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.seen = {}
        WORK.mkdir(parents=True, exist_ok=True)
        tag = f"{workload.name}-{seed}-{os.getpid()}"
        self.spec_path = WORK / f"{tag}-spec.json"
        self.report_path = WORK / f"{tag}-report.json"
        self._specs = {}

    def spec_text(self, index):
        text = self._specs.get(index)
        if text is None:
            doc = self.workload.spec(self.seed, index)
            text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
            self._specs[index] = text
        return text

    def call(self, index):
        """Run request `index`; returns (seconds, exit code, report bytes)."""
        self.spec_path.write_text(self.spec_text(index), encoding="utf-8")
        argv = [
            self.workload.subcommand, "--spec", str(self.spec_path),
            "--format", "json", "--report", str(self.report_path),
        ]
        with contextlib.suppress(FileNotFoundError):
            self.report_path.unlink()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        try:
            raw = self.report_path.read_bytes()
        except FileNotFoundError:
            raw = b""
        return elapsed, code, raw

    def failure(self, index, code, raw):
        """Why this execution of request `index` fails the gate, or None."""
        if code != 0:
            return f"exit code {code}" if isinstance(code, int) else f"raised {code}"
        reason = check_report(raw)
        if reason is not None:
            return reason
        digest = hashlib.sha256(raw).hexdigest()
        if self.seen.setdefault(index, digest) != digest:
            return "report differs from an earlier execution of the same request"
        if self.pins is not None and digest != self.pins[index]:
            return f"report sha256 {digest} differs from the pinned digest"
        return None

    def close(self):
        for path in (self.spec_path, self.report_path):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()


def load_pins(workload, seed):
    """The pinned report digests of `workload`, or None off the pinned seed."""
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(DIGESTS.read_text())
    if doc["seed"] != DEFAULT_SEED:
        raise SystemExit(f"error: {DIGESTS} pins seed {doc['seed']}, not {DEFAULT_SEED}")
    pins = doc["workloads"][workload.name]
    if len(pins) != workload.pool:
        raise SystemExit(f"error: {DIGESTS} pins {len(pins)} reports, the pool has "
                         f"{workload.pool}; re-pin with --write-digests")
    return pins


class SetupProbe:
    """Fresh interpreters that import kcert and parse and build one spec
    document: what a user pays before the first check runs.  Each launch
    sits between two launches of a bare interpreter, and is reported as if
    the bare one had started in BARE_REFERENCE_S, which takes the host's
    speed of the moment out of the figure."""

    def __init__(self, spec_text):
        self.path = WORK / f"setup-{os.getpid()}.json"
        self.path.write_text(spec_text, encoding="utf-8")
        self.env = dict(os.environ, KCERT_PURE="1", PYTHONPATH=str(SRC))
        self.raw = []
        self.scaled = []

    def _launch(self, *args):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], env=self.env, cwd=str(ROOT), check=True,
            stdout=subprocess.DEVNULL,
        )
        return time.perf_counter() - t0

    def launch(self):
        bare = self._launch("-c", "pass")
        elapsed = self._launch("-c", SETUP_CHILD, str(self.path))
        bare += self._launch("-c", "pass")
        self.raw.append(elapsed)
        self.scaled.append(elapsed * BARE_REFERENCE_S * 2 / bare)

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            self.path.unlink()


def percentile(values, pct):
    """Inclusive-method percentile; a failed request (inf) counts as slower
    than any other, so a percentile that lands on one is inf."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == float("inf"):
        return float("inf") if rank > lo or ordered[lo] == float("inf") else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def finite_or_none(value):
    return value if value != float("inf") else None


def host_probe():
    """Seconds taken by a fixed loop of Fraction and dict work that never
    touches kcert.  It slows down with the host as much as the requests do,
    so a request's time divided by the probe's is the code's own cost.  The
    Fraction methods are called through references taken at import, so the
    tracer's counting wrappers do not slow the probe down."""
    values = _PROBE_VALUES
    table = {}
    acc = Fraction(0)
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        x = _add(_mul(values[i % 40], values[(i * 7) % 40]), values[(i * 3) % 40])
        acc = _add(acc, x) if x else acc
        table[i % 64] = (x, i)
    return time.perf_counter() - t0


_PROBE_VALUES = tuple(Fraction(i % 7 - 3, i % 5 + 1) for i in range(40))
_add, _mul = Fraction.__add__, Fraction.__mul__


def end_to_end(client, seconds):
    pool = client.workload.pool
    setup = SetupProbe(client.spec_text(0))
    client.call(0)  # warm-up: lazy imports and first-call costs
    host_probe()
    scaled = [[] for _ in range(pool)]
    raw_best = [float("inf")] * pool
    failed_requests = set()
    verdicts = []
    start = time.perf_counter()
    next_launch = 0.0
    before = host_probe()
    n = 0
    try:
        while True:
            index = n % pool
            if time.perf_counter() - start >= next_launch:
                setup.launch()
                next_launch += seconds / SETUP_LAUNCHES
                before = host_probe()
            elapsed, code, raw = client.call(index)
            after = host_probe()
            reason = client.failure(index, code, raw)
            verdicts.append((index, elapsed, reason, hashlib.sha256(raw).hexdigest()))
            scaled[index].append(elapsed * PROBE_REFERENCE_S * 2 / (before + after))
            raw_best[index] = min(raw_best[index], elapsed)
            if reason is not None:
                failed_requests.add(index)
            before = after
            n += 1
            if time.perf_counter() - start >= seconds:
                break
    finally:
        setup.close()
    wall = time.perf_counter() - start
    measured = [i for i in range(pool) if scaled[i]]
    latencies = [
        float("inf") if i in failed_requests else statistics.median(scaled[i])
        for i in measured
    ]
    ok = [v for v in latencies if v != float("inf")]
    raw = [raw_best[i] for i in measured]
    metrics = {
        "requests_per_s": len(ok) / sum(ok) if ok else 0.0,
        "request_p50_ms": finite_or_none(percentile(latencies, 50) * 1000),
        f"request_p{TAIL_PERCENTILE}_ms": finite_or_none(
            percentile(latencies, TAIL_PERCENTILE) * 1000),
        "setup_s": statistics.median(setup.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = sum(1 for v in verdicts if v[2] is not None)
    detail = {
        "wall_s": wall,
        "requests": len(measured),
        "executions": n,
        "min_executions_per_request": min(len(scaled[i]) for i in measured),
        "tail_percentile": TAIL_PERCENTILE,
        "requests_beyond_tail": len(measured) - int(len(measured) * TAIL_PERCENTILE / 100),
        "unscaled_best_p50_ms": percentile(raw, 50) * 1000,
        "unscaled_best_p90_ms": percentile(raw, TAIL_PERCENTILE) * 1000,
        "setup_unscaled_s": setup.raw,
        "fail_ratio": failed / n,
    }
    return n, failed, verdicts, metrics, dict(END_TO_END_UNITS), detail


def traced(client, trace_path):
    from tracer import Tracer

    count = TRACE_REQUESTS
    client.call(0)  # warm-up
    host_probe()
    tracer = Tracer()

    def run_pass():
        out, scaled = [], 0.0
        for index in range(count):
            before = host_probe()
            tracer.request, tracer.scale = index, PROBE_REFERENCE_S / before
            elapsed, code, raw = client.call(index)
            after = host_probe()
            out.append((elapsed, code, raw))
            scaled += elapsed * PROBE_REFERENCE_S * 2 / (before + after)
        return out, scaled

    plain, plain_s = run_pass()
    tracer.install()
    try:
        tagged, traced_s = run_pass()
    finally:
        tracer.uninstall()
    verdicts = []
    for index, (a, b) in enumerate(zip(plain, tagged)):
        for elapsed, code, raw in (a, b):
            verdicts.append((index, elapsed, client.failure(index, code, raw),
                             hashlib.sha256(raw).hexdigest()))
        if a[1:] != b[1:]:
            verdicts.append((index, b[0], "traced report differs from the untraced one",
                             None))
    failed = sum(1 for v in verdicts if v[2] is not None)
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_ratio"] = traced_s / plain_s
    tracer.dump(trace_path)
    units = {name: layer_unit(name) for name in metrics}
    detail = {
        "traced_requests": count,
        "untraced_scaled_s": plain_s,
        "traced_scaled_s": traced_s,
        "spans_recorded": len(tracer.span_name),
        "spans_dropped": tracer.dropped,
        "fail_ratio": failed / (2 * count),
    }
    return 2 * count, failed, verdicts, metrics, units, detail


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def write_digests(kcert, workloads):
    """Pin the sha256 of every report at the default seed (the whole pool of
    every workload).  Re-pin only when report bytes are meant to change."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.items():
        client = Client(kcert, workload, DEFAULT_SEED)
        digests = []
        try:
            for index in range(workload.pool):
                _, code, raw = client.call(index)
                reason = client.failure(index, code, raw)
                if reason is not None:
                    raise SystemExit(f"error: {name} request {index}: {reason}")
                digests.append(hashlib.sha256(raw).hexdigest())
        finally:
            client.close()
        out["workloads"][name] = digests
        print(f"{name}: {len(digests)} reports pinned", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="re-pin the report digests at the default seed")
    args = parser.parse_args(argv)

    kcert = load_kcert()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.write_digests:
        write_digests(kcert, WORKLOADS)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    client = Client(kcert, workload, args.seed, load_pins(workload, args.seed))
    RESULTS.mkdir(parents=True, exist_ok=True)
    base = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result = traced(client, base.with_suffix(".spans.json.gz"))
        else:
            result = end_to_end(client, args.seconds)
    finally:
        client.close()
    attempted, failed, verdicts, metrics, units, detail = result
    correct = failed == 0
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    doc = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp(kcert),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "executions": [
            {"request": i, "seconds": s, "failure": f, "sha256": d}
            for i, s, f, d in verdicts
        ],
    }
    base.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n")
    for index, _, reason, _ in verdicts:
        if reason is not None:
            print(f"request {index} failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

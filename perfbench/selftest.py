"""Self-test of the benchmark: shows that it measures what BENCHMARK.json
names and that its correctness gate is live.

    python3 perfbench/selftest.py

1. A short run of every workload, traced and untraced, exits 0 with a
   correct result and emits every metric BENCHMARK.json names, with its unit.
2. A run whose pinned digests have one sha256 altered is counted as failed
   (correct false, failed >= 1, exit 1).  It runs in-process with
   ``run.DIGESTS`` pointed at the altered copy.
3. The vacuous passes ``--samples 0`` and ``--samples -5`` are rejected by
   the report check even though kcert exits 0 on them.
4. Under the tracer, ``M @ x`` with an ``x`` that is not a matrix still
   raises kcert's ``MatrixError``: tracing leaves error paths as they are.

Exits 1 on the first broken expectation.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(*args):
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=str(ROOT),
        capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(ok, message):
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_metrics(result, wanted, what):
    missing = [
        m["name"] for m in wanted
        if not isinstance(result["metrics"].get(m["name"], {}).get("value"), (int, float))
        or result["metrics"][m["name"]]["unit"] != m["unit"]
    ]
    expect(not missing, f"{what} emits all {len(wanted)} metrics with their units"
           + (f"; missing or mis-unit: {missing}" if missing else ""))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = run("--workload", name, "--seed", "0",
                               "--seconds", "1", "--trace", str(trace))
            what = f"{name} trace={trace}"
            expect(code == 0 and result and result["correct"] and not result["failed"]
                   and result["attempted"] >= 1, f"{what} runs clean")
            check_metrics(result, wanted, what)

    sys.path.insert(0, str(HERE))
    import run as bench_run

    pins = json.loads(bench_run.DIGESTS.read_text())
    name = bench["workloads"][0]["name"]
    first = pins["workloads"][name][0]
    pins["workloads"][name][0] = ("0" if first[0] != "0" else "1") + first[1:]
    bench_run.WORK.mkdir(parents=True, exist_ok=True)
    wrong = bench_run.WORK / "selftest-wrong-digests.json"
    wrong.write_text(json.dumps(pins))
    pinned, bench_run.DIGESTS = bench_run.DIGESTS, wrong
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = bench_run.main(["--workload", name, "--seed", "0", "--seconds", "1"])
    finally:
        bench_run.DIGESTS = pinned
        wrong.unlink()
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code == 1 and not result["correct"] and result["failed"] >= 1,
           "a wrong pinned digest is counted as a failure")

    kcert = bench_run.load_kcert()
    spec = bench_run.WORK / "selftest-spec.json"
    report = bench_run.WORK / "selftest-report.json"
    spec.write_text(json.dumps({"algebra": {"kind": "trivial"}}))
    try:
        for samples in ("0", "-5"):
            with contextlib.redirect_stderr(io.StringIO()):
                code = kcert.cli.main(["verify", "--spec", str(spec), "--samples", samples,
                                       "--format", "json", "--report", str(report)])
            reason = bench_run.check_report(report.read_bytes()) if code == 0 else "exit"
            expect(reason is not None, f"--samples {samples} does not count as a pass")
    finally:
        for path in (spec, report):
            with contextlib.suppress(FileNotFoundError):
                path.unlink()

    from kcert.algebras import LocalizedAlgebra
    from kcert.matrices import FilteredMatrix, MatrixError
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        FilteredMatrix.identity(LocalizedAlgebra.trivial(), 2) @ 1
        raised = None
    except Exception as exc:  # noqa: BLE001 - the type is what is tested
        raised = type(exc)
    finally:
        tracer.uninstall()
    expect(raised is MatrixError, "a traced matmul on a non-matrix raises MatrixError")
    return 0


if __name__ == "__main__":
    sys.exit(main())

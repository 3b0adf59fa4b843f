"""Outside-in benchmark of dstab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload through `dstab.cli.main`, the entry point users run: one
client in a closed loop, each operation started when the previous one has
finished, in a fork of this process taken after `dstab` is imported, with
BLAS pinned to one thread. Operations run until S seconds have passed, and
always at least one. Every answer is checked against a reference that does
not use the moment machinery.

Lines before the last are JSON records: the environment (BLAS threads,
nproc, Python, numpy, scipy and BLAS library), then one record per
operation with its time, inputs, values, statuses and iterations. The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs each input
untraced and traced, and reports the per-layer metrics and the tracing
overhead. README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from tracing import LAYER_UNITS, Span, Tracer, layer_metrics, op_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 12
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    src = ROOT / "src"
    if not (src / "dstab" / "cli.py").is_file():
        raise BenchError(f"no dstab sources under {src}")
    sys.path.insert(0, str(src))
    import dstab.cli

    if Path(dstab.cli.__file__).resolve().parent != (src / "dstab").resolve():
        raise BenchError(f"imported dstab from {dstab.cli.__file__}, not from {src}")
    return dstab.cli


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        library = "unknown"
    return {
        "record": "environment",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": library,
    }


def setup_seconds(load: tuple[str, dict[str, str]], probes: int) -> list[float]:
    """Seconds from a fresh interpreter's start until dstab is imported and
    the workload's first problem is loaded, once per probe."""
    problem, bindings = load
    argv = [sys.executable, str(HERE / "setup_probe.py"), problem, json.dumps(bindings)]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = time.perf_counter() - start
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if not ready or proc.returncode != 0:
            raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def run_call(main, argv: list[str]) -> tuple[str, int]:
    """One CLI invocation; an exception is a failed call, not a crash."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop must go on; the check records the failure
            traceback.print_exc(file=sys.stderr)
            code = -1
    return out.getvalue(), code


def in_fork(job) -> tuple[dict | None, float]:
    """Run `job` in a fork of this process and return its JSON result (None
    if the child failed) and the child's peak resident memory in MB.

    The fork has dstab imported but none of the caches an earlier operation
    filled, which is the state a fresh `dstab` command reaches once it has
    paid the start-up that setup_s measures."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(job(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        payload = pipe.read()
    _pid, status, usage = os.wait4(pid, 0)
    result = json.loads(payload) if os.waitstatus_to_exitcode(status) == 0 else None
    return result, usage.ru_maxrss / 1024


def run_operation(cli, operation, traced: bool) -> dict:
    """Time the calls of one operation in a fresh fork, then check them."""
    def job():
        main = cli.main
        if traced:
            tracer = Tracer()
            tracer.install()
            main = tracer.wrap(cli.main, "cli.main")
        start = time.perf_counter()
        outputs = [run_call(main, call.argv) for call in operation.calls]
        seconds = time.perf_counter() - start
        spans = [asdict(span) for span in tracer.spans] if traced else []
        return {"seconds": seconds, "outputs": outputs, "spans": spans}

    start = time.perf_counter()
    result, rss_mb = in_fork(job)
    if result is None:
        result = {"seconds": time.perf_counter() - start, "spans": [],
                  "outputs": [("", -1)] * len(operation.calls)}
    checks = []
    for call, (text, code) in zip(operation.calls, result["outputs"]):
        checks.extend(call.check(text, code))
        if call.output is not None:
            call.output.unlink(missing_ok=True)
    return {"seconds": result["seconds"], "rss_mb": rss_mb, "checks": checks,
            "spans": [Span(**span) for span in result["spans"]]}


def record(op: int, operation, run: dict, traced: bool) -> None:
    line = {"record": "operation", "op": op, "traced": traced,
            "seconds": run["seconds"], "peak_rss_mb": run["rss_mb"],
            "inputs": operation.inputs, "checks": [asdict(c) for c in run["checks"]]}
    if traced:  # iterations of every solve, also where the command prints none
        line["sdp_iterations"] = [s.counts["iterations"] for s in run["spans"]
                                  if s.name == "sdp.solve"]
    print(json.dumps(line))


def operations_for(seconds: float, first, rest):
    """The first operation, then more until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    yield first
    while time.perf_counter() < deadline:
        yield next(rest)


def run_plain(cli, first, rest, seconds: float):
    # Half the set-up probes run before the first operation, one before each
    # later operation and the rest after the last, so that their median
    # spans the run rather than one moment of a drifting host.
    setup, runs = [], []
    for op, operation in enumerate(operations_for(seconds, first, rest)):
        setup += setup_seconds(first.load, 1 if op else SETUP_PROBES // 2)
        runs.append(run_operation(cli, operation, traced=False))
        record(op, operation, runs[-1], traced=False)
    setup += setup_seconds(first.load, max(SETUP_PROBES - len(setup), 1))
    times = [run["seconds"] for run in runs]
    checks = [check for run in runs for check in run["checks"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(times),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
        "check_pass_rate": sum(c.passed for c in checks) / len(checks),
    }
    print(json.dumps({"record": "summary", "operations": len(runs), "setup_samples": setup}))
    return metrics, END_TO_END_UNITS, checks


def run_traced(cli, first, rest, seconds: float, spans_path: Path):
    """Each input runs untraced, then traced, each in its own fork."""
    plain, traced = [], []
    for op, operation in enumerate(operations_for(seconds, first, rest)):
        plain.append(run_operation(cli, operation, traced=False))
        record(op, operation, plain[-1], traced=False)
        traced.append(run_operation(cli, operation, traced=True))
        record(op, operation, traced[-1], traced=True)
    with open(spans_path, "w") as handle:
        for op, run in enumerate(traced):
            for span in run["spans"]:
                handle.write(json.dumps({"op": op, **asdict(span)}) + "\n")
    metrics = layer_metrics(
        [op_metrics(run["spans"]) for run in traced],
        sum(c.below_exact for c in traced[0]["checks"]),
        [run["seconds"] for run in plain], [run["seconds"] for run in traced])
    print(json.dumps({"record": "summary", "operations": len(traced),
                      "spans_file": str(spans_path)}))
    checks = [check for run in plain + traced for check in run["checks"]]
    return metrics, LAYER_UNITS, checks


def main(argv=None) -> int:
    pin_blas_threads()
    from workloads import WORKLOADS  # imports numpy, so only once BLAS is pinned

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(environment()))

    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work:
        rest = WORKLOADS[args.workload](ROOT, Path(work), args.seed)
        first = next(rest)
        try:
            if args.trace:
                spans = work_root / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics, units, checks = run_traced(cli, first, rest, args.seconds, spans)
            else:
                metrics, units, checks = run_plain(cli, first, rest, args.seconds)
        except BenchError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 2
    failed = sum(not c.ok for c in checks)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

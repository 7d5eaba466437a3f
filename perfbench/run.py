"""Closed-loop benchmark of the quiverhh command line.

    python3 perfbench/run.py --workload exactness-n5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1

Run from the root of a source checkout: the program is imported from
`src/`.  One client runs one operation at a time.  An operation is one call
of `quiverhh.cli.main` with the workload's arguments, made in a process
forked from this one, which has only imported `quiverhh.cli`; so every
operation starts from the state of a fresh CLI process and no cache
carries over between operations.  Operations start until `--seconds` have
passed, and each one's output is checked after its timed call.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics: the median time of an operation (`verdict_s`),
the median peak resident memory of the process that ran it
(`peak_rss_mb`), and the median time of a cold start that imports the
package and builds the workload's `Pipeline` (`setup_s`).  With
`--trace 1` every other operation runs with the layer wrappers of
`tracing.py`, the object holds the per-layer metrics, and the spans go to
`perfbench/out/`.

The workloads are fixed CLI invocations.  The seed draws the order of the
command-line options of each operation; the output must not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 15  # timed cold starts per run; one more, untimed, warms the file cache
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import quiverhh.cli; "
    "from quiverhh.pipeline import Pipeline, RunConfig; "
    "Pipeline(RunConfig(n=int(sys.argv[2]), field=sys.argv[3], max_degree=int(sys.argv[4])))"
)


def in_child(fn):
    """Run fn() in a forked process; return its JSON-able result or an error.

    The result travels through a pipe, which is drained before the child
    is reaped.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            data = json.dumps(fn()).encode()
        except BaseException:  # report anything, then leave without cleanup
            data = json.dumps({"error": traceback.format_exc()}).encode()
            code = 1
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as fh:
            data = fh.read()
    except BaseException:  # interrupted: end the operation before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"operation process ended with status {status} and no result"}
    return json.loads(data)


def operation(w, argv, op_id, traced):
    """The body of one operation process."""
    import quiverhh.cli as cli
    from workloads import check_output

    call = cli.main
    if traced:
        import tracing

        tracer = tracing.Tracer(op_id)
        tracing.install(tracer)
        call = tracer.wrap(tracing.ROOT, cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        rc = call(argv)
        t1 = perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if rc != 0:
        return {"error": f"exit status {rc}"}
    result = {
        "verdict_s": t1 - t0,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "argv": argv,
    }
    try:
        check_output(w, buf.getvalue())
    except Exception as exc:  # a malformed output is a wrong output
        result["wrong"] = f"{type(exc).__name__}: {exc}"
    if traced:
        result["layers"] = tracer.layer_metrics()
        result["self_s"] = tracing.self_times(tracer.spans)
        result["spans"] = tracer.spans
    return result


def _python(*args):
    """Run the interpreter with bytecode writing allowed; see compile_package."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, *args], check=True, stdin=subprocess.DEVNULL, env=env)


def compile_package():
    """Write the bytecode of the package and of this benchmark first.

    Every later start then reads it, as an installed CLI does.  Without
    this, each start compiles every module when the environment forbids
    writing bytecode, the first run of a fresh checkout differs from the
    rest, and the forked operations inherit more or less memory.
    """
    code = "import sys; sys.path[:0] = sys.argv[1:]; import quiverhh.cli, workloads, tracing"
    _python("-c", code, str(SRC), str(HERE))


def measure_setup(w):
    """Median wall time of cold starts that import and build the Pipeline."""
    args = ("-c", SETUP_CODE, str(SRC), str(w.n), w.field, str(w.max_degree))
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        _python(*args)
        t1 = perf_counter()
        if i:
            times.append(t1 - t0)
    return statistics.median(times), times


def run_workload(w, seed, seconds, traced):
    from workloads import check_run

    rng = random.Random(seed)
    setup_s, setup_samples = (None, []) if traced else measure_setup(w)
    ops = []
    least = 2 if traced else 1  # a traced run needs a plain operation too
    start = perf_counter()
    while len(ops) < least or perf_counter() - start < seconds:
        # in a traced run every other operation is untraced, for the overhead
        trace_this = traced and len(ops) % 2 == 0
        argv = w.argv(rng)
        op_id = len(ops)
        ops.append(in_child(lambda: operation(w, argv, op_id, trace_this)) | {"traced": trace_this})
    run_check = in_child(lambda: check_run(w) or {})

    done = [op for op in ops if "error" not in op]
    wrong = [op["wrong"] for op in done if "wrong" in op]
    if "error" in run_check:
        wrong.append(run_check["error"])
    result = {
        "correct": not wrong and bool(done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {},
    }
    plain = [op for op in done if not op["traced"]]
    if not traced:
        result["metrics"] = {
            "verdict_s": _metric([op["verdict_s"] for op in plain], "s"),
            "peak_rss_mb": _metric([op["peak_rss_mb"] for op in plain], "MB"),
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        from tracing import LAYER_METRICS

        traced_ops = [op for op in done if op["traced"]]
        for name in LAYER_METRICS:
            unit = "s" if name.endswith(".s") else ("bytes" if name.endswith(".bytes") else "count")
            result["metrics"][name] = _metric([op["layers"][name] for op in traced_ops], unit)
    _write_record(w, seed, traced, ops, setup_samples, result, wrong)
    return result


def _metric(values, unit):
    return {"value": statistics.median(values) if values else 0.0, "unit": unit}


def _write_record(w, seed, traced, ops, setup_samples, result, wrong):
    """Keep every sample of the run, and in a traced run every span."""
    OUT.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": seed, "result": result, "wrong": wrong,
              "setup_samples_s": setup_samples, "ops": ops}
    if traced:
        plain = [op["verdict_s"] for op in ops if "error" not in op and not op["traced"]]
        root = [op["layers"]["cli.op.s"] for op in ops if "error" not in op and op["traced"]]
        if plain and root:
            record["tracing_overhead"] = statistics.median(root) / statistics.median(plain) - 1
    kind = "trace" if traced else "run"
    path = OUT / f"{kind}-{w.name}-seed{seed}.json"
    path.write_text(json.dumps(record) + "\n")


def _summary(name, result):
    m = result["metrics"]
    parts = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    head = f"{name}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}"
    return head + ("\n  " + "\n  ".join(parts) if parts else "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that in_child and subprocess.run end their children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "quiverhh" / "__init__.py").is_file():
        print(f"no quiverhh sources under {SRC}", file=sys.stderr)
        return 2
    compile_package()
    sys.path.insert(0, str(SRC))
    import quiverhh.cli  # noqa: F401  (the state every operation forks from)

    if Path(quiverhh.cli.__file__).resolve().parent != SRC / "quiverhh":
        print(f"imported quiverhh from {quiverhh.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all")
    ok = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(_summary(name, result), file=sys.stderr)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

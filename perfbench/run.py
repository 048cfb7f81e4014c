"""so3tqft benchmark: cold command-line runs, checked by independent oracles.

    python3 perfbench/run.py --workload {closure,chartab,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every op launches one fresh
``python -m so3tqft.cli`` process from ``src/`` (so every cache starts
empty, as it does for a user), one at a time: a closed loop with one
client.  A pass runs each of the workload's ops once, in an order drawn
from the seed; passes repeat while the next one is expected to end within
S seconds (the first always runs).

``--trace 0`` prints the end-to-end metrics: median pass wall time and
child CPU time, median start-up time of ``--version``, peak child RSS and
the share of ops that passed.  ``--trace 1`` alternates an untraced pass
with a pass in which each op runs under ``traced_cli.py`` and prints the
per-layer metrics taken from the spans.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; earlier lines record the machine and each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 7  # --version launches per run; setup_s is their median
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0  # no op is started or left running past this point


def workload_ops(name: str, seed: int) -> list:
    """The ops of one pass, each an argv for ``python -m so3tqft.cli``."""
    if name == "closure":
        return [
            ["image", "--r", "7", "--json"],
            ["image", "--r", "7", "--generators", "weil", "--json"],
            ["image", "--r", "11", "--json"],
        ]
    if name == "chartab":
        return [
            ["chartab", "--r", str(r), "--check-ltwo", "--check-borel", "--json"]
            for r in (7, 11)
        ]
    if name == "verify":
        return [["verify-all", "--r", "19", "--seed", str(seed), "--json"]] + [
            ["dims", "--r", "13", "--genus", str(g), "--verlinde-check", "--json"]
            for g in range(1, 13)
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("closure", "chartab", "verify")

# Per-layer metrics: span name -> statistics reported, summed over the ops
# of one traced pass.  calls: spans; self_s: time minus child spans;
# total_s: inclusive time of the outermost spans of the name.
LAYER_SPANS = {
    "cli.main": ("total_s",),
    "cyclo.get_field": ("calls", "total_s"),
    "cyclo.new": ("calls", "self_s"),
    "cyclo.add": ("calls", "self_s"),
    "cyclo.mul": ("calls", "self_s"),
    "cyclo.inv": ("calls", "self_s"),
    "cyclo.conj": ("calls", "self_s"),
    "cycmatrix.matmul": ("calls", "self_s"),
    "cycmatrix.scalar_mul": ("calls", "self_s"),
    "cycmatrix.conj_transpose": ("calls", "self_s"),
    "modular_data.build_modular_data": ("total_s",),
    "weil.build_weil": ("total_s",),
    "weil.verify_odd_block_identification": ("total_s",),
    "fusion_dims.dim_space": ("calls", "total_s"),
    "fusion_dims.verlinde_dim": ("calls", "total_s"),
    "finite_image.closure": ("total_s",),
    "finite_image.canonicalize": ("calls", "self_s"),
    "finite_image.mod_r_graph_report": ("total_s",),
    "finite_image.linear_lift_report": ("total_s",),
    "finite_image.identify_group": ("total_s",),
    "sl2_char.group": ("total_s",),
    "sl2_char.class_mult_tensor": ("total_s",),
    "sl2_char.dixon_char_table": ("self_s",),
    "sl2_char.tensor_decompose": ("calls", "self_s", "total_s"),
    "sl2_char.borel_check": ("total_s",),
    "sl2_char.regular_congruence_check": ("total_s",),
    "mfld3.tau": ("calls", "total_s"),
    "mfld3.heegaard_tau": ("calls", "total_s"),
}
STAT_INDEX = {"calls": 0, "self_s": 1, "total_s": 2}
MATRIX_PRODUCTS = ("cycmatrix.matmul", "cycmatrix.scalar_mul")


def layer_units() -> dict:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {"cli.import_s": "s", "cli.stdout_bytes": "bytes"}
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            units[f"{name}.{field}"] = "count" if field == "calls" else "s"
    units.update(
        {
            "cyclo.max_coeff_bits": "bits",
            "cycmatrix.fallback_ratio": "ratio",
            "finite_image.closure.elements": "count",
            "finite_image.closure.s_per_element": "s/element",
            "sl2_char.dixon_prime": "int",
            "trace.overhead_ratio": "ratio",
        }
    )
    return units


END_TO_END_UNITS = {
    "pass_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


# ---------------------------------------------------------------------------
# one op


class OpResult:
    __slots__ = (
        "argv", "code", "out", "err", "wall_s", "cpu_s", "rss_mb", "timed_out", "problems",
    )


def run_process(cmd, timeout: float) -> OpResult:
    """Run cmd from the checkout root; wall time, rusage of the child, output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    res = OpResult()
    res.timed_out = False
    buf = {}
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )

    def expire():
        res.timed_out = True
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), expire)
    readers = [
        threading.Thread(target=lambda k=k, f=f: buf.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    try:
        timer.start()
        for t in readers:
            t.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    res.wall_s = perf_counter() - start
    proc.returncode = res.code = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    res.out, res.err = buf["out"], buf["err"]
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024.0  # kB on Linux
    return res


def run_op(argv, timeout: float, trace_file=None, op_id=0) -> OpResult:
    if trace_file is None:
        cmd = [sys.executable, "-m", "so3tqft.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), str(op_id), "--", *argv]
    res = run_process(cmd, timeout)
    res.argv = argv
    if res.timed_out:
        res.problems = [f"timed out after {timeout:.0f} s"]
    else:
        res.problems = oracles.check(argv, res.code, res.out)
    return res


# ---------------------------------------------------------------------------
# passes


class Budget:
    """Wall-clock limits of one run."""

    def __init__(self, seconds: float):
        self.start = perf_counter()
        self.seconds = seconds

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def op_timeout(self) -> float:
        return min(OP_TIMEOUT_S, RUN_LIMIT_S - self.elapsed())

    def room_for(self, duration: float) -> bool:
        return self.elapsed() + duration <= self.seconds


def run_pass(ops, budget: Budget, trace_dir=None) -> dict:
    results, traces = [], []
    for op_id, argv in enumerate(ops):
        timeout = budget.op_timeout()
        if timeout <= 0:
            raise TimeoutError("run limit reached before the pass ended")
        trace_file = None if trace_dir is None else trace_dir / f"op{op_id}.jsonl"
        res = run_op(argv, timeout, trace_file, op_id)
        results.append(res)
        if trace_file is not None:
            traces.append((res, trace_file))
        if res.problems:
            print(f"op failed: {' '.join(argv)}: {'; '.join(res.problems)}", file=sys.stderr)
        if res.timed_out:
            break
    return {
        # the program's time only: oracle checks between ops are not counted
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "results": results,
        "traces": traces,
    }


def pass_record(kind: str, p: dict) -> dict:
    return {
        "pass": kind,
        "wall_s": p["wall_s"],
        "cpu_s": p["cpu_s"],
        "peak_rss_mb": p["peak_rss_mb"],
        "ops": [
            {
                "argv": r.argv,
                "exit": r.code,
                "wall_s": round(r.wall_s, 4),
                "ok": not r.problems,
            }
            for r in p["results"]
        ],
    }


def layer_metrics(traces) -> dict:
    """Per-layer metrics of one traced pass from its ops' span files."""
    stats = {}
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    import_s = 0.0
    stdout_bytes = 0
    fallback = 0
    for res, path in traces:
        if not path.exists():  # the traced command crashed; the op is failed
            continue
        header, spans = tracer.read_trace(path)
        path.unlink()
        import_s += header["import_s"]
        stdout_bytes += len(res.out)
        c = header["counters"]
        for key in ("cyclo.max_coeff_bits", "sl2_char.dixon_prime"):
            counters[key] = max(counters[key], c[key])
        counters["finite_image.closure.elements"] += c["finite_image.closure.elements"]
        for name, (calls, self_s, total_s) in tracer.summarize(spans).items():
            row = stats.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += self_s
            row[2] += total_s
        fallback += tracer.count_containing(spans, MATRIX_PRODUCTS, "cyclo.mul")

    def get(name):
        return stats.get(name, (0, 0.0, 0.0))

    m = {"cli.import_s": import_s, "cli.stdout_bytes": stdout_bytes}
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            m[f"{name}.{field}"] = get(name)[STAT_INDEX[field]]
    products = sum(get(name)[0] for name in MATRIX_PRODUCTS)
    elements = counters["finite_image.closure.elements"]
    m["cyclo.max_coeff_bits"] = counters["cyclo.max_coeff_bits"]
    m["cycmatrix.fallback_ratio"] = fallback / products if products else 0.0
    m["finite_image.closure.elements"] = elements
    m["finite_image.closure.s_per_element"] = (
        get("finite_image.closure")[2] / elements if elements else 0.0
    )
    m["sl2_char.dixon_prime"] = counters["sl2_char.dixon_prime"]
    return m


# ---------------------------------------------------------------------------
# runs


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def measure_setup(budget: Budget) -> list:
    """Wall times of fresh ``--version`` launches (start-up plus imports)."""
    times = []
    for _ in range(SETUP_REPEATS):
        res = run_process([sys.executable, "-m", "so3tqft.cli", "--version"], budget.op_timeout())
        if res.code != 0 or not res.out.strip():
            raise RuntimeError(
                f"so3tqft --version failed (exit {res.code}): "
                + res.err.decode(errors="replace")[-500:]
            )
        times.append(res.wall_s)
    return times


def untraced_run(ops, budget: Budget, log):
    setup = measure_setup(budget)
    passes = []
    while True:
        p = run_pass(ops, budget)
        passes.append(p)
        log(pass_record("untraced", p))
        if not budget.room_for(p["wall_s"]):
            break
    results = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in results if r.problems)
    metrics = {
        "pass_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (len(results) - failed) / len(results),
    }
    return results, metrics, END_TO_END_UNITS


def traced_run(ops, budget: Budget, log):
    plain, traced, layers = [], [], []
    TRACE_DIR.mkdir(exist_ok=True)
    try:
        while True:
            start = perf_counter()
            plain.append(run_pass(ops, budget))
            log(pass_record("untraced", plain[-1]))
            traced.append(run_pass(ops, budget, TRACE_DIR))
            log(pass_record("traced", traced[-1]))
            layers.append(layer_metrics(traced[-1]["traces"]))
            if not budget.room_for(perf_counter() - start):
                break
    finally:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
    units = layer_units()
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in plain)
    results = [r for p in plain + traced for r in p["results"]]
    return results, metrics, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "so3tqft" / "cli.py").is_file():
        print(f"error: {SRC / 'so3tqft'} not found; run from a so3tqft checkout", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    base = workload_ops(args.workload, args.seed)
    ops = rng.sample(base, len(base))

    def log(record):
        print(json.dumps(record, sort_keys=True), flush=True)

    info = machine_info()
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    info["loadavg_before"] = os.getloadavg()
    budget = Budget(args.seconds)
    try:
        run = traced_run if args.trace else untraced_run
        results, metrics, units = run(ops, budget, log)
    except (RuntimeError, TimeoutError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    info["loadavg_after"] = os.getloadavg()
    info["run_s"] = budget.elapsed()
    log({"machine": info})

    failed = [r for r in results if r.problems]
    result = {
        # a wrong answer is an op that exits 0 and fails its oracle; an op
        # that exits non-zero or times out is failed, not wrong
        "correct": not any(r.code == 0 and r.problems for r in results),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

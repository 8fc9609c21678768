"""polarhull benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload fiber-table --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` tree.  One process, one caller, BLAS/OpenMP threads pinned to 1, the
process and its children pinned to one CPU.  Each pass issues every operation
of the workload only after the previous one returned, checks each result
against its oracle, then runs the workload's CLI commands.  Passes repeat
until --seconds is used up (at least the workload's minimum number of
passes).  Within a pass, an op that returns in less than MIN_OP_S of CPU
time is called again until it has used that much, so short ops are timed
over many calls.

Times are CPU time at reference speed.  CPU time is that of this process
and its reaped children for library ops and CLI commands, and that of the
fresh interpreter for set-up.  Every op runs on one thread, so CPU time
equals wall time except for time the host takes the virtual CPU away
(steal) or other processes hold it.  On a shared host the speed of a virtual
CPU also changes, by up to 1.5x, within seconds and in phases lasting
minutes: on a 2-vCPU KVM guest of an Intel Xeon with AVX-512, the fastest of
five runs of the reference kernel below took 0.62-0.67 ms in fast phases
and 1.0 ms in slow ones.  So this kernel, which runs no polarhull code, is
timed right before and right after each op, CLI command and set-up, on the
same pinned CPU, and their CPU time is multiplied by REF_S / (the kernel's
fastest time there): the time they would take on a core that runs the
kernel in REF_S.  The kernel is interpreter arithmetic, and numpy-bound
work slows down somewhat differently; still, over several ten-run sets of
each workload on that machine, the worst spread of a scaled time was about
that of raw CPU time or less (on fiber-table, half).  Raw CPU and
wall-clock times are printed beside the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate run with
spans around each package layer and prints the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics, each metric with its value and unit.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "polarhull" / "__init__.py").is_file():
    sys.exit(f"bench: no polarhull package under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402  (after the thread pins and the path)
import workloads  # noqa: E402

SETUP_PROBES = 11
CLI_TIMEOUT_S = 150
MIN_OP_S = 0.05
REF_S = 0.65e-3  # the reference kernel's CPU time in a fast phase of the machine above
REF_REPS = 5

# A fresh interpreter that builds one workload and, when its first op is
# ready, prints its own CPU time since the process started.
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build(sys.argv[3], int(sys.argv[4])); print('ready', time.process_time(), flush=True)")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import polarhull.cli; print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
    "cli_s": "s", "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cpu_s() -> float:
    """CPU seconds used so far by this process (all threads) and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _reference_kernel() -> float:
    """Interpreter arithmetic of the kind the Wiener and cover loops do; about REF_S in a fast phase."""
    s, z = 0.0, 0.3 + 0.1j
    for i in range(7000):
        s += abs(z * i)
    return s


def reference_s() -> float:
    """Fastest CPU time of REF_REPS runs of the reference kernel: how fast the CPU runs now."""
    best = math.inf
    for _ in range(REF_REPS):
        t0 = time.process_time()
        _reference_kernel()
        best = min(best, time.process_time() - t0)
    return best


def timing(cpu: float, wall: float, ref_before: float) -> tuple[float, float, float]:
    """(CPU time at reference speed, CPU time, wall time) of work that followed `ref_before`."""
    return cpu * REF_S / min(ref_before, reference_s()), cpu, wall


def best_of(passes, i: int = 0) -> list:
    """Each op's (or command's) fastest time over the passes.

    `passes` holds one (reference-speed, CPU, wall) triple per op per pass;
    `i` picks the kind of time.

    On a machine shared with other work, interference comes in bursts that
    slow whole passes by up to 2x; the fastest repetition is the estimate of
    an operation's cost that such bursts move least.
    """
    return [min(t[i] for t in col) for col in zip(*passes)]


def latency_stats(passes, min_passes: int) -> tuple[float, float, float]:
    """(p50, tail percentile, tail) over the ops' best latencies.

    A pass repeats the same few distinct operations, so the latency
    distribution is a mixture of one narrow peak per operation.  The tail
    percentile is the highest one with at least 10 samples beyond it in the
    shortest run the workload makes.  It is fixed per workload, because a
    percentile that moved with the number of passes would jump from one
    operation to another between otherwise identical runs.
    """
    per_op = sorted(best_of(passes))
    n_min = len(per_op) * min_passes
    if n_min < 11:
        raise ValueError("a workload needs at least 11 op samples in its minimum passes")
    p = 1.0 - 10.0 / n_min
    return statistics.median(per_op), p, per_op[math.ceil(p * len(per_op) - 1e-9) - 1]


class Tally:
    """Attempted and failed ops and CLI commands, and the checksum of their keys."""

    def __init__(self, known_failures):
        self.known = known_failures
        self.attempted = 0
        self.failed = {}      # name -> (count, first problem)
        self.keys = {}        # name -> key of its first call

    def record(self, name, problems, key):
        self.attempted += 1
        if problems:
            count, first = self.failed.get(name, (0, problems[0]))
            self.failed[name] = (count + 1, first)
        self.keys.setdefault(name, key)

    @property
    def n_failed(self) -> int:
        return sum(count for count, _ in self.failed.values())

    @property
    def correct(self) -> bool:
        return all(name in self.known for name in self.failed)

    def checksum(self) -> str:
        canon = json.dumps(list(self.keys.items()), sort_keys=True, default=str)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def run_ops(wl, lib, tally, min_op_s=0.0) -> tuple[dict, list]:
    """One pass of the ops: results, and each op's best timing (see `timing`) in the pass.

    An op is called again while its calls in this pass have used less than
    `min_op_s` of CPU time and none has failed.
    """
    results, times = {}, []
    for op in wl.ops:
        best_cpu = best_wall = math.inf
        spent = 0.0
        ref = reference_s()
        while True:
            c0, w0 = cpu_s(), time.perf_counter()
            try:
                out = op.call(lib, results)
            except Exception as e:  # a raising op counts as failed; the pass goes on
                c, w = cpu_s() - c0, time.perf_counter() - w0
                problems, key = [f"raised {type(e).__name__}: {e}"], ["raised", type(e).__name__]
            else:
                c, w = cpu_s() - c0, time.perf_counter() - w0
                results[op.name] = out
                problems, key = op.check(out, op.expect)
            tally.record(op.name, problems, key)
            best_cpu, best_wall, spent = min(best_cpu, c), min(best_wall, w), spent + c
            if problems or spent >= min_op_s:
                break
        times.append(timing(best_cpu, best_wall, ref))
    return results, times


def run_cli(wl, cmd, results, tally, in_process=None) -> tuple[float, float, float]:
    """Run one CLI command, check it, return its timing (see `timing`).

    By default the command runs as a subprocess, timed from spawn to exit.
    `in_process(argv)` instead calls the CLI in this process and returns its
    exit code.
    """
    out_dir = OUT / wl.name / cmd.name
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = list(cmd.args) + ["--out", str(out_dir)]
    ref = reference_s()
    c0, t0 = cpu_s(), time.perf_counter()
    try:
        if in_process is None:
            proc = subprocess.run([sys.executable, "-m", "polarhull.cli", *argv], env=_child_env(),
                                  cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr.strip()[-300:]
        else:
            code, err = in_process(argv), ""
    except subprocess.TimeoutExpired:
        code, err = None, f"timed out after {CLI_TIMEOUT_S}s"
    elapsed = timing(cpu_s() - c0, time.perf_counter() - t0, ref)
    name = f"cli:{cmd.name}"
    if code != 0:
        tally.record(name, [f"exit code {code}: {err}"], ["exit", code])
        return elapsed
    try:
        problems, key = cmd.check(out_dir, results)
    except (OSError, ValueError, KeyError, IndexError) as e:
        problems, key = [f"artifact check raised {type(e).__name__}: {e}"], ["raised"]
    tally.record(name, problems, key)
    return elapsed


def measure_setup(name: str, seed: int) -> list:
    """Timings (see `timing`) of SETUP_PROBES fresh interpreters, from start until the first op is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        ref = reference_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), str(BENCH), name, str(seed)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline().split()
        wall = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
            sys.exit(f"bench: set-up of {name} failed: {err.strip()[-500:]}")
        times.append(timing(float(line[1]), wall, ref))
    return times


def end_to_end(wl, seed: int, seconds: float):
    """The untraced run: passes of library ops and CLI subprocesses."""
    lib = workloads.plain_lib()
    setup = measure_setup(wl.name, seed)
    tally = Tally(workloads.KNOWN_FAILURES)
    passes, cli_passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results, times = run_ops(wl, lib, tally, MIN_OP_S)
        cli_passes.append([run_cli(wl, cmd, results, tally) for cmd in wl.cli])
        passes.append(times)
        now = time.perf_counter()
        if len(passes) >= wl.min_passes and now - start + (now - t0) > seconds:
            break
    p50, p, tail = latency_stats(passes, wl.min_passes)
    n = sum(map(len, passes))
    beyond = sum(t[0] > tail for times in passes for t in times)
    per_op = f"{len(wl.ops)} ops, each at its best of {len(passes)} passes"
    cli_names = ", ".join(c.name for c in wl.cli) or "no commands"
    metrics = {
        "setup_s": (statistics.median(t[0] for t in setup), f"median of {len(setup)} set-ups in fresh interpreters"),
        "ops_per_s": (len(wl.ops) / sum(best_of(passes)), f"one pass of {per_op}"),
        "op_p50_s": (p50, per_op),
        "op_tail_s": (tail, f"p{100 * p:.1f}; {beyond} of {n} samples beyond it"),
        "cli_s": (sum(best_of(cli_passes)), f"{cli_names}, each at its best of {len(cli_passes)} passes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "this process, CLI children excluded"),
    }
    print(f"loop closed, 1 caller, {len(passes)} passes in {time.perf_counter() - start:.1f}s")
    for j, kind in enumerate(("CPU time at reference speed", "raw CPU time", "wall-clock time")):
        print(f"{kind}: setup {statistics.median(t[j] for t in setup):.4g}s, "
              f"ops/s {len(wl.ops) / sum(best_of(passes, j)):.4g}, "
              f"op p50 {statistics.median(best_of(passes, j)):.4g}s, cli {sum(best_of(cli_passes, j)):.4g}s")
    return metrics, END_TO_END_UNITS, tally


# -------------------------------------------------------------------- traced

def _per_layer_table():
    """(metric, unit, value from one traced pass record)."""
    def self_s(span):
        return lambda r: r["spans"].get(span, (0, 0.0, 0.0))[2]

    def count(key):
        return lambda r: r["counts"][key]

    def ratio(num, den):
        return lambda r: num(r) / den(r) if den(r) else 0.0

    builds = lambda r: r["spans"].get("ratapprox.build_approximant", (0, 0.0, 0.0))[0]
    return [
        ("potential.wiener_test.self_s", "s", self_s("potential.wiener_test")),
        ("potential.wiener_pairs", "count", count("wiener_pairs")),
        ("potential.sublevel_cover.self_s", "s", self_s("potential.sublevel_cover")),
        ("potential.cover_disks", "count", count("cover_disks")),
        ("potential.wos.self_s", "s", self_s("potential.wos")),
        ("potential.wos_walk_surfaces", "count", count("wos_walk_surfaces")),
        ("potential.grid.self_s", "s", self_s("potential.grid")),
        ("potential.grid_free_nodes", "count", count("grid_free_nodes")),
        ("hull.classify_fiber.self_s", "s", self_s("hull.classify_fiber")),
        ("hull.conclusive_ratio", "ratio", ratio(count("conclusive"), count("classified"))),
        ("hull.depth_capped_levels", "count", count("depth_capped_levels")),
        ("pshbuild.certify_schedule.self_s", "s", self_s("pshbuild.certify_schedule")),
        ("pshbuild.grid_nodes", "count", count("grid_nodes")),
        ("pshbuild.levels_certified", "count", count("levels_certified")),
        ("pshbuild.levels_per_build", "ratio",
         ratio(count("levels_certified"), lambda r: r["builds_in_certify"])),
        ("pshbuild.export_field.self_s", "s", self_s("pshbuild.export_field")),
        ("pshbuild.export_rows", "count", count("export_rows")),
        ("ratapprox.build_approximant.self_s", "s", self_s("ratapprox.build_approximant")),
        ("ratapprox.build_approximant.calls", "count", builds),
        ("ratapprox.degree_sum", "count", count("degree_sum")),
        ("ratapprox.convergence_scan.self_s", "s", self_s("ratapprox.convergence_scan")),
        ("fekete.leja_points.self_s", "s", self_s("fekete.leja_points")),
        ("fekete.distance_updates", "count", count("distance_updates")),
        ("laurent.laurent_split.self_s", "s", self_s("laurent.laurent_split")),
        ("laurent.mittag_leffler.self_s", "s", self_s("laurent.mittag_leffler")),
        ("models.construct_s", "s", lambda r: r["spans"].get("models.construct", (0, 0.0, 0.0))[1]),
        ("cli.self_s", "s", self_s("cli.main")),
        ("cli.artifact_bytes", "bytes", lambda r: r["artifact_bytes"]),
    ]


def traced(make, seed: int, seconds: float):
    """The traced run: pairs of one untraced and one traced pass.

    A pass here is set-up by `make(lib, span)`, the library ops and the CLI
    commands called in this process, so that the CLI's own time can be told
    from library spans.
    """
    import spans  # imports polarhull.cli and click, which the untraced run does without
    from polarhull import cli

    def cli_in_process(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def one_pass(lib, tally, span=None, cli_call=cli_in_process):
        t0 = time.perf_counter()
        wl = make(lib, span)
        results, _ = run_ops(wl, lib, tally)
        for cmd in wl.cli:
            run_cli(wl, cmd, results, tally, in_process=cli_call)
        return wl, time.perf_counter() - t0

    tally = Tally(workloads.KNOWN_FAILURES)
    import_s = statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60).stdout) for _ in range(3))

    tracer = spans.Tracer()
    lib, patches = spans.traced_lib(tracer)

    def traced_cli(argv):
        with tracer.span("cli.main"):
            return cli_in_process(argv)

    records, base = [], []
    start = time.perf_counter()
    while True:
        base.append(one_pass(workloads.plain_lib(), tally)[1])
        tracer.reset()
        with spans.patched(patches):
            wl, pass_s = one_pass(lib, tally, tracer.span, traced_cli)
        records.append({
            "spans": tracer.self_times(), "counts": tracer.counts, "pass_s": pass_s,
            "builds_in_certify": tracer.count_under("ratapprox.build_approximant",
                                                    "pshbuild.certify_schedule"),
            "artifact_bytes": sum(f.stat().st_size for f in (OUT / wl.name).rglob("*") if f.is_file()),
        })
        if time.perf_counter() - start + pass_s + base[-1] > seconds:
            break

    pass_s, base_s = statistics.median(r["pass_s"] for r in records), statistics.median(base)
    print(f"{len(records)} traced passes, median {pass_s:.3f}s; untraced passes, median {base_s:.3f}s")
    print(f"{'span':<32} {'calls':>6} {'total_s':>9} {'self_s':>9} {'self/pass':>9}")
    for span_name, (n, total, own) in sorted(records[-1]["spans"].items()):
        print(f"{span_name:<32} {n:>6} {total:>9.4f} {own:>9.4f} {own / records[-1]['pass_s']:>9.1%}")
    print("counts " + " ".join(f"{k}={v}" for k, v in sorted(records[-1]["counts"].items())))

    metrics, units = {}, {}
    for metric, unit, value in _per_layer_table():
        metrics[metric] = (statistics.median(value(r) for r in records), f"median of {len(records)} traced passes")
        units[metric] = unit
    metrics["cli.import_s"] = (import_s, "median of 3 fresh interpreters importing polarhull.cli")
    metrics["trace.overhead_ratio"] = (pass_s / base_s, f"traced {pass_s:.3f}s / untraced {base_s:.3f}s")
    units.update({"cli.import_s": "s", "trace.overhead_ratio": "ratio"})
    return metrics, units, tally


# ---------------------------------------------------------------------- main

def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    print(f"# polarhull benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    cpus = os.sched_getaffinity(0)
    # one CPU for this process and its children, so that the reference kernel
    # runs on the virtual CPU whose speed it stands for
    os.sched_setaffinity(0, {min(cpus)})
    print(f"env python={platform.python_version()} numpy={np.__version__} "
          f"nproc={len(cpus)} pinned=cpu{min(cpus)} git={_git_sha()} seed={args.seed} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    try:
        if args.trace:
            make = lambda lib, span: workloads.build(args.workload, args.seed, lib, span)
            report(*traced(make, args.seed, args.seconds))
        else:
            report(*end_to_end(workloads.build(args.workload, args.seed), args.seed, args.seconds))
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 0


def report(metrics: dict, units: dict, tally: Tally):
    """Print failures, metrics with units, fail_ratio and checksum; last, the result object."""
    for name, (count, problem) in sorted(tally.failed.items()):
        known = " (known failure)" if name in tally.known else ""
        print(f"FAILED {name}{known}: {count}x, {problem}")
    for name, (value, note) in metrics.items():
        print(f"metric {name:<36} {value:>14.6g} {units[name]:<6} {note}")
    print(f"metric {'fail_ratio':<36} {tally.n_failed / tally.attempted:>14.6g} {'ratio':<6} "
          f"{tally.n_failed} failed / {tally.attempted} attempted")
    print(f"checksum {tally.checksum()} (verdicts and rounded key numbers of each op's first call)")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.n_failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())

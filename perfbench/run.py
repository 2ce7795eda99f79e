#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the M3R and Hadoop engines.

    python3 perfbench/run.py --workload <wordcount|matvec|shuffle|all> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The script builds `perfbench/` (a Rust
package of its own that links the repository's crates by path), runs the
wrapper self-test, then measures. Every measurement of one (workload,
engine) pair runs in a fresh child process (`perfbench child ...`). The
load is a closed loop: a single thread of this script starts one child at
a time, and each child's client submits one job at a time and waits for
its result. The engines run with their default options (their own place and
wave threads are the system under test) on a 4-place simulated cluster at
`compute_scale 0`, so simulated seconds are deterministic.

Why these workloads. They are the paper's three §6 programs, and each puts
the wall time in a different layer, so a change to one layer has one
workload that exercises it and one where the prediction is no change:

* wordcount (Fig 8): 16 MiB of generated text in 4 files, fresh-Text mapper
  with combiner, 8 reducers, one job. User map code, record serialize/route
  and sort/group of many small keys dominate; inputs are read cold.
* matvec (Fig 7): sparse matrix x dense vector, n=32000, block 100,
  sparsity 0.001, 8 partitions, 3 iterations (6 jobs). M3R runs on the
  repartitioned, cache-warm layout (set-up runs the two repartition jobs),
  Hadoop re-reads G from the DFS every iteration: DFS I/O and caching
  dominate, user compute per byte is small.
* shuffle (Fig 6): 120000 pairs x 1 KiB values, 16 partitions, remote
  fraction 0.5, 3 chained iterations with the temp-output/delete protocol.
  Large values and near-identity user code put the work in serialize,
  buffer pool and shuffle transfer; the cache sees insert/delete churn, the
  opposite of matvec's read-heavy reuse.

The seed picks every input. For matvec and shuffle it also adds seed % 97
rows and 16 * (seed % 61) pairs, so that each seed is a distinct input whose
simulated seconds differ (their generators otherwise vary only content,
which the cost model does not price).

Each child sets up once, runs the job chain once untimed to warm the
process up (a fresh process's first run pays for faulting in its heap and
starting threads, and that cost varies most from run to run), then times
the chain a fixed number of times (REPS: more for the short runs, so that
a run collects several samples of each engine). Every run of the chain,
the warm-up too, starts from a reset cluster and a fresh engine (M3R on
matvec keeps the engine its set-up warmed), is checked against the
oracle, and its output is deleted before the next one.

A run starts children, the engines in ABBA order, while the next one is
expected to end inside `--seconds` (and until each engine has
MIN_CHILDREN); the manifest records the length the run took as
`measured_s`. With `--trace 0` the children run untraced and the script
reports the end-to-end metrics: wall and CPU seconds are medians over
every timed repetition of the run, the others medians over the children.
`setup_s` runs from the M3R child's start to its first job (the
warm-up's), and peak RSS is `VmHWM` after the warm-up: set-up plus one run
of the chain.
With `--trace 1` it also runs traced children, which wrap the job's user
code and the engine's filesystem and enable the simulated-time trace, and
reports the per-layer metrics plus the tracing overhead. Every child checks
its output against an independent oracle; simulated-seconds bits and
`MetricsSnapshot`s must be equal across all children of an engine, traced
or not, and across the repetitions of a child. A failed job, an oracle
mismatch or a divergence makes the run exit 1.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it are a human-readable table and a `manifest`
line (JSON) with the raw per-child values. `--benchmark-json` prints the
metric catalogue in the form of the repository's BENCHMARK.json.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ENGINES = ("m3r", "hadoop")
WORKLOADS = {
    # name: (jobs per chain, why)
    "wordcount": (
        1,
        "Fig 8, 16 MiB text, 4 files, 8 reducers, 1 job: user map code, "
        "serialize/route and sort/group of many small keys dominate; inputs are read cold",
    ),
    "matvec": (
        6,
        "Fig 7, n=32000+seed%97, block 100, sparsity 0.001, 8 parts, 3 iterations: DFS I/O and "
        "caching dominate; M3R reads a warm cache, Hadoop re-reads G each iteration",
    ),
    "shuffle": (
        3,
        "Fig 6, 120000+16*(seed%61) pairs x 1 KiB, 16 parts, remote 0.5, 3 chained jobs: serialize, "
        "buffer pool and shuffle transfer dominate; cache sees insert/delete churn",
    ),
}
# Timed repetitions per child, after its warm-up run.
REPS = {
    "wordcount": {"m3r": 4, "hadoop": 4},
    "matvec": {"m3r": 5, "hadoop": 2},
    "shuffle": {"m3r": 4, "hadoop": 3},
}
RUN_SECONDS = 40
# Children per engine before the time budget may end the run (with
# --trace 1, untraced + traced pairs).
MIN_CHILDREN = 2
MIN_TRACE_CHILDREN = 1
CHILD_TIMEOUT_S = 120

# (name, unit, better, bound, child field, engine). `walls` and `cpus` hold
# a child's value for each timed repetition; the other fields one value.
END_TO_END = [
    ("m3r_wall_s", "s", "lower", 0.25, "walls", "m3r"),
    ("hadoop_wall_s", "s", "lower", 0.25, "walls", "hadoop"),
    ("m3r_cpu_s", "s", "lower", 0.25, "cpus", "m3r"),
    ("hadoop_cpu_s", "s", "lower", 0.25, "cpus", "hadoop"),
    ("m3r_sim_s", "sim_s", "lower", 0.05, "sim_s", "m3r"),
    ("hadoop_sim_s", "sim_s", "lower", 0.05, "sim_s", "hadoop"),
    ("m3r_peak_rss_mb", "MiB", "lower", 0.1, "peak_rss_mb", "m3r"),
    ("hadoop_peak_rss_mb", "MiB", "lower", 0.1, "peak_rss_mb", "hadoop"),
    ("setup_s", "s", "lower", 0.25, "setup_s", "m3r"),
]

# Per-layer metrics, each reported once per engine as "<engine>.<name>":
# (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER = [
    ("user.map_s", "thread_s", "lower", "*_wall_s on wordcount; no change on shuffle"),
    ("user.reduce_s", "thread_s", "lower", "*_wall_s on wordcount; no change on shuffle"),
    ("user.combine_s", "thread_s", "lower", "*_wall_s on wordcount; no change on shuffle"),
    ("user.map_records", "count", "lower", "*_wall_s on wordcount; no change on shuffle"),
    ("user.reduce_groups", "count", "lower", "*_wall_s on wordcount; no change on shuffle"),
    ("dfs.read_s", "thread_s", "lower", "hadoop_wall_s on matvec; M3R reads ~0 after set-up"),
    ("dfs.write_s", "thread_s", "lower", "hadoop_wall_s on matvec"),
    ("dfs.meta_s", "thread_s", "lower", "hadoop_wall_s on matvec"),
    ("dfs.read_bytes", "bytes", "lower", "hadoop_wall_s on matvec; M3R reads ~0 after set-up"),
    ("dfs.write_bytes", "bytes", "lower", "hadoop_wall_s on matvec"),
    ("dfs.opens", "count", "lower", "hadoop_wall_s on matvec"),
    ("dfs.creates", "count", "lower", "hadoop_wall_s on matvec"),
    ("dfs.setup_s", "thread_s", "lower", "setup_s on every workload"),
    ("engine.job_s", "s", "lower", "*_wall_s (sum of run_job spans)"),
    ("engine.job_max_s", "s", "lower", "*_wall_s (slowest run_job span)"),
    ("engine.cpu_s", "s", "lower", "*_cpu_s"),
    ("engine.other_cpu_s", "s", "lower",
     "m3r_wall_s and m3r_cpu_s on wordcount and shuffle; negative when threads outnumber "
     "cores, since user.* and dfs.* count time a thread waits for a core"),
    ("engine.cpu_util", "ratio", "higher", "m3r_wall_s on wordcount and shuffle"),
    ("sim.net_bytes", "bytes", "lower", "*_sim_s; m3r_wall_s on shuffle"),
    ("sim.ser_bytes", "bytes", "lower", "*_sim_s"),
    ("sim.deser_bytes", "bytes", "lower", "*_sim_s"),
    ("sim.disk_read_bytes", "bytes", "lower", "*_sim_s"),
    ("sim.disk_write_bytes", "bytes", "lower", "*_sim_s"),
    ("sim.records_sorted", "count", "lower", "*_sim_s; m3r_wall_s on wordcount"),
    ("sim.allocs", "count", "lower", "*_sim_s"),
    ("sim.clone_bytes", "bytes", "lower", "*_sim_s"),
    ("sim.task_startups", "count", "lower", "*_sim_s"),
    ("bufpool.hits", "count", "higher", "m3r_wall_s on shuffle"),
    ("bufpool.misses", "count", "lower", "m3r_wall_s on shuffle"),
    ("mem.high_watermark_bytes", "bytes", "lower", "m3r_peak_rss_mb on matvec"),
] + [
    (f"phase.{p}_sim_s", "sim_s", "lower", "*_sim_s (a change here is a cost-model change)")
    for p in ("submit", "setup", "map", "shuffle", "combine", "sort", "reduce", "io", "cache", "barrier")
] + [
    ("trace.overhead", "ratio", "lower", "none: traced wall / untraced median wall"),
]

# Gap to the naive floor, on the ROADMAP's scale.
FLOOR_SCALE = [(5, "great"), (10, "acceptable"), (20, "concerning"), (50, "poor")]


class BenchError(Exception):
    pass


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, (_, why) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _, _ in END_TO_END
        ],
        "per_layer": [
            {"name": f"{e}.{n}", "unit": u, "better": b}
            for e in ENGINES
            for n, u, b, _ in PER_LAYER
        ],
    }


def build():
    """Build the measuring binary; returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError(f"build failed with exit code {r.returncode}")
    return os.path.join(target, "release", "perfbench")


def selftest(binary):
    r = subprocess.run([binary, "selftest"], capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(r.stdout + r.stderr)
    if r.returncode != 0:
        raise BenchError("wrapper self-test failed")


def child(binary, workload, engine, seed, traced):
    """One measurement in a fresh process; returns its parsed JSON."""
    reps = REPS[workload][engine]
    args = [binary, "child", workload, engine, str(seed), "1" if traced else "0", str(reps)]
    try:
        r = subprocess.run(args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        r = None
    lines = r.stdout.strip().splitlines() if r else []
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        # The warm-up run's jobs count as attempted too.
        jobs = WORKLOADS[workload][0] * (reps + 1)
        why = "timed out" if r is None else f"exit {r.returncode}: {r.stderr.strip()[-500:]}"
        out = {"engine": engine, "traced": traced, "correct": False, "attempted": jobs,
               "failed": jobs, "error": f"child crashed ({why})"}
    if r is not None and r.returncode != 0 and out.get("correct"):
        out["correct"] = False
        out["error"] = f"child exited {r.returncode}"
    return out


def measure(binary, workload, seed, seconds, trace):
    """Closed loop of fresh-process children, engines in ABBA order."""
    children = []
    took = {e: [] for e in ENGINES}
    min_children = MIN_TRACE_CHILDREN if trace else MIN_CHILDREN
    start = time.monotonic()
    for i in itertools.count():
        engine = ENGINES[(i + 1) // 2 % 2]
        elapsed = time.monotonic() - start
        # Start another child only if it should end inside the budget.
        if (all(len(t) >= min_children for t in took.values())
                and elapsed + statistics.median(took[engine]) > seconds):
            break
        children.append(child(binary, workload, engine, seed, False))
        if trace:
            children.append(child(binary, workload, engine, seed, True))
        took[engine].append(time.monotonic() - start - elapsed)
    return children, time.monotonic() - start


def divergences(children):
    """Simulated results must be identical across all children of an engine."""
    bad = []
    for engine in ENGINES:
        keys = {(c["sim_bits"], tuple(c["job_sim_bits"]), c["snapshot"])
                for c in children if c["engine"] == engine and "sim_bits" in c}
        if len(keys) > 1:
            bad.append(f"{engine}: {len(keys)} distinct sim-bits/MetricsSnapshot results")
    return bad


def pick(children, engine, traced):
    return [c for c in children if c["engine"] == engine and c["traced"] == traced]


def summary(values):
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def values(children, field):
    """A field of every child, with per-repetition lists flattened."""
    out = []
    for c in children:
        out.extend(c[field] if isinstance(c[field], list) else [c[field]])
    return out


def end_to_end(children):
    out = {}
    for name, unit, _, _, field, engine in END_TO_END:
        out[name] = (summary(values(pick(children, engine, False), field)), unit)
    return out


def per_layer(children):
    out = {}
    for engine in ENGINES:
        traced = pick(children, engine, True)
        for name, unit, _, _ in PER_LAYER:
            if name == "trace.overhead":
                untraced = statistics.median(values(pick(children, engine, False), "walls"))
                vals = [statistics.median(c["walls"]) / untraced for c in traced]
            else:
                vals = [c["layer"][name] for c in traced]
            out[f"{engine}.{name}"] = (summary(vals), unit)
    return out


def floor_verdict(ratio):
    for limit, word in FLOOR_SCALE:
        if ratio <= limit:
            return f"<= {limit}x: {word}"
    return "> 50x: rethink"


def report(workload, seed, children, metrics):
    print(f"# perfbench {workload} seed={seed} nproc={os.cpu_count()}")
    print(f"{'metric':<34} {'median':>14} {'unit':<9} {'n':>3} {'min':>14} {'max':>14}")
    for name, (s, unit) in metrics.items():
        print(f"{name:<34} {s['median']:>14.6g} {unit:<9} {s['n']:>3} "
              f"{s['min']:>14.6g} {s['max']:>14.6g}")
    floors = [c["floor_s"] for c in children if c.get("correct") and not c["traced"]]
    if floors:
        floor = statistics.median(floors)
        print(f"floor_s {floor:.6g} s (naive single-thread oracle, n={len(floors)})")
        for engine in ENGINES:
            walls = values([c for c in pick(children, engine, False) if c.get("correct")],
                           "walls")
            if walls:
                ratio = statistics.median(walls) / floor
                print(f"{engine}_wall_s / floor_s = {ratio:.2f} ({floor_verdict(ratio)})")
    for c in children:
        if not c.get("correct"):
            print(f"FAILED {c['engine']} traced={c['traced']}: {c.get('error')}")


def git_commit():
    """HEAD of the repository holding this benchmark; "unknown" in an export."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, cwd=HERE, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2 or lines[0] != os.path.dirname(HERE):
        return "unknown"
    return lines[1]


def manifest(args, workload, children, measured_s):
    raw_keys = ("engine", "traced", "correct", "error", "reps", "setup_s", "warmup_s",
                "walls", "cpus", "peak_rss_mb", "floor_s", "sim_s", "sim_bits", "job_walls")
    sizes = next((c["sizes"] for c in children if "sizes" in c), {})
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": args.trace, "nproc": os.cpu_count(), "git_commit": git_commit(),
        "sizes": sizes,
        "reps": REPS[workload],
        "samples": {f"{e}/{'traced' if t else 'untraced'}": len(pick(children, e, t))
                    for e in ENGINES for t in (False, True)},
        "layer_moves": {n: moves for n, _, _, moves in PER_LAYER},
        "runs": [{k: c.get(k) for k in raw_keys} for c in children],
    }


def run_workload(binary, workload, args):
    """Measure one workload; prints its report and returns its result."""
    children, measured_s = measure(binary, workload, args.seed, args.seconds, args.trace == 1)
    problems = divergences(children)
    ok = all(c.get("correct") for c in children) and not problems
    metrics = {}
    if ok:
        metrics = per_layer(children) if args.trace else end_to_end(children)
    report(workload, args.seed, children, metrics)
    for p in problems:
        print(f"DIVERGENCE {p}")
    print("manifest " + json.dumps(manifest(args, workload, children, measured_s)))
    return {
        "correct": ok,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {n: {"value": s["median"], "unit": u} for n, (s, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn (metrics then "
                         "prefixed '<workload>.')")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--benchmark-json", action="store_true",
                    help="print the metric catalogue as BENCHMARK.json and exit")
    args = ap.parse_args()
    if args.benchmark_json:
        print(json.dumps(benchmark_json(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        binary = build()
        selftest(binary)
        results = {w: run_workload(binary, w, args) for w in workloads}
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

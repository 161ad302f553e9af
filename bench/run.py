"""Benchmark of the ``gexp`` verification sweeps.

Run from the root of a checkout::

    python3 bench/run.py --workload lr-grid --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 120 --trace 1
    python3 bench/run.py --record-golden

Each measured sweep runs in a fresh interpreter (``bench/child.py``), one child
at a time, until ``--seconds`` is spent; every command's exit code, verdict
fields and report digest (against ``bench/golden.json``) are checked.  The
seed sets each child's command order and ``PYTHONHASHSEED``.  Times are in
reference seconds (see ``child.SpeedProbe``).  With ``--trace 0`` the
end-to-end metrics go into the result, with ``--trace 1`` the per-layer
metrics of traced children (``bench/spans.py``), measured next to untraced
ones.  Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md``.
"""

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys

import spans
from child import now

BENCH = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(BENCH, "golden.json")
OUT = os.path.join(BENCH, "out")

#: a run never starts a child later than this, and kills one that outlives it
HARD_LIMIT_S = 165.0


def _lr_grid():
    commands = []
    for family, rank in (("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4)):
        coeffs = [",".join(map(str, c)) for c in itertools.product(range(3), repeat=rank)
                  if sum(c) <= 2]
        for lam in coeffs:
            for mu in coeffs:
                commands.append(["lr", "--family", family, "--rank", str(rank),
                                 "--lam", lam, "--mu", mu, "--oracle"])
    return commands


def _exterior_peel():
    adjoint = [["exterior-verify", "--family", f, "--rank", r, "--module", "adjoint",
                "--dim-cap", "28"] for f, r in (("B", "3"), ("C", "3"), ("D", "4"))]
    little = [["exterior-verify", "--family", f, "--rank", r, "--module", "little-adjoint"]
              for f, r in (("B", "3"), ("C", "3"), ("G2", "2"))]
    return adjoint + little


def _oracle_sweep():
    return [
        ["orders", "--family", "C", "--rank", "5"],
        ["orders", "--family", "D", "--rank", "6"],
        ["kostant-verify", "--family", "B", "--rank", "5", "--oracle"],
        ["kostant-verify", "--family", "C", "--rank", "5", "--oracle"],
        ["kostant-verify", "--family", "D", "--rank", "5", "--oracle"],
        ["kostant-verify", "--family", "B", "--rank", "4", "--case-c"],
        ["short-kostant-verify", "--family", "C", "--rank", "4"],
        ["genexp", "--family", "D", "--rank", "6"],
        ["recurrence-verify", "--family", "B", "--rank", "7"],
        ["recurrence-verify", "--family", "D", "--rank", "10"],
    ]


WORKLOADS = {
    "lr-grid": _lr_grid(),
    "exterior-peel": _exterior_peel(),
    "oracle-sweep": _oracle_sweep(),
}

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: layers whose times enter the per-layer metric set: each is called on every
#: workload, so none of these times reads a constant 0
TIMED_LAYERS = (
    "rootdata.orbit2", "rootdata.reduce_to_dominant", "orders.enumerate_dominant_below",
    "weyl_oracle.freudenthal", "weyl_oracle.klimyk_tensor",
)


def command_key(argv):
    return " ".join(argv)


def ordered_commands(workload, seed):
    commands = [list(c) for c in WORKLOADS[workload]]
    random.Random(seed).shuffle(commands)
    return commands


def child_seeds(seed):
    """Seeds of the successive children of a run: each sets one child's command
    order and PYTHONHASHSEED.  Memo tables persist across the commands of a
    child, so the order moves its time and peak memory; a run reports medians
    over several orders rather than one."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def child_env(root, seed):
    """The whole environment of a child: nothing inherited can warm or skew it.

    ``GEXP_CACHE_DIR`` is absent, so no pickle cache warms a run.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.path.join(root, "src"),
        "PYTHONHASHSEED": str(seed % 2**32),
        "PYTHONIOENCODING": "utf-8",
    }


class ChildError(RuntimeError):
    pass


def run_child(root, commands, seed, trace, timeout):
    """Run one sweep in a fresh interpreter; return its result or raise ChildError."""
    launched = now()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), repr(launched)],
        cwd=root, env=child_env(root, seed), text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(json.dumps({"commands": commands, "trace": trace}),
                                    timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildError(f"child exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {err.strip()[-500:]}")
    return json.loads(out.splitlines()[-1])


def judge(record, golden):
    """Why one command failed, or None: exception, exit code, verdict or digest."""
    if record["error"] is not None:
        return f"exception: {record['error']}"
    if record["rc"] != 0:
        return f"exit code {record['rc']}" + (f": {record['stderr'].strip()[:200]}"
                                               if record["stderr"].strip() else "")
    if record["verdict"] is not None:
        return f"false verdict: {record['verdict']}"
    want = golden.get(command_key(record["argv"]))
    if want is None:
        return "no golden digest"
    if record["digest"] != want:
        return "report digest differs from golden"
    return None


def percentile_row(samples, q):
    """(value, samples beyond it) of the q-th percentile, inclusive method."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return value, sum(1 for s in samples if s > value)


def git_sha(root):
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def has_source(root):
    if os.path.isfile(os.path.join(root, "src", "extalg", "cli.py")):
        return True
    sys.stderr.write("bench: run from the root of an extalg checkout (no src/extalg/cli.py)\n")
    return False


def warm_up(root):
    """Untimed import of extalg and the tracer, so .pyc compilation is not measured."""
    run_child(root, [], 0, True, HARD_LIMIT_S)


class Run:
    """Children of one workload within one benchmark invocation."""

    def __init__(self, root, workload, seed, golden):
        self.root = root
        self.workload = workload
        self.seeds = child_seeds(seed)
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.children = {False: [], True: []}

    def sweep(self, trace, started):
        seed = next(self.seeds)
        commands = ordered_commands(self.workload, seed)
        timeout = HARD_LIMIT_S - (now() - started)
        try:
            result = run_child(self.root, commands, seed, trace, timeout)
        except (ChildError, ValueError, IndexError) as exc:
            self.attempted += len(commands)
            self.failures.extend((command_key(c), f"child failed: {exc}")
                                 for c in commands)
            return False
        for record in result["commands"]:
            self.attempted += 1
            problem = judge(record, self.golden)
            if problem is not None:
                self.failures.append((command_key(record["argv"]), problem))
        self.children[trace].append(result)
        return True

    def measure(self, seconds, traced, started):
        """Alternate untraced (and, if traced, traced) children until time is spent.

        A child starts only while its expected duration still fits in the run.
        """
        deadline = now() + seconds
        walls = {kind: [] for kind in ((False, True) if traced else (False,))}
        for trace in itertools.cycle(walls):
            if all(walls.values()) and now() + statistics.median(walls[trace]) > deadline:
                break
            t0 = now()
            # past half the hard limit, a further child could outlive it
            if not self.sweep(trace, started) or now() - started > HARD_LIMIT_S / 2:
                break
            walls[trace].append(now() - t0)


def speed(child):
    """Reference seconds per wall second in one child (see child.SpeedProbe)."""
    return child["speed"] or 1.0


def end_to_end(run):
    """End-to-end metrics over the untraced children; times in reference seconds."""
    children = run.children[False]
    # each command's latency is its median over the children (a robust value
    # per command); the percentiles run over the workload's commands, so none
    # lands in the gap between two clusters of repeated samples
    per_command = {}
    for c in children:
        for rec in c["commands"]:
            per_command.setdefault(command_key(rec["argv"]), []).append(rec["ref_ms"])
    latencies = [statistics.median(v) for v in per_command.values()]
    p50, beyond50 = percentile_row(latencies, 50)
    p90, beyond90 = percentile_row(latencies, 90)
    n = len(children)
    sample = f"n={len(latencies)} commands x {n} children"
    metrics = {
        "setup_s": statistics.median(c["setup_s"] * speed(c) for c in children),
        "sweep_s": statistics.median(c["sweep_s"] * speed(c) for c in children),
        "cmd_p50_ms": p50,
        "cmd_p90_ms": p90,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    wall = statistics.median(c["sweep_s"] for c in children)
    notes = {
        "setup_s": f"median of {n} children",
        "sweep_s": f"median of {n} children of {len(WORKLOADS[run.workload])} commands; "
                   f"wall {wall:.4g} s, speed {statistics.median(map(speed, children)):.3f}",
        "cmd_p50_ms": f"{sample}, {beyond50} commands beyond",
        "cmd_p90_ms": f"{sample}, {beyond90} commands beyond"
                      + ("" if beyond90 >= 10 else " (fewer than 10: indicative)"),
        "peak_rss_mb": f"median of {n} children, child ru_maxrss",
    }
    return metrics, notes


def layer_metrics(child):
    """Flatten one traced child's report into named per-layer metrics."""
    trace, scale = child["trace"], speed(child)
    metrics = {}
    for prefix, row in trace["layers"].items():
        metrics[f"{prefix}.calls"] = row["calls"]
        metrics[f"{prefix}.self_s"] = row["self_s"] * scale
        metrics[f"{prefix}.incl_s"] = row["incl_s"] * scale
    metrics.update(trace["counters"])
    calls = metrics.get("rootdata.reduce_to_dominant.calls", 0)
    regular = metrics.get("rootdata.reduce_to_dominant.regular", 0)
    metrics["rootdata.reduce_to_dominant.regular_ratio"] = regular / calls if calls else 0.0
    candidates = metrics.get("gpartitions.candidates", 0)
    admissible = metrics.get("gpartitions.admissible", 0)
    metrics["gpartitions.admissible_ratio"] = admissible / candidates if candidates else 0.0
    metrics["cli.self_s"] = trace["cli_self_s"] * scale
    accounted = trace["cli_self_s"] + sum(r["self_s"] for r in trace["layers"].values())
    metrics["trace.accounted_s"] = accounted * scale
    metrics["trace.residual_ratio"] = 1.0 - accounted / child["sweep_s"]
    return metrics


def per_layer(run):
    """Per-layer metrics: medians over traced children, plus the tracing overhead."""
    traced = run.children[True]
    rows = [layer_metrics(c) for c in traced]
    # counts repeat exactly between children (checked below); times take the median
    metrics = {name: rows[0][name] if unit_of(name) == "count"
               else statistics.median(r[name] for r in rows) for name in rows[0]}
    untraced_s = statistics.median(c["sweep_s"] * speed(c) for c in run.children[False])
    traced_s = statistics.median(c["sweep_s"] * speed(c) for c in traced)
    metrics["trace.traced_sweep_s"] = traced_s
    metrics["trace.untraced_sweep_s"] = untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    drift = sorted(name for name in rows[0] if unit_of(name) == "count"
                   and len({r[name] for r in rows}) > 1)
    return metrics, drift, traced[0]["trace"]


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def layer_metric_names():
    """The per-layer metrics named in BENCHMARK.json, in a fixed order."""
    names = []
    for _module, _path, prefix, _mode, counter, _fn in spans.TARGETS:
        names.append(f"{prefix}.calls")
        if prefix in TIMED_LAYERS:
            names += [f"{prefix}.self_s", f"{prefix}.incl_s"]
        if counter is not None:
            names.append(counter)
    names = [n for n in names if not n.startswith("gpartitions.form_keys.")]
    names += ["rootdata.reduce_to_dominant.regular_ratio", "gpartitions.admissible_ratio"]
    names += [metric for _module, _attr, metric in spans.MEMOS]
    names += ["cli.self_s", "trace.accounted_s", "trace.residual_ratio",
              "trace.traced_sweep_s", "trace.untraced_sweep_s", "trace.overhead_ratio"]
    return names


def print_table(title, metrics, notes=None):
    print(title)
    for name in sorted(metrics):
        value = metrics[name]
        note = (notes or {}).get(name, "")
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<52} {text:>14} {unit_of(name):<5} {note}".rstrip())


def write_trace_file(workload, seed, metrics, trace, env):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "env": env, "metrics": metrics,
                   "absent": trace["absent"],
                   "sites": trace["sites"], "spans": trace["spans"]}, fh)
    return path


def record_golden(root):
    """Run every workload once and write the per-command report digests."""
    golden = {}
    for workload, commands in WORKLOADS.items():
        result = run_child(root, commands, 0, False, HARD_LIMIT_S * 4)
        for record in result["commands"]:
            problem = judge(record, {command_key(record["argv"]): record["digest"]})
            if problem is not None:
                sys.stderr.write(f"{command_key(record['argv'])}: {problem}\n")
                return 1
            golden[command_key(record["argv"])] = record["digest"]
        print(f"{workload}: {len(commands)} commands in {result['sweep_s']:.2f} s")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {os.path.relpath(GOLDEN, root)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time, shared by the workloads of --workload all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite bench/golden.json from the current code")
    return parser.parse_args(argv)


def main(argv=None):
    started = now()
    args = parse_args(argv)
    root = os.getcwd()
    if not has_source(root):
        return 2
    if args.record_golden:
        return record_golden(root)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    env = {"python": platform.python_version(), "git": git_sha(root),
           "nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    warm_up(root)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    seconds = args.seconds / len(workloads)
    attempted = failed = 0
    metrics = {}
    wanted = layer_metric_names() if args.trace else list(END_TO_END)
    for workload in workloads:
        run = Run(root, workload, args.seed, golden)
        run.measure(seconds, bool(args.trace), started)
        attempted += run.attempted
        failed += len(run.failures)
        for key, problem in run.failures[:20]:
            print(f"# FAIL {workload}: {key}: {problem}")
        ratio = len(run.failures) / run.attempted if run.attempted else 0.0
        print(f"# {workload}: fail_ratio {ratio:.6g} "
              f"({len(run.failures)} of {run.attempted} commands failed)")
        if not run.children[False] or (args.trace and not run.children[True]):
            continue
        found, notes = end_to_end(run)
        print_table(f"# {workload}: end-to-end metrics", found, notes)
        if args.trace:
            found, drift, trace = per_layer(run)
            print_table(f"# {workload}: per-layer metrics, "
                        f"{len(run.children[True])} traced + "
                        f"{len(run.children[False])} untraced children", found)
            if trace["absent"]:
                print(f"# absent targets: {', '.join(trace['absent'])}")
            if drift:
                print(f"# WARNING counters differ between traced children: {drift}")
            path = write_trace_file(workload, args.seed, found, trace, env)
            print(f"# spans and call sites: {os.path.relpath(path, root)}")
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name in wanted:
            metrics[prefix + name] = {"value": found.get(name, 0), "unit": unit_of(name)}
    correct = failed == 0 and len(metrics) == len(wanted) * len(workloads)
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

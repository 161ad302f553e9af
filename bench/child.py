"""One cold sweep of a benchmark workload, in a fresh interpreter.

Started by ``bench/run.py`` as ``python3 bench/child.py <launch-time>`` from the
root of a checkout, with ``src`` on ``PYTHONPATH``.  It imports ``extalg.cli``,
reads ``{"commands": [argv, ...], "trace": bool}`` as JSON on stdin, runs every
argv through ``extalg.cli.run`` in order (one client, no threads), and writes
one JSON object on stdout: set-up and sweep times, per-command latency, exit
code, report digest and verdict, peak RSS, and with ``trace`` the layer
statistics of ``spans.Tracer``.  The launch time is a ``CLOCK_MONOTONIC``
reading taken by the parent just before it started this process.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

#: verdict fields a passing report must carry as true wherever they appear
VERDICT_KEYS = ("match", "all_pass", "all_agree", "iff_holds")

#: wall time between two speed samples
PROBE_INTERVAL_S = 0.05
#: a command's latency is rescaled by the samples taken within this margin of it
LOCAL_WINDOW_S = 0.05
#: duration of one calibration slice at the reference speed, about its median
#: on the 2-vCPU Xeon (2.1 GHz) host the benchmark was tuned on
REFERENCE_SLICE_S = 4.0e-4


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(text):
    """First false verdict field of a JSON report, or None when every verdict holds.

    Checks every ``match``/``all_pass``/``all_agree``/``iff_holds`` field at
    any depth and requires every ``failures`` list to be empty.  A report that
    is not JSON fails.
    """
    try:
        report = json.loads(text)
    except ValueError:
        return "report is not JSON"
    todo = [report]
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            todo.extend(node)
        elif isinstance(node, dict):
            for key, value in node.items():
                if key in VERDICT_KEYS and value is not True:
                    return f"{key}={json.dumps(value)}"
                if key == "failures" and value:
                    return f"{len(value)} failures"
                todo.append(value)
    return None


class SpeedProbe:
    """Samples the machine's speed while a sweep runs.

    Every ``PROBE_INTERVAL_S`` of wall time a timer signal runs one fixed
    calibration slice of interpreter work and records how long it took.  On a
    shared host the same sweep varies by a third in wall time from one child to
    the next; the slices slow down with it, so ``speed()`` (reference slice
    time over measured slice time, averaged over the samples) converts wall
    seconds into reference seconds.  Time spent in the probe is kept in
    ``busy_s`` and left out of every reported duration.
    """

    def __init__(self, on_sample=None):
        self.samples = []    # (start, duration) of each calibration slice
        self.busy_s = 0.0
        self.on_sample = on_sample

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = now()
        calibration_slice()
        t1 = now()
        self.samples.append((t0, t1 - t0))
        spent = now() - t0
        self.busy_s += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def speed(self, start=float("-inf"), end=float("inf")):
        """Reference seconds per wall second over the samples taken in [start, end].

        None when no sample falls in the interval.
        """
        ratios = [REFERENCE_SLICE_S / d for t, d in self.samples if start <= t <= end]
        return sum(ratios) / len(ratios) if ratios else None


def calibration_slice():
    """A fixed amount of tuple, dict and integer work, as in the extalg kernels."""
    table = {}
    acc = 0
    for i in range(1500):
        key = (i, i + 1)
        table[key] = acc
        acc += i * 3 % 7
    return acc


def sweep(cli, commands, tracer=None):
    """Run the commands in order under a speed probe.

    Returns one record per command, the sweep's wall time and the probe's
    speed; durations exclude the time spent in the probe.  Each record's
    ``ref_ms`` is its latency in reference milliseconds, rescaled by the
    speed sampled around that command, which follows the host's speed changes
    within a sweep more closely than the sweep's mean speed.
    """
    records = []
    probe = SpeedProbe(tracer.add_probe if tracer is not None else None)
    with probe:
        first = now()
        for index, argv in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            rc, error = None, None
            if tracer is not None:
                tracer.begin_command(index)
            busy = probe.busy_s
            t0 = now()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.run(argv)
            except Exception as exc:  # noqa: BLE001  (an exception is a failed operation)
                error = f"{type(exc).__name__}: {exc}"
            t1 = now()
            if tracer is not None:
                tracer.end_command(t0, t1)
            records.append({"argv": argv, "ms": (t1 - t0 - (probe.busy_s - busy)) * 1e3,
                            "span": (t0, t1), "rc": rc, "error": error,
                            "text": out.getvalue(), "stderr": err.getvalue()})
        sweep_s = now() - first - probe.busy_s
    speed = probe.speed()
    for rec in records:
        t0, t1 = rec.pop("span")
        local = probe.speed(t0 - LOCAL_WINDOW_S, t1 + LOCAL_WINDOW_S)
        rec["ref_ms"] = rec["ms"] * (local or speed or 1.0)
    # digests and verdicts are computed after the sweep, outside its timing
    for rec in records:
        text = rec.pop("text")
        rec["digest"] = digest(text)
        rec["verdict"] = verdict(text) if rec["error"] is None else None
    return records, sweep_s, speed


def main():
    launched = float(sys.argv[1])
    import extalg.cli
    ready = now()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(extalg.cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"extalg was imported from {extalg.cli.__file__}, not {src}\n")
        return 2
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    records, sweep_s, speed = sweep(extalg.cli, request["commands"], tracer)
    result = {
        "setup_s": ready - launched,
        "sweep_s": sweep_s,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": records,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark: failure accounting and layer tracing.

Run from the root of the repository with ``python3 -m pytest -q bench``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import extalg.cli  # noqa: E402

LR = ["lr", "--family", "B", "--rank", "2", "--lam", "1,0", "--mu", "0,1", "--oracle"]


def golden():
    with open(run.GOLDEN) as fh:
        return json.load(fh)


def genuine_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert extalg.cli.run(argv) == 0
    return out.getvalue()


class FakeCli:
    """Stands in for extalg.cli: writes a given report, returns a code or raises."""

    def __init__(self, text, rc=0, exc=None):
        self.text, self.rc, self.exc = text, rc, exc

    def run(self, argv):
        if self.exc is not None:
            raise self.exc
        sys.stdout.write(self.text)
        return self.rc


def failures(cli):
    records, _, _ = child.sweep(cli, [LR])
    return [run.judge(rec, golden()) for rec in records]


def test_genuine_report_passes():
    assert LR in run.WORKLOADS["lr-grid"]
    assert failures(extalg.cli) == [None]


def test_each_failure_kind_counts_as_failed():
    text = genuine_report(LR)
    assert '"match": true' in text
    cases = {
        "corrupted report": FakeCli(text.replace('"count": 1', '"count": 2', 1)),
        "false verdict": FakeCli(text.replace('"match": true', '"match": false')),
        "raised exception": FakeCli(text, exc=RuntimeError("boom")),
        "nonzero exit": FakeCli(text, rc=1),
    }
    problems = {name: failures(cli)[0] for name, cli in cases.items()}
    assert problems["corrupted report"] == "report digest differs from golden"
    assert problems["false verdict"] == "false verdict: match=false"
    assert problems["raised exception"] == "exception: RuntimeError: boom"
    assert problems["nonzero exit"] == "exit code 1"
    # one genuine command plus the four faults: fail_ratio rises from 0 to 4/5
    outcomes = failures(FakeCli(text)) + [failures(cli)[0] for cli in cases.values()]
    assert sum(p is not None for p in outcomes) / len(outcomes) == 4 / 5


def test_verdict_checks_nested_fields():
    assert child.verdict('{"reports": [{"all_pass": true}, {"all_pass": false}]}') \
        == "all_pass=false"
    assert child.verdict('{"oracle": {"iff_holds": false}}') == "iff_holds=false"
    assert child.verdict('{"failures": [{"stage": "admissible"}]}') == "1 failures"
    assert child.verdict("not json") == "report is not JSON"
    assert child.verdict('{"match": null}') == "match=null"


def test_traced_child_reaches_every_alias():
    commands = [
        LR,                                                     # generator, count_lr
        ["kostant-verify", "--family", "B", "--rank", "2"],     # cli/constructor aliases
        ["exterior-verify", "--family", "G2", "--rank", "2",
         "--module", "little-adjoint"],                         # exterior_oracle alias
        ["recurrence-verify", "--family", "D", "--rank", "4"],  # recurrence alias
    ]
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), repr(child.now())],
        input=json.dumps({"commands": commands, "trace": True}), text=True,
        capture_output=True, cwd=ROOT, env=run.child_env(ROOT, 0), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert [run.judge(rec, golden()) for rec in result["commands"][:1]] == [None]
    trace = result["trace"]
    layers = trace["layers"]
    calls = {prefix: row["calls"] for prefix, row in layers.items()}
    assert calls["constructor.certify_theorem"] == 1          # cli.certify_theorem
    assert calls["gpartitions.is_admissible"] >= calls["constructor.construct"] > 0
    assert calls["gpartitions.enumerate_associated"] == calls["gpartitions.count_lr"] > 0
    assert calls["weyl_oracle.freudenthal"] > 1               # exterior_oracle.freudenthal
    assert calls["orders.dominance_leq"] > 0                  # recurrence.dominance_leq
    assert calls["rootdata.orbit2"] > 0                       # patched on RootDatum
    counters = trace["counters"]
    assert counters["gpartitions.candidates"] >= counters["gpartitions.admissible"] > 0
    # layer self times and the CLI residue add up to the command time
    accounted = trace["cli_self_s"] + sum(row["self_s"] for row in layers.values())
    commanded = sum(rec["ms"] for rec in result["commands"]) / 1e3
    assert abs(accounted - commanded) <= 1e-6 * len(commands)
    assert trace["absent"] == []


def test_missing_target_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install(targets=(("gpartitions", "FormValuesRemoved", "gpartitions.gone",
                             spans.SPAN, None, None),))
    assert tracer.absent == ["gpartitions.gone"]
    assert tracer.report()["layers"] == {}


def test_speed_probe_rescales_by_samples_in_window():
    probe = child.SpeedProbe()
    ref = child.REFERENCE_SLICE_S
    probe.samples = [(0.0, ref), (1.0, 2 * ref)]
    assert probe.speed() == 0.75
    assert probe.speed(0.5, 2.0) == 0.5
    assert probe.speed(5.0, 6.0) is None


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench["paths"] == ["bench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == run.layer_metric_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])

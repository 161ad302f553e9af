import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import extalg
from extalg import checks, cli, genexp, gpartitions, orders, recurrence, weyl_oracle


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def test_roots_deterministic():
    code1, out1, _ = run_cli(["roots", "--family", "B", "--rank", "3"])
    code2, out2, _ = run_cli(["roots", "--family", "B", "--rank", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["schema"] == 1 and rep["num_positive_roots"] == 9
    assert rep["rho"] == {"coords2": [5, 3, 1], "fund": "w1+w2+w3"}


def test_orders_census():
    code, out, _ = run_cli(["orders", "--family", "C", "--rank", "3"])
    rep = json.loads(out)
    assert code == 0
    assert rep["count_dominance"] == 35
    assert rep["count_dominance_and_coordinatewise"] == 29
    assert rep["count_small"] == 4
    assert rep["two_rho_minus_delta"] == {"nonempty_subsets": 7, "fail_coordinatewise": 4}


def test_orders_lists_its_census_once(monkeypatch):
    # the coordinatewise and small counts filter the one dominance listing
    calls = []
    real = orders.enumerate_dominant_below
    monkeypatch.setattr(orders, "enumerate_dominant_below",
                        lambda *args: calls.append(args) or real(*args))
    code, _, _ = run_cli(["orders", "--family", "C", "--rank", "3"])
    assert code == 0 and len(calls) == 1


def test_lr_full_decomposition():
    code, out, _ = run_cli(["lr", "--family", "C", "--rank", "2",
                            "--lam", "1,0", "--mu", "1,0", "--oracle"])
    rep = json.loads(out)
    assert code == 0 and rep["match"] is True
    assert len(rep["components"]) == 3


def test_lr_single_component_with_witnesses():
    code, out, _ = run_cli(["lr", "--family", "C", "--rank", "3",
                            "--lam", "1,1,1", "--mu", "1,1,1", "--nu", "0,0,2",
                            "--witnesses", "--oracle"])
    rep = json.loads(out)
    assert code == 0
    assert rep["count"] == rep["oracle_count"] == len(rep["witnesses"])
    assert [1, 1, 1, 1, 1, 1, 0, 0, 0] in rep["witnesses"]


def test_lr_resource_cap():
    argv = ["lr", "--family", "C", "--rank", "3", "--lam", "1,1,1", "--mu", "1,1,1"]
    code, out, err = run_cli(argv + ["--cap", "3"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: ")
    code, _, err = run_cli(argv)
    assert code == 0 and err == ""


def test_genexp_resource_cap():
    argv = ["genexp", "--family", "D", "--rank", "4"]   # |W(D4)| = 192
    code, out, err = run_cli(argv + ["--cap", "50"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: ")
    code, _, err = run_cli(argv + ["--cap", "192"])
    assert code == 0 and err == ""


def test_recurrence_verify_resource_cap():
    argv = ["recurrence-verify", "--family", "B", "--rank", "3"]   # orbit of (1,1,0): 12 points
    code, out, err = run_cli(argv + ["--cap", "5"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: ")
    code, out, err = run_cli(argv + ["--cap", "5", "--k", "1"])    # orbit of (1,0,0): 6 points
    assert code == 0 and err == "" and json.loads(out)["all_pass"]
    code, _, err = run_cli(argv + ["--cap", "11", "--exterior-specialization"])
    assert code == 0 and err == ""


def test_orders_resource_cap():
    argv = ["orders", "--family", "B", "--rank", "3"]   # 39 dominant weights below 2 rho
    code, out, err = run_cli(argv + ["--cap", "38"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: dominant weights below ") and err.count("\n") == 1
    code, out, err = run_cli(argv + ["--cap", "39"])
    assert code == 0 and err == "" and json.loads(out)["count_dominance"] == 39
    assert out == run_cli(argv)[1]


def test_orders_resource_cap_reaches_the_subset_summary():
    # A5 at bound 0 lists one weight, and the 2 rho - delta summary runs
    # over the 2**5 - 1 = 31 nonempty subsets of the simple roots
    argv = ["orders", "--family", "A", "--rank", "5", "--bound", "0,0,0,0,0"]
    code, out, err = run_cli(argv + ["--cap", "30"])
    assert code == 2 and out == ""
    assert err == "resource cap: 31 nonempty subsets of the simple roots exceed cap 30\n"
    code, out, err = run_cli(argv + ["--cap", "31"])
    assert code == 0 and err == "" and out == run_cli(argv)[1]
    assert json.loads(out)["two_rho_minus_delta"]["nonempty_subsets"] == 31


def test_kostant_verify_resource_cap_reaches_the_census():
    argv = ["kostant-verify", "--family", "B", "--rank", "5"]   # 1,192 weights below 2 rho
    code, out, err = run_cli(argv + ["--cap", "1191"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: dominant weights below ") and err.count("\n") == 1
    code, out, err = run_cli(argv + ["--cap", "1192"])
    assert code == 0 and err == "" and out == run_cli(argv)[1]


@pytest.mark.parametrize("argv", [
    "kostant-verify --family B --rank 3 --oracle --cap 0",
    "short-kostant-verify --family C --rank 3 --cap 1",
    "exterior-verify --family B --rank 2 --module adjoint --cap 1",
])
def test_cap_bounds_every_klimyk_battery(argv):
    code, out, err = run_cli(argv.split())
    assert code == 2 and out == ""
    assert err.startswith("resource cap: ") and err.count("\n") == 1


def test_exterior_verify_cap_bounds_the_stored_weights():
    # the B3 adjoint's build table peaks at 217 stored weights
    argv = "exterior-verify --family B --rank 3 --module adjoint --cap 216".split()
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == "resource cap: exterior character stores more than 216 weights\n"


def test_exterior_verify_cap_bounds_the_zero_weight_column():
    # on B2 Klimyk rho (x) rho has 12 cells, the orbits below 2 rho have 37
    argv = "exterior-verify --family B --rank 2 --module adjoint --cap".split()
    code, out, err = run_cli(argv + ["36"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: orbits of the weights below ") and err.count("\n") == 1
    code, out, err = run_cli(argv + ["37"])
    assert code == 0 and err == "" and json.loads(out)["all_pass"]


def test_short_kostant_verify_cap_bounds_the_exterior_build():
    # the B3 little adjoint's build table peaks at 12 stored weights; Klimyk
    # and the census below 2 rho_s fit under that cap
    argv = "short-kostant-verify --family B --rank 3 --cap".split()
    assert run_cli(argv + ["11"]) == \
        (2, "", "resource cap: exterior character stores more than 11 weights\n")
    assert run_cli(argv + ["12"]) == (0, run_cli(argv[:-1])[1], "")


@pytest.mark.parametrize("command", ["exterior-verify", "short-kostant-verify"])
def test_cap_help_names_the_stored_weights(command):
    # both commands bound the exterior build's table by --cap (the type-B
    # short-kostant-verify builds the little adjoint's exterior character)
    code, out, _ = run_cli([command, "--help"])
    assert code == 0
    assert "the weights the exterior character stores while it is built" in " ".join(out.split())


@pytest.mark.parametrize("rank", ["171", "1000000"])
def test_rank_guard_exits_two_before_listing_roots(rank):
    assert run_cli(["roots", "--family", "A", "--rank", rank]) == \
        (2, "", f"error: rank {rank} too large: rank**3 > 5000000\n")


def test_recurrence_verify_rejects_k_zero():
    assert run_cli(["recurrence-verify", "--family", "B", "--rank", "3", "--k", "0"]) == \
        (2, "", "error: k must lie in 1..3\n")


def test_parser_reuse_matches_fresh_processes():
    # one parser serves every run() call: options given to one call must not
    # reach the next, so each call answers as a fresh `gexp` process does
    lr = ["lr", "--family", "C", "--rank", "3", "--lam", "1,1,1", "--mu", "1,1,1"]
    sequence = [
        lr + ["--nu", "0,0,2", "--witnesses", "--oracle"],
        lr,
        lr + ["--cap", "3"],
        lr + ["--nu", "0,0,2"],
        ["genexp", "--family", "B", "--rank", "3", "--format", "csv"],
        ["genexp", "--family", "B", "--rank", "3"],
        ["roots", "--family", "B", "--rank", "3", "--cap", str(10 ** 9)],
        ["no-such-command"],
        ["roots", "--family", "B", "--rank", "2"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(extalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in sequence:
        proc = subprocess.run([sys.executable, "-m", "extalg.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert run_cli(argv) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_kostant_verify():
    code, out, _ = run_cli(["kostant-verify", "--family", "C", "--rank", "3", "--oracle"])
    rep = json.loads(out)
    assert code == 0
    assert rep["total"] == rep["passed"] == 29
    assert rep["oracle"]["dominant_below_2rho"] == 35
    assert rep["oracle"]["iff_holds"]


def test_kostant_verify_case_c_override():
    code, out, _ = run_cli(["kostant-verify", "--family", "B", "--rank", "3", "--case-c"])
    rep = json.loads(out)
    assert code == 0 and rep["cases"]["B"] == 0


@pytest.mark.parametrize("family, rank", [("C", 3), ("D", 4)])
def test_kostant_verify_case_c_outside_type_b_is_an_error(family, rank):
    assert run_cli(["kostant-verify", "--family", family, "--rank", str(rank), "--case-c"]) \
        == (2, "", f"error: Case C applies to type B only, not {family}\n")


def test_short_kostant_labels():
    code, out, _ = run_cli(["short-kostant-verify", "--family", "C", "--rank", "3"])
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "conjecture-check"
    code, out, _ = run_cli(["short-kostant-verify", "--family", "G2", "--rank", "2"])
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "computed-case-check" and rep["iff_holds"]
    code, out, _ = run_cli(["short-kostant-verify", "--family", "B", "--rank", "2"])
    rep = json.loads(out)
    assert code == 0 and rep["panyushev_identity"] is True


def test_genexp_json_and_csv(tmp_path):
    code, out, _ = run_cli(["genexp", "--family", "B", "--rank", "3"])
    rep = json.loads(out)
    assert code == 0 and rep["all_agree"] and len(rep["rows"]) == 9
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(["genexp", "--family", "B", "--rank", "3",
                            "--format", "csv", "--output", str(path)])
    assert code == 0 and out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "family,rank,lambda,E_coeffs,source,agree"
    assert len(lines) == 10


def test_recurrence_verify():
    code, out, _ = run_cli(["recurrence-verify", "--family", "B", "--rank", "3"])
    rep = json.loads(out)
    assert code == 0 and rep["all_pass"] and len(rep["reports"]) == 3
    # a single-k request flattens to the per-row report schema
    code, out, _ = run_cli(["recurrence-verify", "--family", "D", "--rank", "4",
                            "--k", "2", "--exterior-specialization"])
    rep = json.loads(out)
    assert code == 0 and rep["k"] == 2 and "exterior_specialization" in rep


@pytest.mark.parametrize("k, argv", [
    (None, []), (2, ["--k", "2", "--exterior-specialization"]),
])
def test_recurrence_verify_battery_is_the_cli_report(k, argv):
    b3 = extalg.build_root_datum("B", 3)
    code, out, _ = run_cli(["recurrence-verify", "--family", "B", "--rank", "3"] + argv)
    report, ok = checks.recurrence_verify(b3, k, exterior_specialization=bool(argv))
    assert ok and code == 0
    assert report == {key: v for key, v in json.loads(out).items() if key != "schema"}


def test_recurrence_verify_fails_on_a_shifted_coefficient(monkeypatch):
    gamma2 = recurrence._gamma2_cleared_b
    monkeypatch.setattr(recurrence, "_gamma2_cleared_b", lambda *a: gamma2(*a).scale_s(1))
    b4 = extalg.build_root_datum("B", 4)
    report, ok = checks.recurrence_verify(b4)
    assert not ok and not report["all_pass"]
    assert not checks.recurrence_verify(b4, 2)[1]


def test_exterior_specialization_reuses_cached_rows(monkeypatch):
    # D8 covers k = 1..4: one minuscule_row call per row, none repeated for
    # the specialization column
    real = recurrence.minuscule_row
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(recurrence, "minuscule_row", counting)
    recurrence._row_cached.cache_clear()
    code, out, err = run_cli(["recurrence-verify", "--family", "D", "--rank", "8",
                              "--exterior-specialization"])
    assert code == 0 and err == ""
    assert len(calls) == 4 and len(set(calls)) == 4
    # the same bytes as a run that recomputes each row for the column
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "384ee9b722cb6511ce4cab30856878192dd07bc1d3148db70f3e693e3aa370f7"


def test_recurrence_verify_lists_each_chain_orbit_once(monkeypatch):
    # D8 covers the chain weights k = 1..4; the zero counts read the rows'
    # walks, so the regular-point walk runs once per chain weight.  The shape
    # checks reduce by walking the orbit {0}, which is no chain orbit
    real = extalg.RootDatum.regular_orbit2
    calls = []

    def counting(self, table, shifted2, leaf=None, keep=None):
        calls.extend(tuple(nu2) for nu2 in table if any(nu2))
        return real(self, table, shifted2, leaf, keep)

    monkeypatch.setattr(extalg.RootDatum, "regular_orbit2", counting)
    recurrence._row_cached.cache_clear()
    try:
        code, out, err = run_cli(["recurrence-verify", "--family", "D", "--rank", "8"])
    finally:
        recurrence._row_cached.cache_clear()
    assert code == 0 and err == ""
    d8 = extalg.build_root_datum("D", 8)
    assert calls == [recurrence.chain_weight(d8, k).coords2 for k in range(1, 5)]


def test_recurrence_verify_counts_each_zero_check_once(monkeypatch):
    # the report of k checks the zero counts of every j <= k; one report
    # over k = 1..4 on D8 counts each j once, 4 counts rather than 10
    real = recurrence.omega0_count
    calls = []

    def counting(datum, k, cap):
        calls.append(k)
        return real(datum, k, cap=cap)

    monkeypatch.setattr(recurrence, "omega0_count", counting)
    code, out, err = run_cli(["recurrence-verify", "--family", "D", "--rank", "8"])
    assert code == 0 and err == ""
    assert calls == [1, 2, 3, 4]
    report = json.loads(out)
    assert [[c["name"] for c in r["checks"] if c["name"].startswith("cardG0")]
            for r in report["reports"]] == \
        [[f"cardG0_closed_form_k{j}" for j in range(1, k + 1)] for k in range(1, 5)]


def test_row_fault_exits_one_with_the_row_mismatch(monkeypatch):
    # a row entry that is not below its chain weight is the row's mismatch
    # (exit 1, one line), not a failed zero-count record
    monkeypatch.setattr(recurrence, "dominance_leq", lambda *args: False)
    recurrence._row_cached.cache_clear()
    try:
        code, out, err = run_cli(["recurrence-verify", "--family", "D", "--rank", "6"])
    finally:
        recurrence._row_cached.cache_clear()
    assert (code, out) == (1, "")
    assert err == "mismatch: row entry W[D6](0,0,0,0,0,0) is not below W[D6](1,1,0,0,0,0)\n"


def test_unwritable_output_exits_three(tmp_path):
    target = str(tmp_path / "missing" / "report.json")
    code, out, err = run_cli(["roots", "--family", "B", "--rank", "2", "--output", target])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(target)
    code, out, err = run_cli(["roots", "--family", "B", "--rank", "2",
                              "--output", str(tmp_path / "report.json")])
    assert code == 0 and out == "" and err == ""
    assert json.loads((tmp_path / "report.json").read_text())["rank"] == 2


def test_exterior_verify():
    code, out, _ = run_cli(["exterior-verify", "--family", "C", "--rank", "2",
                            "--module", "adjoint"])
    rep = json.loads(out)
    assert code == 0 and rep["all_pass"]
    code, out, _ = run_cli(["exterior-verify", "--family", "B", "--rank", "3",
                            "--module", "little-adjoint"])
    rep = json.loads(out)
    assert code == 0 and rep["all_pass"]


def test_usage_errors():
    code, _, _ = run_cli(["lr", "--family", "C", "--rank", "2", "--lam", "1,0,0", "--mu", "1,0"])
    assert code == 2
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _, _ = run_cli(["roots", "--family", "E", "--rank", "6"])
    assert code == 2
    code, _, _ = run_cli(["exterior-verify", "--family", "D", "--rank", "5",
                          "--module", "adjoint"])   # dim 45 over the cap
    assert code == 2
    code, _, _ = run_cli(["roots", "--family", "B", "--rank", "3",
                          "--cap", str(10 ** 9)])
    assert code == 2   # cap raise needs --force-cap
    code, _, _ = run_cli(["roots", "--family", "B", "--rank", "3",
                          "--cap", str(10 ** 9), "--force-cap"])
    assert code == 0
    code, _, err = run_cli(["roots", "--family", "B", "--rank", "2", "--cap=-1"])
    assert code == 2 and "--cap: must be >= 0" in err
    code, out, err = run_cli(["exterior-verify", "--family", "B", "--rank", "2",
                              "--module", "adjoint", "--dim-cap=-5"])
    assert code == 2 and out == "" and "--dim-cap: must be >= 0" in err


@pytest.mark.parametrize("extra", [[], ["--oracle"], ["--nu=0,0", "--oracle"]],
                         ids=["all-nu", "all-nu-oracle", "one-nu-oracle"])
def test_lr_rejects_a_non_dominant_weight(extra):
    # the weights are checked before Klimyk runs, so a bad lambda is a usage
    # error, not a negative multiplicity (exit 1)
    code, out, err = run_cli(["lr", "--family", "B", "--rank", "2",
                              "--lam=3,-2", "--mu=2,0"] + extra)
    assert (code, out) == (2, "")
    assert err == "error: W[B2](2,-1) is not dominant\n"


@pytest.mark.parametrize("lam", ["1,,0", "1,0,", ",1,0"])
def test_weight_with_an_empty_field_is_a_usage_error(lam):
    code, out, err = run_cli(["lr", "--family", "B", "--rank", "2", "--lam", lam,
                              "--mu", "0,1", "--nu", "1,1"])
    assert (code, out) == (2, "")
    assert err == f"error: malformed coefficient '' in {lam!r}\n"


@pytest.mark.parametrize("argv", [["lr", "--family", "B", "--rank", "2", "--lam", "1,0",
                                   "--mu", "0,1", "--nu", ""],
                                  ["orders", "--family", "B", "--rank", "2", "--bound", ""]],
                         ids=["nu", "bound"])
def test_empty_optional_weight_is_a_usage_error(argv):
    # an empty --nu or --bound is not read as an absent one
    assert run_cli(argv) == (2, "", "error: malformed coefficient '' in ''\n")


@pytest.mark.parametrize("lam", ["1 0", "1_0"])
def test_coefficient_read_as_ten_is_a_usage_error(lam):
    code, out, err = run_cli(["lr", "--family", "B", "--rank", "1", "--lam", lam,
                              "--mu", "0", "--nu", "10"])
    assert (code, out) == (2, "")
    assert err == f"error: malformed coefficient {lam!r} in {lam!r}\n"


def test_weight_fields_may_carry_spaces():
    spaced = run_cli(["lr", "--family", "B", "--rank", "2", "--lam", "1, 0",
                      "--mu", "0,1", "--nu", "1,1"])
    assert spaced[0] == 0
    assert spaced == run_cli(["lr", "--family", "B", "--rank", "2", "--lam", "1,0",
                              "--mu", "0,1", "--nu", "1,1"])


def test_fault_injection_reaches_exit_one(monkeypatch):
    # corrupt one closed-form coefficient: the mismatch must surface as exit 1
    real = genexp.closed_E

    def corrupted(datum, lam):
        poly = real(datum, lam)
        return poly + genexp.PolyT.t(23)

    monkeypatch.setattr(genexp, "closed_E", corrupted)
    code, out, _ = run_cli(["genexp", "--family", "B", "--rank", "3"])
    assert code == 1
    assert json.loads(out)["all_agree"] is False


B2_LR = ["lr", "--family", "B", "--rank", "2", "--lam", "1,0", "--mu", "1,0", "--oracle"]


def test_fault_injection_lr_count(monkeypatch):
    # one polytope count off by one: its component no longer matches Klimyk
    b2 = extalg.build_root_datum("B", 2)
    bad = extalg.weight_from_fundamental(b2, [0, 2])
    real = gpartitions.count_lr

    def corrupted(datum, lam, mu, nu, **kwargs):
        count, wits = real(datum, lam, mu, nu, **kwargs)
        return count + (nu == bad), wits

    monkeypatch.setattr(gpartitions, "count_lr", corrupted)
    code, out, _ = run_cli(B2_LR)
    rep = json.loads(out)
    assert code == 1 and rep["match"] is False and rep["oracle_missing"] == []
    assert [(c["nu"]["fund"], c["count"], c["oracle_count"]) for c in rep["components"]
            if c["count"] != c["oracle_count"]] == [("2*w2", 2, 1)]


def test_fault_injection_lr_oracle_component(monkeypatch):
    # V_w1 has polytope count 0 in V_w1 (x) V_w1 for B2; an oracle that
    # claims it must be named as unmatched
    b2 = extalg.build_root_datum("B", 2)
    extra = extalg.weight_from_fundamental(b2, [1, 0])
    real = weyl_oracle.klimyk_tensor

    def corrupted(datum, lam, mu, **kwargs):
        return {**real(datum, lam, mu, **kwargs), extra: 1}

    monkeypatch.setattr(weyl_oracle, "klimyk_tensor", corrupted)
    code, out, _ = run_cli(B2_LR)
    rep = json.loads(out)
    assert code == 1 and rep["match"] is False
    assert rep["oracle_missing"] == [list(extra.coords2)]
    assert all(c["count"] == c["oracle_count"] for c in rep["components"])


def test_fault_injection_kostant_oracle(monkeypatch):
    # drop V_0 from the Klimyk square: the support iff must name it missing
    real = weyl_oracle.klimyk_tensor

    def corrupted(datum, lam, mu, **kwargs):
        return {w: m for w, m in real(datum, lam, mu, **kwargs).items() if w != datum.zero}

    monkeypatch.setattr(weyl_oracle, "klimyk_tensor", corrupted)
    code, out, _ = run_cli(["kostant-verify", "--family", "B", "--rank", "2", "--oracle"])
    rep = json.loads(out)
    assert code == 1 and rep["failures"] == []
    assert rep["oracle"]["iff_holds"] is False
    assert rep["oracle"]["missing"] == [[0, 0]] and rep["oracle"]["extra"] == []


def test_fault_injection_exterior(monkeypatch):
    # a wrong s = 1 special-covariant product fails Bazlov's adjoint check alone
    real = genexp.special_covariants

    def corrupted(datum, s, e_poly):
        poly = real(datum, s, e_poly)
        return poly + genexp.PolyT.t(5) if s == 1 else poly

    monkeypatch.setattr(genexp, "special_covariants", corrupted)
    code, out, _ = run_cli(["exterior-verify", "--family", "B", "--rank", "2",
                            "--module", "adjoint"])
    assert code == 1
    rep = json.loads(out)
    b2 = extalg.build_root_datum("B", 2)
    exponents = genexp.PolyT({1: 1, 3: 1})    # B2's exponents 1 and 3
    want = f"got {real(b2, 1, exponents)}, want {corrupted(b2, 1, exponents)}"
    assert [(c["name"], c["detail"]) for c in rep["checks"] if not c["pass"]] == \
        [("bazlov_adjoint", want)]
    assert all(c["detail"] == "" for c in rep["checks"] if c["pass"])


def test_error_taxonomy(monkeypatch):
    # a library invariant failure is a mismatch (exit 1); Python's own
    # arithmetic faults and any other exception are internal errors (exit 3);
    # either way one stderr line and no traceback
    argv = ["exterior-verify", "--family", "B", "--rank", "2", "--module", "adjoint"]
    for exc, code, line in [(ArithmeticError("negative\npeel"), 1, "mismatch: negative peel"),
                            (RuntimeError("x"), 3, "internal error: RuntimeError: x"),
                            (ZeroDivisionError("y"), 3, "internal error: ZeroDivisionError: y"),
                            (OverflowError("z"), 3, "internal error: OverflowError: z")]:
        def failing(*args, exc=exc):
            raise exc

        monkeypatch.setattr(checks, "exterior_checks", failing)
        assert run_cli(argv) == (code, "", line + "\n")


def test_zero_division_in_zero_count_is_internal_error(monkeypatch):
    # the omega0 checks record a library ArithmeticError as a failed count,
    # but a ZeroDivisionError there is a bug and escapes to exit 3
    def failing(datum, k):
        raise ZeroDivisionError("w")

    monkeypatch.setattr(recurrence, "_omega0_closed", failing)
    assert run_cli(["recurrence-verify", "--family", "D", "--rank", "4", "--k", "1"]) == \
        (3, "", "internal error: ZeroDivisionError: w\n")


def test_wrong_coefficient_fails_both_genexp_and_recurrence(monkeypatch):
    # genexp's recurrence and the aggregate check read one coefficient table,
    # so a coefficient off by a factor t fails both commands
    gamma2 = recurrence._gamma2_cleared_b
    monkeypatch.setattr(recurrence, "_gamma2_cleared_b", lambda *a: gamma2(*a).scale_s(2))
    assert run_cli(["genexp", "--family", "B", "--rank", "4"])[0] == 1
    assert run_cli(["recurrence-verify", "--family", "B", "--rank", "4"])[0] == 1


@pytest.mark.parametrize("argv, digest", [
    ("exterior-verify --family B --rank 3 --module adjoint --dim-cap 28",
     "807caf15a448bf05d3a2a9713943aff9f0af2e06545794f8496ead3f87eff98b"),
    ("exterior-verify --family C --rank 3 --module little-adjoint",
     "e286009990536c685646ade7b1a4d023b487eb9120ccf7c0a18164579e5f96ef"),
    ("exterior-verify --family C --rank 3 --module adjoint --dim-cap 28",
     "5797d3f9849d00a9d26c38d3f5dfd19634c0a19c0dc3ca4dff98526b966e84c3"),
    ("exterior-verify --family B --rank 3 --module little-adjoint",
     "e14a13ed4f2e23fdd6fa1cd568d65cdf9192c849987afb825b68608f70f03233"),
    ("exterior-verify --family C --rank 4 --module little-adjoint --dim-cap 27",
     "cb41014d032ee577050632f06764e5bc682730470ba635fd05dd6deb65cd6c72"),
    ("exterior-verify --family G2 --rank 2 --module little-adjoint",
     "bdce186eab73f30ec55a43abf9079f6359ce1b056bf9cbcf7f961ec00923c290"),
    ("exterior-verify --family G2 --rank 2 --module adjoint",
     "d015609982ba21d9ad6451d2574fadb3778aa5fc6f43f279907d4e88225cbe8c"),
    ("short-kostant-verify --family G2 --rank 2",
     "a88e0cf545fe54a8cfc9143346cc9274014521707a7842c113cf452da6a438b6"),
    ("orders --family G2 --rank 2",
     "7df7b2c5c2be1a524884d55807e255217bdadf56056f4758b1bba5d71205bf71"),
    ("short-kostant-verify --family B --rank 2",
     "e47eaa02e1ff7d7171b8534c41f19087a4b96b2c472112e1b19ecc8ccd0c1d67"),
    ("short-kostant-verify --family C --rank 4",
     "f2743618f02c4356a8ca7c45aa01158548f8a0b25919d72defeeab8759d7f99b"),
    ("recurrence-verify --family B --rank 5 --exterior-specialization",
     "02425118946259c961458d62b01a6de3f8042c7f2128a54a047ab3bec2988990"),
    ("recurrence-verify --family D --rank 6",
     "f44caa158f340c8f6368ec60d50bc30b87290faabf09689120ed1d6991159961"),
    ("kostant-verify --family B --rank 4 --case-c",
     "2cea9ed3b9e39703c09d731d8422560a52b915579a6fea3057e026fd25592d8e"),
    ("genexp --family D --rank 5 --format csv",
     "151af59c82519c3dec1f85c7d29fb67cb16d547cf28bb5724164011d9c575b69"),
    ("genexp --family B --rank 4",
     "491b134249ec903ae2b7aecb38d1f444ca56642a4412b0d3f37dc99c075c8ce1"),
    ("lr --family C --rank 3 --lam 1,0,1 --mu 0,1,1 --oracle",
     "a19c6598dfb935a52a1d78f2ecbb2a073722fdece061a2c9e3b4e2906d086c1e"),
    ("lr --family C --rank 3 --lam 1,1,1 --mu 1,1,1 --nu 0,0,2 --witnesses --oracle",
     "c0d8f2657a975678d9933265ad852a3a6631f5b852474159e026c2ea5c163b6f"),
    ("kostant-verify --family C --rank 4 --oracle",
     "f57405bfa7249058472c7f4bb32a52dbb9f9f87cb93bff304da24536d3e38056"),
    ("genexp --family B --rank 7",
     "0ab69eff806239a511926fe7a5c1b8b8dd0ddfb39a2abc21be485d0a3b51dc75"),
    ("genexp --family D --rank 6",
     "0e032134496c6d69fa8c48d5d6893b201cf6c2d41df70611ad530d5bf0cb9752"),
    ("recurrence-verify --family D --rank 8",
     "b63118d2df38c118f9d044fde7d8dcd0128979d5eed7db0d609090146d9bbaeb"),
    ("orders --family D --rank 4",
     "b0c0cc3cb6569b627e5ac5af1e59f2d4bfa779eb827fa858ddaefe609c8e593f"),
    ("orders --family A --rank 3",
     "14504a96512ff8fc69af192f67ce985139778ba15de70c5d8b22f95c89ae33e6"),
    ("orders --family B --rank 3 --bound 1,1,1",
     "1c5bccf743c4b88f66b194ba9b1507d2959d98b4f9aadc65cab4268b52d3c089"),
    ("exterior-verify --family D --rank 4 --module adjoint --dim-cap 28",
     "614afc9cd027f91f6603b8862ce3da2030d975ef58dd11825f144c5004f1b536"),
    ("kostant-verify --family D --rank 4 --oracle",
     "7316a93fe6003ba8eadf9f9e19c31fd66cdef2849abdceedcb9c2409c62151d3"),
    ("roots --family A --rank 1",
     "a84376ca21c30be8af454c07f50c3354a0a37f45ef2a354d1f634a1eefb3167e"),
    ("roots --family A --rank 3",
     "24ba04204e1d3e1ff8966ac03b65ba2b8afd53508fdc86bee05b260a813772e9"),
    ("roots --family B --rank 1",
     "e83420d752b5033b1f83390d7731b04fdf43965623af3584a3f086b608872886"),
    ("roots --family B --rank 3",
     "4c7d0149549e4718299f906b6ed351da10d261ca619894d51fba3b7c2ed427a4"),
    ("roots --family C --rank 1",
     "faaeaf7e7979faa4dfda3cd11f525e42f96fa6ac1ec7cecd6614a3d35241988a"),
    ("roots --family C --rank 4",
     "592468ead64eaff4caf8895f3705174ac1812971ba9c32be176a00cb41193438"),
    ("roots --family D --rank 4",
     "2256628e8d0798e4ef74122f0ea25682812e16d351ad7be2b21209189c52ec5f"),
    ("roots --family G2 --rank 2",
     "b9778241e37466eac6eb2eeb4ded2aa6182ff76d18979ffcabb9944a2952f4fa"),
    ("orders --family A --rank 1",
     "a90623c201494b3c88bb31b19f34e3d5e3f9c0582c5e6ee1ce3c19f2e16daf8f"),
    ("orders --family B --rank 1",
     "77aab4a0dd1380e6e808ad31801c41e6b046552b0d13f86f8eebac368fa3820b"),
    ("orders --family C --rank 1",
     "49db0c49b801f47f90970038d8435a2f99c88c6e68df4b706a01dd2c53cc3169"),
    ("orders --family C --rank 3",
     "e19a67c28d8717fafcce45da4600cbfbcba3b604808dbd9a5bc847e5a4e41f88"),
    ("genexp --family C --rank 5",
     "654832910c63d29af3ea70c149947a16f5501d04704d50f1c29918738689fe68"),
    ("kostant-verify --family B --rank 3 --oracle",
     "4e23c1ac5731c04cac6a4ca63e4f29a706311bdd39d37311d9574ac806e8f68b"),
])
def test_check_report_bytes_pinned(argv, digest):
    code, out, _ = run_cli(argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest

"""Cross-module structural invariants that no single module owns."""

import json
import os
import subprocess
import sys

import pytest

from extalg.exterior_oracle import graded_exterior_character
from extalg.genexp import PolyT
from extalg.gpartitions import GPartition, weight_of
from extalg.rootdata import build_root_datum
from extalg.weyl_oracle import freudenthal, lusztig_E
from helpers import polynomials


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G2", 2)])
def test_theta_short_is_unique_short_dominant_root(family, rank):
    datum = build_root_datum(family, rank)
    min_norm = min(datum.dot2(r.coords2, r.coords2) for r in datum.positive_roots)
    short_dominant = [r for r in datum.positive_roots
                      if datum.dot2(r.coords2, r.coords2) == min_norm
                      and datum.is_dominant(r)]
    assert short_dominant == [datum.theta_short]


@pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_exponents_recoverable_from_adjoint_exponent_polynomial(family, rank):
    # E_theta(t) = sum_i t^(e_i): the classical exponents, via the oracle
    datum = build_root_datum(family, rank)
    expected = PolyT.zero()
    for e in datum.exponents:
        expected = expected + PolyT.t(e)
    assert lusztig_E(datum, datum.theta) == expected


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2)])
def test_exterior_character_poincare_duality(family, rank):
    # Lambda^k and Lambda^(d-k) of a self-dual module pair weights w <-> -w
    datum = build_root_datum(family, rank)
    module = freudenthal(datum, datum.theta)
    gc = graded_exterior_character(datum, module.mult)
    d = gc.total_dim
    polys = {w.coords2: poly for w, poly in polynomials(gc).items()}
    for w2, poly in polys.items():
        mirror = polys[tuple(-c for c in w2)]
        for k, coeff in poly.c.items():
            assert mirror.c.get(d - k, 0) == coeff


def test_partition_datum_mismatch_guard():
    c3 = build_root_datum("C", 3)
    p = GPartition.from_flat("B", 3, (0,) * 9)
    with pytest.raises(ValueError):
        weight_of(c3, p)
    q = GPartition.from_flat("C", 2, (0,) * 4)
    with pytest.raises(ValueError):
        weight_of(c3, q)


@pytest.mark.parametrize("argv", [
    ["orders", "--family", "C", "--rank", "3"],
    ["kostant-verify", "--family", "B", "--rank", "2", "--oracle"],
    ["genexp", "--family", "B", "--rank", "3"],
    ["recurrence-verify", "--family", "B", "--rank", "3"],
])
def test_cli_bytes_stable_across_hash_seeds(argv):
    # set iteration depends on PYTHONHASHSEED; reports must not
    outputs = set()
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "extalg.cli", *argv],
                              capture_output=True, env=env, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    json.loads(outputs.pop())

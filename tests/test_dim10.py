"""The dim-10 and dim-12 models under tests/models: their twisted dimensions
against numbers derived by hand, not by the engine, their filtrations and
the closed forms of their U_{<=p} chains against the subspace pipelines of
tests/test_cohomology.py, and their grading, pure spinor and split of d_H
against the references of tests/test_gcs.py.

The complete comparison, which adds the weight split of the complex 10-torus
(about 5 s for its reference alone), the two symplectic models, the gradings
of the two tori, the chains of the complex 10-torus, and the grading and the
d_H split of kt12 (about 15 s), and the d and d_H tables of all six models
against the per-blade reference of tests/test_liemodel.py, runs when
GCHODGE_DIM10 is set to 1, as the `dim10` CI job does."""

import os
from math import comb
from pathlib import Path

import pytest

from gchodge.cohomology import invariant_derham, twisted_cohomology
from gchodge.modelfile import parse_model

from test_cohomology import (assert_closed_in_chain_matches_reference,
                             assert_filtrations_match_reference)
from test_gcs import (assert_dH_parts_match_shift_tables,
                      assert_grading_matches_reference, build_main)
from test_liemodel import assert_d_tables_match_reference

MODELS = Path(__file__).resolve().parent / "models"


def torus_betti(dim):
    return [comb(dim, k) for k in range(dim + 1)]


# the Kodaira-Thurston manifold, d e4 = e1^e2: e1, e2, e3 are the closed
# 1-forms; e12, e13, e23, e14, e24 the closed 2-forms, of which e12 = d e4
# is exact; Poincare duality gives the rest
KT_BETTI = [1, 3, 4, 3, 1]


def kunneth(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


BETTI = {"torus10-symplectic": torus_betti(10),
         "torus10-complex": torus_betti(10),
         "kt10": kunneth(KT_BETTI, torus_betti(6))}
BETTI12 = {"torus12-symplectic": torus_betti(12),
           "torus12-complex": torus_betti(12),
           "kt12": kunneth(KT_BETTI, torus_betti(8))}


def load(name):
    return (MODELS / f"{name}.gcm").read_text()


@pytest.mark.parametrize("name", sorted(BETTI))
def test_dim10_twisted_dims(name):
    betti = BETTI[name]
    assert sum(betti) == (1024 if name.startswith("torus") else 768)
    m = parse_model(load(name)).model(name)
    # H = 0, so the twisted cohomology is de Rham cohomology folded by parity
    assert [invariant_derham(m, k).dim for k in range(11)] == betti
    tw = twisted_cohomology(m)
    assert (tw.dim_even, tw.dim_odd) == (sum(betti[0::2]), sum(betti[1::2]))


@pytest.mark.parametrize("name", sorted(BETTI12))
def test_dim12_twisted_dims(name):
    betti = BETTI12[name]
    assert sum(betti) == (4096 if name.startswith("torus") else 3072)
    m = parse_model(load(name)).model(name)
    assert [invariant_derham(m, k).dim for k in range(13)] == betti
    tw = twisted_cohomology(m)
    assert (tw.dim_even, tw.dim_odd) == (sum(betti[0::2]), sum(betti[1::2]))


def test_dim10_kt_dH_parts_match_reference_shift_tables():
    assert_dH_parts_match_shift_tables("kt10", build_main(load("kt10"), "kt10"))


def test_dim10_complex_torus_hodge_filtration_matches_reference():
    s = build_main(load("torus10-complex"), "torus10-complex")
    assert_filtrations_match_reference(s, "torus10-complex", mhs=False)


def test_dim10_kt_grading_matches_reference():
    assert_grading_matches_reference("kt10", build_main(load("kt10"), "kt10"))


def test_dim10_kt_closed_in_chain_matches_reference():
    assert_closed_in_chain_matches_reference(build_main(load("kt10"), "kt10"),
                                             "kt10")


complete = pytest.mark.skipif(os.environ.get("GCHODGE_DIM10") != "1",
                              reason="the complete dim-10 comparison runs "
                                     "with GCHODGE_DIM10=1")


@complete
@pytest.mark.parametrize("name", sorted(BETTI))
def test_dim10_filtrations_match_reference(name):
    assert_filtrations_match_reference(build_main(load(name), name), name)


@complete
@pytest.mark.parametrize("name", ["torus10-complex", "torus10-symplectic"])
def test_dim10_torus_grading_matches_reference(name):
    assert_grading_matches_reference(name, build_main(load(name), name))


@complete
def test_dim10_complex_torus_closed_in_chain_matches_reference():
    assert_closed_in_chain_matches_reference(
        build_main(load("torus10-complex"), "torus10-complex"),
        "torus10-complex")


@complete
def test_dim12_kt_grading_and_dH_parts_match_reference():
    s = build_main(load("kt12"), "kt12")
    assert_grading_matches_reference("kt12", s)
    assert_dH_parts_match_shift_tables("kt12", s)


@complete
@pytest.mark.parametrize("name", sorted(BETTI) + sorted(BETTI12))
def test_dim10_and_dim12_d_tables_match_reference(name):
    assert_d_tables_match_reference(
        name, parse_model(load(name)).model(name=name))

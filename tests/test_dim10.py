"""The dim-10 and dim-12 models under tests/models: their twisted dimensions
against numbers derived by hand, not by the engine, their filtrations and
the closed forms of their U_{<=p} chains against the subspace pipelines of
tests/test_cohomology.py, and their grading, pure spinor and split of d_H
against the references of tests/test_gcs.py.

The complete comparison, which adds the weight split of the complex 10-torus
(about 5 s for its reference alone), the two symplectic models, the gradings
of the two tori, the chains of the complex 10-torus, and the grading and the
d_H split of kt12 (about 15 s), the d and d_H tables of all six models
against the per-blade reference of tests/test_liemodel.py, every dimension
the reductions report against the subspace pipelines of
tests/test_reduction.py, the Mukai block test against both references
of tests/test_cohomology.py, and the digests of the reports, runs when
GCHODGE_DIM10 is set to 1, as the `dim10` CI job does."""

import hashlib
import io
import os
from contextlib import redirect_stdout
from math import comb
from pathlib import Path

import pytest

from gchodge.cli import main
from gchodge.cohomology import (hodge_filtration, invariant_derham, mukai_Q,
                                twisted_cohomology)
from gchodge.modelfile import parse_model

from test_cohomology import (assert_closed_in_chain_matches_reference,
                             assert_ddbar_matches_reference,
                             assert_filtrations_match_reference,
                             reference_closed_orthogonal,
                             reference_flag_orthogonal)
from test_gcs import (assert_dH_parts_match_shift_tables,
                      assert_grading_matches_reference, build_main)
from test_liemodel import assert_d_tables_match_reference
from test_reduction import assert_dims_match_reference

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
    assert [invariant_derham(m).dim(k) for k in range(11)] == betti
    tw = twisted_cohomology(m)
    assert (tw.dim_even, tw.dim_odd) == (sum(betti[0::2]), sum(betti[1::2]))


@pytest.mark.parametrize("name", sorted(BETTI12))
def test_dim12_twisted_dims(name):
    betti = BETTI12[name]
    assert sum(betti) == (4096 if name.startswith("torus") else 3072)
    m = parse_model(load(name)).model(name)
    assert [invariant_derham(m).dim(k) for k in range(13)] == betti
    tw = twisted_cohomology(m)
    assert (tw.dim_even, tw.dim_odd) == (sum(betti[0::2]), sum(betti[1::2]))


def test_dim10_kt_dH_parts_match_reference_shift_tables():
    assert_dH_parts_match_shift_tables("kt10", build_main(load("kt10"), "kt10"))


def test_dim10_complex_torus_hodge_filtration_matches_reference():
    s = build_main(load("torus10-complex"), "torus10-complex")
    assert_filtrations_match_reference(s, "torus10-complex", mhs=False)


def test_dim10_kt_grading_matches_reference():
    assert_grading_matches_reference("kt10", build_main(load("kt10"), "kt10"))


@pytest.mark.parametrize("name", sorted(BETTI))
def test_dim10_ddbar_matches_reference(name):
    assert_ddbar_matches_reference(build_main(load(name), name), name)


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


@complete
@pytest.mark.parametrize("name", sorted(BETTI) + sorted(BETTI12))
def test_dim10_and_dim12_dims_match_reference(name):
    assert_dims_match_reference(name, build_main(load(name), name))


@complete
@pytest.mark.parametrize("name", sorted(BETTI) + sorted(BETTI12))
def test_dim10_and_dim12_mukai_block_test_matches_both_references(name):
    """mukai_Q's block verdict, read off the Hodge flags, against the closed
    forms of every U_k paired two by two and against the lifted flags
    paired two by two (40 to 70 s for each dim-12 model on two cores)."""
    s = build_main(load(name), name)
    hodge_filtration(s)
    assert mukai_Q(s).block_orthogonal is reference_closed_orthogonal(s) \
        is reference_flag_orthogonal(s) is True


# (exit code, sha256 of the stdout of `gchodge <command> <model> --json`),
# recorded before the cohomology engines moved to one column reduction
REPORT_DIGESTS = {
    ("cohomology", "kt10"):
        (0, "aa65713cabe50e4886c46c53d59856d8d6f2f7eb72a0b7700a8914e754a180a4"),
    ("cohomology", "kt12"):
        (0, "a1ffb2d8ecf795ea1042086e3926e823d13cadb17a753bf9f4dcbca24be03490"),
    ("cohomology", "torus10-complex"):
        (0, "477712a42feb052efd8098a0cbac92efc9101f4b83341101cad5d48735c5531a"),
    ("cohomology", "torus10-symplectic"):
        (0, "15b56e6fa2812a30578abcbf1292e2e5b1e13ca2a47871d95f0f164002d693f6"),
    ("cohomology", "torus12-complex"):
        (0, "1c59dc4deaae86435087f5a11a390261b653494c4a87c4780b0a1b0e7ace4862"),
    ("cohomology", "torus12-symplectic"):
        (0, "b204ffcb4fa6004c4f2b384e16cacd2193f70a64688889bec48f20e422ef0ad3"),
    ("ddbar", "kt10"):
        (1, "619ab5137ee3c326887afab14ff6154ad19f04a2e9485a87131bdaafcb27e181"),
    ("ddbar", "kt12"):
        (1, "bde760793ab907ff8db8545181d617f70aab84df7395e77e747611d4c3233c2d"),
    ("ddbar", "torus10-complex"):
        (0, "fe595c429279b38aa1b04e4edf1823c9103a5804e9feeae5df21ca680e4b9769"),
    ("ddbar", "torus10-symplectic"):
        (0, "9fe94ea3d408990afba01bca67a6dc42895d93c77e028eea32dedf3bbad57c06"),
    ("ddbar", "torus12-complex"):
        (0, "b3049947b078c1b1d7d83eb36ce03477df399a72a6b00197ec4f20acd7f78dea"),
    ("ddbar", "torus12-symplectic"):
        (0, "e82da0c468d3c4fe37571d7c15f9c8ba272d826b19f1d5a578f43e059391e8a6"),
    ("hodge", "kt10"):
        (1, "f106cfdf5a3aa0a25fce83ce9340ce468d23acb1c6d42a0a7abe6ee6f9c24664"),
    ("hodge", "kt12"):
        (1, "d31faa1c2c2b5ea174c1198b26adbdab010e858d836be324dd6216a5d9436eba"),
    ("hodge", "torus10-complex"):
        (0, "ce1554f31c2ebbedb7af054e07e9e5e5d603bce99a916a61b3aabb4a0258171b"),
    ("hodge", "torus10-symplectic"):
        (0, "6972e1da87b9fa1eda90ab493c9a80401835984efc2f115226da6628a15233af"),
    ("hodge", "torus12-complex"):
        (0, "a9cc017fb72a324fc2e1e39dd1fb09b97c06ef442c8cc07993a9efded0fc6c9c"),
    ("hodge", "torus12-symplectic"):
        (0, "b1c3bac09455584337d7ce98d8b07f4205f603a7b62054af5b197e38f64b3a25"),
    ("lefschetz", "kt10"):
        (1, "88ddf4b23aa0d0daba57cfc1bc4508fc90ca708e1ec74b6d53e41ea6ac73d0f2"),
    ("lefschetz", "kt12"):
        (1, "77e89df94f1ffb553dd5cf5b525fc61286f0c31a2f430a9a97d16413abe4d8fd"),
    ("lefschetz", "torus10-symplectic"):
        (0, "a4e8893c690407d090a64eb0c4ebca60217a1bf5a9714366e1f778e5024dbf47"),
    ("lefschetz", "torus12-symplectic"):
        (0, "82de242b5d04d1c399657623837d093e676b3dfd2c1a672606cf28bd36f4cc9e"),
    ("mhs", "torus10-complex"):
        (0, "3be9d5f6b9bf4c18d13c5e41bab2a09347c27b0dcd4764b0bbaa484a5c812e27"),
    ("mhs", "torus12-complex"):
        (0, "aaff646c8a96dc4d88e09377703f401d996b2abb6e7d71a730a7b821c292d0bf"),
}


@complete
@pytest.mark.parametrize("command,name", sorted(REPORT_DIGESTS))
def test_dim10_and_dim12_report_digests(command, name):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, str(MODELS / f"{name}.gcm"), "--json"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) \
        == REPORT_DIGESTS[(command, name)]

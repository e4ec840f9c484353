"""The product grading and the table of N against the forms the engine
replaced (tests/reference_grading.py): on every J that `grading` and
`family` build on the files of corpus/ and tests/models, those of dims 10
and 12 when GCHODGE_DIM10 is set to 1, as the `dim10` CI job does, and on
random products of symplectic, complex and B-shifted blocks over
interleaved generators."""

import io
import os
from contextlib import redirect_stdout
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gchodge import gcs
from gchodge.cli import main
from gchodge.errors import EngineError
from gchodge.gcs import _blocks, _product_grading, _spinorial_N
from gchodge.modelfile import parse_model
from gchodge.scalars import ONE, QI

from reference_grading import reference_product_grading, reference_spinorial_N
from test_families import corpus_families, model_families
from test_gcs import CORPUS, one_block_J, rational_J
from test_linalg import KERNEL_EXAMPLES

MODELS = Path(__file__).resolve().parent / "models"


def model_file(path):
    """The file as a parameter, behind GCHODGE_DIM10 from dim 10 on."""
    if parse_model(path.read_text()).dim < 10:
        return pytest.param(path, id=path.name)
    return pytest.param(path, id=path.name, marks=pytest.mark.skipif(
        os.environ.get("GCHODGE_DIM10") != "1",
        reason="dims 10 and 12 run with GCHODGE_DIM10=1"))


def built_keys(path, monkeypatch):
    """The keys of every J that `grading` and `family` build on the file, in
    the order they are first built."""
    keys = {}
    key_of = gcs._J_key

    def recorded(dim, J):
        key = key_of(dim, J)
        keys[key] = None
        return key
    monkeypatch.setattr(gcs, "_J_key", recorded)
    for command in ("grading", "family"):
        with redirect_stdout(io.StringIO()):
            main([command, str(path), "--json"])
    return list(keys)


def assert_matches_reference(dim, J):
    blocks = _blocks(J, dim)
    assert _product_grading(J, dim, blocks) == reference_product_grading(
        J, dim, blocks)


@pytest.mark.parametrize("path", [
    model_file(p) for p in chain(sorted(CORPUS.glob("*.gcm")),
                                 sorted(MODELS.glob("*.gcm")))])
def test_product_grading_matches_reference_on_every_built_J(path, monkeypatch):
    keys = built_keys(path, monkeypatch)
    graded = 0
    for key in keys:
        dim, J = key[0], gcs._J_of(key)
        try:
            gcs._validate_J(dim, J)
        except EngineError:
            continue
        assert_matches_reference(dim, J)
        graded += 1
    assert graded or path.stem.startswith("neg-"), path.name


def test_interleaved_repeated_blocks_are_relabelled(monkeypatch):
    """The symplectic J of omega = e16 + e24 + e35, one 2-generator block on
    {1, 6}, {2, 4} and {3, 5}: the first is graded, the other two interleave
    with it and take its bases relabelled, and the product is the
    reference's."""
    dim = 6
    J = [[QI(0)] * (2 * dim) for _ in range(2 * dim)]
    for a, b in ((0, 5), (1, 3), (2, 4)):
        # x_a -> e^b, x_b -> -e^a, e^a -> x_b, e^b -> -x_a: omega = e^a ^ e^b
        J[dim + b][a], J[dim + a][b] = ONE, -ONE
        J[b][dim + a], J[a][dim + b] = ONE, -ONE
    gcs._validate_J(dim, J)
    calls = []
    grade = gcs._grade_block
    monkeypatch.setattr(gcs, "_grade_block",
                        lambda *args: calls.append(args) or grade(*args))
    assert _blocks(J, dim) == [[0, 5], [1, 3], [2, 4]]
    assert_matches_reference(dim, J)
    assert len(calls) == 1


@st.composite
def product_J(draw):
    """A real J on 2 to 8 generators, the sum of rational_J blocks of 2 or 4
    generators over a random partition, so that blocks interleave as kt's
    {1, 4} and {2, 3} do; half the time a block repeats the matrix of an
    earlier block of its size, so that the product relabels its bases."""
    sizes = draw(st.lists(st.sampled_from((2, 4)), min_size=1, max_size=4)
                 .filter(lambda sizes: sum(sizes) <= 8))
    dim = sum(sizes)
    order = draw(st.permutations(range(dim)))
    J = [[QI(0)] * (2 * dim) for _ in range(2 * dim)]
    drawn = {2: [], 4: []}
    for m, start in zip(sizes, accumulate(sizes, initial=0)):
        block = sorted(order[start:start + m])
        if drawn[m] and draw(st.booleans()):
            Jb = draw(st.sampled_from(drawn[m]))
        else:
            Jb = draw(rational_J(m))
            drawn[m].append(Jb)
        idx = block + [dim + i for i in block]
        for r, row in zip(idx, Jb):
            for c, x in zip(idx, row):
                J[r][c] = x
    return dim, J


@settings(max_examples=KERNEL_EXAMPLES // 2, deadline=None, derandomize=True,
          database=None)
@given(product_J())
def test_product_grading_matches_reference_on_random_products(dim_J):
    dim, J = dim_J
    gcs._validate_J(dim, J)
    assert_matches_reference(dim, J)


@settings(max_examples=KERNEL_EXAMPLES // 2, deadline=None, derandomize=True,
          database=None)
@given(st.one_of(one_block_J(), product_J()))
def test_spinorial_N_matches_the_acc_loop_on_random_J(dim_J):
    dim, J = dim_J
    assert _spinorial_N(dim, J) == reference_spinorial_N(dim, J)


def test_spinorial_N_matches_the_acc_loop_on_family_J():
    """The N(t) of every committed family with a polynomial J(t), shifted to
    its basepoint as the moving chain takes it."""
    kinds = set()
    for name, f in chain(corpus_families(), model_families()):
        Jt = f.J_poly()
        if Jt is None:
            continue
        Jt = [[x.shift(f.basepoint) for x in row] for row in Jt]
        if any(not x.is_constant() for row in Jt for x in row):
            kinds.add(f.kind)
        assert _spinorial_N(f.model.dim, Jt) == reference_spinorial_N(
            f.model.dim, Jt), name
    assert kinds == {"complex", "general"}

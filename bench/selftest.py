"""Checks of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

Run from the repository root.  The file is not named `test_*.py`, so the
repository's own test run does not collect it: the exact counts below
describe the engine at the commit the references were recorded from, and a
change that legitimately does less work is expected to change them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import dense  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REF = json.loads(run.REFERENCE.read_text())


@pytest.fixture
def bench():
    b = run.Bench(ROOT)
    yield b
    b.close()


def test_tracer_counts_every_call_site(bench):
    path = str(ROOT / "corpus" / "torus6-kahler.gcm")
    plain = bench.spawn("hodge", [path], "plain")
    traced = bench.spawn("hodge", [path], "trace")
    counts = traced["trace"]["counts"]
    assert counts["gcs.structs_built"] == 2
    assert counts["cohomology.twisted_builds"] == 6
    assert counts["cohomology.delbar_builds"] == 4
    assert counts["linalg.insert.calls"] == 21052
    assert traced["jobs"][0]["sha256"] == plain["jobs"][0]["sha256"]
    assert plain["jobs"][0]["sha256"] == REF["corpus"]["hodge torus6-kahler.gcm"]["sha256"]


def test_speed_sampling_keeps_reports_and_rescales(bench):
    path = str(ROOT / "corpus" / "torus6-kahler.gcm")
    res = bench.spawn("hodge", [path], "plain", speed=True)
    job = res["jobs"][0]
    assert job["sha256"] == REF["corpus"]["hodge torus6-kahler.gcm"]["sha256"]
    assert 0 < job["own"] <= job["end"] - job["start"]
    assert job["norm"] > 0 and res["setup_norm"] > 0


def test_counting_run_keeps_reports(bench):
    path = str(ROOT / "corpus" / "kt-twisted.gcm")
    counted = bench.spawn("ddbar", [path], "count")
    assert counted["count"]["ops"] > 0 and counted["count"]["axpy"] > 0
    assert counted["jobs"][0]["sha256"] == REF["corpus"]["ddbar kt-twisted.gcm"]["sha256"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_command_per_fresh_worker_and_no_repeats(workload, tmp_path):
    plan = workloads.plan(workload, ROOT, tmp_path, 0)
    pairs = [(cmd, f) for cmd, files in plan for f in files]
    assert len(pairs) == len(set(pairs))
    assert len({cmd for cmd, _ in plan}) == len(plan)
    assert all(files == sorted(files) for _, files in plan)


def test_workers_are_fresh_processes(bench):
    files = [str(ROOT / "corpus" / "kt.gcm")]
    res = bench.run_pass([("emit", files), ("check", files)], "plain")
    assert len({r["pid"] for _c, _f, r in res}) == 2
    reused = [(c, f, dict(r, pid=res[0][2]["pid"])) for c, f, r in res]
    failures = []
    expected = run.expected_answers("corpus", 0, REF)
    _, failed, _ = run.check_pass(reused, expected, failures)
    assert failed == 1 and "reused" in failures[0]


def test_reference_matches_what_the_repo_states():
    corpus = REF["corpus"]
    # README: "ddbar corpus/kt-twisted.gcm exits 1: degenerates at E_1 but
    # the del-delbar lemma fails"
    kt = corpus["ddbar kt-twisted.gcm"]
    assert kt["exit"] == 1
    assert [v for _n, v in kt["verdicts"]] == ["pass", "fail"]
    # tests/test_cli.py
    assert corpus["check kt.gcm"]["exit"] == 0
    assert corpus["hodge torus4-symplectic.gcm"]["exit"] == 0
    # tests/test_acceptance.py criteria 4, 5 and 10: the tori satisfy ddbar,
    # Lefschetz and the Kaehler pair checks
    for key in ("ddbar torus4-complex.gcm", "ddbar torus6-complex.gcm",
                "lefschetz torus4-symplectic.gcm", "lefschetz torus6-symplectic.gcm",
                "gk torus6-kahler.gcm", "check torus6-kahler.gcm"):
        assert corpus[key]["exit"] == 0, key
    # criterion 1 / README: the neg-* files exercise failure surfaces
    assert corpus["check neg-jacobi.gcm"]["exit"] == 1
    assert len(corpus) == 11 * 18
    assert {v["exit"] for v in corpus.values()} == {0, 1}


def test_identity_change_of_basis_reproduces_base_reports(bench, tmp_path):
    for name in workloads.DENSE6_BASES:
        text = (ROOT / "corpus" / f"{name}.gcm").read_text()
        dim = dense.parse_model_text(text)["dim"]
        out = tmp_path / f"{name}.gcm"
        out.write_text(dense.transform_model(text, dense.identity(dim), "identity"))
        for cmd, names in workloads.DENSE6_COMMANDS.items():
            if name in names:
                job = bench.spawn(cmd, [str(out)], "plain")["jobs"][0]
                assert job["sha256"] == REF["corpus"][f"{cmd} {name}.gcm"]["sha256"]


@pytest.mark.parametrize("seed", range(6))
def test_generated_models_parse_and_are_valid(seed, tmp_path):
    from gchodge.modelfile import parse_model
    workloads.write_dense6(ROOT / "corpus", tmp_path, seed)
    for name in workloads.DENSE6_BASES:
        text = (tmp_path / f"{name}.gcm").read_text()
        assert f"seed = {seed}" in text.splitlines()[0]
        assert parse_model(text).model(name=name).validate().ok


def test_generator_is_deterministic_and_seeded(tmp_path):
    workloads.write_dense6(ROOT / "corpus", tmp_path / "a", 3)
    workloads.write_dense6(ROOT / "corpus", tmp_path / "b", 3)
    workloads.write_dense6(ROOT / "corpus", tmp_path / "c", 4)
    name = "torus6-symplectic.gcm"
    a, b, c = ((tmp_path / d / name).read_text() for d in "abc")
    assert a == b and a != c


def test_change_of_basis_inverts():
    rng = random.Random(1)
    a = dense.random_basis(6, rng)
    prod = dense.matmul(a, dense.inverse(a))
    assert prod == dense.identity(6)


def test_madd_operands_rebuild_through_public_constructor():
    from fractions import Fraction
    from gchodge.scalars import QI
    ops = json.loads(run.OPERANDS.read_text())
    assert set(ops) == set(workloads.WORKLOADS)
    for rows in ops.values():
        assert len(rows) >= 500
        for ar, ai, br, bi in rows[:50]:
            a = QI(Fraction(ar), Fraction(ai))
            assert (str(a.re), str(a.im)) == (ar, ai)
            assert isinstance(a * QI(Fraction(br), Fraction(bi)), QI)

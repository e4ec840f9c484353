"""Seeded rational change of basis for the dense6 workload.

Written with `fractions.Fraction` only and never with the engine under test,
so a defect in the engine's arithmetic cannot hide in its own inputs.

A change of basis of g* is an invertible matrix A with f^a = sum_k A[a][k] e^k.
Forms are pulled back by substituting e^k = sum_a Ainv[k][a] f^a, the
structure lines become d f^a = sum_k A[a][k] d e^k, and a complex structure
acting on vectors becomes A I Ainv.  Every verdict and every dimension the
engine reports is invariant under this map, so the base model's answers are
the reference for the transformed one.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations

Blade = tuple[int, ...]          # sorted 1-based generator indices
FormQ = dict[Blade, Fraction]

_TERM = re.compile(r"^(-?\d+(?:/\d+)?)\s+(e\d+(?:\^e\d+)*)$")


def parse_form(text: str) -> FormQ:
    """Parse `c e1^e2 + -c e3^e4` terms with real rational coefficients."""
    out: FormQ = {}
    text = text.strip()
    if text == "0":
        return out
    for chunk in text.replace("- ", "+ -").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _TERM.match(chunk)
        if not m:
            raise ValueError(f"unsupported term {chunk!r}")
        idx = [int(g[1:]) for g in m.group(2).split("^")]
        sign = _sort_sign(idx)
        if sign == 0:
            continue
        key = tuple(sorted(idx))
        out[key] = out.get(key, Fraction(0)) + sign * Fraction(m.group(1))
    return {k: v for k, v in out.items() if v}


def _sort_sign(idx: list[int]) -> int:
    if len(set(idx)) != len(idx):
        return 0
    inv = sum(1 for a, b in combinations(range(len(idx)), 2) if idx[a] > idx[b])
    return -1 if inv % 2 else 1


def det(m: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return out


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


STEPS = (Fraction(3, 2), Fraction(5, 3), Fraction(2, 5), Fraction(7, 2),
         Fraction(3, 7))


def random_basis(dim: int, rng: random.Random) -> list[list[Fraction]]:
    """f^i = e^i +- c_i e^(i+1) with fixed c_i and seeded signs.

    Only the signs depend on the seed; the pattern and the size of the
    entries do not, so every seed asks the engine for about the same work.
    """
    m = identity(dim)
    for i in range(dim - 1):
        m[i][i + 1] = rng.choice((-1, 1)) * STEPS[i]
    return m


def pull_back(form: FormQ, ainv: list[list[Fraction]]) -> FormQ:
    """Rewrite a form in e^k as a form in f^a, using e^k = sum_a ainv[k][a] f^a."""
    dim = len(ainv)
    out: FormQ = {}
    for blade, c in form.items():
        for target in combinations(range(1, dim + 1), len(blade)):
            minor = det([[ainv[k - 1][a - 1] for a in target] for k in blade])
            if minor:
                out[target] = out.get(target, Fraction(0)) + c * minor
    return {k: v for k, v in out.items() if v}


def transform_structure(dgen: dict[int, FormQ], a, ainv) -> dict[int, FormQ]:
    """d f^a = sum_k a[a][k] d e^k, expressed in the f basis."""
    dim = len(a)
    out: dict[int, FormQ] = {}
    for row in range(dim):
        acc: FormQ = {}
        for k, dk in dgen.items():
            coef = a[row][k - 1]
            if coef:
                for blade, c in dk.items():
                    acc[blade] = acc.get(blade, Fraction(0)) + coef * c
        acc = pull_back({b: v for b, v in acc.items() if v}, ainv)
        if acc:
            out[row + 1] = acc
    return out


def emit_form(form: FormQ) -> str:
    if not form:
        return "0"
    return " + ".join(f"{v} " + "^".join(f"e{i}" for i in blade)
                      for blade, v in sorted(form.items(),
                                             key=lambda kv: (len(kv[0]), kv[0])))


def parse_model_text(text: str) -> dict:
    """The subset of the .gcm format the dense6 base models use."""
    model = {"dim": None, "d": {}, "H": {}, "blocks": []}
    block = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            kind, name = line[1:-1].split()
            block = {"kind": kind, "name": name, "data": {}}
            model["blocks"].append(block)
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        if block is not None:
            block["data"][key] = val
        elif key == "dim":
            model["dim"] = int(val)
        elif key == "H":
            model["H"] = parse_form(val)
        elif key.startswith("d "):
            model["d"][int(key[2:].strip()[1:])] = parse_form(val)
        else:
            raise ValueError(f"unsupported key {key!r}")
    return model


def transform_model(text: str, a: list[list[Fraction]], header: str) -> str:
    """Apply the change of basis `a` to a model file's text."""
    model = parse_model_text(text)
    ainv = inverse(a)
    lines = [f"# {header}", f"dim = {model['dim']}"]
    for k, form in sorted(transform_structure(model["d"], a, ainv).items()):
        lines.append(f"d e{k} = {emit_form(form)}")
    lines.append(f"H = {emit_form(pull_back(model['H'], ainv))}")
    for block in model["blocks"]:
        lines += ["", f"[{block['kind']} {block['name']}]"]
        for key, val in block["data"].items():
            if key in ("omega", "B"):
                val = emit_form(pull_back(parse_form(val), ainv))
            elif key == "I":
                mat = [[Fraction(x) for x in row.split(",")]
                       for row in val.split(";") if row.strip()]
                mat = matmul(matmul(a, mat), ainv)
                val = "; ".join(", ".join(str(x) for x in row) for row in mat)
            else:
                raise ValueError(f"unsupported block key {key!r}")
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def identity(dim: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]

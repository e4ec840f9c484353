"""The three workloads as plans: one (command, files) entry per worker process.

Each entry becomes one fresh interpreter, and no (command, file) pair occurs
twice in a pass, so no cache inside the engine can outlive what a single
`gchodge <command> <dir> --all` run would keep.

- corpus: all 11 commands over the 18 files of `corpus/`, many short jobs on
  dim-4/6 models with unit coefficients; structure construction and the
  axiom suite dominate, and every model layer and exit codes 0 and 1 occur.
- scale8: `cohomology` and `hodge` on two dim-8 models (256-dim spinor
  space); echelon inserts and the Froelicher pages dominate.
- dense6: `cohomology`, `ddbar`, `hodge`, plus `lefschetz` on the symplectic
  and `mhs` on the complex model, on three corpus models under a seeded
  rational change of basis; dense spinor vectors with multi-digit rationals.
"""

from __future__ import annotations

import random
from pathlib import Path

import dense

COMMANDS = ("check", "cohomology", "grading", "ddbar", "hodge", "lefschetz",
            "mhs", "family", "gcy", "gk", "emit")
WORKLOADS = ("corpus", "scale8", "dense6")

SCALE8_MODELS = {
    "torus8": ("# abelian 8-torus, standard symplectic structure\n"
               "dim = 8\nH = 0\n\n[symplectic main]\n"
               "omega = 1 e1^e2 + 1 e3^e4 + 1 e5^e6 + 1 e7^e8\n"),
    "kt8": ("# Kodaira-Thurston times the abelian 4-torus\n"
            "dim = 8\nd e4 = 1 e1^e2\nH = 0\n\n[symplectic main]\n"
            "omega = 1 e1^e4 + 1 e2^e3 + 1 e5^e6 + 1 e7^e8\n"),
}

DENSE6_BASES = ("kt-twisted", "torus6-complex", "torus6-symplectic")
DENSE6_COMMANDS = {
    "cohomology": DENSE6_BASES,
    "ddbar": DENSE6_BASES,
    "hodge": DENSE6_BASES,
    "lefschetz": ("kt-twisted", "torus6-symplectic"),
    "mhs": ("torus6-complex",),
}


def write_scale8(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, text in SCALE8_MODELS.items():
        (out / f"{name}.gcm").write_text(text)


def write_dense6(corpus: Path, out: Path, seed: int) -> None:
    """The three base models under one seeded change of basis each; the
    files keep their base names, so reports name the same file."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    for name in DENSE6_BASES:
        text = (corpus / f"{name}.gcm").read_text()
        dim = dense.parse_model_text(text)["dim"]
        basis = dense.random_basis(dim, rng)
        header = f"{name} under a seeded rational change of basis, seed = {seed}"
        (out / f"{name}.gcm").write_text(dense.transform_model(text, basis, header))


def plan(workload: str, root: Path, build: Path, seed: int):
    """[(command, [file path, ...]), ...] in run order, files sorted by name."""
    if workload == "corpus":
        files = sorted(str(p) for p in (root / "corpus").rglob("*.gcm"))
        return [(cmd, files) for cmd in COMMANDS]
    if workload == "scale8":
        out = build / "scale8"
        write_scale8(out)
        files = sorted(str(p) for p in out.glob("*.gcm"))
        return [("cohomology", files), ("hodge", files)]
    if workload == "dense6":
        out = build / "dense6" / f"seed-{seed}"
        write_dense6(root / "corpus", out, seed)
        return [(cmd, [str(out / f"{name}.gcm") for name in names])
                for cmd, names in DENSE6_COMMANDS.items()]
    raise ValueError(f"unknown workload {workload!r}")


def reference_key(command: str, path: str) -> str:
    return f"{command} {Path(path).name}"

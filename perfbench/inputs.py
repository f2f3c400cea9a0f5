"""Seeded inputs for the verifier benchmark.

Each workload is a `qonsager verify` config plus, for `imported`, the model
files it names. Everything is written from the workload name and the seed
alone, with stdlib `fractions` and `random`, so the program under test sees
only finished files and never helps make its own inputs. The same seed
always writes the same bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("grid", "deep", "imported")

CONFIG_NAME = "config.json"
REPORT_NAME = "report.jsonl"

# The acceptance grid: d in {1,2,3} x q x (a, b); phi is solved for d >= 2.
GRID_D = (1, 2, 3)
GRID_Q = ("2", "3/2", "-2")
GRID_AB = (("3", "5"), ("5", "3"), ("1/7", "2/9"))

DEEP_TARGET = {"d": 6, "q": "3/2", "a": "1/7", "b": "2/9"}

# Imported pairs: a valid split-basis model at (q, a, b), conjugated by a
# seeded integer matrix P = S U with entries in [-P_BOUND, P_BOUND]. U is one
# fixed dense invertible matrix per size (drawn from U_SEED + size); the seed
# picks the signed row permutation S. Every seed thus writes entries of the
# same sizes, only moved and signed, so that a run's cost does not depend on
# its seed. A P drawn whole from the seed gave the d = 5 file 2200 to 3300
# bits of entries, depending on the seed.
IMPORTED_D = (3, 4, 5)
IMPORTED_QAB = (Fraction(2), Fraction(3), Fraction(5))
P_BOUND = 3
U_SEED = 1000


def fmt(x: Fraction) -> str:
    """The program's scalar format: `p` or `p/q`."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def eigenvalue(i: int, d: int, q: Fraction, s: Fraction) -> Fraction:
    """theta_i = s q^(d-2i) + s^-1 q^(2i-d); s = a gives A, s = b gives A*."""
    return s * q ** (d - 2 * i) + q ** (2 * i - d) / s


def split_sequence(d: int, q: Fraction, a: Fraction, b: Fraction) -> list[Fraction]:
    """phi_1..phi_d of the q-Racah split sequence, family parameter c = 1.

    phi_i = h h* Q^(1-2i) (1-Q^i)(1-Q^(i-d-1))(1-r1 Q^i)(1-r2 Q^i) with
    Q = q^2, h = a q^d, h* = b q^d and r1 = r2 = 1/(a b q^(d+1)).
    """
    big_q = q * q
    h, h_star = a * q**d, b * q**d
    r = 1 / (a * b * q ** (d + 1))
    return [
        h * h_star * big_q ** (1 - 2 * i) * (1 - big_q**i) * (1 - big_q ** (i - d - 1)) * (1 - r * big_q**i) ** 2
        for i in range(1, d + 1)
    ]


def split_pair(d: int, q: Fraction, a: Fraction, b: Fraction):
    """The split-basis pair: A lower bidiagonal, A* upper bidiagonal."""
    n = d + 1
    phi = split_sequence(d, q, a, b)
    A = [[Fraction(0)] * n for _ in range(n)]
    As = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = eigenvalue(i, d, q, a)
        As[i][i] = eigenvalue(i, d, q, b)
    for i in range(d):
        A[i + 1][i] = Fraction(1)
        As[i][i + 1] = phi[i]
    return A, As


def matmul(x, y):
    return [[sum(p * r for p, r in zip(row, col)) for col in zip(*y)] for row in x]


def inverse(m):
    """Gauss-Jordan inverse over Q, or None when m is singular."""
    n = len(m)
    aug = [[Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_invertible(n: int, rng: random.Random):
    """An invertible integer matrix with entries in [-P_BOUND, P_BOUND] and its inverse."""
    while True:
        p = [[Fraction(rng.randint(-P_BOUND, P_BOUND)) for _ in range(n)] for _ in range(n)]
        p_inv = inverse(p)
        if p_inv is not None:
            return p, p_inv


def model_text(d: int, q: Fraction, a: Fraction, b: Fraction, A, As) -> str:
    """A model file holding an imported (A, A*) pair."""

    def block(m):
        rows = "\n".join(" ".join(fmt(e) for e in row) for row in m)
        return f"{len(m)} {len(m[0])}\n{rows}"

    return f"{d} {fmt(q)} {fmt(a)} {fmt(b)}\nA:\n{block(A)}\nAstar:\n{block(As)}\n"


def seeded_conjugator(n: int, rng: random.Random):
    """P = S U and its inverse: the fixed U of size n under a signed row permutation S from `rng`."""
    u, _ = random_invertible(n, random.Random(U_SEED + n))
    rows = list(range(n))
    rng.shuffle(rows)
    signs = [rng.choice((1, -1)) for _ in rows]
    p = [[sign * e for e in u[r]] for r, sign in zip(rows, signs)]
    return p, inverse(p)


def dense_model_text(d: int, rng: random.Random) -> str:
    """The model file of (P A P^-1, P A* P^-1) for a seeded P at IMPORTED_QAB."""
    q, a, b = IMPORTED_QAB
    A, As = split_pair(d, q, a, b)
    p, p_inv = seeded_conjugator(d + 1, rng)
    return model_text(d, q, a, b, matmul(matmul(p, A), p_inv), matmul(matmul(p, As), p_inv))


def targets(workload: str, seed: int, directory: Path) -> list[dict]:
    """Config targets of a workload; writes the model files it needs."""
    rng = random.Random(seed)
    if workload == "grid":
        specs = []
        for d in GRID_D:
            for q in GRID_Q:
                for a, b in GRID_AB:
                    spec = {"d": d, "q": q, "a": a, "b": b}
                    if d == 1:
                        spec["phi"] = ["1"]
                    specs.append(spec)
        # The seed only orders the targets; the work is the same for every seed.
        rng.shuffle(specs)
        return specs
    if workload == "deep":
        return [dict(DEEP_TARGET)]
    if workload == "imported":
        specs = []
        for d in IMPORTED_D:
            name = f"imported-d{d}.model"
            (directory / name).write_text(dense_model_text(d, rng), encoding="utf-8")
            specs.append({"file": name})
        return specs
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def write_config(directory: Path, specs: list[dict]) -> Path:
    """Write a serial all-suites config; paths inside it are relative to `directory`."""
    config = {"suites": ["all"], "output": REPORT_NAME, "targets": specs}
    path = directory / CONFIG_NAME
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return path


def write_inputs(workload: str, seed: int, directory: Path) -> int:
    """Write the config and model files of one workload; returns the target count."""
    directory.mkdir(parents=True, exist_ok=True)
    specs = targets(workload, seed, directory)
    write_config(directory, specs)
    return len(specs)

"""Dense exact linear algebra over Gaussian-rational scalars.

Only desk-scale matrices pass through here (substitution blocks, scaling
generator searches, the Cayley unitaries and hermitian matrices of the
variational and phase-separation lemmas), so plain Gauss-Jordan
elimination with exact pivots is all that is needed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .scalar import ONE, ZERO, Scalar, gaussian

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ZERO
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        acc = ZERO
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def vector_text(v: Vector) -> str:
    """``0`` for a zero vector, else its entries in brackets."""
    return "[" + ", ".join(map(str, v)) + "]" if any(v) else "0"


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if not m[i][c].is_zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def invert(matrix: Matrix) -> Matrix | None:
    """Exact inverse, or None when the matrix is singular."""
    n = len(matrix)
    aug = [matrix[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of A x = b (free variables set to zero), or None."""
    if not a:
        return None if any(not x.is_zero for x in b) else []
    cols = len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(len(a))]
    red, pivots = rref(aug)
    if cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the exact nullspace of A."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def random_hermitian(rng: random.Random, spectrum: Sequence[int]) -> tuple[Matrix, list[Vector]]:
    """Exact hermitian U diag(spectrum) U^dagger and the columns of U, its
    eigenvectors.  U = (I - K)(I + K)^-1 is the Cayley transform of a random
    skew-hermitian K with small Gaussian-integer entries: K's eigenvalues are
    imaginary, so I + K is always invertible and U is exactly unitary."""
    n = len(spectrum)
    k = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        k[i][i] = gaussian(0, rng.randint(-2, 2), 1)
        for j in range(i + 1, n):
            k[i][j] = gaussian(rng.randint(-2, 2), rng.randint(-2, 2), 1)
            k[j][i] = -k[i][j].conjugate()
    plus = [[ONE + x if i == j else x for j, x in enumerate(row)] for i, row in enumerate(k)]
    minus = [[ONE - x if i == j else -x for j, x in enumerate(row)] for i, row in enumerate(k)]
    u = mat_mul(minus, invert(plus))
    op = [[sum((d * a * b.conjugate() for d, a, b in zip(spectrum, ri, rj)), ZERO)
           for rj in u] for ri in u]
    return op, [list(col) for col in zip(*u)]

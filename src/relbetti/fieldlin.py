"""Exact linear algebra over a prime field GF(p).

Everything downstream (ranks, kernels, homology) reduces to the deterministic
RREF implemented here: pivots are chosen leftmost-column-first and within a
column the first nonzero row wins, so every basis this module emits is a
function of the input entries alone. Matrices are dense, immutable and carry
their modulus.

All arithmetic is exact.  rref eliminates on Python ints, which cannot
overflow.  Array arithmetic stays in int64: entries are residues below
p < 2^31, so one product of two entries stays below 2^62.  Two unreduced
products still fit in int64 and three do not, so a sum holds at most one
unreduced product: every other term is reduced before it is added.
"""
from functools import lru_cache

import numpy as np

from .errors import ComplexInvalid, NoSolution

__all__ = [
    "Matrix",
    "NoSolution",
    "ComplexInvalid",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "homology_dims",
    "kron",
    "hstack",
    "is_prime",
    "check_modulus",
    "complement_coords",
    "quotient",
]

_P_LIMIT = 1 << 31


@lru_cache(maxsize=64)
def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_modulus(p):
    """The one modulus validator: an integer prime below 2^31, as an int."""
    if not isinstance(p, (int, np.integer)) or not (2 <= p < _P_LIMIT):
        raise ValueError(f"modulus must be an integer prime below 2^31, got {p!r}")
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


class Matrix:
    """Immutable dense matrix over GF(p). entries row-major, reduced mod p."""

    __slots__ = ("a", "p")

    def __init__(self, entries, p):
        p = check_modulus(p)
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-dimensional, got shape {a.shape}")
        a = np.mod(a, p)
        a.setflags(write=False)
        self.a = a
        self.p = p

    @classmethod
    def _trusted(cls, a, p):
        """Wrap an int64 2-D array already reduced mod p, a modulus some
        Matrix has passed through check_modulus. Takes the array over: it is
        made read-only, not copied or checked."""
        m = object.__new__(cls)
        a.setflags(write=False)
        m.a = a
        m.p = p
        return m

    @staticmethod
    def zeros(rows, cols, p):
        return Matrix(np.zeros((rows, cols), dtype=np.int64), p)

    @staticmethod
    def identity(n, p):
        return Matrix(np.eye(n, dtype=np.int64), p)

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def tolist(self):
        return self.a.tolist()

    def is_zero(self):
        return not np.count_nonzero(self.a)

    def transpose(self):
        return Matrix._trusted(self.a.T, self.p)

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return Matrix._trusted(matmul_exact(self.a, other.a, self.p), self.p)

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.a + other.a, self.p)

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.a - other.a, self.p)

    def __neg__(self):
        return Matrix(-self.a, self.p)

    def scale(self, c):
        return Matrix(self.a * (int(c) % self.p), self.p)

    def _same_shape(self, other):
        if not isinstance(other, Matrix) or self.p != other.p:
            raise ValueError("incompatible operand")
        if self.a.shape != other.a.shape:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    __hash__ = None

    def take_cols(self, idx):
        return Matrix._trusted(self.a[:, list(idx)], self.p)

    def col(self, j):
        return Matrix._trusted(self.a[:, j : j + 1], self.p)

    def __repr__(self):
        return f"Matrix({self.a.tolist()}, p={self.p})"


def matmul_exact(a, b, p):
    """Product of two int64 arrays of residues mod p, reduced mod p."""
    inner = a.shape[1]
    # int64 products stay exact while inner*(p-1)^2 < 2^63
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if (p - 1) * (p - 1) <= (2**63 - 1) // inner:
        # ndarray.dot is @ on 2-D arrays, with less overhead on small ones
        return a.dot(b) % p
    prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64)


def hstack(mats):
    """A nonempty list of matrices of one modulus, side by side."""
    p = mats[0].p
    if any(m.p != p for m in mats):
        raise ValueError("modulus mismatch")
    return Matrix._trusted(np.concatenate([m.a for m in mats], axis=1), p)


def kron(a, b):
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    (ar, ac), (br, bc) = a.a.shape, b.a.shape
    prod = a.a[:, None, :, None] * b.a[None, :, None, :]
    np.remainder(prod, a.p, out=prod)
    return Matrix._trusted(prod.reshape(ar * br, ac * bc), a.p)


def rref(m):
    """Reduced row echelon form. Returns (Matrix, pivot column tuple).

    Deterministic: columns scanned left to right, first nonzero row at or
    below the current row becomes the pivot. Gauss-Jordan on the rows as
    lists of Python ints: the pivot row is scaled from its column on, and
    each other row with a nonzero there is cleared by one pass over the
    columns from it on; left of the pivot column the pivot row is zero,
    so nothing there changes. An empty matrix is its own form, returned
    as it is.
    """
    p = m.p
    rows, cols = m.a.shape
    if not rows or not cols:
        return m, ()
    a = m.a.tolist()
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            continue
        top = a[i]
        if i != r:
            a[i] = a[r]
            a[r] = top
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top[c:] = [x * inv % p for x in top[c:]]
        tail = top[c:]
        for j, row in enumerate(a):
            f = row[c]
            if f and j != r:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return Matrix._trusted(np.array(a, dtype=np.int64), p), tuple(pivots)


def rank(m):
    return len(rref(m)[1])


def column_basis(m):
    """The reduced echelon basis of the column span of m, the transposed
    nonzero rows of rref(m^T): each column's first nonzero is a 1 where
    the others are 0, so the basis is the identity at its pivot_rows."""
    r, pivots = rref(m.transpose())
    return Matrix._trusted(r.a[: len(pivots)].T, m.p)


def pivot_rows(basis):
    """The first nonzero row of each column of a column_basis."""
    return (basis.a != 0).argmax(axis=0) if basis.rows else np.arange(0)


def kernel_basis(m):
    """Basis of ker(m) as columns, one per free column of the RREF.

    The basis column for free column f has a 1 in slot f and back-substituted
    pivot entries above; columns ordered by ascending free-column index.
    So slot f is the column's last nonzero and the basis is the identity
    at its free_rows: a kernel vector's coordinates are its entries there.
    """
    r, pivots = rref(m)
    p = m.p
    pset = set(pivots)
    free = [c for c in range(m.cols) if c not in pset]
    k = np.zeros((m.cols, len(free)), dtype=np.int64)
    if free:
        k[free, range(len(free))] = 1
        if pivots:
            k[list(pivots)] = (-r.a[: len(pivots), free]) % p
    return Matrix._trusted(k, p)


def free_rows(basis):
    """The last nonzero row of each column of a kernel_basis."""
    return basis.rows - 1 - (basis.a[::-1] != 0).argmax(axis=0)


def solve(m, b):
    """Particular solution X of m @ X = b with free variables set to 0."""
    if m.p != b.p:
        raise ValueError("modulus mismatch")
    if m.rows != b.rows:
        raise ValueError("row mismatch")
    aug = hstack([m, b])
    r, pivots = rref(aug)
    bad = [c for c in pivots if c >= m.cols]
    if bad:
        raise NoSolution(f"inconsistent system (pivot in column {bad[0]})")
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[list(pivots)] = r.a[: len(pivots), m.cols :]
    return Matrix._trusted(x, m.p)


def complement_coords(basis):
    """Standard coordinates completing a column_basis to a basis of the
    ambient space: its rows other than its pivot_rows, ascending."""
    pivots = set(pivot_rows(basis).tolist())
    return [q for q in range(basis.rows) if q not in pivots]


def quotient(basis):
    """Projection onto the quotient by the span of a column_basis, indexed
    by its complement_coords Q: the identity at Q and -basis[Q] at the
    pivot rows, where basis is the identity, so it kills basis and splits
    the standard section, the identity's columns at Q.  Returns (proj, Q)."""
    coords = complement_coords(basis)
    proj = np.zeros((len(coords), basis.rows), dtype=np.int64)
    proj[range(len(coords)), coords] = 1
    proj[:, pivot_rows(basis)] = (-basis.a[coords]) % basis.p
    return Matrix._trusted(proj, basis.p), coords


def homology_dims(dims, diffs, p):
    """Homology dimensions of the chain complex C_0 <- C_1 <- ... <- C_k.

    dims lists the space dimensions d_0..d_k; diffs[i] is the boundary map
    C_{i+1} -> C_i, a dims[i] x dims[i+1] matrix. Validates consecutive
    composites vanish before trusting rank arithmetic.
    """
    p = check_modulus(p)
    dims = [int(d) for d in dims]
    if not dims:
        raise ComplexInvalid("complex needs at least one space")
    if any(d < 0 for d in dims):
        raise ComplexInvalid("negative dimension")
    if len(diffs) != len(dims) - 1:
        raise ComplexInvalid(
            f"{len(dims)} spaces need {len(dims) - 1} differentials, got {len(diffs)}"
        )
    for i, d in enumerate(diffs):
        if d.p != p:
            raise ComplexInvalid("modulus mismatch in complex")
        if d.rows != dims[i] or d.cols != dims[i + 1]:
            raise ComplexInvalid(
                f"differential {i + 1} has shape {d.rows}x{d.cols}, "
                f"expected {dims[i]}x{dims[i + 1]}"
            )
    for i in range(len(diffs) - 1):
        if not (diffs[i] @ diffs[i + 1]).is_zero():
            raise ComplexInvalid(f"composite of differentials {i + 1},{i + 2} nonzero")
    ranks = [rank(d) for d in diffs]
    out = []
    for d in range(len(dims)):
        ker = dims[d] - (ranks[d - 1] if d >= 1 else 0)
        img = ranks[d] if d < len(ranks) else 0
        out.append(ker - img)
    return out

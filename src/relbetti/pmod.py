"""Modules over a finite poset with GF(p) coefficients.

A module assigns a finite-dimensional space to every element and a matrix to
every cover relation; composites along longer chains are derived on demand.
Constructors cover the standard families (free modules, indicator modules of
upsets, spreads) plus the staircase demo module used throughout the tests.
"""

from functools import lru_cache
from itertools import compress

import numpy as np

from relbetti.errors import (
    FunctorialityViolation,
    InvalidSpread,
    PosetMismatch,
)
from relbetti.fieldlin import (
    Matrix,
    check_modulus,
    column_basis,
    hstack,
    rank,
)
from relbetti.poset import Poset, bit_elements, json_object, parse_nonnegative
from relbetti.poset import union_bits


@lru_cache(maxsize=None)
def cached_zeros(rows, cols, p):
    return Matrix.zeros(rows, cols, p)


@lru_cache(maxsize=None)
def cached_identity(n, p):
    return Matrix.identity(n, p)


class PersistenceModule:
    """Functor from a finite poset to GF(p) vector spaces.

    Data: one dimension per element, one matrix per cover (a, b) of shape
    dims[b] x dims[a]. Maps omitted from the constructor default to zero,
    and only the given maps whose two ends are nonzero are stored.
    """

    def __init__(self, poset, p, dims, cover_maps):
        self.poset = poset
        self.p = check_modulus(p)
        dims = tuple(map(int, dims))
        if len(dims) != poset.n:
            raise ValueError("need one dimension per poset element")
        if min(dims, default=0) < 0:
            raise ValueError("dimensions must be nonnegative")
        self.dims = dims
        # bit x set iff dims[x] > 0
        support = 0
        for x in compress(range(poset.n), dims):
            support |= 1 << x
        self.support_bits = support
        extra = set(cover_maps) - poset.covers
        if extra:
            raise ValueError(f"maps attached to non-covers: {sorted(extra)}")
        maps = {}
        for a, b in sorted(cover_maps):
            m = cover_maps[(a, b)]
            if m.p != self.p:
                raise ValueError("cover map modulus differs from module modulus")
            if m.rows != dims[b] or m.cols != dims[a]:
                raise ValueError(
                    f"cover map {poset.names[a]!r} < {poset.names[b]!r} has shape "
                    f"{m.rows}x{m.cols}, expected {dims[b]}x{dims[a]}"
                )
            if dims[a] and dims[b]:
                maps[(a, b)] = m
        self._cover_maps = maps
        self._composites = {}
        # maps_from's stacks, by source element
        self._stacks = {}
        # homalg.nat_basis's presentation of this module, built on first use
        self._presentation = None
        # relative._nat_module_data's hom modules of this module, by
        # collection
        self._hom_modules = {}

    def cover_map(self, a, b):
        """The map on the cover a < b; KeyError on a non-cover."""
        if (a, b) in self._cover_maps:
            return self._cover_maps[(a, b)]
        if (a, b) not in self.poset.covers:
            raise KeyError((a, b))
        return cached_zeros(self.dims[b], self.dims[a], self.p)

    def map(self, a, b):
        """Transition matrix for a <= b along the canonical cover chain."""
        if a == b:
            return cached_identity(self.dims[a], self.p)
        if not self.poset.leq(a, b):
            raise ValueError(
                f"{self.poset.names[a]!r} is not below {self.poset.names[b]!r}"
            )
        got = self._composites.get((a, b))
        if got is None:
            c = self.poset.step_toward(a, b)
            got = self.map(c, b) @ self.cover_map(a, c)
            self._composites[(a, b)] = got
        return got

    def maps_from(self, a):
        """(stack, offsets): map(a, x) for every x above a in the support,
        in ascending order, stacked by rows into one read-only int64 array;
        offsets[x] is the first row of x's block, which has dims[x] rows.
        A zero fiber at a gives a stack with no columns.  Cached on the
        module, so everything pushed out of a shares one product."""
        got = self._stacks.get(a)
        if got is None:
            offsets = {}
            blocks = []
            row = 0
            for x in bit_elements(self.poset.up_bits()[a] & self.support_bits):
                offsets[x] = row
                blocks.append(self.map(a, x).a)
                row += self.dims[x]
            stack = (
                np.concatenate(blocks, axis=0) if blocks
                else np.zeros((0, self.dims[a]), dtype=np.int64)
            )
            stack.flags.writeable = False
            got = self._stacks[a] = stack, offsets
        return got

    def __eq__(self, other):
        if not isinstance(other, PersistenceModule):
            return NotImplemented
        if self is other:
            return True
        if (self.poset, self.p, self.dims) != (other.poset, other.p, other.dims):
            return False
        # same stored keys: one dict comparison; else a map stored on one
        # side only must be zero
        if self._cover_maps.keys() == other._cover_maps.keys():
            return self._cover_maps == other._cover_maps
        keys = self._cover_maps.keys() | other._cover_maps.keys()
        return all(self.cover_map(*k) == other.cover_map(*k) for k in keys)

    __hash__ = None

    def __repr__(self):
        return (
            f"PersistenceModule(n={self.poset.n}, p={self.p}, "
            f"total_dim={sum(self.dims)})"
        )

    def to_json(self):
        dims = {
            self.poset.names[i]: d for i, d in enumerate(self.dims) if d > 0
        }
        maps = {}
        for (a, b), m in sorted(self._cover_maps.items()):
            if not m.is_zero():
                maps[self.poset.key(a, b)] = m.tolist()
        return {"poset": self.poset.to_json(), "dims": dims, "maps": maps}

    @staticmethod
    def from_json(obj, p):
        """Module from its JSON form; malformed input raises ValueError.

        Dimensions follow poset.parse_nonnegative; map entries follow
        matrix_from_json.
        """
        obj = json_object(obj, "module")
        poset = Poset.from_json(obj["poset"])
        dims_obj = json_object(obj.get("dims", {}), '"dims"')
        unknown = sorted(set(dims_obj) - set(poset.names))
        if unknown:
            raise ValueError(f'"dims" names no element {unknown[0]!r}')
        dims = []
        for nm in poset.names:
            try:
                dims.append(parse_nonnegative(dims_obj.get(nm, 0)))
            except ValueError as exc:
                raise ValueError(f"dimension at {nm!r}: {exc}") from None
        maps = {}
        for key, rows in json_object(obj.get("maps", {}), '"maps"').items():
            try:
                a, b = poset.parse_key(key)
            except KeyError as exc:
                raise ValueError(
                    f"map key {key!r} names no element {exc.args[0]!r}"
                ) from None
            if (a, b) not in poset.covers:
                raise ValueError(f"map key {key!r} is not a cover relation")
            maps[(a, b)] = matrix_from_json(rows, p, f"map {key!r}")
        return PersistenceModule(poset, p, dims, maps)


def matrix_from_json(rows, p, what):
    """Matrix from a JSON list of rows of integers.

    Entries must be JSON integers (not bool, float or string); every
    integer, however large or negative, is reduced mod p.
    """
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError(f"{what} must be a list of rows")
    for row in rows:
        for v in row:
            if type(v) is not int:
                raise ValueError(f"{what} has entry {v!r}, not an integer")
    return Matrix([[v % p for v in row] for row in rows], p)


def validate(m):
    """Check path independence out of every nonzero fiber (a map out of a
    zero one is empty); raises FunctorialityViolation with a witness."""
    poset = m.poset
    for a in bit_elements(m.support_bits):
        for b in bit_elements(poset.up_bits()[a] & ~(1 << a)):
            ab = m.map(a, b)
            for c in poset.children(b):
                if m.map(a, c) != m.cover_map(b, c) @ ab:
                    raise FunctorialityViolation(
                        f"composites to {poset.names[c]!r} from "
                        f"{poset.names[a]!r} disagree through {poset.names[b]!r}"
                    )
    return m


def zero_module(poset, p):
    return PersistenceModule(poset, p, [0] * poset.n, {})


def free_on(poset, generators, p):
    """Free module on a list of generators (with repetition allowed).

    At each element x the generators at or below x, in list order, index
    the coordinates; generators_at[x] lists their positions in that
    order.  Transitions are the induced 0/1 selection matrices, built
    only on the covers a < b with a nonzero fiber at a (and so at b).
    """
    p = check_modulus(p)
    gens = tuple(int(g) for g in generators)
    alive = tuple(
        tuple(k for k, g in enumerate(gens) if poset.leq(g, x))
        for x in range(poset.n)
    )
    dims = [len(a) for a in alive]
    maps = {}
    for b, at in enumerate(alive):
        rows_at = {k: r for r, k in enumerate(at)}
        for a in poset.parents(b):
            if dims[a]:
                arr = np.zeros((dims[b], dims[a]), dtype=np.int64)
                for c, k in enumerate(alive[a]):
                    arr[rows_at[k], c] = 1
                maps[(a, b)] = Matrix._trusted(arr, p)
    m = PersistenceModule(poset, p, dims, maps)
    m.free_generators = gens
    m.generators_at = alive
    return m


def free(poset, a, p):
    """The module free on one generator at a: dims 1 on up(a), identities."""
    return free_on(poset, [a], p)


def indicator(poset, support, p):
    """0/1 module on a support, given as element indices: dimension one
    inside, identity transitions on the covers with both ends inside."""
    inside = frozenset(support)
    dims = [1 if x in inside else 0 for x in range(poset.n)]
    one = cached_identity(1, p)
    maps = {
        (a, b): one
        for a in compress(range(poset.n), dims)
        for b in poset.children(a)
        if dims[b]
    }
    return PersistenceModule(poset, p, dims, maps)


def from_upset(poset, upset, p):
    u = frozenset(upset)
    if not poset.is_upset(u):
        raise ValueError("support is not an upset")
    return indicator(poset, u, p)


def constant(poset, p):
    return indicator(poset, range(poset.n), p)


def from_antichain(poset, s, p):
    return from_upset(poset, poset.upset_of(s), p)


def spread(poset, sources, sinks, p):
    """Indicator module of the interval [sources, sinks].

    Support: everything between some source and some sink. The two sets
    must be antichains and mutually bounded, else InvalidSpread.
    """
    s = sorted(set(int(x) for x in sources))
    t = sorted(set(int(x) for x in sinks))
    if not poset.is_antichain(s) or not poset.is_antichain(t):
        raise InvalidSpread("sources and sinks must be antichains")
    up, down = poset.up_bits(), poset.down_bits()
    above, below = union_bits(up, s), union_bits(down, t)
    for x in s:
        if not up[x] & below:
            raise InvalidSpread(f"source {poset.names[x]!r} is below no sink")
    for y in t:
        if not down[y] & above:
            raise InvalidSpread(f"sink {poset.names[y]!r} is above no source")
    return indicator(poset, bit_elements(above & below), p)


def direct_sum(poset, p, parts):
    """Blockwise sum of (module, multiplicity) pairs over a shared poset;
    only the covers between two nonzero summed fibers get a map."""
    expanded = []
    for m, mult in parts:
        if m.poset != poset:
            raise PosetMismatch("direct sum needs a shared poset")
        if m.p != p:
            raise ValueError("direct sum needs a shared modulus")
        expanded.extend([m] * int(mult))
    dims = [sum(m.dims[i] for m in expanded) for i in range(poset.n)]
    maps = {}
    for a, b in poset.covers:
        if not (dims[a] and dims[b]):
            continue
        arr = np.zeros((dims[b], dims[a]), dtype=np.int64)
        r = c = 0
        for m in expanded:
            blk = m.cover_map(a, b)
            arr[r:r + blk.rows, c:c + blk.cols] = blk.a
            r += blk.rows
            c += blk.cols
        maps[(a, b)] = Matrix(arr, p)
    return PersistenceModule(poset, p, dims, maps)


def radical(m):
    """Per element, the column_basis of the stacked images of the cover
    maps into it: the reduced echelon basis of the radical there.  Where m is
    zero, or zero at every lower cover, the basis is empty and nothing is
    stacked or eliminated."""
    out = []
    for a, d in enumerate(m.dims):
        lower = [
            m.cover_map(s, a) for s in m.poset.parents(a) if d and m.dims[s]
        ]
        out.append(column_basis(hstack(lower)) if lower else cached_zeros(d, 0, m.p))
    return tuple(out)


def h0(m):
    """Pointwise dimension of the quotient by the radical."""
    return tuple(d - b.cols for d, b in zip(m.dims, radical(m)))


def is_filtration(m):
    return all(
        rank(m.cover_map(a, b)) == m.dims[a] for a, b in m.poset.covers
    )


def is_spread(m):
    """Pointwise dimension at most one and full-rank composites."""
    if any(d > 1 for d in m.dims):
        return False
    up = m.poset.up_bits()
    return all(
        rank(m.map(a, b)) == m.dims[b]
        for a in bit_elements(m.support_bits) for b in bit_elements(up[a])
    )


def m0_demo(p=2):
    """Staircase demo module on the 6x6 grid: one generator, 14 cells."""
    g = Poset.grid(5, 2)
    return spread(
        g,
        {g.index("0,0")},
        {g.index("2,3"), g.index("3,1")},
        p,
    )


class BettiDiagram:
    """Multiplicity table keyed by (homological degree, poset element)."""

    def __init__(self, entries):
        cleaned = {}
        for (d, a), mult in entries.items():
            mult = int(mult)
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")
            if mult:
                cleaned[(int(d), int(a))] = mult
        self.entries = cleaned

    def get(self, d, a):
        return self.entries.get((d, a), 0)

    def degree(self, d):
        return {a: k for (dd, a), k in self.entries.items() if dd == d}

    def total(self, d):
        return sum(self.degree(d).values())

    def max_degree(self):
        return max((d for d, _ in self.entries), default=-1)

    def items(self):
        return sorted(self.entries.items())

    def to_json(self, poset):
        return {
            "betti": [
                {"at": poset.names[a], "d": d, "mult": k}
                for (d, a), k in self.items()
            ]
        }

    def __eq__(self, other):
        if not isinstance(other, BettiDiagram):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"BettiDiagram({self.entries!r})"

"""Finite posets stored as validated Hasse diagrams.

Elements are canonically reindexed along a stable topological sort, so index
order is always a linear extension; everything downstream (Koszul parent
orders, basis choices, JSON output) leans on that determinism. Covers must be
given as a transitive reduction; redundant covers are rejected rather than
silently dropped because module data is attached per cover.
"""
import functools
import heapq
import itertools
import operator

import numpy as np

from .errors import (
    CyclicCovers,
    MeetHypothesisFailed,
    NotSemilattice,
    RedundantCover,
    SizeBoundExceeded,
)

__all__ = [
    "Poset",
    "antichain_poset",
    "CyclicCovers",
    "RedundantCover",
    "SizeBoundExceeded",
    "NotSemilattice",
    "DEFAULT_MAX_ANTICHAINS",
    "DEFAULT_MAX_ELEMENTS",
    "antichain_bound",
    "parse_nonnegative",
]

DEFAULT_MAX_ANTICHAINS = 100_000
DEFAULT_MAX_ELEMENTS = 10_000


def parse_nonnegative(value):
    """A nonnegative int from an int or a string that int() reads.

    bool, float and every other type are refused, not truncated.
    """
    integral = isinstance(value, (int, np.integer, str))
    if isinstance(value, bool) or not integral:
        raise ValueError(f"not an integer: {value!r}")
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"not an integer: {value!r}") from None
    if n < 0:
        raise ValueError(f"must be nonnegative, got {n}")
    return n


def json_object(value, what):
    """value when it is a JSON object (a dict), else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def antichain_bound(max_antichains=None):
    """The antichain bound: max_antichains when given, else
    DEFAULT_MAX_ANTICHAINS; a malformed value raises ValueError naming
    max_antichains."""
    if max_antichains is None:
        return DEFAULT_MAX_ANTICHAINS
    try:
        return parse_nonnegative(max_antichains)
    except ValueError as exc:
        raise ValueError(f"max_antichains: {exc}") from None


def bit_elements(mask):
    """Element indices of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def union_bits(bitsets, elements):
    """The OR of bitsets[x] over the elements x."""
    mask = 0
    for x in elements:
        mask |= bitsets[x]
    return mask


def mask_of(elements):
    """The bitset of some element indices."""
    mask = 0
    for x in elements:
        mask |= 1 << int(x)
    return mask


class Poset:
    """Immutable finite poset. Query via integer element indices.

    The order is kept once, as up-set and down-set bitsets (bit b of
    up_bits()[a] is set iff a <= b); every order query reads them."""

    def __init__(self, names, covers, coords=None, grid_shape=None,
                 semilattice=None):
        # the constructor for posets stated in index order: covers are
        # index pairs, each going up the listed order; duplicate and
        # redundant covers are not looked for (from_covers does that)
        self.n = len(names)
        self.names = tuple(names)
        self.covers = frozenset(covers)
        self.sorted_covers = tuple(sorted(self.covers))
        self.coords = tuple(coords) if coords is not None else None
        self.grid_shape = grid_shape
        self._name_to_index = {nm: i for i, nm in enumerate(self.names)}
        par = [[] for _ in range(self.n)]
        chi = [[] for _ in range(self.n)]
        for a, b in self.sorted_covers:
            if a >= b:
                raise ValueError(
                    f"cover {self.names[a]!r} < {self.names[b]!r} does not "
                    "go up the listed order"
                )
            par[b].append(a)
            chi[a].append(b)
        self._parents = tuple(tuple(sorted(x)) for x in par)
        self._children = tuple(tuple(sorted(x)) for x in chi)
        self._child_bits = tuple(mask_of(x) for x in chi)
        # every cover goes up in index order, so one pass down the indices
        # closes the up-sets and one pass up closes the down-sets
        up = [1 << a for a in range(self.n)]
        for a in range(self.n - 1, -1, -1):
            for b in chi[a]:
                up[a] |= up[b]
        down = [1 << a for a in range(self.n)]
        for b in range(self.n):
            for a in par[b]:
                down[b] |= down[a]
        self._up = tuple(up)
        self._down = tuple(down)
        self._semilattice = semilattice
        self._parent_meets = [None] * self.n
        self._hash = hash((self.names, self.covers))

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_covers(names, covers):
        names = list(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate element names")
        for nm in names:
            if "<" in nm:
                raise ValueError(f"element name {nm!r} contains '<', which "
                                 "separates the names of a cover key")
        idx = {nm: i for i, nm in enumerate(names)}
        n = len(names)
        pairs = []
        seen = set()
        for a, b in covers:
            try:
                ia, ib = idx[a], idx[b]
            except KeyError as exc:
                raise ValueError(
                    f"cover {a!r} < {b!r} names no element {exc.args[0]!r}"
                ) from None
            if ia == ib:
                raise CyclicCovers(f"self-cover at {a!r}")
            if (ia, ib) in seen:
                raise ValueError(f"duplicate cover {a!r} < {b!r}")
            seen.add((ia, ib))
            pairs.append((ia, ib))

        # stable topological order: Kahn with a min-heap on original index
        indeg = [0] * n
        out = [[] for _ in range(n)]
        for a, b in pairs:
            indeg[b] += 1
            out[a].append(b)
        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            v = heapq.heappop(heap)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    heapq.heappush(heap, w)
        if len(order) != n:
            stuck = [names[i] for i in range(n) if i not in set(order)]
            raise CyclicCovers(f"cover digraph has a cycle through {stuck}")
        new_of_old = {old: new for new, old in enumerate(order)}
        names2 = [names[old] for old in order]
        pairs2 = sorted((new_of_old[a], new_of_old[b]) for a, b in pairs)

        p = Poset(names2, pairs2)
        for a, b in p.sorted_covers:
            # redundant iff some third element lies between a and b
            if p._up[a] & p._down[b] & ~(1 << a | 1 << b):
                raise RedundantCover(
                    f"cover {names2[a]!r} < {names2[b]!r} is implied transitively"
                )
        return p

    @staticmethod
    def from_order(names, leq):
        """Build from a full order relation; covers = transitive reduction."""
        names = list(names)
        n = len(names)
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError("order matrix shape mismatch")
        if not np.all(np.diag(leq)):
            raise ValueError("order not reflexive")
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise ValueError("order not antisymmetric")
        closure = (leq.astype(np.float32) @ leq.astype(np.float32)) > 0.5
        if np.any(closure & ~leq):
            raise ValueError("order not transitive")
        strict = leq & ~np.eye(n, dtype=bool)
        two_step = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
        cov = strict & ~two_step
        pairs = [(int(a), int(b)) for a, b in zip(*np.nonzero(cov))]
        return Poset.from_covers(
            names, [(names[a], names[b]) for a, b in pairs]
        )

    @staticmethod
    def grid(n, r):
        """The product of r chains 0 < 1 < ... < n, one shared instance
        per (n, r) once DEFAULT_MAX_ELEMENTS admits it."""
        n, r = operator.index(n), operator.index(r)
        if n < 0 or r < 1:
            raise ValueError("grid needs n >= 0, r >= 1")
        bound = DEFAULT_MAX_ELEMENTS
        # refused before forming (n + 1) ** r: past the bound's bit length
        # 2 ** r alone exceeds it, and every element has r coordinates
        if r > bound or n and r > bound.bit_length():
            raise SizeBoundExceeded(f"grid({n}, {r}) is past the bound {bound}")
        total = (n + 1) ** r
        if total > bound:
            raise SizeBoundExceeded(f"grid has {total} elements, bound {bound}")
        return Poset._grid(n, r)

    @staticmethod
    @functools.cache
    def _grid(n, r):
        """Poset.grid's instance for (n, r), built on first use and kept
        for the life of the process."""
        return Poset._box((n,) * r, grid_shape=(n, r))

    @staticmethod
    def _box(bounds, grid_shape=None):
        """The product of the chains 0 < 1 < ... < b over b in bounds,
        each element named by its coordinates; only Poset.grid's
        instances carry a grid_shape."""
        # lexicographic coordinate order is a linear extension
        coords = list(itertools.product(*(range(b + 1) for b in bounds)))
        index = {c: i for i, c in enumerate(coords)}
        names = [",".join(str(c) for c in co) for co in coords]
        pairs = []
        for i, co in enumerate(coords):
            for k, b in enumerate(bounds):
                if co[k] < b:
                    up = list(co)
                    up[k] += 1
                    pairs.append((i, index[tuple(up)]))
        return Poset(names, pairs, coords=coords, grid_shape=grid_shape,
                     semilattice=True)

    @staticmethod
    def from_json(obj):
        obj = json_object(obj, "poset")
        if "grid" in obj:
            shape = json_object(obj["grid"], '"grid"')
            return Poset.grid(
                parse_nonnegative(shape["n"]), parse_nonnegative(shape["r"])
            )
        names, covers = obj["elements"], obj["covers"]
        if not isinstance(names, list) or not all(
            isinstance(nm, str) for nm in names
        ):
            raise ValueError('"elements" must be a list of strings')
        if not isinstance(covers, list) or not all(
            isinstance(c, list) and len(c) == 2
            and all(isinstance(nm, str) for nm in c)
            for c in covers
        ):
            raise ValueError('"covers" must be a list of [lower, upper] '
                             "name pairs")
        return Poset.from_covers(names, [tuple(c) for c in covers])

    def to_json(self):
        if self.grid_shape is not None:
            n, r = self.grid_shape
            return {"grid": {"n": n, "r": r}}
        covers = sorted((self.names[a], self.names[b]) for a, b in self.covers)
        return {
            "elements": list(self.names),
            "covers": [[a, b] for a, b in covers],
        }

    # -- queries --------------------------------------------------------

    def index(self, name):
        return self._name_to_index[name]

    def key(self, a, b):
        """The JSON key of a pair a < b, which parse_key reads back."""
        return f"{self.names[a]}<{self.names[b]}"

    def parse_key(self, key):
        """(a, b) from key(a, b); KeyError carries a name of no element."""
        na, _, nb = key.partition("<")
        return self.index(na), self.index(nb)

    def leq(self, a, b):
        return bool(self._up[a] >> b & 1)

    @functools.cached_property
    def leq_matrix(self):
        """The order as a read-only boolean matrix, entry [a, b] set iff
        a <= b: an export built on first use, read by no query here."""
        leq = np.zeros((self.n, self.n), dtype=bool)
        for a, up in enumerate(self._up):
            leq[a, bit_elements(up)] = True
        leq.setflags(write=False)
        return leq

    def parents(self, a):
        return self._parents[a]

    def children(self, a):
        return self._children[a]

    def step_toward(self, a, b):
        """The smallest child of a below b, for a < b: the next element of
        the canonical cover chain from a up to b."""
        below = self._child_bits[a] & self._down[b]
        return (below & -below).bit_length() - 1

    def up(self, a):
        return frozenset(bit_elements(self._up[a]))

    def join(self, elements):
        """Least upper bound of a nonempty subset, or None.

        Index order is a linear extension, so the lowest common upper
        bound b0 is the only candidate; it is the join iff every upper
        bound lies above it.
        """
        elements = list(elements)
        if not elements:
            raise ValueError("join of the empty set is excluded")
        up = self.up_bits()
        upper = up[elements[0]]
        for x in elements[1:]:
            upper &= up[x]
        if not upper:
            return None
        b0 = (upper & -upper).bit_length() - 1
        return b0 if not upper & ~up[b0] else None

    def up_bits(self):
        """Up-sets as int bitsets (bit i set iff a <= element i), one per
        element a."""
        return self._up

    def down_bits(self):
        """Down-sets as int bitsets (bit i set iff element i <= a), one per
        element a."""
        return self._down

    def meet_of_bits(self, lower):
        """Greatest element of a bitset of common lower bounds, or None.

        Index order is a linear extension, so the largest index b0 is the
        only candidate; it is the meet iff every lower bound lies below it.
        """
        if not lower:
            return None
        b0 = lower.bit_length() - 1
        return b0 if not lower & ~self.down_bits()[b0] else None

    def parent_meets(self, a, parent_order=None):
        """(index_sets, meets, touched): the terms of the Koszul complex
        at a.

        index_sets[d] lists the bounded-below subsets of a's parents of
        size d (the empty subset stands for a itself) and meets[d] their
        meets; touched is the bitset of a and every meet.  The subsets are
        walked level by level: each one of size d extends one of size d-1
        by a later parent, so they come out in itertools.combinations
        order of parent_order.  A subset's common lower bounds are the AND
        of its parents' down-set bitsets; it is bounded below iff that is
        nonzero, and its meet is meet_of_bits of it.  A bounded-below
        subset without a meet raises MeetHypothesisFailed.

        The walk without a parent_order (the parents' own order) is kept
        per element, as down_bits is; a walk in a given order, or one that
        fails, is not.
        """
        parents = self._parents[a]
        keep = parent_order is None
        if keep:
            if self._parent_meets[a] is not None:
                return self._parent_meets[a]
            parent_order = parents
        else:
            parent_order = tuple(parent_order)
            if sorted(parent_order) != sorted(parents):
                raise ValueError("parent_order must permute the parents")
        down = self.down_bits()
        index_sets = [((),)]
        meets = [(a,)]
        touched = 1 << a
        # (subset, position of its last parent, bitset of its lower bounds);
        # the empty subset is bounded by everything, and -1 has every bit set
        level = [((), -1, -1)]
        while True:
            grown = []
            mts = []
            for s, last, lower in level:
                for j in range(last + 1, len(parent_order)):
                    x = parent_order[j]
                    below = lower & down[x]
                    if not below:
                        continue
                    mt = self.meet_of_bits(below)
                    if mt is None:
                        names = [self.names[y] for y in s + (x,)]
                        raise MeetHypothesisFailed(
                            f"parents {names} of {self.names[a]!r} are "
                            "bounded below but have no meet"
                        )
                    grown.append((s + (x,), j, below))
                    mts.append(mt)
                    touched |= 1 << mt
            if not grown:
                break
            level = grown
            index_sets.append(tuple(s for s, _, _ in grown))
            meets.append(tuple(mts))
        walk = (tuple(index_sets), tuple(meets), touched)
        if keep:
            self._parent_meets[a] = walk
        return walk

    def meet_bounded(self, elements):
        elements = list(elements)
        if not elements:
            raise ValueError("meet of the empty set is excluded")
        down = self.down_bits()
        lower = down[elements[0]]
        for x in elements[1:]:
            lower &= down[x]
        return self.meet_of_bits(lower)

    def is_upper_semilattice(self):
        if self._semilattice is None:
            self._semilattice = all(
                self.join([a, b]) is not None
                for a in range(self.n) for b in range(a + 1, self.n)
            )
        return self._semilattice

    def sublattice_closure(self, elements):
        if not self.is_upper_semilattice():
            raise NotSemilattice("sublattice closure needs an upper semilattice")
        closed = set(elements)
        frontier = list(closed)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(closed):
                    j = self.join([a, b])
                    if j not in closed:
                        closed.add(j)
                        nxt.append(j)
            frontier = nxt
        return frozenset(closed)

    def min_elements(self, subset):
        mask = mask_of(subset)
        return frozenset(
            a for a in bit_elements(mask) if self._down[a] & mask == 1 << a
        )

    def max_elements(self, subset):
        mask = mask_of(subset)
        return frozenset(
            a for a in bit_elements(mask) if self._up[a] & mask == 1 << a
        )

    def upset_of(self, subset):
        return frozenset(bit_elements(union_bits(self._up, subset)))

    def is_antichain(self, subset):
        mask = mask_of(subset)
        return all(self._up[a] & mask == 1 << a for a in bit_elements(mask))

    def is_upset(self, subset):
        mask = mask_of(subset)
        return all(not self._up[a] & ~mask for a in bit_elements(mask))

    def antichain_list(self, max_antichains=None):
        """All antichains as frozensets, enumeration order; bounded."""
        bound = antichain_bound(max_antichains)
        # the empty antichain counts against the bound too
        walk = antichains_within(self, range(self.n))
        out = [frozenset(), *itertools.islice(walk, bound)]
        if len(out) > bound:
            raise SizeBoundExceeded(
                f"more than {bound} antichains; raise max_antichains"
            )
        return out

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self.names == other.names and self.covers == other.covers

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers)} covers)"


def antichains_within(p, elements):
    """The nonempty antichains of p inside an ascending element list, as
    frozensets, depth first: each antichain is followed by its extensions
    by later elements.  blocked is the bitset of the elements comparable
    to some member of the current antichain."""
    elements = list(elements)
    up, down = p.up_bits(), p.down_bits()

    def extend(current, blocked, start):
        for i in range(start, len(elements)):
            e = elements[i]
            if not blocked >> e & 1:
                nxt = current + (e,)
                yield frozenset(nxt)
                yield from extend(nxt, blocked | up[e] | down[e], i + 1)

    return extend((), 0, 0)


def antichain_name(p, antichain):
    inner = ";".join(p.names[i] for i in sorted(antichain))
    return "{" + inner + "}"


def antichain_poset(p, max_antichains=None):
    """The lattice of antichains of p, ordered by reverse upset containment.

    S <= T iff upset(S) contains upset(T); the empty antichain is the
    maximum. Element order: larger upsets first, ties broken by the sorted
    element tuple, which is a linear extension.
    """
    chains = sorted(
        p.antichain_list(max_antichains),
        key=lambda s: (-len(p.upset_of(s)), tuple(sorted(s))),
    )
    ups = [p.upset_of(s) for s in chains]
    pos = {s: i for i, s in enumerate(chains)}
    names = [antichain_name(p, s) for s in chains]

    all_elts = frozenset(range(p.n))
    covers = []
    for t, ut in enumerate(ups):
        for v in p.max_elements(all_elts - ut):
            covers.append((pos[p.min_elements(ut | {v})], t))
    # a distributive lattice of upsets
    ap = Poset(names, covers, semilattice=True)
    ap.antichains = tuple(chains)
    return ap

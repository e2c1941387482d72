"""Builders for the builtin families of graded projective collections.

Every builder returns a CollectionFunctor over the given base poset.
Each family except `singleton` states its index poset in its own order,
its slots named and its covers given as index pairs to Poset's
constructor, which refuses a cover that goes down that order, and one
support per slot.  _indicator_collection then builds the members as
indicator modules and the arrows as the canonical maps induced by
inclusions of upsets: scalar 1 wherever source and target supports
overlap.  For each family the overlap supports satisfy the containment
property that makes these arrows compose path-independently, so the
outputs satisfy CollectionFunctor.validate.  Builders do not run it,
since it checks every member and arrow and costs far more than a
build; the test suite runs it on small bases.

Known thin/flat/degeneracy statuses are preseeded into `claims` so that
the computation gates do not have to re-derive them on large index
posets; the honest checks ignore claims, and the test suite confirms the
two agree wherever the honest check is affordable.
"""
import numpy as np

from relbetti.errors import NameClash, NotSemilattice, SizeBoundExceeded
from relbetti.homalg import NatTransformation
from relbetti.pmod import cached_identity, indicator
from relbetti.poset import (
    Poset,
    antichain_bound,
    antichain_name,
    antichain_poset,
    antichains_within,
    bit_elements,
)
from relbetti.relative import CollectionFunctor

__all__ = [
    "singleton",
    "all_subfunctors",
    "translated",
    "spreads_omega",
    "single_source_omega0",
    "lower_hooks",
    "lower_hooks_inf",
    "rectangles_naive",
    "rectangles_grid",
]


def _indicator_collection(base, index, supports, p, claims=None):
    """The collection with the indicator of supports[a] at each element a
    of index; the arrow on a cover is 1 exactly where its two members
    overlap."""
    objs = [indicator(base, s, p) for s in supports]
    one = cached_identity(1, p)
    arrows = {}
    for a, b in index.covers:
        src, dst = objs[b], objs[a]
        comps = dict.fromkeys(bit_elements(src.support_bits & dst.support_bits), one)
        arrows[(a, b)] = NatTransformation._trusted(src, dst, comps)
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


def _require_semilattice(base):
    if not base.is_upper_semilattice():
        raise NotSemilattice("this family needs joins in the base poset")


def singleton(m):
    """One-member collection; no status is claimed (a doubled free member
    already fails thinness)."""
    return CollectionFunctor(m.poset, Poset(["pt"], []), m.p, [m], {})


def _pair_slots(base):
    """(v, w) with v <= w, v-major, which is a linear extension of the
    pair order because the base's own index order is one."""
    return [(v, w) for v in range(base.n) for w in sorted(base.up(v))]


def _pair_index(base, slots):
    """The pairs v <= w of base listed in slots, named v|w and ordered in
    both coordinates; slots must list a linear extension of that order."""
    for nm in base.names:
        if "|" in nm:
            raise NameClash(f"base element {nm!r} contains '|', which "
                            "separates the pair names of the index")
    pos = {s: i for i, s in enumerate(slots)}
    covers = []
    for i, (v, w) in enumerate(slots):
        covers += [(pos[(v2, w)], i) for v2 in base.parents(v)]
        covers += [(pos[(v, w2)], i) for w2 in base.parents(w)
                   if base.leq(v, w2)]
    names = [f"{base.names[v]}|{base.names[w]}" for v, w in slots]
    return Poset(names, covers)


def _hooks(base, slots):
    """The supports up(v) - up(w) of the hook members, one per slot; an
    element past the base has the empty up-set."""
    up = base.up_bits() + (0,)
    return [bit_elements(up[v] & ~up[w]) for v, w in slots]


def lower_hooks(base, p):
    """Members coker(free(w) inside free(v)) for v <= w; the diagonal
    members vanish.  Thin, and the degeneracy condition holds: each unit
    kernel generates at the zero member (w, w)."""
    _require_semilattice(base)
    slots = _pair_slots(base)
    claims = {"thin": True, "degeneracy": True}
    return _indicator_collection(
        base, _pair_index(base, slots), _hooks(base, slots), p, claims
    )


def lower_hooks_inf(base, p):
    """The hook family extended by a free member at every (v, inf) and a
    zero member at the top slot (inf, inf)."""
    _require_semilattice(base)
    if "inf" in base.names:
        raise NameClash("base element 'inf' would clash with the added "
                        "top slot of the index")
    inf = base.n
    maxima = base.max_elements(frozenset(range(base.n)))
    topped = Poset(base.names + ("inf",),
                   [*base.covers, *((v, inf) for v in maxima)])
    slots = [*_pair_slots(base), *((v, inf) for v in range(inf)), (inf, inf)]
    claims = {"thin": True, "degeneracy": True}
    return _indicator_collection(
        base, _pair_index(topped, slots), _hooks(base, slots), p, claims
    )


def rectangles_naive(base, p):
    """Members are the closed intervals [v, w].  Thin, but the degeneracy
    condition fails as soon as the base has a cover relation: every member
    is nonzero, so a unit kernel has nowhere degenerate to generate."""
    _require_semilattice(base)
    slots = _pair_slots(base)
    up, down = base.up_bits(), base.down_bits()
    supports = [bit_elements(up[v] & down[w]) for v, w in slots]
    claims = {"thin": True, "degeneracy": base.n < 2}
    return _indicator_collection(
        base, _pair_index(base, slots), supports, p, claims
    )


def rectangles_grid(n, r, p):
    """Members are the half-open boxes [v, w) in the grid; the member is
    zero exactly when some coordinate satisfies v_i = w_i."""
    base = Poset.grid(n, r)
    slots = _pair_slots(base)
    coords = np.array(base.coords)
    supports = [
        np.flatnonzero(((coords >= coords[v]) & (coords < coords[w])).all(1))
        for v, w in slots
    ]
    claims = {"thin": True, "degeneracy": True}
    return _indicator_collection(
        base, _pair_index(base, slots), supports, p, claims
    )


def _upset_slots(base, bound):
    """(v, U) for every upset U of the base contained in up(v).

    Upsets inside up(v) are enumerated through their antichains of
    minimal elements, all of which lie in up(v)."""
    slots = []
    for v in range(base.n):
        slots.append((v, frozenset()))
        for s in antichains_within(base, sorted(base.up(v))):
            slots.append((v, base.upset_of(s)))
            if len(slots) > bound:
                raise SizeBoundExceeded(
                    f"more than {bound} upset slots; raise max_antichains"
                )
    slots.sort(key=lambda s: (s[0], -len(s[1]), tuple(sorted(s[1]))))
    return slots


def single_source_omega0(base, p, max_antichains=None):
    """Members coker(K_U inside free(v)) for upsets U contained in up(v).

    The index poset is ordered by v <= v' together with U containing U';
    joins are (v join v', U intersect U')."""
    _require_semilattice(base)
    slots = _upset_slots(base, antichain_bound(max_antichains))
    names = [
        f"{base.names[v]}|{antichain_name(base, base.min_elements(u))}"
        for v, u in slots
    ]
    pos = {s: i for i, s in enumerate(slots)}
    covers = []
    for i, (v, u) in enumerate(slots):
        covers += [(pos[(v2, u)], i) for v2 in base.parents(v)]
        # up(v) is an upset: its maximal elements outside U are the
        # maximal elements outside U that lie above v
        covers += [(pos[(v, u | {w})], i)
                   for w in base.max_elements(base.up(v) - u)]
    supports = [base.up(v) - u for v, u in slots]
    claims = {"thin": True, "degeneracy": True}
    return _indicator_collection(
        base, Poset(names, covers), supports, p, claims
    )


def spreads_omega(base, p, max_antichains=None):
    """Members are all spreads coker(K_G inside K_F) for nested upsets,
    indexed by comparable pairs in the antichain lattice.  No status is
    claimed: the family stops being thin as soon as the base contains an
    incomparable pair."""
    ap = antichain_poset(base, max_antichains)
    bound = antichain_bound(max_antichains)
    count = sum(up.bit_count() for up in ap.up_bits())
    if count > bound:
        raise SizeBoundExceeded(
            f"{count} nested-pair slots exceed the bound {bound}"
        )
    ups = [base.upset_of(s) for s in ap.antichains]
    slots = _pair_slots(ap)
    supports = [ups[a] - ups[b] for a, b in slots]
    return _indicator_collection(base, _pair_index(ap, slots), supports, p)


def all_subfunctors(base, p, max_antichains=None):
    """Members are all subfunctors of the constant module: one indicator
    per upset, graded by the antichain lattice with the zero subfunctor
    as its top.  Flat when the base has a unique maximal element; with
    two maxima thinness already fails, so nothing is claimed then."""
    ap = antichain_poset(base, max_antichains)
    supports = [base.upset_of(s) for s in ap.antichains]
    claims = {}
    if len(base.max_elements(frozenset(range(base.n)))) == 1:
        claims = {"thin": True, "flat": True, "degeneracy": True}
    return _indicator_collection(base, ap, supports, p, claims)


def translated(base, translations, p):
    """Members are the translates of a fixed upset generator set: at v the
    member is the upset generated by t + v over t in the translation
    antichain.  The index is the box of translations that stay inside the
    grid, with the grid's coordinate order."""
    if base.grid_shape is None:
        raise ValueError("translated collections need a grid base")
    n, r = base.grid_shape
    tset = sorted({tuple(int(c) for c in t) for t in translations})
    if not tset:
        raise ValueError("translation set is empty")
    for t in tset:
        if len(t) != r or any(c < 0 or c > n for c in t):
            raise ValueError(f"translation {t!r} is not a grid coordinate")
    for s in tset:
        for t in tset:
            if s != t and all(a <= b for a, b in zip(s, t)):
                raise ValueError("translation set is not an antichain")
    index = Poset._box([n - max(t[i] for t in tset) for i in range(r)])
    lookup = {c: i for i, c in enumerate(base.coords)}
    supports = [
        base.upset_of(
            lookup[tuple(tc + vc for tc, vc in zip(t, v))] for t in tset
        )
        for v in index.coords
    ]
    claims = {"thin": True, "flat": True, "degeneracy": True}
    return _indicator_collection(base, index, supports, p, claims)

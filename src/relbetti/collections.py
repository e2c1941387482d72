"""Builders for the builtin families of graded projective collections.

Every builder returns a CollectionFunctor over the given base poset.  The
members of all families except `singleton` are 0/1-dimensional indicator
modules and the arrows are the canonical maps induced by inclusions of
upsets: scalar 1 wherever source and target supports overlap.  For each
family the overlap supports satisfy the containment property that makes
these arrows compose path-independently, so the outputs satisfy
CollectionFunctor.validate (checked in the test suite on small bases
rather than eagerly, since validation is quadratic in the index size).

Known thin/flat/degeneracy statuses are preseeded into `claims` so that
the computation gates do not have to re-derive them on large index
posets; the honest checks ignore claims, and the test suite confirms the
two agree wherever the honest check is affordable.
"""
import numpy as np

from relbetti.errors import NotSemilattice, SizeBoundExceeded
from relbetti.homalg import NatTransformation
from relbetti.pmod import (
    cached_identity,
    cached_zeros,
    free,
    indicator,
    zero_module,
)
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


def _overlap_arrows(index, objs, p):
    one = cached_identity(1, p)
    arrows = {}
    for a, b in index.covers:
        src, dst = objs[b], objs[a]
        comps = []
        for x in range(src.poset.n):
            if src.dims[x] and dst.dims[x]:
                comps.append(one)
            else:
                comps.append(cached_zeros(dst.dims[x], src.dims[x], p))
        arrows[(a, b)] = NatTransformation._trusted(src, dst, comps)
    return arrows


def _require_semilattice(base):
    if not base.is_upper_semilattice():
        raise NotSemilattice("this family needs joins in the base poset")


def singleton(m):
    """One-member collection; no status is claimed (a doubled free member
    already fails thinness)."""
    index = Poset.from_covers(["pt"], [])
    return CollectionFunctor(m.poset, index, m.p, [m], {})


def _pair_slots(base):
    # (v, w) with v <= w, v-major; element order is a linear extension
    # because the base's own index order is one
    return [(v, w) for v in range(base.n) for w in sorted(base.up(v))]


def _pair_names(base, slots):
    for nm in base.names:
        if "|" in nm:
            raise ValueError(f"base element {nm!r} contains '|', which "
                             "separates the pair names of the index")
    return [f"{base.names[v]}|{base.names[w]}" for v, w in slots]


def _pair_covers(base, slots, names):
    pos = {s: i for i, s in enumerate(slots)}
    covers = []
    for v, w in slots:
        me = names[pos[(v, w)]]
        for v2 in base.parents(v):
            covers.append((names[pos[(v2, w)]], me))
        for w2 in base.parents(w):
            if base.leq(v, w2):
                covers.append((names[pos[(v, w2)]], me))
    return covers


def _pair_index(base, slots=None):
    """(slots, index) for comparable pairs v <= w of base, named v|w and
    ordered in both coordinates.  slots default to every such pair,
    v-major; any given list must be a linear extension."""
    if slots is None:
        slots = _pair_slots(base)
    names = _pair_names(base, slots)
    index = Poset.from_covers(names, _pair_covers(base, slots, names))
    assert index.names == tuple(names)
    return slots, index


def _hooks(base, slots, p):
    """The hook members, indicators of up(v) - up(w), one per slot."""
    up = base.up_bits()
    return [
        indicator(base, bit_elements(up[v] & ~up[w]), p) for v, w in slots
    ]


def lower_hooks(base, p):
    """Members coker(free(w) inside free(v)) for v <= w; the diagonal
    members vanish.  Thin, and the degeneracy condition holds: each unit
    kernel generates at the zero member (w, w)."""
    _require_semilattice(base)
    slots, index = _pair_index(base)
    objs = _hooks(base, slots, p)
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "degeneracy": True}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


def lower_hooks_inf(base, p):
    """The hook family extended by a free member at every (v, inf) and a
    zero member at the top slot (inf, inf)."""
    _require_semilattice(base)
    if "inf" in base.names:
        raise ValueError("base element 'inf' would clash with the added "
                         "top slot of the index")
    slots = _pair_slots(base)
    inf = base.n
    maxima = base.max_elements(frozenset(range(base.n)))
    topped = Poset.from_covers(
        base.names + ("inf",),
        [(base.names[a], base.names[b]) for a, b in base.sorted_covers]
        + [(base.names[v], "inf") for v in sorted(maxima)],
    )
    _, index = _pair_index(
        topped, slots + [(v, inf) for v in range(base.n)] + [(inf, inf)]
    )
    objs = _hooks(base, slots, p)
    objs.extend(free(base, v, p) for v in range(base.n))
    objs.append(zero_module(base, p))
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "degeneracy": True}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


def rectangles_naive(base, p):
    """Members are the closed intervals [v, w].  Thin, but the degeneracy
    condition fails as soon as the base has a cover relation: every member
    is nonzero, so a unit kernel has nowhere degenerate to generate."""
    _require_semilattice(base)
    slots, index = _pair_index(base)
    up, down = base.up_bits(), base.down_bits()
    objs = [indicator(base, bit_elements(up[v] & down[w]), p)
            for v, w in slots]
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "degeneracy": base.n < 2}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


def rectangles_grid(n, r, p):
    """Members are the half-open boxes [v, w) in the grid; the member is
    zero exactly when some coordinate satisfies v_i = w_i."""
    base = Poset.grid(n, r)
    slots, index = _pair_index(base)
    coords = np.array(base.coords)
    objs = []
    for v, w in slots:
        cv, cw = coords[v], coords[w]
        mask = np.all((coords >= cv) & (coords < cw), axis=1)
        objs.append(indicator(base, np.flatnonzero(mask), p))
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "degeneracy": True}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


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
                    f"more than {bound} upset slots; raise the bound via "
                    "RELBETTI_MAX_ANTICHAINS or max_antichains"
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
    for v, u in slots:
        me = names[pos[(v, u)]]
        for v2 in base.parents(v):
            covers.append((names[pos[(v2, u)]], me))
        # up(v) is an upset: its maximal elements outside U are the
        # maximal elements outside U that lie above v
        for w in base.max_elements(base.up(v) - u):
            covers.append((names[pos[(v, u | {w})]], me))
    index = Poset.from_covers(names, covers)
    assert index.names == tuple(names)
    objs = [indicator(base, base.up(v) - u, p) for v, u in slots]
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "degeneracy": True}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)


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
    slots, index = _pair_index(ap)
    objs = [indicator(base, ups[a] - ups[b], p) for a, b in slots]
    arrows = _overlap_arrows(index, objs, p)
    return CollectionFunctor(base, index, p, objs, arrows)


def all_subfunctors(base, p, max_antichains=None):
    """Members are all subfunctors of the constant module: one indicator
    per upset, graded by the antichain lattice with the zero subfunctor
    as its top.  Flat when the base has a unique maximal element; with
    two maxima thinness already fails, so nothing is claimed then."""
    ap = antichain_poset(base, max_antichains)
    objs = [
        indicator(base, base.upset_of(s), p) for s in ap.antichains
    ]
    arrows = _overlap_arrows(ap, objs, p)
    claims = {}
    if len(base.max_elements(frozenset(range(base.n)))) == 1:
        claims = {"thin": True, "flat": True, "degeneracy": True}
    return CollectionFunctor(base, ap, p, objs, arrows, claims=claims)


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
    objs = []
    for v in index.coords:
        gens = [lookup[tuple(tc + vc for tc, vc in zip(t, v))] for t in tset]
        objs.append(indicator(base, base.upset_of(gens), p))
    arrows = _overlap_arrows(index, objs, p)
    claims = {"thin": True, "flat": True, "degeneracy": True}
    return CollectionFunctor(base, index, p, objs, arrows, claims=claims)

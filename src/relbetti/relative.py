"""Homological algebra relative to a graded collection of modules.

A CollectionFunctor assigns to every element of an index poset a module
over a common base poset, contravariantly: arrows restrict along the index
order.  Two adjoint constructions connect the two worlds.  `nat_module`
collects the natural transformations out of the members into a module over
the index poset; `realization` assembles an index-poset module back into a
base-poset module, as homalg's cokernel of a relation map between two
direct sums of members.  The unit sends a basis vector to its copy of a
member in that sum, and the counit evaluates the hom basis on the copies,
so this module does no elimination of its own.  Thinness and flatness of
the collection control how much of standard minimal-resolution theory
survives on the relative side, and the degeneracy check gates the local
Koszul shortcut over the index poset.  `relative_minimal_resolution` is
the direct construction the shortcut is measured against.
"""

import numpy as np

from relbetti.errors import (
    DmaxReached,
    FunctorialityViolation,
    HypothesisNotVerified,
    NotSemilattice,
    NotThin,
)
from relbetti.fieldlin import (
    Matrix,
    check_modulus,
    hstack,
    kron,
)
# not called here: kept so that relative.rref stays fieldlin.rref, the
# name perfbench's check_bench asserts its tracer wraps once
from relbetti.fieldlin import rref  # noqa: F401
from relbetti.homalg import (
    NatTransformation,
    Resolution,
    betti_koszul,
    cokernel,
    identity_nat,
    is_exact,
    koszul_table,
    minimal_cover,
    nat_basis,
    section_of,
    zero_nat,
)
from relbetti.pmod import (
    PersistenceModule,
    cached_identity,
    cached_zeros,
    direct_sum,
    free,
    json_object,
    matrix_from_json,
    zero_module,
)
from relbetti.pmod import validate as validate_module


class CollectionFunctor:
    """Contravariant assignment of base-poset modules to index elements.

    objs[a] is the member at index element a.  arrows[(a, b)], for a cover
    a < b of the index poset, is a NatTransformation objs[b] -> objs[a];
    omitted arrows default to zero.  Composite arrows are derived along
    canonical cover chains and cached; validate() confirms the composites
    are path independent.  `claims` may record externally justified
    thin/flat/degeneracy statuses for builders whose index posets are too
    large to check directly; the property checks themselves (is_thin,
    is_flat, the degeneracy scan) never consult them, though a thinness
    claim is trusted as the degeneracy scan's precondition.  The thinness
    and degeneracy results are cached on the collection.
    """

    def __init__(self, domain, index, p, objs, arrows, claims=None):
        p = check_modulus(p)
        objs = list(objs)
        if len(objs) != index.n:
            raise ValueError("need one member per index element")
        for m in objs:
            if m.poset != domain:
                raise ValueError("members must live over the base poset")
            if m.p != p:
                raise ValueError("members must share the collection's modulus")
        arrows = dict(arrows)
        cover_set = set(index.covers)
        for key in arrows:
            if key not in cover_set:
                raise ValueError(f"arrow key {key!r} is not an index cover")
        self.domain = domain
        self.index = index
        self.p = p
        self._objs = objs
        self._arrows = {}
        for a, b in index.covers:
            f = arrows.get((a, b))
            if f is None:
                f = zero_nat(objs[b], objs[a])
            if f.source != objs[b] or f.target != objs[a]:
                raise ValueError(
                    f"arrow for cover {index.names[a]!r} < {index.names[b]!r} "
                    "does not map the upper member to the lower one"
                )
            self._arrows[(a, b)] = f
        self.claims = dict(claims or {})
        self._paths = {}
        self._pairs = {}
        self._thin = None
        self._degeneracy = None

    def obj(self, a):
        return self._objs[a]

    def member_is_zero(self, a):
        return sum(self._objs[a].dims) == 0

    def arrow(self, a, b):
        return self._arrows[(a, b)]

    def arrow_to(self, a, b):
        """Composite arrow obj(b) -> obj(a) for a <= b in the index."""
        if not self.index.leq(a, b):
            raise ValueError(
                f"{self.index.names[a]!r} is not below {self.index.names[b]!r}"
            )
        if a == b:
            return identity_nat(self._objs[a])
        got = self._paths.get((a, b))
        if got is None:
            c = next(
                c for c in self.index.children(a) if self.index.leq(c, b)
            )
            got = self.arrow(a, c) @ self.arrow_to(c, b)
            self._paths[(a, b)] = got
        return got

    def pair_basis(self, a, b):
        """Chosen basis of the transformations obj(b) -> obj(a), cached."""
        got = self._pairs.get((a, b))
        if got is None:
            got = nat_basis(self._objs[b], self._objs[a])
            self._pairs[(a, b)] = got
        return got

    def validate(self):
        """Check path independence of the composite arrows."""
        index = self.index
        for a in range(index.n):
            for b in range(index.n):
                if b == a or not index.leq(a, b):
                    continue
                ref = self.arrow_to(a, b)
                for c in index.children(a):
                    if not index.leq(c, b):
                        continue
                    if self.arrow(a, c) @ self.arrow_to(c, b) != ref:
                        raise FunctorialityViolation(
                            f"composite arrows from {index.names[b]!r} to "
                            f"{index.names[a]!r} disagree through "
                            f"{index.names[c]!r}"
                        )
        return self

    def __eq__(self, other):
        if not isinstance(other, CollectionFunctor):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.index == other.index
            and self.p == other.p
            and self._objs == other._objs
            and self._arrows == other._arrows
        )

    __hash__ = None

    def __repr__(self):
        nonzero = sum(1 for a in range(self.index.n) if not self.member_is_zero(a))
        return (
            f"CollectionFunctor(index={self.index.n}, members={nonzero}, "
            f"p={self.p})"
        )

    def to_json(self):
        objs = {}
        for a in range(self.index.n):
            if not self.member_is_zero(a):
                objs[self.index.names[a]] = self._objs[a].to_json()
        arrows = {}
        for (a, b), f in sorted(self._arrows.items()):
            if f.is_zero():
                continue
            key = f"{self.index.names[a]}<{self.index.names[b]}"
            comps = {}
            for x in range(self.domain.n):
                c = f.component(x)
                if not c.is_zero():
                    comps[self.domain.names[x]] = c.tolist()
            arrows[key] = comps
        return {
            "p": self.p,
            "I": self.domain.to_json(),
            "J": self.index.to_json(),
            "objs": objs,
            "arrows": arrows,
        }

    @staticmethod
    def from_json(obj):
        """Collection from its JSON form.

        Malformed input raises ValueError (members and arrow entries
        follow PersistenceModule.from_json's rules).  A member that is
        not a functor or an arrow that is not natural raises
        FunctorialityViolation: nat_basis solves at a presentation and the
        hom modules read coordinates without solving, so both trust them.
        """
        from relbetti.poset import Poset

        p = check_modulus(obj["p"])
        domain = Poset.from_json(obj["I"])
        index = Poset.from_json(obj["J"])
        members = json_object(obj.get("objs", {}), '"objs"')
        unknown = sorted(set(members) - set(index.names))
        if unknown:
            raise ValueError(f'"objs" names no index element {unknown[0]!r}')
        objs = []
        for name in index.names:
            mj = members.get(name)
            if mj is None:
                objs.append(zero_module(domain, p))
            else:
                m = PersistenceModule.from_json(
                    json_object(mj, f"member {name!r}"), p
                )
                if m.poset != domain:
                    raise ValueError(f"member {name!r} lives over a different poset")
                try:
                    validate_module(m)
                except FunctorialityViolation as exc:
                    raise FunctorialityViolation(
                        f"member {name!r}: {exc}"
                    ) from None
                objs.append(m)
        arrows = {}
        for key, comps in json_object(obj.get("arrows", {}), '"arrows"').items():
            na, _, nb = key.partition("<")
            a, b = index.index(na), index.index(nb)
            comps = json_object(comps, f"arrow {key!r}")
            unknown = sorted(set(comps) - set(domain.names))
            if unknown:
                raise ValueError(
                    f"arrow {key!r} names no element {unknown[0]!r}"
                )
            mats = []
            for x in range(domain.n):
                rows = comps.get(domain.names[x])
                if rows is None:
                    mats.append(cached_zeros(objs[a].dims[x], objs[b].dims[x], p))
                else:
                    mats.append(matrix_from_json(rows, p, f"arrow {key!r}"))
            arrow = NatTransformation(objs[b], objs[a], mats)
            try:
                arrow.check()
            except ValueError as exc:
                raise FunctorialityViolation(f"arrow {key!r}: {exc}") from None
            arrows[(a, b)] = arrow
        return CollectionFunctor(domain, index, p, objs, arrows)


def _free_positions(basis):
    """Where each vector of a nat_basis basis has its last nonzero entry,
    as (element, row, column).

    The basis is in reduced echelon form read from the last entry back:
    every other vector is 0 there and this one is 1, so the coordinates of
    a transformation in the span are its entries at these positions.
    """
    out = []
    for phi in basis:
        x = next(
            x for x in range(len(phi.comps) - 1, -1, -1)
            if phi.comps[x].a.any()
        )
        last = int(np.flatnonzero(phi.comps[x].a)[-1])
        out.append((x, *divmod(last, phi.comps[x].cols)))
    return out


def _gather(frees, component):
    """Coordinates of a transformation in a basis with these free
    positions; component(x) gives its component at x and is asked only
    at the elements that hold one."""
    comps = {}
    out = np.zeros((len(frees), 1), dtype=np.int64)
    for k, (x, r, c) in enumerate(frees):
        if x not in comps:
            comps[x] = component(x).a
        out[k, 0] = comps[x][r, c]
    return out


def _nat_module_data(coll, m, member=None):
    """The hom module of m plus the bases realizing its fibers and their
    free positions.

    The fiber at a is the space of transformations obj(a) -> m; the
    transition along an index cover precomposes with the arrow, composing
    only the components that hold free positions of the upper basis.
    When m is the member at index element `member`, the cached pair bases
    are reused.
    """
    index = coll.index
    p = coll.p
    if member is None:
        bases = [nat_basis(coll.obj(a), m) for a in range(index.n)]
    else:
        bases = [coll.pair_basis(member, a) for a in range(index.n)]
    frees = [_free_positions(bas) for bas in bases]
    dims = [len(bas) for bas in bases]
    maps = {}
    for a, b in index.covers:
        if dims[b] == 0 or dims[a] == 0:
            # omitted maps default to zero
            continue
        arrow = coll.arrow(a, b).comps
        cols = [
            _gather(frees[b], lambda x: phi.comps[x] @ arrow[x])
            for phi in bases[a]
        ]
        maps[(a, b)] = Matrix._trusted(np.hstack(cols), p)
    return PersistenceModule(index, p, dims, maps), bases, frees


def nat_module(coll, m):
    """Module over the index poset collecting the maps out of the members.

    The fiber at a has one coordinate per chosen basis transformation
    obj(a) -> m; transitions precompose with the collection's arrows.
    """
    return _nat_module_data(coll, m)[0]


def nat_module_map(coll, f):
    """The map induced on hom modules by postcomposition with f."""
    src, sbases, _ = _nat_module_data(coll, f.source)
    dst, _, dfrees = _nat_module_data(coll, f.target)
    comps = []
    for a in range(coll.index.n):
        if src.dims[a] == 0 or dst.dims[a] == 0:
            comps.append(cached_zeros(dst.dims[a], src.dims[a], coll.p))
            continue
        cols = [
            _gather(dfrees[a], lambda x: f.comps[x] @ phi.comps[x])
            for phi in sbases[a]
        ]
        comps.append(Matrix._trusted(np.hstack(cols), coll.p))
    return NatTransformation(src, dst, comps)


def _realized(coll, f):
    """Realize an index module as a base module, with its presentation.

    The realization is homalg's cokernel of a relation map between two sums
    of members, both copy-major as direct_sum lays them out: `sums` holds
    f.dims[a] copies of obj(a) for every index element a, and `rels` holds
    f.dims[a] copies of obj(b) for every index cover a < b.  Such a
    relation copy goes to b's copies along f's cover map and, negated, to
    the same copy of a along the collection's arrow.  Returns (module,
    projection from sums, a pointwise section of it, offsets), with
    offsets[x][a] where a's copies start in sums at x.
    """
    index = coll.index
    domain = coll.domain
    p = coll.p
    objs = [coll.obj(a) for a in range(index.n)]
    covers = index.sorted_covers
    sums = direct_sum(domain, p, [(objs[a], f.dims[a]) for a in range(index.n)])
    rels = direct_sum(domain, p, [(objs[b], f.dims[a]) for a, b in covers])
    offsets = []
    comps = []
    for x in range(domain.n):
        offs = np.cumsum(
            [0] + [f.dims[a] * objs[a].dims[x] for a in range(index.n)]
        ).tolist()
        arr = np.zeros((sums.dims[x], rels.dims[x]), dtype=np.int64)
        c0 = 0
        for a, b in covers:
            w = f.dims[a] * objs[b].dims[x]
            if w:
                up = kron(f.cover_map(a, b), cached_identity(objs[b].dims[x], p))
                arr[offs[b]:offs[b + 1], c0:c0 + w] = up.a
                down = kron(
                    cached_identity(f.dims[a], p), coll.arrow(a, b).component(x)
                )
                arr[offs[a]:offs[a + 1], c0:c0 + w] = -down.a
            c0 += w
        offsets.append(offs)
        comps.append(Matrix(arr, p))
    module, proj = cokernel(NatTransformation(rels, sums, comps))
    return module, proj, section_of(proj), offsets


def realization(coll, f):
    """Assemble an index module into a base module along the collection."""
    return _realized(coll, f)[0]


def realization_map(coll, f):
    """The realized map induced by a map of index modules: f's component
    at a acts on the copies of obj(a), between the two quotients."""
    lsrc, _, section, soffs = _realized(coll, f.source)
    ldst, proj, _, doffs = _realized(coll, f.target)
    p = coll.p
    comps = []
    for x in range(coll.domain.n):
        pre = np.zeros((doffs[x][-1], soffs[x][-1]), dtype=np.int64)
        for a in range(coll.index.n):
            block = kron(
                f.component(a), cached_identity(coll.obj(a).dims[x], p)
            )
            pre[doffs[x][a]:doffs[x][a + 1], soffs[x][a]:soffs[x][a + 1]] = block.a
        comps.append(proj.comps[x] @ Matrix._trusted(pre, p) @ section.comps[x])
    return NatTransformation(lsrc, ldst, comps)


def unit(coll, a):
    """Unit at a single index element.

    The free index module at a maps into the hom module of the member at
    a; at b above a the generator goes to the composite arrow, written in
    the chosen pair basis.
    """
    index = coll.index
    p = coll.p
    src = free(index, a, p)
    target, _, frees = _nat_module_data(coll, coll.obj(a), member=a)
    comps = []
    for b in range(index.n):
        if not index.leq(a, b) or target.dims[b] == 0:
            comps.append(cached_zeros(target.dims[b], src.dims[b], p))
            continue
        coords = _gather(frees[b], coll.arrow_to(a, b).component)
        comps.append(Matrix._trusted(coords, p))
    return NatTransformation(src, target, comps)


def unit_map(coll, f):
    """Unit of the adjunction at an arbitrary index module: basis vector v
    of f(a) goes to the v-th copy of obj(a) in the realization."""
    index = coll.index
    p = coll.p
    lmod, proj, _, offsets = _realized(coll, f)
    target, _, frees = _nat_module_data(coll, lmod)
    comps = []
    for a in range(index.n):
        if f.dims[a] == 0 or target.dims[a] == 0:
            comps.append(Matrix.zeros(target.dims[a], f.dims[a], p))
            continue
        cols = []
        for v in range(f.dims[a]):
            def inserted(x, v=v):
                k = coll.obj(a).dims[x]
                start = offsets[x][a] + v * k
                return proj.comps[x].take_cols(range(start, start + k))
            cols.append(_gather(frees[a], inserted))
        comps.append(Matrix._trusted(np.hstack(cols), p))
    return NatTransformation(f, target, comps)


def counit_map(coll, m):
    """Counit of the adjunction: realize the hom module and evaluate, the
    i-th copy of obj(a) mapping to m by the i-th basis transformation."""
    nm, bases, _ = _nat_module_data(coll, m)
    lmod, _, section, _ = _realized(coll, nm)
    comps = [
        hstack(
            [phi.component(x) for bas in bases for phi in bas],
            rows=m.dims[x], p=coll.p,
        ) @ section.comps[x]
        for x in range(coll.domain.n)
    ]
    return NatTransformation(lmod, m, comps)


def is_thin(coll):
    """Check the pairwise characterization of thinness.

    Between members at comparable index elements the transformation space
    must be spanned by the composite arrow; between incomparable ones (in
    either failing direction) it must vanish.  Returns (flag, witness);
    the result is cached on the collection.
    """
    if coll._thin is None:
        coll._thin = _thin_scan(coll)
    return coll._thin


def _thin_scan(coll):
    index = coll.index
    for a in range(index.n):
        if coll.member_is_zero(a):
            continue
        for b in range(index.n):
            if coll.member_is_zero(b):
                continue
            bas = coll.pair_basis(a, b)
            if index.leq(a, b):
                if len(bas) > 1:
                    return False, (a, b)
                if len(bas) == 1 and coll.arrow_to(a, b).is_zero():
                    return False, (a, b)
            elif bas:
                return False, (a, b)
    return True, None


def is_flat(coll):
    """Thinness plus one-dimensionality at all comparable nonzero pairs.

    Index elements carrying the zero module impose no condition: the unit
    is only required to be invertible where the members do not vanish.
    """
    thin, witness = is_thin(coll)
    if not thin:
        return False, witness
    index = coll.index
    for a in range(index.n):
        if coll.member_is_zero(a):
            continue
        for b in range(index.n):
            if coll.member_is_zero(b) or not index.leq(a, b):
                continue
            if not coll.pair_basis(a, b):
                return False, (a, b)
    return True, None


def _claimed_or(coll, key, check):
    """The status recorded under key in coll.claims as (flag, None), or
    else check(coll)."""
    claimed = coll.claims.get(key)
    if claimed is not None:
        return bool(claimed), None
    return check(coll)


def _unit_kernel_generators(coll, a):
    """Where the kernel of unit(coll, a) is generated, in index order.

    The free index module at a is one-dimensional on the up-set of a with
    identity maps, so the kernel at b is nonzero exactly when a <= b and
    the composite arrow obj(b) -> obj(a) is zero.  By functoriality that
    set is an up-set: b lies in it when a lower cover does, and is a
    generator when it lies in it and no lower cover does.  Only the
    remaining elements are tested, the cheap way first: a zero member, an
    empty pair basis the thinness scan already solved (no Hom is solved
    here), then the arrow itself.
    """
    if coll.member_is_zero(a):
        return [a]
    index = coll.index
    ker = set()
    gens = []
    for b in np.flatnonzero(index.up_mask(a)).tolist():
        if any(c in ker for c in index.parents(b)):
            ker.add(b)
        elif (
            coll.member_is_zero(b)
            or not coll._pairs.get((a, b), True)
            or coll.arrow_to(a, b).is_zero()
        ):
            ker.add(b)
            gens.append(b)
    return gens


def degeneracy_hypothesis(coll):
    """Check the sufficient condition for the index-Koszul shortcut.

    For every index element a the generators of the kernel of its unit,
    closed under joins, must land where the collection vanishes.  That
    kernel is supported on {b >= a : arrow_to(a, b) is zero}, and it is
    generated at the elements of that set with no lower cover in it, so
    no hom module is built.  Returns (flag, witness); the result is cached
    on the collection.

    The scan is only meaningful over a thin collection, so thinness is a
    precondition, not part of the answer: a recorded thinness claim is
    trusted here (the scan itself never consults claims), and without one
    the pairwise check runs first.
    """
    if coll._degeneracy is not None:
        return coll._degeneracy
    index = coll.index
    thin, witness = _claimed_or(coll, "thin", is_thin)
    if not thin:
        if witness is None:
            raise NotThin("collection records that it is not thin")
        a, b = witness
        raise NotThin(
            f"collection is not thin at pair "
            f"({index.names[a]!r}, {index.names[b]!r})"
        )
    if not index.is_upper_semilattice():
        raise NotSemilattice("the degeneracy check needs joins in the index")
    result = (True, None)
    for a in range(index.n):
        supp = _unit_kernel_generators(coll, a)
        if not supp:
            continue
        for b in sorted(index.sublattice_closure(supp)):
            if not coll.member_is_zero(b):
                result = (False, (a, b))
                break
        if not result[0]:
            break
    coll._degeneracy = result
    return result


def _require_degeneracy(coll, force):
    """The gate of the index-Koszul route: the recorded degeneracy claim,
    else the scan, unless forced."""
    if not force and not _claimed_or(coll, "degeneracy", degeneracy_hypothesis)[0]:
        raise HypothesisNotVerified(
            "degeneracy condition not verified; pass force=True to compute anyway"
        )


def relative_betti_koszul(coll, m, a, dmax, force=False):
    """Relative multiplicities at a nonzero member via the index Koszul
    complex of the hom module.  Refuses when the degeneracy condition is
    not known to hold, unless forced."""
    if coll.member_is_zero(a):
        raise ValueError(
            f"member at {coll.index.names[a]!r} is zero; no multiplicities there"
        )
    _require_degeneracy(coll, force)
    return betti_koszul(nat_module(coll, m), a, dmax)


def relative_betti_diagram(coll, m, dmax, force=False):
    """Full table of relative multiplicities up to dmax.

    Computes the hom module once and reads homalg's Koszul table at every
    index element with a nonzero member.  Same verification gate as
    relative_betti_koszul.
    """
    _require_degeneracy(coll, force)
    nonzero = [a for a in range(coll.index.n) if not coll.member_is_zero(a)]
    return koszul_table(nat_module(coll, m), nonzero, dmax)


def _relative_cover(coll, m, nm, bases):
    """Adjoint of the minimal cover of the hom module.

    One summand per generator, realized as a copy of the generating
    member; the component on a summand is the transformation the
    generator's coordinates select.
    """
    domain = coll.domain
    p = coll.p
    cov = minimal_cover(nm)
    gens = cov.source.free_generators
    realized = direct_sum(domain, p, [(coll.obj(a), 1) for a in gens])
    picked = []
    for k, a in enumerate(gens):
        pos = cov.source.generators_at[a].index(k)
        picked.append((a, cov.component(a).col(pos).a.reshape(-1)))
    comps = []
    for x in range(domain.n):
        blocks = []
        for a, coords in picked:
            w = coll.obj(a).dims[x]
            arr = np.zeros((m.dims[x], w), dtype=np.int64)
            for i, c in enumerate(coords):
                if c:
                    arr += int(c) * bases[a][i].component(x).a
            blocks.append(Matrix(arr, p))
        comps.append(hstack(blocks, rows=m.dims[x], p=p))
    g = NatTransformation(realized, m, comps)
    g.relative_generators = gens
    return g


def relative_minimal_cover(coll, m):
    """Minimal cover of m relative to the collection."""
    if not _claimed_or(coll, "thin", is_thin)[0]:
        raise NotThin("relative covers need a thin collection")
    nm, bases, _ = _nat_module_data(coll, m)
    return _relative_cover(coll, m, nm, bases)


class RelativeResolution(Resolution):
    """Chain of realized member sums over a target, with generators[d]
    the index elements of the degree-d summands.

    Exactness is measured after passing to hom modules, so an augmentation
    need not be onto and a target invisible to the collection resolves by
    the empty chain.
    """

    def check(self, coll):
        """Validate the chain through hom modules (Resolution._check_chain)
        and that no generator sits at a vanishing member."""
        for gens in self.generators:
            if any(coll.member_is_zero(a) for a in gens):
                raise ValueError("generator at a vanishing member")
        self._check_chain(
            nat_module(coll, self.target), lambda f: nat_module_map(coll, f)
        )
        return self

    def __repr__(self):
        state = "complete" if self.complete else "truncated"
        return (
            f"RelativeResolution(length={self.length}, {state}, "
            f"target_dim={sum(self.target.dims)})"
        )


def relative_minimal_resolution(coll, m, dmax):
    """Iterated relative minimal covers of successive kernels (the direct
    construction of the relative multiplicities, degree by degree)."""
    if not _claimed_or(coll, "thin", is_thin)[0]:
        raise NotThin("relative resolutions need a thin collection")

    def cover(cur):
        nm, bases, _ = _nat_module_data(coll, cur)
        if sum(nm.dims) == 0:
            # nothing maps in: the chain so far is already exact through
            # the hom module
            return None
        g = _relative_cover(coll, cur, nm, bases)
        return g, g.relative_generators

    return RelativeResolution.resolve(m, dmax, cover)


def relative_projective_dimension(coll, m, dmax):
    """Length of the relative minimal resolution; raises when it does not
    terminate within dmax."""
    res = relative_minimal_resolution(coll, m, dmax)
    if not res.complete:
        raise DmaxReached(f"resolution still open after degree {dmax}")
    return res.length


def is_relative_exact(coll, seq):
    """Exactness of a composable sequence, measured through hom modules."""
    return is_exact([nat_module_map(coll, f) for f in seq])

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

import functools
import weakref

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
    complement_coords,
    kron,
    matmul_exact,
)
# not called here: kept so that relative.rref stays fieldlin.rref, the
# name perfbench's check_bench asserts its tracer wraps once
from relbetti.fieldlin import rref  # noqa: F401
from relbetti.homalg import (
    NatTransformation,
    Resolution,
    betti_koszul,
    cokernel,
    generator_elements,
    hom_basis,
    hom_dim,
    identity_nat,
    is_exact,
    koszul_table,
    nat_basis,
    zero_nat,
)
from relbetti.pmod import (
    PersistenceModule,
    cached_identity,
    direct_sum,
    free,
    matrix_from_json,
    radical,
    zero_module,
)
from relbetti.pmod import validate as validate_module
from relbetti.poset import Poset, bit_elements, json_object


class CollectionFunctor:
    """Contravariant assignment of base-poset modules to index elements.

    objs[a] is the member at index element a.  arrows[(a, b)], for a cover
    a < b of the index poset, is a NatTransformation objs[b] -> objs[a];
    omitted arrows default to zero.  Composite arrows run along canonical
    cover chains (Poset.step_toward); arrow_to composes them whole and
    keeps nothing.  The property scans ask only which composites are
    zero, and read it from zero_below: one bitset per index element,
    computed on first use.  validate() confirms the composites are path
    independent, and from_json runs it.  `claims` may record externally
    justified thin/flat/degeneracy statuses for builders whose index
    posets are too large to check directly; the property checks
    themselves (is_thin, is_flat, the degeneracy scan) never consult
    them, though a thinness claim is trusted as the degeneracy scan's
    precondition.  The results of the pairwise scan (thinness and
    flatness together) and of the degeneracy scan are cached on the
    collection; no Hom basis or dimension is, and nothing per pair.  A
    module's hom module over the collection is cached on the module.
    """

    def __init__(self, domain, index, p, objs, arrows, claims=None):
        p = check_modulus(p)
        objs = list(objs)
        if len(objs) != index.n:
            raise ValueError("need one member per index element")
        for name, m in zip(index.names, objs):
            if m.poset != domain:
                raise ValueError(f"member {name!r} lives over a different poset")
            if m.p != p:
                raise ValueError("members must share the collection's modulus")
        arrows = dict(arrows)
        for key in arrows:
            if key not in index.covers:
                if not (isinstance(key, tuple) and len(key) == 2 and all(
                        isinstance(i, int) and 0 <= i < index.n for i in key)):
                    raise ValueError(f"arrow key {key!r} is not an index pair")
                na, nb = (index.names[i] for i in key)
                raise ValueError(f"arrow key '{na}<{nb}' is not a cover relation")
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
        # zero_below's bitsets, one per index element, filled on first use
        self._zero_below = [None] * index.n
        # (is_thin's result, is_flat's result), from one pairwise scan
        self._thin = None
        self._degeneracy = None

    def obj(self, a):
        return self._objs[a]

    def member_is_zero(self, a):
        return not self._objs[a].support_bits

    def arrow(self, a, b):
        return self._arrows[(a, b)]

    def arrow_to(self, a, b):
        """Composite arrow obj(b) -> obj(a) for a <= b in the index,
        composed whole along the canonical cover chain."""
        if not self.index.leq(a, b):
            raise ValueError(
                f"{self.index.names[a]!r} is not below {self.index.names[b]!r}"
            )
        if a == b:
            return identity_nat(self._objs[a])
        c = self.index.step_toward(a, b)
        return self.arrow(a, c) @ self.arrow_to(c, b)

    @functools.cached_property
    def _nonzero(self):
        """Bitset over the index: bit a is set iff obj(a) is nonzero."""
        return sum(1 << a for a, m in enumerate(self._objs) if m.support_bits)

    @functools.cached_property
    def _members_at(self):
        """Bitsets over the index, one per base element x: bit a is set
        iff obj(a) is nonzero at x."""
        out = [0] * self.domain.n
        for a, m in enumerate(self._objs):
            for x in bit_elements(m.support_bits):
                out[x] |= 1 << a
        return out

    @functools.cached_property
    def _generated_at(self):
        """Bitsets over the index, one per base element x: bit a is set
        iff obj(a) has a generator at x."""
        out = [0] * self.domain.n
        for a, m in enumerate(self._objs):
            for x in generator_elements(m):
                out[x] |= 1 << a
        return out

    def zero_below(self, b):
        """Bitset of the a <= b whose composite arrow obj(b) -> obj(a) is
        zero, computed on first use; only the int is kept.

        A transformation is zero exactly when it is zero at its source's
        generators.  For each generator element x of obj(b), one pass
        pushes obj(b)'s component at x down the index in decreasing order,
        through the members nonzero at x: each takes its image from the
        next element of its canonical chain to b.  Zero images are
        dropped, and the rest go when the pass ends."""
        got = self._zero_below[b]
        if got is None:
            index, ob, p = self.index, self._objs[b], self.p
            down = index.down_bits()[b]
            nonzero = 1 << b if ob.support_bits else 0
            for x in generator_elements(ob):
                images = {b: cached_identity(ob.dims[x], p).a}
                below = down & self._members_at[x] & ~(1 << b)
                for a in reversed(bit_elements(below)):
                    c = index.step_toward(a, b)
                    if c not in images:
                        continue
                    image = matmul_exact(
                        self._arrows[(a, c)].component(x).a, images[c], p
                    )
                    if np.count_nonzero(image):
                        images[a] = image
                        nonzero |= 1 << a
            got = self._zero_below[b] = down & ~nonzero
        return got

    def pair_basis(self, a, b):
        """Chosen basis of the transformations obj(b) -> obj(a), solved
        afresh on every call.  The property scans read only hom_dim."""
        return nat_basis(self._objs[b], self._objs[a])

    def validate(self):
        """Check path independence: for each b the composites into b are
        built down the index along their canonical chains (the first
        child below b), and every other child below b must agree."""
        index = self.index
        for b in range(index.n):
            into = {b: identity_nat(self._objs[b])}
            for a in reversed(bit_elements(index.down_bits()[b] & ~(1 << b))):
                for c in index.children(a):
                    if not index.leq(c, b):
                        continue
                    f = self.arrow(a, c) @ into[c]
                    if a not in into:
                        into[a] = f
                    elif f != into[a]:
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
            arrows[key] = {
                self.domain.names[x]: c.tolist()
                for x, c in f._comps.items() if not c.is_zero()
            }
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
        not a functor, an arrow that is not natural or composite arrows
        that depend on the path (validate) raise FunctorialityViolation:
        hom_basis solves at a presentation and the hom modules read
        coordinates without solving, so both trust them.
        """
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
            try:
                a, b = index.index(na), index.index(nb)
            except KeyError as exc:
                raise ValueError(
                    f"arrow {key!r} names no index element {exc.args[0]!r}"
                ) from None
            comps = json_object(comps, f"arrow {key!r}")
            unknown = sorted(set(comps) - set(domain.names))
            if unknown:
                raise ValueError(
                    f"arrow {key!r} names no element {unknown[0]!r}"
                )
            mats = {
                domain.index(name): matrix_from_json(rows, p, f"arrow {key!r}")
                for name, rows in comps.items()
            }
            try:
                arrows[(a, b)] = NatTransformation(objs[b], objs[a], mats)
            except ValueError as exc:
                raise ValueError(f"arrow {key!r}: {exc}") from None
        # the constructor refuses malformed keys and members before any
        # naturality is checked
        coll = CollectionFunctor(domain, index, p, objs, arrows)
        for (a, b), arrow in arrows.items():
            try:
                arrow.check()
            except ValueError as exc:
                key = f"{index.names[a]}<{index.names[b]}"
                raise FunctorialityViolation(f"arrow {key!r}: {exc}") from None
        return coll.validate()


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


def _evaluations(coll, m, bases, picked):
    """Per base element, the components of the rows picked[a] of every
    flat basis bases[a] of Hom(obj(a), m), side by side."""
    comps = []
    for x, d in enumerate(m.dims):
        blocks = [np.zeros((d, 0), dtype=np.int64)]
        for a, rows in picked.items():
            canon, offs, _ = bases[a]
            block = canon[rows, offs[x]:offs[x + 1]]
            blocks.extend(block.reshape(len(block), d, coll.obj(a).dims[x]))
        comps.append(Matrix._trusted(np.hstack(blocks), coll.p))
    return comps


def _nat_module_data(coll, m):
    """The hom module of m plus hom_basis(obj(a), m) for every a; where m
    vanishes at every generator of obj(a) (coll._generated_at) nothing
    is solved, the fiber is 0 and the basis None.  Only the covers up
    from a solved member between two nonzero fibers get a transition: it
    precomposes with the arrow, at each free position (x, r, c) of the
    upper basis one product of row r of the lower basis's components at
    x by column c of the arrow there.

    The result is cached on m for m's lifetime, in m._hom_modules, keyed
    by id(coll) beside a weak reference to coll; an entry counts only
    while that reference is coll, so the cache keeps no collection alive.
    Every caller reads the one solve, so the bases' canon arrays are
    read-only.
    """
    if m.poset != coll.domain:
        raise ValueError("modules live on different posets")
    got = m._hom_modules.get(id(coll))
    if got is not None and got[0]() is coll:
        return got[1]
    index = coll.index
    p = coll.p
    solved = 0
    for x in bit_elements(m.support_bits):
        solved |= coll._generated_at[x]
    bases = [None] * index.n
    for a in bit_elements(solved):
        bases[a] = hom_basis(coll.obj(a), m)
        bases[a][0].flags.writeable = False
    dims = [0 if bas is None else len(bas[0]) for bas in bases]
    maps = {}
    for a in bit_elements(solved):
        for b in index.children(a):
            if dims[a] == 0 or dims[b] == 0:
                continue
            canon, offs, _ = bases[a]
            width = coll.obj(a).dims
            arrow = coll.arrow(a, b).component
            arr = np.empty((dims[b], dims[a]), dtype=np.int64)
            for i, (x, r, c) in enumerate(bases[b][2]):
                start = offs[x] + r * width[x]
                arr[i] = matmul_exact(
                    canon[:, start:start + width[x]], arrow(x).a[:, c:c + 1], p
                )[:, 0]
            maps[(a, b)] = Matrix._trusted(arr, p)
    data = PersistenceModule(index, p, dims, maps), bases
    m._hom_modules[id(coll)] = weakref.ref(coll), data
    return data


def nat_module(coll, m):
    """Module over the index poset collecting the maps out of the members.

    The fiber at a has one coordinate per chosen basis transformation
    obj(a) -> m; transitions precompose with the collection's arrows.
    Solved once per module and collection and kept on m, keyed by the
    collection (_nat_module_data), so a second call returns the same
    module.
    """
    return _nat_module_data(coll, m)[0]


def nat_module_map(coll, f):
    """The map induced on hom modules by postcomposition with f: row r
    of f at x times column c of the source basis at each free position
    (x, r, c) of the target basis."""
    src, sbases = _nat_module_data(coll, f.source)
    dst, dbases = _nat_module_data(coll, f.target)
    comps = {}
    for a in bit_elements(src.support_bits & dst.support_bits):
        canon, offs, _ = sbases[a]
        width = coll.obj(a).dims
        arr = np.empty((dst.dims[a], src.dims[a]), dtype=np.int64)
        for i, (x, r, c) in enumerate(dbases[a][2]):
            column = canon[:, offs[x] + c:offs[x + 1]:width[x]]
            arr[i] = matmul_exact(column, f.component(x).a[r:r + 1].T, coll.p)[:, 0]
        comps[a] = Matrix._trusted(arr, coll.p)
    return NatTransformation(src, dst, comps)


def _realized(coll, f):
    """Realize an index module as a base module, with its presentation.

    The realization is homalg's cokernel of a relation map between two sums
    of members, both copy-major as direct_sum lays them out: `sums` holds
    f.dims[a] copies of obj(a) for every index element a, and `rels` holds
    f.dims[a] copies of obj(b) for every index cover a < b.  Such a
    relation copy goes to b's copies along f's cover map and, negated, to
    the same copy of a along the collection's arrow.  Returns cokernel's
    (module, projection from sums, pointwise section) and offsets, with
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
    return (*cokernel(NatTransformation(rels, sums, enumerate(comps))), offsets)


def realization(coll, f):
    """Assemble an index module into a base module along the collection."""
    return _realized(coll, f)[0]


def realization_map(coll, f):
    """The realized map induced by a map of index modules: f's component
    at a acts on the copies of obj(a), between the two quotients."""
    lsrc, _, section, soffs = _realized(coll, f.source)
    ldst, proj, _, doffs = _realized(coll, f.target)
    p = coll.p
    projs, sections = proj.comps, section.comps
    comps = []
    for x in range(coll.domain.n):
        pre = np.zeros((doffs[x][-1], soffs[x][-1]), dtype=np.int64)
        for a in range(coll.index.n):
            block = kron(
                f.component(a), cached_identity(coll.obj(a).dims[x], p)
            )
            pre[doffs[x][a]:doffs[x][a + 1], soffs[x][a]:soffs[x][a + 1]] = block.a
        comps.append(projs[x] @ Matrix._trusted(pre, p) @ sections[x])
    return NatTransformation(lsrc, ldst, enumerate(comps))


def unit(coll, a):
    """Unit at a single index element.

    The free index module at a maps into the hom module of the member at
    a; at b above a the generator goes to the composite arrow, written in
    the chosen pair basis.
    """
    index = coll.index
    p = coll.p
    src = free(index, a, p)
    target, bases = _nat_module_data(coll, coll.obj(a))
    comps = {}
    for b in bit_elements(index.up_bits()[a] & target.support_bits):
        coords = _gather(bases[b][2], coll.arrow_to(a, b).component)
        comps[b] = Matrix._trusted(coords, p)
    return NatTransformation(src, target, comps)


def unit_map(coll, f):
    """Unit of the adjunction at an arbitrary index module: basis vector v
    of f(a) goes to the v-th copy of obj(a) in the realization."""
    p = coll.p
    lmod, proj, _, offsets = _realized(coll, f)
    target, bases = _nat_module_data(coll, lmod)
    comps = {}
    for a in bit_elements(f.support_bits & target.support_bits):
        cols = []
        for v in range(f.dims[a]):
            def inserted(x, v=v):
                k = coll.obj(a).dims[x]
                start = offsets[x][a] + v * k
                return proj.component(x).take_cols(range(start, start + k))
            cols.append(_gather(bases[a][2], inserted))
        comps[a] = Matrix._trusted(np.hstack(cols), p)
    return NatTransformation(f, target, comps)


def counit_map(coll, m):
    """Counit of the adjunction: realize the hom module and evaluate, the
    i-th copy of obj(a) mapping to m by the i-th basis transformation."""
    nm, bases = _nat_module_data(coll, m)
    lmod, _, section, _ = _realized(coll, nm)
    picked = dict.fromkeys(bit_elements(nm.support_bits), slice(None))
    evals = zip(_evaluations(coll, m, bases, picked), section.comps)
    return NatTransformation(lmod, m, enumerate(c @ s for c, s in evals))


def is_thin(coll):
    """Check the pairwise characterization of thinness.

    Between members at comparable index elements the transformation space
    must be spanned by the composite arrow; between incomparable ones (in
    either failing direction) it must vanish.  Only Hom dimensions are
    read, and arrows are tested at generators (_thin_scan).  Returns
    (flag, witness); the result is cached on the collection.
    """
    if coll._thin is None:
        coll._thin = _thin_scan(coll)
    return coll._thin[0]


def _thin_scan(coll):
    """Read the Hom dimension of every ordered pair of nonzero members,
    a-major, and return (is_thin's result, is_flat's result).

    Row a asks hom_dim only of the members with a generator where obj(a)
    is nonzero (coll._generated_at); the others have dimension 0.  A
    comparable pair of dimension 1 is thin when its composite arrow is
    nonzero, which is read from coll.zero_below.  The first comparable
    pair with no transformation is the flatness witness; when thinness
    fails, its witness answers both."""
    index = coll.index
    nonzero = coll._nonzero
    flat = (True, None)
    for a in bit_elements(nonzero):
        cand = 0
        for x in bit_elements(coll.obj(a).support_bits):
            cand |= coll._generated_at[x]
        # comparable pairs with no transformation, candidates added below
        empty = index.up_bits()[a] & nonzero & ~cand
        for b in bit_elements(nonzero & cand):
            dim = hom_dim(coll.obj(b), coll.obj(a))
            if not index.leq(a, b):
                thin = dim == 0
            else:
                if dim == 0:
                    empty |= 1 << b
                thin = dim == 0 or (
                    dim == 1 and not coll.zero_below(b) >> a & 1
                )
            if not thin:
                return ((False, (a, b)),) * 2
        if empty and flat[0]:
            flat = (False, (a, (empty & -empty).bit_length() - 1))
    return (True, None), flat


def is_flat(coll):
    """Thinness plus one-dimensionality at all comparable nonzero pairs.

    Index elements carrying the zero module impose no condition: the unit
    is only required to be invertible where the members do not vanish.
    Decided by the pass that decides is_thin, which records the first
    comparable pair with no transformation, and cached with it.
    """
    is_thin(coll)
    return coll._thin[1]


def _claimed_or(coll, key, check):
    """The status recorded under key in coll.claims as (flag, None), or
    else check(coll)."""
    claimed = coll.claims.get(key)
    if claimed is not None:
        return bool(claimed), None
    return check(coll)


def _require_thin(coll):
    """The thin gate: the recorded thinness claim, else the honest check;
    a refusal the check decided names its witness pair."""
    thin, witness = _claimed_or(coll, "thin", is_thin)
    if thin:
        return
    if witness is None:
        raise NotThin("collection records that it is not thin")
    a, b = witness
    raise NotThin(
        f"collection is not thin at pair "
        f"({coll.index.names[a]!r}, {coll.index.names[b]!r})"
    )


def _unit_kernel_generators(coll, a):
    """Where the kernel of unit(coll, a) is generated, in index order.

    The free index module at a is one-dimensional on the up-set of a with
    identity maps, so the kernel at b is nonzero exactly when a <= b and
    the composite arrow obj(b) -> obj(a) is zero: when a lies in
    coll.zero_below(b).  By functoriality that set is an up-set, and it is
    generated at its elements with no lower cover in it.  No Hom is
    solved and no arrow is composed here.
    """
    index = coll.index
    ker = 0
    gens = []
    for b in bit_elements(index.up_bits()[a]):
        if coll.zero_below(b) >> a & 1:
            if not any(ker >> c & 1 for c in index.parents(b)):
                gens.append(b)
            ker |= 1 << b
    return gens


def degeneracy_hypothesis(coll):
    """Check the sufficient condition for the index-Koszul shortcut.

    For every index element a the generators of the kernel of its unit,
    closed under joins, must land where the collection vanishes.  That
    kernel is supported on {b >= a : arrow_to(a, b) is zero}, and it is
    generated at the elements of that set with no lower cover in it, so
    no hom module is built and the zero arrows are read from
    coll.zero_below.  Returns (flag, witness); the result is cached on
    the collection.

    The scan is only meaningful over a thin collection, so thinness is a
    precondition, not part of the answer: a recorded thinness claim is
    trusted here (the scan itself never consults claims), and without one
    the pairwise check runs first.
    """
    if coll._degeneracy is not None:
        return coll._degeneracy
    index = coll.index
    _require_thin(coll)
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

    Reads homalg's Koszul table of the hom module at every index element
    with a nonzero member.  The hom module is the one cached on m for this
    collection (_nat_module_data): after relative_minimal_resolution of m
    nothing is solved again.  Same verification gate as
    relative_betti_koszul.
    """
    _require_degeneracy(coll, force)
    return koszul_table(nat_module(coll, m), coll._nonzero, dmax)


def _relative_cover(coll, m, nm, bases):
    """(cover, generators): the adjoint of the minimal cover of the hom
    module, and the index elements of its summands.

    Its generators are minimal_cover's, the complement coordinates of the
    radical, each a unit vector.  One summand per generator, a copy of
    the generating member, whose component is the basis row it selects.
    """
    rad = radical(nm)
    picked = {}
    for a in bit_elements(nm.support_bits):
        if qs := complement_coords(rad[a]):
            picked[a] = qs
    gens = tuple(a for a, qs in picked.items() for _ in qs)
    realized = direct_sum(coll.domain, coll.p, [(coll.obj(a), 1) for a in gens])
    g = NatTransformation(realized, m, enumerate(_evaluations(coll, m, bases, picked)))
    return g, gens


def relative_minimal_cover(coll, m):
    """Minimal cover of m relative to the collection, paired with the
    index elements of its summands."""
    _require_thin(coll)
    return _relative_cover(coll, m, *_nat_module_data(coll, m))


class RelativeResolution(Resolution):
    """Chain of realized member sums over a target, with generators[d]
    the index elements of the degree-d summands.

    Exactness is measured after passing to hom modules, so an augmentation
    need not be onto and a target invisible to the collection resolves by
    the empty chain.
    """

    def check(self, coll):
        """Validate the chain through hom modules (Resolution._check_chain)
        and that no generator sits at a vanishing member.  Each term's hom
        module is solved once, though the term is the source of one
        differential and the target of the next (_nat_module_data)."""
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
    _require_thin(coll)

    def cover(cur):
        nm, bases = _nat_module_data(coll, cur)
        if sum(nm.dims) == 0:
            # nothing maps in: the chain so far is already exact through
            # the hom module
            return None
        return _relative_cover(coll, cur, nm, bases)

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

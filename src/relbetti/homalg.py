"""Homological algebra for poset modules.

Natural transformations and their solution spaces, kernels and cokernels,
deterministic minimal covers and resolutions, Betti diagrams, and the local
and global Koszul complexes that recompute them.
"""

import bisect
import itertools

import numpy as np

from relbetti.errors import (
    NotSemilattice,
    NotSubfunctor,
)
from relbetti.fieldlin import (
    Matrix,
    column_basis,
    complement_coords,
    free_rows,
    hstack,
    homology_dims,
    kernel_basis,
    matmul_exact,
    pivot_rows,
    quotient,
    rank,
    rref,
    solve,
)
from relbetti.pmod import (
    BettiDiagram,
    PersistenceModule,
    cached_identity,
    cached_zeros,
    free_on,
    radical,
    zero_module,
)
from relbetti.poset import bit_elements, mask_of, union_bits


class NatTransformation:
    """A family of matrices source(a) -> target(a), one per element.

    Components are given as element -> matrix pairs (a dict, or pairs
    such as enumerate(list)); an omitted component is zero.  A given one
    is checked for shape and modulus, and stored only when both of its
    fibers are nonzero, as PersistenceModule stores its cover maps.
    Naturality is a separate validation step (check) because pointwise
    sections legitimately fail it.
    """

    def __init__(self, source, target, comps):
        if source.poset != target.poset:
            raise ValueError("source and target live on different posets")
        if source.p != target.p:
            raise ValueError("source and target have different moduli")
        self.source = source
        self.target = target
        given = dict(comps)
        both = source.support_bits & target.support_bits
        self._comps = {}
        for a, name in enumerate(source.poset.names):
            c = given.pop(a, None)
            if c is None:
                continue
            if c.rows != target.dims[a] or c.cols != source.dims[a]:
                raise ValueError(
                    f"component at {name!r} has shape {c.rows}x{c.cols}, "
                    f"expected {target.dims[a]}x{source.dims[a]}"
                )
            if c.p != source.p:
                raise ValueError("component modulus mismatch")
            if both >> a & 1:
                self._comps[a] = c
        if given:
            raise ValueError(f"component key {next(iter(given))!r} is not an element")

    @classmethod
    def _trusted(cls, source, target, comps):
        """A transformation from a dict of components the caller built as
        the constructor stores them (shape, modulus, nonzero fibers, in
        element order); nothing is checked."""
        f = object.__new__(cls)
        f.source, f.target, f._comps = source, target, comps
        return f

    def component(self, a):
        """The stored component at a, else the zero matrix of its shape."""
        if a in self._comps:
            return self._comps[a]
        return cached_zeros(self.target.dims[a], self.source.dims[a], self.source.p)

    @property
    def comps(self):
        """Every component as a tuple, in element order."""
        return tuple(map(self.component, range(self.source.poset.n)))

    def check(self):
        """Validate naturality on each cover square with both sides nonempty."""
        for a, b in self.source.poset.sorted_covers:
            if not (self.source.dims[a] and self.target.dims[b]):
                continue
            left = self.target.cover_map(a, b) @ self.component(a)
            right = self.component(b) @ self.source.cover_map(a, b)
            if left != right:
                names = self.source.poset.names
                raise ValueError(
                    f"naturality fails on cover {names[a]!r} < {names[b]!r}"
                )
        return self

    def __matmul__(self, other):
        if not isinstance(other, NatTransformation):
            return NotImplemented
        if self.source is not other.target and self.source != other.target:
            raise ValueError("composition needs matching middle module")
        # stored on both sides: all three fibers are nonzero there
        inner = other._comps
        comps = {a: c @ inner[a] for a, c in self._comps.items() if a in inner}
        return NatTransformation._trusted(other.source, self.target, comps)

    def __eq__(self, other):
        if not isinstance(other, NatTransformation):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        # same stored keys: one dict comparison; else a component stored
        # on one side only must be zero
        if self._comps.keys() == other._comps.keys():
            return self._comps == other._comps
        keys = self._comps.keys() | other._comps.keys()
        return all(self.component(a) == other.component(a) for a in keys)

    __hash__ = None

    def is_zero(self):
        return all(c.is_zero() for c in self._comps.values())

    def is_epi(self):
        return all(
            rank(c) == self.target.dims[a] for a, c in enumerate(self.comps)
        )

    def is_mono(self):
        return all(
            rank(c) == self.source.dims[a] for a, c in enumerate(self.comps)
        )

    def __repr__(self):
        return f"NatTransformation({self.source!r} -> {self.target!r})"


def identity_nat(m):
    return NatTransformation._trusted(m, m, {
        a: cached_identity(m.dims[a], m.p) for a in bit_elements(m.support_bits)
    })


def zero_nat(source, target):
    return NatTransformation(source, target, {})


def free_nat(src, dst, coeffs):
    """Map between free modules given by scalars on generator pairs.

    coeffs[(i, j)] sends the j-th generator of src into the i-th summand of
    dst; a nonzero scalar requires dst's generator to sit below src's.
    """
    poset = src.poset
    gens_s = src.free_generators
    gens_d = dst.free_generators
    for (i, j), c in coeffs.items():
        if c % src.p and not poset.leq(gens_d[i], gens_s[j]):
            raise ValueError(
                f"no map from generator at {poset.names[gens_s[j]]!r} "
                f"into summand at {poset.names[gens_d[i]]!r}"
            )
    comps = {}
    for x in bit_elements(src.support_bits & dst.support_bits):
        alive_s, alive_d = src.generators_at[x], dst.generators_at[x]
        arr = np.zeros((len(alive_d), len(alive_s)), dtype=np.int64)
        for r, i in enumerate(alive_d):
            for c_, j in enumerate(alive_s):
                arr[r, c_] = coeffs.get((i, j), 0)
        comps[x] = Matrix(arr, src.p)
    return NatTransformation(src, dst, comps)


def _indicator_support(f):
    """Bitset of A when f is 0/1 with unit maps on a convex support A,
    else None."""
    if any(d > 1 for d in f.dims):
        return None
    inside = f.support_bits
    for a, b in f.poset.covers:
        if inside >> a & inside >> b & 1 and f.cover_map(a, b).a[0, 0] != 1:
            return None
    down = f.poset.down_bits()
    below = union_bits(down, bit_elements(inside))
    # convex: nothing outside A sits between two elements of A
    if any(down[x] & inside for x in bit_elements(below & ~inside)):
        return None
    return inside


def _indicator_presentation(f, inside):
    """Generators at min A; a vanishing relation at each minimal element
    of up(m) - A, and an agreement relation at each minimal element of
    up(m_i) & up(m_j) & A."""
    poset = f.poset
    down = poset.down_bits()

    def minimal(mask):
        return [x for x in bit_elements(mask) if down[x] & mask == 1 << x]

    gens = minimal(inside)
    ups = [poset.up_bits()[m] for m in gens]
    relations = []
    for i, up in enumerate(ups):
        relations += [(e, ((i, 1),)) for e in minimal(up & ~inside)]
    for i, j in itertools.combinations(range(len(gens)), 2):
        relations += [
            (e, ((i, 1), (j, f.p - 1)))
            for e in minimal(ups[i] & ups[j] & inside)
        ]
    # f(x) is the image of the first generator below x; one shared
    # tuple per generator keeps the cache small
    one = np.ones(1, dtype=np.int64)
    via = [((i, one),) for i in range(len(gens))]
    pushout = []
    for x in range(poset.n):
        if inside >> x & 1:
            pushout.append(
                via[next(i for i, m in enumerate(gens) if down[x] >> m & 1)]
            )
        else:
            pushout.append(())
    return tuple(gens), tuple(relations), tuple(pushout)


def _cover_presentation(f):
    """Generators from minimal_cover(f), relations from the minimal cover
    of its kernel, the push-out through section_of."""
    cov = minimal_cover(f)
    alive = cov.source.generators_at
    ker, incl = kernel(cov)
    rel = minimal_cover(ker)
    relations = []
    for j, e in enumerate(rel.source.free_generators):
        pos = rel.source.generators_at[e].index(j)
        col = (incl.component(e) @ rel.component(e).col(pos)).a[:, 0]
        relations.append(
            (e, tuple((i, int(c)) for i, c in zip(alive[e], col) if c))
        )
    section = section_of(cov)
    pushout = []
    for x, at in enumerate(alive):
        s = section.component(x).a
        pushout.append(
            tuple((i, s[r].copy()) for r, i in enumerate(at) if s[r].any())
        )
    return cov.source.free_generators, tuple(relations), tuple(pushout)


def _presentation(f):
    """(generators, relations, push-out, generator bits) of a presentation
    P1 -> P0 -> f.

    generators lists the elements of P0's summands.  A relation (e, terms)
    is a generator of P1 at e, sent to the sum of c times generator i
    over its (i, c) terms.  pushout[x] lists (i, s) with s the row of
    f(x) that a pointwise section puts on generator i's image.  The
    generator bits are the bitset of the generators' elements.  Cached
    on f.
    """
    if f._presentation is None:
        inside = _indicator_support(f)
        if inside is not None:
            gens, relations, pushout = _indicator_presentation(f, inside)
        else:
            gens, relations, pushout = _cover_presentation(f)
        f._presentation = gens, relations, pushout, mask_of(gens)
    return f._presentation


def generator_elements(f):
    """The elements carrying a generator of f, ascending and without
    repetition: a transformation out of f is zero exactly when its
    components there are."""
    return bit_elements(_presentation(f)[3])


def _hom_system(f, g):
    """The relation system of Hom(f, g) at f's cached presentation, or
    None when g vanishes at every generator of f (so Hom(f, g) = 0).

    Hom(f, g) is the kernel of Hom(P0, g) -> Hom(P1, g): one block of
    unknowns in g at every generator (offs[i]:offs[i + 1] for generator
    i), one block of equations per relation.  Returns (generators,
    push-out, offs, system), with system None when no relation lands in
    a nonzero space of g.

    A relation with one term of coefficient 1 whose generator holds every
    unknown (a one-generator source) appends g's map itself as its block.
    Any other relation fills one zero block, each scaled map reduced
    before it is added; the system is reduced once, and only when some
    block holds more than one term.
    """
    poset = f.poset
    if poset is not g.poset and poset != g.poset:
        raise ValueError("modules live on different posets")
    gens, relations, pushout, bits = _presentation(f)
    if not g.support_bits & bits:
        return None
    gdims = g.dims
    p = f.p
    offs = [0, *itertools.accumulate(gdims[m] for m in gens)]
    width = offs[-1]
    blocks = []
    summed = False
    for e, terms in relations:
        if not gdims[e]:
            continue
        if len(terms) == 1:
            i, c = terms[0]
            if c == 1 and offs[i] == 0 and offs[i + 1] == width:
                # the map itself is the block, reduced as g checked it
                blocks.append(g.map(gens[i], e).a)
                continue
        block = np.zeros((gdims[e], width), dtype=np.int64)
        for i, c in terms:
            if offs[i] < offs[i + 1]:
                a = g.map(gens[i], e).a
                block[:, offs[i]:offs[i + 1]] += a if c == 1 else c * a % p
        summed |= len(terms) > 1
        blocks.append(block)
    if not blocks:
        return gens, pushout, offs, None
    system = np.concatenate(blocks, axis=0)
    if summed:
        system %= p
    return gens, pushout, offs, Matrix._trusted(system, p)


def hom_dim(f, g):
    """dim Hom(f, g): the unknowns of nat_basis's system less its rank,
    with no push-out and no canonical form."""
    built = _hom_system(f, g)
    if built is None:
        return 0
    _, _, offs, system = built
    return offs[-1] - (0 if system is None else rank(system))


def hom_basis(f, g):
    """Deterministic basis of Hom(f, g) as flat rows: (canon, offs, frees).

    The kernel of _hom_system's relation system (the system hom_dim reads
    the dimension of) gives one vector in g at every generator of f.
    Each generator's vectors are pushed out by one reduced product with
    g.maps_from at its element, transposed once, and every element above
    it reads its image as a column slice of that product.  A term whose
    section is the unit scalar is that slice as it is; any other is the
    slice times the section, reduced.  Terms at one element are added,
    and the concatenated push-out is reduced once.  It is brought to the
    reduced echelon form, in reversed column order, of the naturality
    system over all row-major components.  canon holds it
    as rows, component x at offs[x]:offs[x + 1].  frees lists each row's
    last nonzero as (element, row, column): a 1 there where the other
    rows are 0, so a transformation in the span has its coordinates at
    these positions.
    """
    built = _hom_system(f, g)
    sizes = [gd * fd for gd, fd in zip(g.dims, f.dims)]
    offs = [0, *itertools.accumulate(sizes)]
    p = f.p
    if built is not None:
        gens, pushout, goffs, system = built
        if system is None:
            sol = cached_identity(goffs[-1], p)
        else:
            sol = kernel_basis(system)
    if built is None or not sol.cols:
        return np.zeros((0, offs[-1]), dtype=np.int64), offs, []
    k = sol.cols
    pushed = {}
    for i, m in enumerate(gens):
        if goffs[i] < goffs[i + 1]:
            stack, rows = g.maps_from(m)
            vecs = sol.a[goffs[i]:goffs[i + 1]]
            pushed[i] = matmul_exact(stack, vecs, p).T, rows
    parts = []
    for x, terms in enumerate(pushout):
        if not sizes[x]:
            continue
        gd = g.dims[x]
        block = None
        for i, s in terms:
            if i in pushed:
                prod, rows = pushed[i]
                img = prod[:, rows[x]:rows[x] + gd]
                if f.dims[x] != 1 or s[0] != 1:
                    img = (img[:, :, None] * s % p).reshape(k, sizes[x])
                block = img if block is None else block + img
        if block is None:
            block = np.zeros((k, sizes[x]), dtype=np.int64)
        parts.append(block)
    flat = np.concatenate(parts, axis=1)
    flat %= p
    # reversed both ways, rows are the basis and pivots last nonzeros
    red, pivots = rref(Matrix._trusted(flat[:, ::-1], p))
    canon = red.a[::-1, ::-1].copy()
    frees = []
    for c in reversed(pivots):
        q = offs[-1] - 1 - c
        x = bisect.bisect_right(offs, q) - 1
        frees.append((x, *divmod(q - offs[x], f.dims[x])))
    return canon, offs, frees


def nat_basis(f, g):
    """Deterministic basis of the space of natural transformations f -> g:
    the rows of hom_basis, each split into its components."""
    canon, offs, _ = hom_basis(f, g)
    shapes = list(zip(g.dims, f.dims))
    out = []
    for vec in canon:
        # a copy of its own, so a kept component pins no other vector
        vec = vec.copy()
        comps = {
            a: Matrix._trusted(vec[offs[a]:offs[a + 1]].reshape(shape), f.p)
            for a, shape in enumerate(shapes) if offs[a] < offs[a + 1]
        }
        out.append(NatTransformation(f, g, comps))
    return out


def _submodule(ambient, bases, rows):
    """The submodule of ambient spanned by bases, one per element and each
    the identity at its rows(basis), plus its inclusion.  By naturality
    the transition on a cover a < b is M(a -> b) @ bases[a] read at the
    rows of bases[b]; it is formed only between two nonzero fibers."""
    poset = ambient.poset
    p = ambient.p
    maps = {}
    for b, upper in enumerate(bases):
        if upper.cols:
            at = rows(upper)
            for a in poset.parents(b):
                if bases[a].cols:
                    cover = Matrix._trusted(ambient.cover_map(a, b).a[at], p)
                    maps[(a, b)] = cover @ bases[a]
    mod = PersistenceModule(poset, p, [k.cols for k in bases], maps)
    return mod, NatTransformation(mod, ambient, enumerate(bases))


def kernel(f):
    """Pointwise kernel with induced transitions, plus its inclusion:
    the submodule spanned by the kernel_basis of every component."""
    return _submodule(f.source, [kernel_basis(c) for c in f.comps], free_rows)


def image(f):
    """Pointwise image with induced transitions, plus its inclusion:
    the submodule spanned by the column_basis of every component."""
    return _submodule(f.target, [column_basis(c) for c in f.comps], pivot_rows)


def cokernel(f):
    """Pointwise cokernel with induced transitions, its projection and a
    pointwise section of it (not natural in general).  At each element
    fieldlin.quotient of the column_basis of the component gives the
    projection and the complement coordinates Q indexing the cokernel;
    the section is the identity's columns at Q, so the transition on a
    cover a < b is proj_b @ M(a -> b)[:, Q_a]."""
    tgt = f.target
    p = tgt.p
    quots = [quotient(column_basis(c)) for c in f.comps]
    dims = [len(q) for _, q in quots]
    maps = {
        (a, b): quots[b][0] @ tgt.cover_map(a, b).take_cols(quots[a][1])
        for a, b in tgt.poset.covers
        if dims[a] and dims[b]
    }
    mod = PersistenceModule(tgt.poset, p, dims, maps)
    sections = [
        cached_identity(d, p).take_cols(q)
        for d, (_, q) in zip(tgt.dims, quots)
    ]
    return (
        mod,
        NatTransformation(tgt, mod, enumerate(proj for proj, _ in quots)),
        NatTransformation(mod, tgt, enumerate(sections)),
    )


def section_of(f):
    """A pointwise right inverse of an epimorphism (not natural in general),
    solved where the target is nonzero."""
    comps = {
        a: solve(f.component(a), cached_identity(f.target.dims[a], f.target.p))
        for a in bit_elements(f.target.support_bits)
    }
    return NatTransformation(f.target, f.source, comps)


def minimal_cover(m):
    """Epimorphism onto m from a free module with one generator per
    complement coordinate of the radical, lifted in place."""
    lifts = [
        (a, q) for a, b in enumerate(radical(m)) for q in complement_coords(b)
    ]
    c0 = free_on(m.poset, [a for a, _ in lifts], m.p)
    comps = {
        x: hstack([
            m.map(lifts[k][0], x).col(lifts[k][1])
            for k in c0.generators_at[x]
        ])
        for x in bit_elements(c0.support_bits & m.support_bits)
    }
    return NatTransformation(c0, m, comps)


class Resolution:
    """Chain of free modules over a target: diffs[0] is the augmentation
    C_0 -> target, diffs[d] maps C_d -> C_{d-1}; generators[d] lists where
    the generators of C_d sit."""

    def __init__(self, target, terms, generators, diffs, minimal, complete):
        self.target = target
        self.terms = list(terms)
        self.generators = [tuple(g) for g in generators]
        self.diffs = list(diffs)
        self.minimal = bool(minimal)
        self.complete = bool(complete)

    @classmethod
    def resolve(cls, m, dmax, cover):
        """Iterated covers of successive kernels, up to degree dmax.

        cover(cur) gives a map onto cur from the next term paired with
        where that term's generators sit, or None when nothing is left to
        cover, which completes the chain.
        """
        if dmax < 0:
            raise ValueError("dmax must be nonnegative")
        terms = []
        generators = []
        diffs = []
        cur = m
        incl = None
        complete = False
        for _ in range(dmax + 1):
            step = cover(cur)
            if step is None:
                complete = True
                break
            cov, gens = step
            terms.append(cov.source)
            generators.append(gens)
            diffs.append(cov if incl is None else incl @ cov)
            ker, kincl = kernel(cov)
            if sum(ker.dims) == 0:
                complete = True
                break
            cur, incl = ker, kincl
        return cls(m, terms, generators, diffs, minimal=True, complete=complete)

    @property
    def length(self):
        return max(len(self.terms) - 1, 0)

    def multiplicities(self):
        """Generator counts per (degree, element) as a diagram; for a
        minimal resolution these are the Betti numbers."""
        entries = {}
        for d, gens in enumerate(self.generators):
            for g in gens:
                entries[(d, g)] = entries.get((d, g), 0) + 1
        return BettiDiagram(entries)

    def check(self):
        """Validate the chain (_check_chain), the naturality of every
        differential and, for a minimal resolution, its minimality."""
        self._check_chain(self.target, lambda f: f)
        for f in self.diffs:
            f.check()
        if self.minimal:
            self._check_minimal()
        return self

    def _check_chain(self, target, apply):
        """Check that terms, generators and differentials align, that
        consecutive differentials compose to zero, and that
        [0 ->] apply(d_L) -> ... -> apply(d_0) -> 0 is exact, with the
        left 0 only for a complete chain.  target is the module apply(d_0)
        lands in; an empty chain has only it."""
        if not len(self.terms) == len(self.generators) == len(self.diffs):
            raise ValueError("terms, generators and differentials must align")
        for d, f in enumerate(self.diffs):
            if f.source != self.terms[d]:
                raise ValueError(f"differential {d} does not start at term {d}")
            if f.target != (self.terms[d - 1] if d else self.target):
                raise ValueError(f"differential {d} lands in the wrong module")
            if d and not (self.diffs[d - 1] @ f).is_zero():
                raise ValueError(f"composite of differentials {d - 1},{d} nonzero")
        seq = [apply(f) for f in reversed(self.diffs)]
        zero = zero_module(target.poset, target.p)
        seq.append(zero_nat(target, zero))
        if self.complete:
            seq.insert(0, zero_nat(zero, seq[0].source))
        if not is_exact(seq):
            raise ValueError("chain is not exact")

    def _check_minimal(self):
        n = self.target.poset.n
        for d in range(len(self.terms)):
            rad = radical(self.terms[d])
            for a in range(n):
                if d < self.length:
                    img = self.diffs[d + 1].component(a)
                else:
                    img = kernel_basis(self.diffs[d].component(a))
                joint = hstack([rad[a], img])
                if rank(joint) != rad[a].cols:
                    raise ValueError(
                        f"differential into term {d} misses the radical"
                    )

    def __repr__(self):
        return (
            f"Resolution(length={self.length}, minimal={self.minimal}, "
            f"complete={self.complete})"
        )


def minimal_resolution(m, dmax):
    """Iterated minimal covers of successive kernels, up to degree dmax;
    a module with no support resolves by the empty chain."""
    def cover(cur):
        if sum(cur.dims) == 0:
            return None
        cov = minimal_cover(cur)
        return cov, cov.source.free_generators
    return Resolution.resolve(m, dmax, cover)


def betti(m, dmax):
    return minimal_resolution(m, dmax).multiplicities()


def is_exact(seq):
    """Pointwise exactness at the inner terms of a composable sequence:
    each composite is zero, so each image lies in the next kernel, and
    the two have one dimension."""
    seq = list(seq)
    for i in range(len(seq) - 1):
        mid = seq[i].target
        if seq[i + 1].source is not mid and seq[i + 1].source != mid:
            raise ValueError(f"maps {i} and {i + 1} are not composable")
    for i in range(len(seq) - 1):
        mid = seq[i].target
        for a in range(mid.poset.n):
            f, g = seq[i].component(a), seq[i + 1].component(a)
            if not (g @ f).is_zero() or rank(f) != mid.dims[a] - rank(g):
                return False
    return True


class KoszulComplex:
    """Chain complex attached to a base element from its parent meets.

    index_sets[d] lists, per degree, the bounded-below parent subsets (the
    empty subset stands for the base element in degree 0); meets[d] lists
    the corresponding meet elements. diffs[i] maps degree i+1 to degree i.
    """

    def __init__(self, dims, diffs, index_sets, meets, p):
        self.dims = tuple(dims)
        self.diffs = list(diffs)
        self.index_sets = index_sets
        self.meets = meets
        self.p = p

    def homology(self):
        return homology_dims(self.dims, self.diffs, self.p)


def koszul(f, a):
    """Local Koszul complex of a module at an element.

    Degree d sums the module's values at the meets of the size-d bounded
    below subsets of the parents of a (Poset.parent_meets), with
    alternating-sign differentials induced by dropping one parent at a
    time, at the positions the walk's faces give.  Only blocks between
    two nonzero values are placed.
    """
    index_sets, meets, faces, _ = f.poset.parent_meets(a)
    fdims = f.dims
    # offsets[d][k] is the first row of the k-th block of degree d
    offsets = [(0, *itertools.accumulate(fdims[mt] for mt in ms))
               for ms in meets]
    dims = [off[-1] for off in offsets]
    p = f.p
    diffs = []
    for d in range(1, len(meets)):
        arr = np.zeros((dims[d - 1], dims[d]), dtype=np.int64)
        if arr.size:
            rows, cols, lower = offsets[d - 1], offsets[d], meets[d - 1]
            for k, (mt_s, face) in enumerate(zip(meets[d], faces[d])):
                if not fdims[mt_s]:
                    continue
                for i, pos in enumerate(face):
                    if rows[pos] == rows[pos + 1]:
                        continue
                    block = f.map(mt_s, lower[pos]).a
                    arr[rows[pos]:rows[pos + 1], cols[k]:cols[k + 1]] = (
                        (-block) % p if i % 2 else block
                    )
        diffs.append(Matrix._trusted(arr, p))
    return KoszulComplex(dims, diffs, index_sets, meets, p)


def _koszul_homology(f, a):
    """Homology dimensions of the local Koszul complex, one per degree it
    has.  A module that is zero at a and at every meet the complex sums
    over gives none, without the complex."""
    if not f.poset.parent_meets(a)[3] & f.support_bits:
        return []
    return koszul(f, a).homology()


def betti_koszul(f, a, dmax):
    """Homology dimensions of the local Koszul complex, padded to dmax."""
    out = _koszul_homology(f, a)[:dmax + 1]
    out.extend([0] * (dmax + 1 - len(out)))
    return out


def koszul_table(m, elements, dmax):
    """Diagram of the local Koszul homology of m at the elements of the
    bitset elements, up to dmax: the table both Koszul routes read.  Each
    complex is read as far as it goes, never padded to dmax.  Only
    elements above m's support are visited; below any other a, where
    every meet of its complex lies, m vanishes."""
    up = m.poset.up_bits()
    reach = 0
    for x in bit_elements(m.support_bits):
        reach |= up[x]
    return BettiDiagram({
        (d, a): k
        for a in bit_elements(reach & elements)
        for d, k in enumerate(_koszul_homology(m, a)[:dmax + 1])
        if k
    })


def koszul_betti_diagram(m, dmax):
    """Full table of standard multiplicities up to dmax from the local
    Koszul complex at every element."""
    return koszul_table(m, (1 << m.poset.n) - 1, dmax)


def global_koszul(f):
    """Free resolution of a subfunctor of the constant module, built from
    joins of subsets of its minimal generators. Not minimal in general."""
    poset = f.poset
    if not poset.is_upper_semilattice():
        raise NotSemilattice("global Koszul needs an upper semilattice")
    if any(d > 1 for d in f.dims):
        raise NotSubfunctor("values must be at most one-dimensional")
    for a, b in poset.sorted_covers:
        if f.dims[a] == 1:
            if f.dims[b] != 1 or f.cover_map(a, b) != cached_identity(1, f.p):
                raise NotSubfunctor(
                    "transitions on the support must be identities"
                )
    # degree 0 is the minimal cover: free on the minimal elements of the
    # support, in order; degree d - 1 on the joins of their d-subsets
    cover = minimal_cover(f)
    gens = cover.source.free_generators
    terms, diffs = [cover.source], [cover]
    below = {(g,): i for i, g in enumerate(gens)}
    for d in range(2, len(gens) + 1):
        subs = list(itertools.combinations(gens, d))
        term = free_on(poset, [poset.join(s) for s in subs], f.p)
        coeffs = {}
        for j, s in enumerate(subs):
            for i in range(d):
                coeffs[(below[s[:i] + s[i + 1:]], j)] = (-1) ** i
        diffs.append(free_nat(term, terms[-1], coeffs))
        terms.append(term)
        below = {s: j for j, s in enumerate(subs)}
    return Resolution(
        f, terms, [t.free_generators for t in terms], diffs,
        minimal=False, complete=True,
    )

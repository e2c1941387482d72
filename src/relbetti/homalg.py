"""Homological algebra for poset modules.

Natural transformations and their solution spaces, kernels and cokernels,
deterministic minimal covers and resolutions, Betti diagrams, and the local
and global Koszul complexes that recompute them.
"""

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
    hstack,
    homology_dims,
    kernel_basis,
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


class NatTransformation:
    """A family of matrices source(a) -> target(a), one per element.

    The constructor only checks shapes; naturality is a separate validation
    step (check) because pointwise sections legitimately fail it.
    """

    def __init__(self, source, target, comps):
        if source.poset != target.poset:
            raise ValueError("source and target live on different posets")
        if source.p != target.p:
            raise ValueError("source and target have different moduli")
        self.source = source
        self.target = target
        comps = tuple(comps)
        if len(comps) != source.poset.n:
            raise ValueError("need one component per element")
        for a, c in enumerate(comps):
            if c.rows != target.dims[a] or c.cols != source.dims[a]:
                raise ValueError(
                    f"component at element {a} has shape {c.rows}x{c.cols}, "
                    f"expected {target.dims[a]}x{source.dims[a]}"
                )
            if c.p != source.p:
                raise ValueError("component modulus mismatch")
        self.comps = comps

    def component(self, a):
        return self.comps[a]

    def check(self):
        """Validate naturality against every cover square."""
        for a, b in self.source.poset.sorted_covers:
            left = self.target.cover_map(a, b) @ self.comps[a]
            right = self.comps[b] @ self.source.cover_map(a, b)
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
        comps = [
            self.comps[a] @ other.comps[a]
            for a in range(self.source.poset.n)
        ]
        return NatTransformation(other.source, self.target, comps)

    def __eq__(self, other):
        if not isinstance(other, NatTransformation):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.comps == other.comps
        )

    __hash__ = None

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

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
    return NatTransformation(
        m, m, [cached_identity(d, m.p) for d in m.dims]
    )


def zero_nat(source, target):
    return NatTransformation(
        source,
        target,
        [
            cached_zeros(target.dims[a], source.dims[a], source.p)
            for a in range(source.poset.n)
        ],
    )


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
    comps = []
    for alive_s, alive_d in zip(src.generators_at, dst.generators_at):
        arr = np.zeros((len(alive_d), len(alive_s)), dtype=np.int64)
        for r, i in enumerate(alive_d):
            for c_, j in enumerate(alive_s):
                arr[r, c_] = coeffs.get((i, j), 0)
        comps.append(Matrix(arr, src.p))
    return NatTransformation(src, dst, comps)


def _bits(mask):
    """Element indices of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    below = 0
    for x in _bits(inside):
        below |= down[x]
    # convex: nothing outside A sits between two elements of A
    if any(down[x] & inside for x in _bits(below & ~inside)):
        return None
    return inside


def _indicator_presentation(f, inside):
    """Generators at min A; a vanishing relation at each minimal element
    of up(m) - A, and an agreement relation at each minimal element of
    up(m_i) & up(m_j) & A."""
    poset = f.poset
    down = poset.down_bits()

    def minimal(mask):
        return [x for x in _bits(mask) if down[x] & mask == 1 << x]

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
    """(generators, relations, push-out) of a presentation P1 -> P0 -> f.

    generators lists the elements of P0's summands.  A relation (e, terms)
    is a generator of P1 at e, sent to the sum of c times generator i
    over its (i, c) terms.  pushout[x] lists (i, s) with s the row of
    f(x) that a pointwise section puts on generator i's image.  Cached
    on f.
    """
    if f._presentation is None:
        inside = _indicator_support(f)
        if inside is not None:
            f._presentation = _indicator_presentation(f, inside)
        else:
            f._presentation = _cover_presentation(f)
    return f._presentation


def nat_basis(f, g):
    """Deterministic basis of the space of natural transformations f -> g.

    With a presentation P1 -> P0 -> f (cached on f), Hom(f, g) is the
    kernel of Hom(P0, g) -> Hom(P1, g): one unknown vector in g at every
    generator, one block of equations per relation.  Each kernel vector
    is pushed out over f's support and the span is brought to the form
    kernel_basis gives the naturality system over all components in
    their row-major vectorization: the reduced echelon basis in reversed
    column order, so each vector's last nonzero is a 1 where the others
    are 0 (its free position).
    """
    poset = f.poset
    if poset is not g.poset and poset != g.poset:
        raise ValueError("modules live on different posets")
    gens, relations, pushout = _presentation(f)
    gdims = g.dims
    sizes = [gdims[m] for m in gens]
    if not any(sizes):
        # every generator lands in a zero space
        return []
    p = f.p
    offs = [0, *itertools.accumulate(sizes)]
    width = offs[-1]
    blocks = []
    for e, terms in relations:
        if not gdims[e]:
            continue
        block = np.zeros((gdims[e], width), dtype=np.int64)
        for i, c in terms:
            if sizes[i]:
                cols = slice(offs[i], offs[i + 1])
                block[:, cols] = (block[:, cols] + c * g.map(gens[i], e).a) % p
        blocks.append(block)
    if blocks:
        # reduced mod p, under the modulus g's maps have checked
        system = Matrix._trusted(np.concatenate(blocks, axis=0), p)
        sol = kernel_basis(system)
    else:
        sol = cached_identity(width, p)
    k = sol.cols
    if not k:
        return []
    parts = []
    for x, terms in enumerate(pushout):
        size = gdims[x] * f.dims[x]
        if not size:
            continue
        acc = np.zeros((k, gdims[x], f.dims[x]), dtype=np.int64)
        for i, s in terms:
            if sizes[i]:
                img = (g.map(gens[i], x) @ sol.take_rows(
                    range(offs[i], offs[i + 1]))).a
                acc = (acc + img.T[:, :, None] * s) % p
        parts.append(acc.reshape(k, size))
    # rows reversed in both directions are the reduced echelon basis
    flat = np.concatenate(parts, axis=1)[:, ::-1]
    canon = rref(Matrix._trusted(flat, p))[0].a[k - 1::-1, ::-1]
    out = []
    for vec in canon:
        # a copy of its own, so a kept component pins no other vector
        vec = vec.copy()
        comps = []
        pos = 0
        for a in range(poset.n):
            size = gdims[a] * f.dims[a]
            if size:
                chunk = vec[pos:pos + size].reshape(gdims[a], f.dims[a])
                comps.append(Matrix._trusted(chunk, p))
                pos += size
            else:
                comps.append(cached_zeros(gdims[a], f.dims[a], p))
        out.append(NatTransformation(f, g, comps))
    return out


def _submodule(ambient, bases):
    """The submodule spanned by independent columns at every element, with
    the transitions it inherits, plus its inclusion."""
    poset = ambient.poset
    maps = {}
    for a, b in poset.covers:
        img = ambient.cover_map(a, b) @ bases[a]
        maps[(a, b)] = solve(bases[b], img)
    mod = PersistenceModule(poset, ambient.p, [b.cols for b in bases], maps)
    return mod, NatTransformation(mod, ambient, bases)


def kernel(f):
    """Pointwise kernel with induced transitions, plus its inclusion."""
    return _submodule(f.source, [kernel_basis(c) for c in f.comps])


def image(f):
    """Pointwise image with induced transitions, plus its inclusion."""
    return _submodule(f.target, [column_basis(c) for c in f.comps])


def cokernel(f):
    """Pointwise cokernel with induced transitions, plus its projection.

    At each element the pivot columns of the component are an image basis;
    its quotient (fieldlin.quotient) gives the projection and the standard
    section that index the cokernel by complement coordinates.
    """
    tgt = f.target
    poset = tgt.poset
    p = tgt.p
    projs = []
    sections = []
    for c in f.comps:
        proj, section = quotient(column_basis(c))
        projs.append(proj)
        sections.append(section)
    dims = [pr.rows for pr in projs]
    maps = {}
    for a, b in poset.covers:
        maps[(a, b)] = projs[b] @ tgt.cover_map(a, b) @ sections[a]
    mod = PersistenceModule(poset, p, dims, maps)
    proj = NatTransformation(tgt, mod, projs)
    return mod, proj


def section_of(f):
    """A pointwise right inverse of an epimorphism (not natural in general)."""
    comps = [
        solve(f.component(a), cached_identity(f.target.dims[a], f.target.p))
        for a in range(f.source.poset.n)
    ]
    return NatTransformation(f.target, f.source, comps)


def minimal_cover(m):
    """Epimorphism onto m from a free module with one generator per
    complement coordinate of the radical, lifted in place."""
    poset = m.poset
    lifts = [complement_coords(b) for b in radical(m)]
    gens = []
    coords = []
    for a in range(poset.n):
        for q in lifts[a]:
            gens.append(a)
            coords.append(q)
    c0 = free_on(poset, gens, m.p)
    comps = [
        hstack(
            [m.map(gens[k], x).col(coords[k]) for k in at],
            rows=m.dims[x], p=m.p,
        )
        for x, at in enumerate(c0.generators_at)
    ]
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
        for d in range(self.length + 1):
            rad = radical(self.terms[d])
            for a in range(n):
                if d < self.length:
                    img = self.diffs[d + 1].component(a)
                else:
                    img = kernel_basis(self.diffs[d].component(a))
                joint = hstack(
                    [rad[a], img], rows=self.terms[d].dims[a],
                    p=self.target.p,
                )
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
    """Iterated minimal covers of successive kernels, up to degree dmax."""
    def cover(cur):
        cov = minimal_cover(cur)
        return cov, cov.source.free_generators
    return Resolution.resolve(m, dmax, cover)


def betti(m, dmax):
    return minimal_resolution(m, dmax).multiplicities()


def is_exact(seq):
    """Pointwise exactness at the inner terms of a composable sequence."""
    seq = list(seq)
    for i in range(len(seq) - 1):
        mid = seq[i].target
        if seq[i + 1].source is not mid and seq[i + 1].source != mid:
            raise ValueError(f"maps {i} and {i + 1} are not composable")
    for i in range(len(seq) - 1):
        mid = seq[i].target
        for a in range(mid.poset.n):
            img = rank(seq[i].component(a))
            ker = mid.dims[a] - rank(seq[i + 1].component(a))
            if img != ker:
                return False
    return True


class KoszulComplex:
    """Chain complex attached to a base element from its parent meets.

    index_sets[d] lists, per degree, the bounded-below parent subsets (the
    empty subset stands for the base element in degree 0); meets[d] lists
    the corresponding meet elements. diffs[i] maps degree i+1 to degree i.
    """

    def __init__(self, base, dims, diffs, index_sets, meets, p):
        self.base = base
        self.dims = tuple(dims)
        self.diffs = list(diffs)
        self.index_sets = tuple(tuple(s) for s in index_sets)
        self.meets = tuple(tuple(ms) for ms in meets)
        self.p = p

    def homology(self):
        return homology_dims(self.dims, self.diffs, self.p)


def koszul(f, a, parent_order=None):
    """Local Koszul complex of a module at an element.

    Degree d sums the module's values at the meets of the size-d bounded
    below subsets of the parents of a (Poset.parent_meets, in
    parent_order), with alternating-sign differentials induced by
    dropping one parent at a time.  Only blocks between two nonzero
    values are placed.
    """
    index_sets, meets, _ = f.poset.parent_meets(a, parent_order)
    fdims = f.dims
    dims = [sum(fdims[mt] for mt in ms) for ms in meets]
    p = f.p
    diffs = []
    for d in range(1, len(index_sets)):
        arr = np.zeros((dims[d - 1], dims[d]), dtype=np.int64)
        if arr.size:
            lower_pos = {s: i for i, s in enumerate(index_sets[d - 1])}
            lower_meets = meets[d - 1]
            lower_off = [0]
            for mt in lower_meets:
                lower_off.append(lower_off[-1] + fdims[mt])
            col = 0
            for s, mt_s in zip(index_sets[d], meets[d]):
                width = fdims[mt_s]
                if not width:
                    continue
                for i in range(len(s)):
                    pos = lower_pos[s[:i] + s[i + 1:]]
                    mt_t = lower_meets[pos]
                    if not fdims[mt_t]:
                        continue
                    block = f.map(mt_s, mt_t).a
                    arr[
                        lower_off[pos]:lower_off[pos + 1],
                        col:col + width,
                    ] = (-block) % p if i % 2 else block
                col += width
        diffs.append(Matrix._trusted(arr, p))
    return KoszulComplex(a, dims, diffs, index_sets, meets, p)


def betti_koszul(f, a, dmax):
    """Homology dimensions of the local Koszul complex, padded to dmax.

    A module that is zero at a and at every meet the complex sums over
    gives zeros without the complex.
    """
    if not f.poset.parent_meets(a)[2] & f.support_bits:
        return [0] * (dmax + 1)
    h = koszul(f, a).homology()
    out = list(h[:dmax + 1])
    out.extend([0] * (dmax + 1 - len(out)))
    return out


def koszul_table(m, elements, dmax):
    """Diagram of the local Koszul homology of m at the given elements,
    up to dmax: the table both the standard and the relative Koszul
    routes read."""
    return BettiDiagram({
        (d, a): k
        for a in elements
        for d, k in enumerate(betti_koszul(m, a, dmax))
        if k
    })


def koszul_betti_diagram(m, dmax):
    """Full table of standard multiplicities up to dmax from the local
    Koszul complex at every element."""
    return koszul_table(m, range(m.poset.n), dmax)


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

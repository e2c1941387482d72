"""Shared test helpers.

sympy_rank is the independent linear-algebra oracle: sympy's DomainMatrix
over GF(p) knows nothing about our RREF, so agreements are meaningful.
oracle_rref, oracle_kernel_basis, oracle_solve and oracle_kron are the
plain elimination kernel (one numpy row at a time, object-dtype
Kronecker product) that relbetti.fieldlin's Gauss-Jordan on Python int
rows and its broadcast Kronecker product must match bit for bit.
indicator_hom_dim is the independent Hom oracle for 0/1 indicator modules:
it counts components of overlapping supports and solves no linear system.
oracle_meet_bounded and oracle_koszul are the plain skeleton construction
(itertools.combinations, numpy reductions over the order matrix) that the
bitset walk in relbetti.poset.Poset.parent_meets and the complex
relbetti.homalg.koszul assembles on it must match exactly.  oracle_koszul
also walks the parents in any given order; reindexed moves a module to
an isomorphic poset whose index order lists them in that order, where
relbetti.homalg.koszul must assemble the same complex (koszul_key).
tampered_chain breaks a resolution in one named way, for the chain
checks to refuse; its "padded" kind keeps the chain exact and natural
and breaks only minimality.
oracle_nat_basis solves naturality over every component at once, one
Kronecker block row per cover; relbetti.homalg.nat_basis solves at the
source's generators and must give the same basis bit for bit.
oracle_coords writes a transformation in a basis by solving a linear
system; relbetti.relative reads the same coordinates off free positions.
oracle_join is the numpy join over the order matrix that Poset.join's
up-set bitsets must match.  oracle_degeneracy builds every unit's hom
module, its kernel and the kernel's generators; the degeneracy scan in
relbetti.relative reads the same generators off zero composite arrows
and must give the same flag, witness and exception.  oracle_flat runs
the thinness and flatness loops apart, solving each pair with nat_basis;
relbetti.relative decides both in one pass and must give the same flag
and witness.  oracle_path_independence composes whole transformations
down every element's down-set; CollectionFunctor.validate compares
components at generators only and must name the same first witness.
oracle_relative_cover builds the relative cover through
homalg.minimal_cover of the hom module and nat_basis's transformations;
relbetti.relative reads the generators off the radical and the
components off flat bases, and must give the same ones.  oracle_radical
stacks the cover maps into every element and eliminates there;
relbetti.pmod.radical skips the elements where nothing can arrive and
must give the same bases.  oracle_submodule solves every transition of a
submodule; relbetti.homalg.kernel and image read them at the identity
rows of their bases (oracle_kernel, oracle_image).
oracle_complement_coords and oracle_quotient eliminate on the pivot
columns of a matrix and invert [basis | section]; relbetti.fieldlin
reads both off the reduced echelon column_basis, and oracle_cokernel
built on them must equal relbetti.homalg.cokernel.  oracle_free_on,
oracle_indicator and oracle_direct_sum build every cover of their
modules densely; relbetti.pmod builds only the covers between two
nonzero fibers and must give the same modules.  hook_hom_dim is the Hom
out of an indicator with one minimum (a lower hook, a box), read off the
rank of the target's maps out of that minimum, and hook_pair_hom_dim the
closed form of Hom between two such indicators, read off their supports.
oracle_indicator_collection assembles a builder's
collection from its index names and member dims the checked way;
relbetti.collections states the index in its own order and reads the
arrows off support bitsets, and must give the same collection.
oracle_index_resolution resolves the hom module by the index modules
P_a, covering and taking kernels over the index alone;
relbetti.relative resolves at the base and solves Hom at every degree,
and must give the same multiplicities, completeness and length.
oracle_koszul_table reads betti_koszul at every requested element;
relbetti.homalg.koszul_table visits only those above the module's
support and must give the same diagram.
"""
import itertools

import numpy as np
from sympy import GF
from sympy.polys.matrices import DomainMatrix


def sympy_rank(entries, p):
    a = np.asarray(entries, dtype=np.int64)
    if a.size == 0:
        return 0
    K = GF(p)
    rows = [[K(int(x)) for x in row] for row in a]
    return DomainMatrix(rows, a.shape, K).rank()


def oracle_rref(a, p):
    """RREF of an int64 array reduced mod p: (array, pivot tuple)."""
    a = np.array(a, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        mask = np.nonzero(a[:, c])[0]
        for j in mask:
            if j != r:
                a[j] = (a[j] - a[j, c] * a[r]) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def oracle_kernel_basis(a, p):
    r, pivots = oracle_rref(a, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    k = np.zeros((cols, len(free)), dtype=np.int64)
    for out, f in enumerate(free):
        k[f, out] = 1
        for i, c in enumerate(pivots):
            k[c, out] = (-r[i, f]) % p
    return k


def oracle_solve(a, b, p):
    """Particular solution with free variables 0, or the NoSolution text."""
    r, pivots = oracle_rref(np.concatenate([a, b], axis=1), p)
    for c in pivots:
        if c >= a.shape[1]:
            return f"inconsistent system (pivot in column {c})"
    x = np.zeros((a.shape[1], b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c, :] = r[i, a.shape[1]:]
    return x


def oracle_kron(a, b, p):
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    if a.size == 0 or b.size == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    prod = np.kron(a.astype(object), b.astype(object))
    return (prod % p).astype(np.int64)


def oracle_meet_bounded(poset, elements):
    """Greatest common lower bound of a nonempty subset, or None."""
    leq = poset.leq_matrix
    cand = np.all(leq[:, list(elements)], axis=1)
    hits = np.nonzero(cand)[0]
    if hits.size == 0:
        return None
    b0 = int(hits[-1])  # largest index is the only possible greatest element
    if bool(np.all(~cand | leq[:, b0])):
        return b0
    return None


def oracle_join(poset, elements):
    """Least common upper bound of a nonempty subset, or None."""
    elements = list(elements)
    if not elements:
        raise ValueError("join of the empty set is excluded")
    leq = poset.leq_matrix
    cand = np.all(leq[elements], axis=0)
    hits = np.nonzero(cand)[0]
    if hits.size == 0:
        return None
    b0 = int(hits[0])  # smallest index is the only possible least element
    if bool(np.all(~cand | leq[b0])):
        return b0
    return None


def oracle_koszul(f, a, parent_order=None):
    """Local Koszul complex at a, every subset and block built directly,
    with the parents walked in parent_order (default: their own)."""
    from relbetti.errors import MeetHypothesisFailed
    from relbetti.fieldlin import Matrix
    from relbetti.homalg import KoszulComplex

    poset = f.poset
    parents = poset.parents(a)
    if parent_order is None:
        parent_order = parents
    else:
        parent_order = tuple(parent_order)
        if sorted(parent_order) != sorted(parents):
            raise ValueError("parent_order must permute the parents")
    leq = poset.leq_matrix

    index_sets = [((),)]
    meets = [(a,)]
    dims = [f.dims[a]]
    for d in range(1, len(parent_order) + 1):
        subs = []
        mts = []
        for s in itertools.combinations(parent_order, d):
            if not bool(np.any(np.all(leq[:, list(s)], axis=1))):
                continue
            mt = oracle_meet_bounded(poset, s)
            if mt is None:
                names = [poset.names[x] for x in s]
                raise MeetHypothesisFailed(
                    f"parents {names} of {poset.names[a]!r} are bounded "
                    "below but have no meet"
                )
            subs.append(s)
            mts.append(mt)
        if not subs:
            break
        index_sets.append(tuple(subs))
        meets.append(tuple(mts))
        dims.append(sum(f.dims[mt] for mt in mts))

    diffs = []
    for d in range(1, len(index_sets)):
        lower_pos = {s: i for i, s in enumerate(index_sets[d - 1])}
        lower_off = np.concatenate(
            [[0], np.cumsum([f.dims[mt] for mt in meets[d - 1]])]
        )
        upper_off = np.concatenate(
            [[0], np.cumsum([f.dims[mt] for mt in meets[d]])]
        )
        arr = np.zeros((dims[d - 1], dims[d]), dtype=np.int64)
        for j, s in enumerate(index_sets[d]):
            mt_s = meets[d][j]
            for i in range(len(s)):
                t = s[:i] + s[i + 1:]
                pos = lower_pos[t]
                mt_t = meets[d - 1][pos]
                block = f.map(mt_s, mt_t)
                if i % 2:
                    block = -block
                arr[
                    lower_off[pos]:lower_off[pos + 1],
                    upper_off[j]:upper_off[j + 1],
                ] = block.a
        diffs.append(Matrix(arr, f.p))
    return KoszulComplex(dims, diffs, tuple(index_sets), tuple(meets), f.p)


def reindexed(m, a, order):
    """(moved, new): m moved to an isomorphic poset whose index order
    lists a's parents in the given order, a permutation of them, with
    new[x] the new index of old element x.  The parents form an
    antichain, so chaining them in that order keeps the order acyclic;
    the index order is a linear extension of both, taking the smallest
    old index first."""
    import heapq

    from relbetti.pmod import PersistenceModule
    from relbetti.poset import Poset

    poset = m.poset
    order = tuple(order)
    if sorted(order) != sorted(poset.parents(a)):
        raise ValueError("order must permute the parents")
    succ = [list(poset.children(x)) for x in range(poset.n)]
    for x, y in zip(order, order[1:]):
        succ[x].append(y)
    indegree = [0] * poset.n
    for ys in succ:
        for y in ys:
            indegree[y] += 1
    ready = [x for x in range(poset.n) if not indegree[x]]
    old = []
    while ready:
        x = heapq.heappop(ready)
        old.append(x)
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                heapq.heappush(ready, y)
    new = {x: i for i, x in enumerate(old)}
    covers = {(new[x], new[y]): (x, y) for x, y in poset.covers}
    moved = Poset([poset.names[x] for x in old], list(covers))
    maps = {c: m.cover_map(*xy) for c, xy in covers.items()}
    return PersistenceModule(moved, m.p, [m.dims[x] for x in old], maps), new


def koszul_key(k, new=None):
    """A Koszul complex as comparable data: its subsets and meets, with
    every element x read as new[x] when new is given, its dims and its
    differentials' entries."""
    def rename(x):
        return x if new is None else new[x]

    return (
        tuple(tuple(tuple(map(rename, s)) for s in level)
              for level in k.index_sets),
        tuple(tuple(map(rename, ms)) for ms in k.meets),
        tuple(k.dims),
        tuple((g.p, g.a.shape, g.a.tolist()) for g in k.diffs),
    )


def _indicator_support(m):
    """Support mask of a 0/1 indicator module on a convex subset.

    Raises ValueError for anything else: a dimension above 1, a support
    that is not convex, or a transition inside the support that is not
    the identity.
    """
    if any(d > 1 for d in m.dims):
        raise ValueError("not an indicator module: a dimension exceeds 1")
    s = np.array(m.dims, dtype=bool)
    leq = m.poset.leq_matrix
    between = leq[s].any(axis=0) & leq[:, s].any(axis=1)
    if (between & ~s).any():
        raise ValueError("not an indicator module: the support is not convex")
    for a, b in m.poset.covers:
        if s[a] and s[b] and m.cover_map(a, b).tolist() != [[1]]:
            raise ValueError("not an indicator module: a transition is not 1")
    return s


def indicator_hom_dim(f, g):
    """dim Hom(K_A, K_B) for indicator modules f = K_A and g = K_B.

    A transformation is one scalar per connected component C of A & B.
    It must vanish on C when an element of B - A lies above C, or an
    element of A - B lies below C; every other component contributes one
    dimension.
    """
    if f.poset != g.poset:
        raise ValueError("modules live on different posets")
    a, b = _indicator_support(f), _indicator_support(g)
    leq = f.poset.leq_matrix
    both = a & b
    root = {x: x for x in np.flatnonzero(both)}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for x, y in f.poset.covers:
        if both[x] and both[y]:
            root[find(x)] = find(y)
    comps = {}
    for x in root:
        comps.setdefault(find(x), []).append(x)
    return sum(
        not (leq[c][:, b & ~a].any() or leq[:, c][a & ~b].any())
        for c in comps.values()
    )


def random_matrix(rng, rows, cols, p):
    return rng.integers(0, p, size=(rows, cols))


def random_poset_covers(rng, n):
    """Random DAG on n nodes (edges i->j only for i<j), reduced to covers.

    Returns (names, covers) with the transitive reduction computed by brute
    force, independent of the package's own reduction logic.
    """
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                adj[i, j] = True
    # reflexive-transitive closure by brute force
    leq = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        leq = leq | (leq @ leq)
    covers = []
    for i in range(n):
        for j in range(n):
            if i != j and leq[i, j]:
                between = any(
                    k != i and k != j and leq[i, k] and leq[k, j] for k in range(n)
                )
                if not between:
                    covers.append((i, j))
    names = [f"x{i}" for i in range(n)]
    return names, covers, leq


def random_free_map(rng, poset, p, n_dst, n_src):
    """Random map between random free modules, src -> dst."""
    from relbetti.homalg import free_nat
    from relbetti.pmod import free_on

    gens_dst = sorted(int(g) for g in rng.integers(0, poset.n, n_dst))
    gens_src = sorted(int(g) for g in rng.integers(0, poset.n, n_src))
    dst = free_on(poset, gens_dst, p)
    src = free_on(poset, gens_src, p)
    coeffs = {}
    for i, gd in enumerate(gens_dst):
        for j, gs in enumerate(gens_src):
            if poset.leq(gd, gs):
                c = int(rng.integers(0, p))
                if c:
                    coeffs[(i, j)] = c
    return free_nat(src, dst, coeffs)


def random_module(rng, poset, p, max_gens=3):
    """Random finitely presented module: cokernel of a random free map."""
    from relbetti.homalg import cokernel

    n0 = int(rng.integers(1, max_gens + 1))
    n1 = int(rng.integers(0, max_gens + 1))
    f = random_free_map(rng, poset, p, n0, n1)
    return cokernel(f)[0]


def random_semilattice(rng, ambient, n_seeds=4):
    """Join-closed random subposet of an ambient upper semilattice."""
    from relbetti.poset import Poset

    seeds = {int(x) for x in rng.choice(ambient.n, n_seeds, replace=False)}
    keep = sorted(ambient.sublattice_closure(seeds))
    names = [ambient.names[i] for i in keep]
    leq = ambient.leq_matrix[np.ix_(keep, keep)]
    return Poset.from_order(names, leq)


def random_interval_sum(rng, poset, p):
    """Direct sum of 1-4 interval indicators, each the up-set of 1-2
    random points meet the down-set of 1-2 random points: modules whose
    maps die inside a box or a hook, unlike random_module's cokernels."""
    from relbetti.pmod import direct_sum, indicator
    from relbetti.poset import bit_elements

    up, down = poset.up_bits(), poset.down_bits()
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        lo = hi = 0
        for x in rng.choice(poset.n, int(rng.integers(1, 3))):
            lo |= up[int(x)]
        # the down-set's points lie in the up-set, so the interval is
        # never empty
        above = bit_elements(lo)
        for x in rng.choice(len(above), int(rng.integers(1, 3))):
            hi |= down[above[int(x)]]
        parts.append((indicator(poset, bit_elements(lo & hi), p), 1))
    return direct_sum(poset, p, parts)


def random_invertible(rng, d, p):
    """(g, g^-1) for a random invertible d x d matrix over GF(p), built
    by elementary row operations on g and the inverse column operations
    on g^-1, as object arrays of Python ints."""
    g = np.eye(d, dtype=object)
    inv = np.eye(d, dtype=object)
    for i in range(d):
        c = int(rng.integers(1, p))
        g[i] = g[i] * c % p
        inv[:, i] = inv[:, i] * pow(c, p - 2, p) % p
        for j in range(d):
            if j != i:
                c = int(rng.integers(0, p))
                g[i] = (g[i] + c * g[j]) % p
                inv[:, j] = (inv[:, j] - c * inv[:, i]) % p
    assert not ((g @ inv) % p - np.eye(d, dtype=object)).any()
    return g, inv


def base_change(rng, m):
    """m in random fiber bases: each cover map A from a to b becomes
    g_b A g_a^-1 for a random invertible g_x at every element x.  The
    module is isomorphic to m, so every dimension and Betti number is
    m's, while its maps and presentations carry scalars other than 0
    and 1."""
    from relbetti.fieldlin import Matrix
    from relbetti.pmod import PersistenceModule

    p = m.p
    bases = [random_invertible(rng, d, p) for d in m.dims]
    maps = {}
    for a, b in m.poset.sorted_covers:
        if m.dims[a] and m.dims[b]:
            arr = bases[b][0] @ m.cover_map(a, b).a.astype(object) @ bases[a][1]
            maps[(a, b)] = Matrix((arr % p).astype(np.int64), p)
    return PersistenceModule(m.poset, p, m.dims, maps)


def longest_chain(poset):
    depth = [0] * poset.n
    for b in range(poset.n):
        for a in poset.parents(b):
            depth[b] = max(depth[b], depth[a] + 1)
    return max(depth, default=0)


def oracle_radical(m):
    """Per element, column_basis of every cover map into it side by side,
    stacked and eliminated at every element."""
    from relbetti.fieldlin import Matrix, column_basis

    return tuple(
        column_basis(Matrix(np.concatenate(
            [np.zeros((m.dims[a], 0), dtype=np.int64)]
            + [m.cover_map(s, a).a for s in m.poset.parents(a)],
            axis=1,
        ), m.p))
        for a in range(m.poset.n)
    )


def oracle_submodule(ambient, bases):
    """The submodule of ambient spanned by bases with every transition
    solved for: solve(bases[b], cover_map(a, b) @ bases[a]) on every
    cover."""
    from relbetti.fieldlin import solve
    from relbetti.pmod import PersistenceModule

    maps = {
        (a, b): solve(bases[b], ambient.cover_map(a, b) @ bases[a])
        for a, b in ambient.poset.covers
    }
    dims = [k.cols for k in bases]
    return PersistenceModule(ambient.poset, ambient.p, dims, maps)


def oracle_kernel(f):
    """The solved submodule of f's source on the kernel_basis of every
    component.  Returns (module, bases)."""
    from relbetti.fieldlin import kernel_basis

    bases = [kernel_basis(c) for c in f.comps]
    return oracle_submodule(f.source, bases), bases


def oracle_image(f):
    """The solved submodule of f's target on the column_basis of every
    component.  Returns (module, bases)."""
    from relbetti.fieldlin import column_basis

    bases = [column_basis(c) for c in f.comps]
    return oracle_submodule(f.target, bases), bases


def oracle_complement_coords(m):
    """Standard coordinates completing the column span of m, by the
    eliminations of the pivot-column route: the pivot columns of m are a
    basis, and the coordinates are the non-pivot columns of the RREF of
    its transpose."""
    from relbetti.fieldlin import rref

    basis = m.take_cols(rref(m)[1])
    pivots = rref(basis.transpose())[1]
    return [q for q in range(m.rows) if q not in pivots]


def oracle_quotient(m):
    """Projection onto the quotient by the column span of m, by inverting
    [basis | section]: basis the pivot columns of m, section the
    identity's columns at oracle_complement_coords(m).  The rows of the
    inverse past basis's columns kill basis and split the section.
    Returns (proj, coords)."""
    from relbetti.fieldlin import Matrix, hstack, rref, solve

    basis = m.take_cols(rref(m)[1])
    coords = oracle_complement_coords(m)
    eye = Matrix.identity(m.rows, m.p)
    inv = solve(hstack([basis, eye.take_cols(coords)]), eye)
    return Matrix(inv.a[basis.cols:], m.p), coords


def oracle_cokernel(f):
    """(module, projection) of the pointwise cokernel by oracle_quotient,
    with the transition proj_b @ M(a -> b) @ section_a on every cover."""
    from relbetti.homalg import NatTransformation
    from relbetti.pmod import PersistenceModule, cached_identity

    tgt = f.target
    quots = [oracle_quotient(c) for c in f.comps]
    sections = [
        cached_identity(d, tgt.p).take_cols(q)
        for d, (_, q) in zip(tgt.dims, quots)
    ]
    maps = {
        (a, b): quots[b][0] @ tgt.cover_map(a, b) @ sections[a]
        for a, b in tgt.poset.covers
    }
    dims = [len(q) for _, q in quots]
    mod = PersistenceModule(tgt.poset, tgt.p, dims, maps)
    return mod, NatTransformation(tgt, mod, enumerate(pr for pr, _ in quots))


def oracle_free_on(poset, generators, p):
    """Free module on a list of generators, a dense 0/1 selection matrix
    built and checked on every cover."""
    from relbetti.fieldlin import Matrix
    from relbetti.pmod import PersistenceModule

    gens = tuple(int(g) for g in generators)
    alive = [
        [k for k, g in enumerate(gens) if poset.leq(g, x)]
        for x in range(poset.n)
    ]
    maps = {}
    for a, b in poset.covers:
        arr = np.zeros((len(alive[b]), len(alive[a])), dtype=np.int64)
        for c, k in enumerate(alive[a]):
            arr[alive[b].index(k), c] = 1
        maps[(a, b)] = Matrix(arr, p)
    return PersistenceModule(poset, p, [len(a) for a in alive], maps), alive


def oracle_indicator(poset, support, p):
    """Indicator module of a support, with a 1x1 identity or a zero
    matrix of the right shape built and checked on every cover."""
    from relbetti.fieldlin import Matrix
    from relbetti.pmod import PersistenceModule

    dims = [int(x in set(support)) for x in range(poset.n)]
    maps = {
        (a, b): Matrix(np.ones((dims[b], dims[a]), dtype=np.int64), p)
        for a, b in poset.covers
    }
    return PersistenceModule(poset, p, dims, maps)


def oracle_direct_sum(poset, p, parts):
    """Blockwise sum of (module, multiplicity) pairs, a dense block
    diagonal matrix built and checked on every cover."""
    from relbetti.fieldlin import Matrix
    from relbetti.pmod import PersistenceModule

    expanded = [m for m, mult in parts for _ in range(mult)]
    dims = [sum(m.dims[x] for m in expanded) for x in range(poset.n)]
    maps = {}
    for a, b in poset.covers:
        arr = np.zeros((dims[b], dims[a]), dtype=np.int64)
        r = c = 0
        for m in expanded:
            arr[r:r + m.dims[b], c:c + m.dims[a]] = m.cover_map(a, b).a
            r, c = r + m.dims[b], c + m.dims[a]
        maps[(a, b)] = Matrix(arr, p)
    return PersistenceModule(poset, p, dims, maps)


def hook_hom_dim(m, support):
    """dim Hom(K, m) for the indicator K of a convex support S, given as
    a bitset, with one minimum v (unless S is empty), such as a lower
    hook up(v) - up(w) or a box [v, w).  K has one generator at v and
    one relation at each minimal element e of up(v) - S, so Hom(K, m) is
    the kernel of the maps m(v -> e) stacked: dim m(v) less their rank,
    by sympy."""
    if not support:
        return 0
    poset = m.poset
    v = (support & -support).bit_length() - 1
    up, down = poset.up_bits(), poset.down_bits()
    assert not support & ~up[v], "the support has no single minimum"
    rest = up[v] & ~support
    ends = [
        e for e in range(poset.n) if rest >> e & 1 and down[e] & rest == 1 << e
    ]
    if not ends:
        return m.dims[v]
    stacked = np.concatenate([m.map(v, e).a for e in ends], axis=0)
    return m.dims[v] - sympy_rank(stacked, m.p)


def hook_pair_hom_dim(poset, a, b):
    """dim Hom(K_A, K_B) between indicators of convex supports with one
    minimum, such as lower hooks or boxes, from the supports A and B
    given as bitsets: 1 when A is nonempty, its minimum v_A lies in B and
    B & up(v_A) lies inside A, else 0.  (A map is its value at v_A, which
    must vanish at each minimal e of up(v_A) - A; by convexity of B, such
    an e lies in B exactly when B & up(v_A) leaves A.)"""
    if not a:
        return 0
    v = (a & -a).bit_length() - 1
    return int(bool(b >> v & 1) and not b & poset.up_bits()[v] & ~a)


def oracle_indicator_collection(coll):
    """An indicator collection assembled the checked way: the index by
    Poset.from_covers on its names, with cycle, duplicate and redundancy
    checks and Kahn's order; each member the 0/1 module on the dims of
    the member of that name; each arrow 1 at every base element where
    both members' dims are nonzero, through the checking constructors."""
    from relbetti.fieldlin import Matrix
    from relbetti.homalg import NatTransformation
    from relbetti.pmod import PersistenceModule
    from relbetti.poset import Poset
    from relbetti.relative import CollectionFunctor

    base, p, names = coll.domain, coll.p, coll.index.names
    index = Poset.from_covers(
        names, [(names[a], names[b]) for a, b in coll.index.covers]
    )
    objs = []
    for nm in index.names:
        dims = coll.obj(coll.index.index(nm)).dims
        maps = {
            (x, y): Matrix([[1]], p)
            for x, y in base.covers if dims[x] and dims[y]
        }
        objs.append(PersistenceModule(base, p, dims, maps))
    arrows = {}
    for a, b in index.covers:
        src, dst = objs[b], objs[a]
        comps = [
            Matrix([[1]], p) if src.dims[x] and dst.dims[x]
            else Matrix.zeros(dst.dims[x], src.dims[x], p)
            for x in range(base.n)
        ]
        arrows[(a, b)] = NatTransformation(src, dst, enumerate(comps))
    return CollectionFunctor(base, index, p, objs, arrows)


def oracle_index_resolution(coll, m, dmax):
    """The relative minimal resolution of m computed at the index level,
    a Resolution over coll.index that solves Hom once.

    Over a thin collection Hom(coll, obj(a)) is the index module P_a:
    one-dimensional at the b >= a whose arrow obj(b) -> obj(a) is
    nonzero (a is not in zero_below(b)), with identity transitions.
    Hom(coll, -) is left exact, so the hom module of each kernel of the
    relative resolution is the index-level kernel of the cover before it.
    Starting from nat_module(coll, m), each step covers by a sum of P_a,
    one generator per complement coordinate of the radical as
    minimal_cover takes them, each sent to its coordinate vector, and
    takes homalg.kernel of that cover."""
    from relbetti.fieldlin import complement_coords, hstack
    from relbetti.homalg import NatTransformation, Resolution
    from relbetti.pmod import direct_sum, indicator, radical
    from relbetti.poset import bit_elements
    from relbetti.relative import nat_module

    index, p = coll.index, coll.p
    up = index.up_bits()
    projectives = {}

    def projective(a):
        if a not in projectives:
            support = [
                b for b in bit_elements(up[a])
                if not coll.zero_below(b) >> a & 1
            ]
            projectives[a] = indicator(index, support, p)
        return projectives[a]

    def cover(cur):
        if not sum(cur.dims):
            return None
        lifts = [
            (a, q) for a, b in enumerate(radical(cur))
            for q in complement_coords(b)
        ]
        gens = [a for a, _ in lifts]
        source = direct_sum(index, p, [(projective(a), 1) for a in gens])
        comps = {}
        for x in bit_elements(cur.support_bits):
            cols = [
                cur.map(a, x).col(q) for a, q in lifts if projective(a).dims[x]
            ]
            if cols:
                comps[x] = hstack(cols)
        return NatTransformation(source, cur, comps).check(), gens

    return Resolution.resolve(nat_module(coll, m), dmax, cover)


def oracle_koszul_table(m, elements, dmax):
    """BettiDiagram of betti_koszul at every element of the bitset
    elements, up to dmax."""
    from relbetti.homalg import betti_koszul
    from relbetti.pmod import BettiDiagram

    return BettiDiagram({
        (d, a): k
        for a in range(m.poset.n) if elements >> a & 1
        for d, k in enumerate(betti_koszul(m, a, dmax))
        if k
    })


def oracle_nat_basis(f, g):
    """Basis of Hom(f, g) from the naturality system over all components.

    Per cover (a, b) the block row  g(a<b) X_a - X_b f(a<b) = 0  in the
    row-major vectorization of the unknown components; the basis is
    kernel_basis of the whole system.
    """
    from relbetti.fieldlin import Matrix, kernel_basis, kron
    from relbetti.homalg import NatTransformation
    from relbetti.pmod import cached_identity

    poset = f.poset
    if poset != g.poset:
        raise ValueError("modules live on different posets")
    p = f.p
    sizes = [g.dims[a] * f.dims[a] for a in range(poset.n)]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offs[-1])
    if total == 0:
        return []
    rows = []
    for a, b in sorted(poset.covers):
        height = g.dims[b] * f.dims[a]
        if height == 0 or (not sizes[a] and not sizes[b]):
            continue
        block = np.zeros((height, total), dtype=np.int64)
        if sizes[a]:
            left = kron(g.cover_map(a, b), cached_identity(f.dims[a], p))
            block[:, offs[a]:offs[a + 1]] = left.a
        if sizes[b]:
            right = kron(
                cached_identity(g.dims[b], p), f.cover_map(a, b).transpose()
            )
            block[:, offs[b]:offs[b + 1]] = (-right.a) % p
        rows.append(block)
    if rows:
        system = Matrix(np.concatenate(rows, axis=0), p)
    else:
        system = Matrix.zeros(0, total, p)
    basis = kernel_basis(system)
    out = []
    for k in range(basis.cols):
        vec = basis.a[:, k]
        comps = [
            Matrix(vec[offs[a]:offs[a + 1]].reshape(g.dims[a], f.dims[a]), p)
            for a in range(poset.n)
        ]
        out.append(NatTransformation(f, g, enumerate(comps)))
    return out


def _flatten(f):
    parts = [c.a.reshape(-1) for c in f.comps]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def oracle_coords(basis, f):
    """Coordinates of f in a basis of transformations, by one solve of the
    flattened basis columns against f's flattened entries; an int64
    vector."""
    from relbetti.fieldlin import Matrix, solve

    p = f.source.p
    if not basis:
        return np.zeros(0, dtype=np.int64)
    cols = Matrix(np.stack([_flatten(b) for b in basis], axis=1), p)
    return solve(cols, Matrix(_flatten(f).reshape(-1, 1), p)).a[:, 0]


def oracle_relative_cover(coll, m):
    """(generators, components) of the relative cover of m: one summand
    per generator of minimal_cover(nat_module(coll, m)), whose component
    is the nat_basis combination that generator's coordinates select."""
    from relbetti.homalg import minimal_cover, nat_basis
    from relbetti.relative import nat_module

    p = coll.p
    cov = minimal_cover(nat_module(coll, m))
    gens = cov.source.free_generators
    picked = []
    for k, a in enumerate(gens):
        pos = cov.source.generators_at[a].index(k)
        coords = cov.component(a).col(pos).a[:, 0]
        picked.append((coords, nat_basis(coll.obj(a), m)))
    comps = []
    for x in range(coll.domain.n):
        blocks = [np.zeros((m.dims[x], 0), dtype=np.int64)]
        for coords, basis in picked:
            arr = np.zeros_like(basis[0].comps[x].a)
            for c, phi in zip(coords, basis):
                arr = (arr + int(c) * phi.comps[x].a) % p
            blocks.append(arr)
        comps.append(np.concatenate(blocks, axis=1))
    return gens, comps


def oracle_degeneracy(coll):
    """The degeneracy scan through hom modules: for every index element,
    the generators of the kernel of its unit, closed under joins, must
    land where the collection vanishes.  Same preconditions, exceptions
    and (flag, witness) as relbetti.relative.degeneracy_hypothesis; reads
    no cached result."""
    from relbetti.errors import NotSemilattice, NotThin
    from relbetti.homalg import kernel
    from relbetti.pmod import h0
    from relbetti.relative import is_thin, unit

    index = coll.index
    claimed_thin = coll.claims.get("thin")
    if claimed_thin is None:
        if not is_thin(coll)[0]:
            raise NotThin("collection is not thin")
    elif not claimed_thin:
        raise NotThin("collection records that it is not thin")
    if not index.is_upper_semilattice():
        raise NotSemilattice("the degeneracy check needs joins in the index")
    for a in range(index.n):
        ker, _ = kernel(unit(coll, a))
        gens = h0(ker)
        supp = [b for b in range(index.n) if gens[b]]
        for b in sorted(index.sublattice_closure(supp)):
            if not coll.member_is_zero(b):
                return False, (a, b)
    return True, None


def oracle_flat(coll):
    """Flatness as two plain loops over nat_basis: the thinness
    conditions pair by pair, then a nonzero Hom at every comparable pair
    of nonzero members.  Same (flag, witness) as
    relbetti.relative.is_flat; reads no cached result."""
    from relbetti.homalg import nat_basis

    index = coll.index
    nonzero = [a for a in range(index.n) if sum(coll.obj(a).dims)]
    for a in nonzero:
        for b in nonzero:
            dim = len(nat_basis(coll.obj(b), coll.obj(a)))
            if index.leq(a, b):
                if dim > 1 or (dim == 1 and coll.arrow_to(a, b).is_zero()):
                    return False, (a, b)
            elif dim:
                return False, (a, b)
    for a in nonzero:
        for b in nonzero:
            if index.leq(a, b) and not nat_basis(coll.obj(b), coll.obj(a)):
                return False, (a, b)
    return True, None


def oracle_path_independence(coll):
    """Path independence with whole transformations: for each b the
    composites into b are composed down the index along their canonical
    chains (the first child below b), and every other child below b must
    give an equal transformation.  Raises FunctorialityViolation on the
    first disagreement, scanning b ascending, a descending and c
    ascending; returns coll otherwise."""
    from relbetti.errors import FunctorialityViolation
    from relbetti.homalg import identity_nat
    from relbetti.poset import bit_elements

    index = coll.index
    for b in range(index.n):
        into = {b: identity_nat(coll.obj(b))}
        for a in reversed(bit_elements(index.down_bits()[b] & ~(1 << b))):
            for c in index.children(a):
                if not index.leq(c, b):
                    continue
                f = coll.arrow(a, c) @ into[c]
                if a not in into:
                    into[a] = f
                elif f != into[a]:
                    raise FunctorialityViolation(
                        f"composite arrows from {index.names[b]!r} to "
                        f"{index.names[a]!r} disagree through "
                        f"{index.names[c]!r}"
                    )
    return coll


def tampered_chain(res, how, d=0):
    """A copy of a resolution (standard or relative) changed one way:

    "missing-top"  drops the top term but still claims completeness;
    "truncated"    drops the top term and is marked truncated;
    "zero-augmentation" / "zero-middle" replace differential 0 / 1 by 0;
    "empty"        keeps no term but claims completeness;
    "empty-truncated" keeps no term and is marked truncated;
    "padded"       (a standard resolution with terms d and d + 1) adds a
                   free summand on the first degree-d generator in both,
                   the identity between them, and stays marked minimal.
    """
    from relbetti.homalg import zero_nat

    terms, gens, diffs = list(res.terms), list(res.generators), list(res.diffs)
    complete = how not in ("truncated", "empty-truncated")
    if how == "padded":
        _pad(res.target, terms, gens, diffs, d)
    elif how in ("missing-top", "truncated"):
        terms, gens, diffs = terms[:-1], gens[:-1], diffs[:-1]
    elif how in ("empty", "empty-truncated"):
        terms, gens, diffs = [], [], []
    elif how == "zero-augmentation":
        diffs[0] = zero_nat(terms[0], res.target)
    elif how == "zero-middle":
        diffs[1] = zero_nat(terms[1], terms[0])
    return type(res)(res.target, terms, gens, diffs,
                     minimal=res.minimal, complete=complete)


def _pad(target, terms, gens, diffs, d):
    """Add a split free summand on x = gens[d][0] to terms d and d + 1 in
    place: its coordinate comes last wherever x lies below, the identity
    joins the two copies, and the differentials out of term d and into
    term d + 1 are zero on it."""
    from relbetti.fieldlin import Matrix
    from relbetti.homalg import NatTransformation
    from relbetti.pmod import free_on

    poset, p = target.poset, target.p
    x = gens[d][0]
    for k in (d, d + 1):
        gens[k] = (*gens[k], x)
        terms[k] = free_on(poset, gens[k], p)

    def widen(f, source, dest, extra_rows, extra_cols):
        comps = {}
        for a in range(poset.n):
            c = f.component(a).a
            if poset.leq(x, a):
                c = np.pad(c, ((0, extra_rows), (0, extra_cols)))
                if extra_rows and extra_cols:
                    c[-1, -1] = 1
            comps[a] = Matrix(c, p)
        return NatTransformation(source, dest, comps)

    diffs[d] = widen(diffs[d], terms[d], diffs[d].target, 0, 1)
    diffs[d + 1] = widen(diffs[d + 1], terms[d + 1], terms[d], 1, 1)
    if d + 2 < len(diffs):
        diffs[d + 2] = widen(diffs[d + 2], diffs[d + 2].source, terms[d + 1], 1, 0)

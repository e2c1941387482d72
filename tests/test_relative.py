"""Tests for graded collections: the two adjoint constructions, thinness
and flatness, the degeneracy gate, and relative resolutions.

Expected values were computed by hand on the fixtures below.  For interval
collections the transformation-space dimensions are additionally checked
against an independent description: maps out of the interval at (v, w)
correspond to kernel vectors of the target's transition v <= w.
"""
import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relbetti.relative
from conftest import (
    base_change,
    hook_hom_dim,
    hook_pair_hom_dim,
    indicator_hom_dim,
    oracle_degeneracy,
    oracle_coords,
    oracle_flat,
    oracle_index_resolution,
    oracle_koszul_table,
    oracle_path_independence,
    oracle_radical,
    oracle_relative_cover,
    random_free_map,
    random_interval_sum,
    random_module,
    random_poset_covers,
    random_semilattice,
    tampered_chain,
)
from relbetti.collections import (
    all_subfunctors,
    lower_hooks,
    lower_hooks_inf,
    rectangles_grid,
    rectangles_naive,
    single_source_omega0,
    spreads_omega,
)
from relbetti.errors import (
    DmaxReached,
    FunctorialityViolation,
    HypothesisNotVerified,
    NotSemilattice,
    NotThin,
    RelbettiError,
)
from relbetti.fieldlin import Matrix, kernel_basis, rank
from relbetti.homalg import (
    NatTransformation,
    Resolution,
    betti,
    generator_elements,
    hom_dim,
    identity_nat,
    kernel,
    koszul_table,
    minimal_cover,
    nat_basis,
    zero_nat,
)
from relbetti.pmod import (
    BettiDiagram,
    PersistenceModule,
    direct_sum,
    free,
    free_on,
    h0,
    m0_demo,
    radical,
    validate,
    zero_module,
)
from relbetti.poset import Poset, bit_elements
from relbetti.relative import (
    CollectionFunctor,
    RelativeResolution,
    counit_map,
    degeneracy_hypothesis,
    is_flat,
    is_relative_exact,
    is_thin,
    nat_module,
    nat_module_map,
    realization,
    realization_map,
    relative_betti_diagram,
    relative_betti_koszul,
    relative_minimal_cover,
    relative_minimal_resolution,
    relative_projective_dimension,
    unit,
    unit_map,
)


def chain(k):
    names = [str(i) for i in range(k)]
    return Poset.from_covers(
        names, [(str(i), str(i + 1)) for i in range(k - 1)]
    )


def one_dim(poset, support, p=2):
    """Dims 1 on `support`, identity transitions inside it."""
    dims = [1 if x in support else 0 for x in range(poset.n)]
    maps = {}
    for a, b in poset.covers:
        if dims[a] and dims[b]:
            maps[(a, b)] = Matrix([[1]], p)
    return PersistenceModule(poset, p, dims, maps)


def overlap_nat(src, dst):
    """Scalar-1 map wherever both one-dimensional supports overlap."""
    comps = []
    for x in range(src.poset.n):
        if src.dims[x] and dst.dims[x]:
            comps.append(Matrix([[1]], src.p))
        else:
            comps.append(Matrix.zeros(dst.dims[x], src.dims[x], src.p))
    return NatTransformation(src, dst, enumerate(comps))


def interval_support(base, v, w):
    return {x for x in range(base.n) if base.leq(v, x) and not base.leq(w, x)}


def interval_collection(base, p=2):
    """Members are the intervals [v, w) for v <= w in the base poset,
    indexed by the componentwise order on pairs; arrows restrict a larger
    interval to a smaller one."""
    pairs = [
        (v, w)
        for v in range(base.n)
        for w in range(base.n)
        if base.leq(v, w)
    ]
    names = [f"{base.names[v]}|{base.names[w]}" for v, w in pairs]
    n = len(pairs)
    leq = np.zeros((n, n), dtype=bool)
    for i, (v, w) in enumerate(pairs):
        for j, (v2, w2) in enumerate(pairs):
            leq[i, j] = base.leq(v, v2) and base.leq(w, w2)
    index = Poset.from_order(names, leq)
    objs = []
    for name in index.names:
        v, w = name.split("|")
        objs.append(one_dim(base, interval_support(base, base.index(v), base.index(w)), p))
    arrows = {
        (a, b): overlap_nat(objs[b], objs[a]) for a, b in index.covers
    }
    return CollectionFunctor(base, index, p, objs, arrows)


def chain3_module(p=2):
    # dims (2, 1, 1); transition kernels have dims 0/1/1 at (0,0)/(0,1)/(0,2)
    base = chain(3)
    m = PersistenceModule(
        base,
        p,
        [2, 1, 1],
        {(0, 1): Matrix([[1, 0]], p), (1, 2): Matrix([[1]], p)},
    )
    return base, m


def pruned_interval_collection(p=2):
    """The chain(3) interval collection with the zero members dropped.

    All members are nonzero, so failures of the degeneracy condition can no
    longer land on vanishing slots."""
    base = chain(3)
    index = Poset.from_covers(
        ["0|1", "0|2", "1|2"], [("0|1", "0|2"), ("0|2", "1|2")]
    )
    supports = {"0|1": {0}, "0|2": {0, 1}, "1|2": {1}}
    objs = [one_dim(base, supports[n], p) for n in index.names]
    arrows = {(a, b): overlap_nat(objs[b], objs[a]) for a, b in index.covers}
    return base, index, CollectionFunctor(base, index, p, objs, arrows)


def upset_collection(p=2):
    """Indicator modules of the upsets of chain(2), ordered by reverse
    inclusion, with a zero member at the empty upset on top."""
    base = chain(2)
    index = Poset.from_covers(
        ["full", "top", "none"], [("full", "top"), ("top", "none")]
    )
    objs = {
        "full": one_dim(base, {0, 1}, p),
        "top": one_dim(base, {1}, p),
        "none": zero_module(base, p),
    }
    objs = [objs[n] for n in index.names]
    arrows = {(a, b): overlap_nat(objs[b], objs[a]) for a, b in index.covers}
    return base, index, CollectionFunctor(base, index, p, objs, arrows)


def point_collection(m):
    index = Poset.from_covers(["pt"], [])
    return CollectionFunctor(m.poset, index, m.p, [m], {})


def twin_generator_collection(p=2):
    # two copies of the same free module at a single index: hom space is
    # four-dimensional, far from the one-dimensional bound
    base = chain(2)
    m = direct_sum(base, p, [(free(base, 0, p), 2)])
    return CollectionFunctor(base, Poset.from_covers(["pt"], []), p, [m], {})


def _assert_zero_below_matches_arrows(coll):
    """zero_below(b) holds exactly the a <= b whose whole composite arrow
    obj(b) -> obj(a) is zero."""
    index = coll.index
    for b in range(index.n):
        want = 0
        for a in range(index.n):
            if index.leq(a, b) and coll.arrow_to(a, b).is_zero():
                want |= 1 << a
        assert coll.zero_below(b) == want, index.names[b]


def nilpotent_collection(rng, k, p):
    """Every member of a grid(2,2) index is M = N^k, N a random nonzero
    module over grid(1,2), and every cover arrow the one natural
    endomorphism phi = T (x) id_N, T strictly lower triangular, so the
    composite along a chain of length l is phi^l.  Returns (coll, T)."""
    base = Poset.grid(1, 2)
    n = random_module(rng, base, p)
    while not sum(n.dims):
        n = random_module(rng, base, p)
    m = direct_sum(base, p, [(n, k)])
    t = np.tril(rng.integers(0, p, (k, k)), -1)
    phi = NatTransformation(m, m, enumerate(
        Matrix(np.kron(t, np.eye(d, dtype=np.int64)), p) for d in n.dims
    )).check()
    index = Poset.grid(2, 2)
    coll = CollectionFunctor(base, index, p, [m] * index.n,
                             dict.fromkeys(index.covers, phi))
    return coll, t


def _assert_dims_are_hom_dims(coll, m):
    """The hom module solves only the members with a generator where m
    is nonzero; every fiber still has dimension dim Hom(obj(a), m)."""
    got = nat_module(coll, m).dims
    assert list(got) == [hom_dim(coll.obj(a), m) for a in range(coll.index.n)]


def _assert_hom_maps_match_oracle(coll, f):
    """nat_module's transitions for f's source, and nat_module_map of f,
    written column by column in nat_basis's bases through oracle_coords."""
    index = coll.index

    def matrix(basis, images):
        out = np.zeros((len(basis), len(images)), dtype=np.int64)
        for j, psi in enumerate(images):
            out[:, j] = oracle_coords(basis, psi)
        return out

    src = [nat_basis(coll.obj(a), f.source) for a in range(index.n)]
    dst = [nat_basis(coll.obj(a), f.target) for a in range(index.n)]
    nm = nat_module(coll, f.source)
    for a, b in index.covers:
        arrow = coll.arrow(a, b)
        want = matrix(src[b], [phi @ arrow for phi in src[a]])
        assert np.array_equal(nm.cover_map(a, b).a, want)
    got = nat_module_map(coll, f)
    for a in range(index.n):
        want = matrix(dst[a], [f @ phi for phi in src[a]])
        assert np.array_equal(got.comps[a].a, want)


def split_pair_collection(p=2):
    base = chain(2)
    index = Poset.from_covers(["a", "b"], [])
    objs = {"a": one_dim(base, {0}, p), "b": one_dim(base, {1}, p)}
    return CollectionFunctor(
        base, index, p, [objs[n] for n in index.names], {}
    )


_INDICATOR_BUILDERS = [
    lower_hooks,
    lower_hooks_inf,
    rectangles_naive,
    single_source_omega0,
    spreads_omega,
    all_subfunctors,
]


class TestCollectionFunctor:
    def test_interval_fixture_validates(self):
        coll = interval_collection(chain(3))
        coll.validate()
        assert coll.index.n == 6
        assert sum(coll.obj(a).dims[0] for a in range(coll.index.n)) == 2

    def test_arrow_shape_rejected(self):
        base, index, _ = upset_collection()
        objs = [one_dim(base, {0, 1}), one_dim(base, {1}), zero_module(base, 2)]
        arrows = {
            (a, b): overlap_nat(objs[a], objs[b]) for a, b in index.covers
        }
        with pytest.raises(ValueError):
            CollectionFunctor(base, index, 2, objs, arrows)

    @pytest.mark.parametrize("p", [4, 1, 2.5])
    def test_bad_modulus_rejected(self, p):
        # an empty index has no member whose modulus could catch p
        base = chain(2)
        with pytest.raises(ValueError, match="modulus"):
            CollectionFunctor(base, Poset.from_covers([], []), p, [], {})

    def test_path_independence_checked(self):
        base = chain(2)
        index = Poset.from_covers(
            ["bot", "x", "y", "top"],
            [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")],
        )
        c = one_dim(base, {0, 1}, 5)
        objs = [c] * 4
        arrows = {}
        for a, b in index.covers:
            m = identity_nat(c)
            if index.names[b] == "top" and index.names[a] == "y":
                m = NatTransformation(
                    c, c, enumerate([Matrix([[2]], 5), Matrix([[2]], 5)])
                )
            arrows[(a, b)] = m
        coll = CollectionFunctor(base, index, 5, objs, arrows)
        with pytest.raises(FunctorialityViolation):
            coll.validate()
        # a payload is checked whole where it is read
        with pytest.raises(FunctorialityViolation, match=(
            "^composite arrows from 'top' to 'bot' disagree through 'y'$"
        )):
            CollectionFunctor.from_json(coll.to_json())

    def test_constructor_names_member_and_arrow_key(self):
        base, index, coll = upset_collection()
        objs = [coll.obj(a) for a in range(index.n)]
        arrows = {key: coll.arrow(*key) for key in index.covers}
        other = [*objs[:-1], one_dim(chain(3), {0})]
        with pytest.raises(ValueError, match=(
            f"^member {index.names[-1]!r} lives over a different poset$"
        )):
            CollectionFunctor(base, index, 2, other, arrows)
        a, b = next(iter(index.covers))
        for key, message in [
            ((b, a), f"arrow key '{index.names[b]}<{index.names[a]}' is "
                     "not a cover relation"),
            ((a, index.n), f"arrow key {(a, index.n)!r} is not an index "
                           "pair"),
            ("a<b", "arrow key 'a<b' is not an index pair"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CollectionFunctor(base, index, 2, objs,
                                  {**arrows, key: arrows[(a, b)]})

    @pytest.mark.parametrize("build", [
        lambda: lower_hooks(Poset.grid(2, 2), 5),
        lambda: lower_hooks_inf(Poset.grid(1, 2), 5),
        lambda: rectangles_naive(Poset.grid(1, 2), 5),
        lambda: rectangles_grid(2, 2, 5),
        lambda: single_source_omega0(Poset.grid(1, 2), 5),
        lambda: spreads_omega(Poset.grid(1, 2), 5),
        lambda: all_subfunctors(Poset.grid(2, 2), 5),
    ], ids=["lower_hooks", "lower_hooks_inf", "rectangles_naive",
            "rectangles_grid", "single_source_omega0", "spreads_omega",
            "all_subfunctors"])
    def test_validate_names_the_oracle_witness(self, build):
        # one arrow scaled by 2, or zeroed, stays natural, so only paths
        # can disagree; validate reads components at generators, the
        # oracle composes whole transformations, and both name the same
        # first witness
        coll = build()
        objs = [coll.obj(a) for a in range(coll.index.n)]
        arrows = {key: coll.arrow(*key) for key in coll.index.covers}

        def witness(check, variant):
            try:
                check(variant)
            except FunctorialityViolation as exc:
                return str(exc)

        refused = {"scaled": 0, "zeroed": 0}
        for key, f in arrows.items():
            scaled = NatTransformation(f.source, f.target, {
                x: c.scale(2) for x, c in enumerate(f.comps)
            })
            zeroed = zero_nat(f.source, f.target)
            for how, g in [("scaled", scaled), ("zeroed", zeroed)]:
                variant = CollectionFunctor(
                    coll.domain, coll.index, 5, objs, {**arrows, key: g}
                )
                got = witness(CollectionFunctor.validate, variant)
                assert got == witness(oracle_path_independence, variant)
                refused[how] += got is not None
        assert all(refused.values())

    def test_validate_names_member_and_arrow(self):
        # an in-memory collection is refused by validate alone, which
        # names the member that is not a functor or the arrow that is not
        # natural
        g = Poset.grid(1, 2)
        square = {(a, b): Matrix([[1]], 5) for a, b in g.covers}
        good = PersistenceModule(g, 5, [1] * 4, square)
        bad = PersistenceModule(g, 5, [1] * 4, {
            **square, (g.index("0,0"), g.index("0,1")): Matrix([[2]], 5)
        })
        index = Poset.from_covers(["lo", "hi"], [("lo", "hi")])
        coll = CollectionFunctor(g, index, 5, [bad, bad],
                                 {(0, 1): identity_nat(bad)})
        with pytest.raises(FunctorialityViolation, match=(
            "^member 'lo': composites to '1,1' from '0,0' disagree "
            "through '1,0'$"
        )):
            coll.validate()
        off = NatTransformation(good, good, {
            x: Matrix([[2 if g.names[x] == "1,1" else 1]], 5)
            for x in range(g.n)
        })
        coll = CollectionFunctor(g, index, 5, [good, good], {(0, 1): off})
        with pytest.raises(FunctorialityViolation, match=(
            "^arrow 'lo<hi': naturality fails on cover '0,1' < '1,1'$"
        )):
            coll.validate()

    def test_composite_arrows(self):
        _, index, coll = pruned_interval_collection()
        lo = index.index("0|1")
        hi = index.index("1|2")
        assert coll.arrow_to(lo, hi).is_zero()
        assert coll.arrow_to(lo, lo) == identity_nat(coll.obj(lo))
        mid = index.index("0|2")
        assert rank(coll.arrow_to(lo, mid).component(0)) == 1

    def test_zero_below_reads_every_generator(self):
        # obj(1) is generated at "0,1" and "1,0"; the arrow to obj(0), the
        # indicator of "1,0", is nonzero only at the second generator
        base = Poset.grid(1, 2)
        index = chain(2)
        top = one_dim(base, {base.index("0,1"), base.index("1,0"),
                             base.index("1,1")})
        low = one_dim(base, {base.index("1,0")})
        coll = CollectionFunctor(base, index, 2, [low, top],
                                 {(0, 1): overlap_nat(top, low).check()})
        assert generator_elements(top) == [base.index("0,1"),
                                           base.index("1,0")]
        assert not coll.arrow_to(0, 1).is_zero()
        assert coll.zero_below(1) == 0
        assert coll.zero_below(0) == 0

    def test_zero_below_holds_zero_members(self):
        _, index, coll = upset_collection()
        # obj("none") vanishes: every arrow out of it is zero, itself too
        none = index.index("none")
        assert coll.zero_below(none) == index.down_bits()[none]
        assert coll.zero_below(index.index("top")) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        build=st.sampled_from(_INDICATOR_BUILDERS),
        p=st.sampled_from([2, 3]),
    )
    def test_zero_below_matches_whole_arrows(self, seed, k, build, p):
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), k)
        _assert_zero_below_matches_arrows(build(base, p))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        p=st.sampled_from([2, 3, 5]),
    )
    def test_zero_below_powers_of_a_nilpotent(self, seed, k, p):
        coll, t = nilpotent_collection(np.random.default_rng(seed), k, p)
        index = coll.index
        _assert_zero_below_matches_arrows(coll)
        for b in range(index.n):
            for a in range(index.n):
                if index.leq(a, b):
                    steps = sum(index.coords[b]) - sum(index.coords[a])
                    power = np.linalg.matrix_power(t, steps) % p
                    assert (coll.zero_below(b) >> a & 1) == (not power.any())

    def test_incomparable_arrow_rejected(self):
        coll = split_pair_collection()
        with pytest.raises(ValueError):
            coll.arrow_to(0, 1)

    def test_json_roundtrip(self):
        _, _, coll = pruned_interval_collection()
        again = CollectionFunctor.from_json(coll.to_json())
        assert again == coll
        assert again.to_json() == coll.to_json()

    @settings(max_examples=40, deadline=None)
    @given(
        names=st.lists(
            st.text(st.one_of(st.sampled_from("|,;{}"),
                              st.characters(blacklist_characters="<")),
                    min_size=1, max_size=4),
            min_size=1, max_size=6, unique=True,
        ),
        seed=st.integers(0, 10**6),
        p=st.sampled_from([2, 5]),
    )
    def test_json_roundtrip_over_generated_names(self, names, seed, p):
        # a name may hold any character but '<', which separates the two
        # names of a cover key: a module and an explicit collection over
        # such names read back from their own JSON
        rng = np.random.default_rng(seed)
        _, covers, _ = random_poset_covers(rng, len(names))
        poset = Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        )
        m = random_module(rng, poset, p)
        assert PersistenceModule.from_json(m.to_json(), p) == m
        objs = [free(poset, a, p) for a in range(poset.n)]
        arrows = {(a, b): overlap_nat(objs[b], objs[a])
                  for a, b in poset.covers}
        coll = CollectionFunctor(poset, poset, p, objs, arrows)
        assert CollectionFunctor.from_json(coll.to_json()) == coll


class TestNatModule:
    def test_interval_dims_match_kernels(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        nm = nat_module(coll, m)
        assert nm.poset == coll.index
        for i, name in enumerate(coll.index.names):
            v, w = (base.index(s) for s in name.split("|"))
            assert nm.dims[i] == kernel_basis(m.map(v, w)).cols
        expected = {"0|0": 0, "0|1": 1, "0|2": 1, "1|1": 0, "1|2": 0, "2|2": 0}
        got = {name: nm.dims[i] for i, name in enumerate(coll.index.names)}
        assert got == expected

    def test_interval_functorial_and_h0(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        nm = nat_module(coll, m)
        validate(nm)
        idx = coll.index.index
        assert rank(nm.cover_map(idx("0|1"), idx("0|2"))) == 1
        gens = h0(nm)
        assert gens[idx("0|1")] == 1
        assert sum(gens) == 1

    def test_singleton_endomorphisms(self):
        m0 = m0_demo()
        coll = point_collection(m0)
        assert nat_module(coll, m0).dims == (1,)

    def test_zero_target(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        nm = nat_module(coll, zero_module(base, 2))
        assert sum(nm.dims) == 0

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6), st.sampled_from([2, 5]))
    def test_dims_equal_kernel_dims_on_random_modules(self, seed, p):
        rng = np.random.default_rng(seed)
        base = chain(4)
        coll = interval_collection(base, p)
        m = random_module(rng, base, p)
        nm = nat_module(coll, m)
        for i, name in enumerate(coll.index.names):
            v, w = (base.index(s) for s in name.split("|"))
            assert nm.dims[i] == kernel_basis(m.map(v, w)).cols


    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10**6), p=st.sampled_from([2, 3, 5]))
    def test_dims_are_hom_dims_with_zero_members(self, seed, p):
        # random members over grid(2,1), about a third of them zero, and
        # no arrows; m is zero one time in four
        rng = np.random.default_rng(seed)
        base = Poset.grid(2, 1)
        index = Poset.grid(1, 2)
        objs = [
            zero_module(base, p) if rng.random() < 0.3
            else random_module(rng, base, p)
            for _ in range(index.n)
        ]
        coll = CollectionFunctor(base, index, p, objs, {})
        m = (zero_module(base, p) if rng.random() < 0.25
             else random_module(rng, base, p))
        _assert_dims_are_hom_dims(coll, m)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        p=st.sampled_from([2, 3, 5]),
    )
    def test_dims_are_hom_dims_on_a_nilpotent_collection(self, seed, k, p):
        rng = np.random.default_rng(seed)
        coll, _ = nilpotent_collection(rng, k, p)
        _assert_dims_are_hom_dims(coll, coll.obj(0))
        _assert_dims_are_hom_dims(coll, random_module(rng, coll.domain, p))

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 3),
        p=st.sampled_from([2, 3, 5]),
    )
    def test_hom_maps_match_oracle_on_a_nilpotent_collection(self, seed, k,
                                                             p):
        # members N^k have dimensions above 1, so free positions sit off
        # the first row and column of their components
        rng = np.random.default_rng(seed)
        coll, _ = nilpotent_collection(rng, k, p)
        m = random_module(rng, coll.domain, p)
        _assert_hom_maps_match_oracle(coll, minimal_cover(m))
        _assert_hom_maps_match_oracle(coll, kernel(minimal_cover(m))[1])

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 10**6),
        build=st.sampled_from(_INDICATOR_BUILDERS),
        p=st.sampled_from([2, 3]),
    )
    def test_dims_are_hom_dims_on_builders(self, seed, build, p):
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), 3)
        coll = build(base, p)
        _assert_dims_are_hom_dims(coll, random_module(rng, base, p))
        _assert_dims_are_hom_dims(coll, zero_module(base, p))

    def test_other_poset_rejected(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        with pytest.raises(ValueError, match="different posets"):
            nat_module(coll, zero_module(chain(2), 2))


class TestRealization:
    def test_free_index_module_realizes_to_member(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        for a in range(coll.index.n):
            lm = realization(coll, free(coll.index, a, 2))
            assert lm.dims == coll.obj(a).dims
            validate(lm)

    def test_zero_and_sums(self):
        base, index, coll = upset_collection()
        assert sum(realization(coll, zero_module(index, 2)).dims) == 0
        two = free_on(index, [index.index("full"), index.index("top")], 2)
        lm = realization(coll, two)
        want = tuple(
            coll.obj(index.index("full")).dims[x]
            + coll.obj(index.index("top")).dims[x]
            for x in range(base.n)
        )
        assert lm.dims == want

    def test_realization_of_nonfree_module(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        lm = realization(coll, nat_module(coll, m))
        validate(lm)

    def test_realization_map_natural(self):
        rng = np.random.default_rng(7)
        base, _ = chain3_module()
        coll = interval_collection(base)
        f = random_free_map(rng, coll.index, 2, 2, 2)
        lf = realization_map(coll, f)
        lf.check()
        assert lf.source.dims == realization(coll, f.source).dims

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.sampled_from([2, 3]))
    def test_realization_map_is_a_functor(self, seed, p):
        rng = np.random.default_rng(seed)
        coll = lower_hooks(Poset.grid(1, 2), p)
        l, m, n = (
            random_module(rng, coll.index, p, max_gens=5) for _ in range(3)
        )

        def random_nat(src, dst):
            out = zero_nat(src, dst)
            for phi in nat_basis(src, dst):
                c = int(rng.integers(0, p))
                out = NatTransformation(src, dst, enumerate(
                    a + b.scale(c) for a, b in zip(out.comps, phi.comps)
                ))
            return out

        f, g = random_nat(l, m), random_nat(m, n)
        assert realization_map(coll, g @ f) == (
            realization_map(coll, g) @ realization_map(coll, f)
        )
        assert realization_map(coll, identity_nat(m)) == identity_nat(
            realization(coll, m)
        )


class TestUnit:
    def test_flat_fixture_unit_iso_on_nonzero_members(self):
        _, index, coll = upset_collection()
        for name in ["full", "top"]:
            a = index.index(name)
            eta = unit(coll, a)
            eta.check()
            for b in range(index.n):
                if sum(coll.obj(b).dims) == 0:
                    assert eta.target.dims[b] == 0
                elif index.leq(a, b):
                    c = eta.component(b)
                    assert c.rows == c.cols == rank(c) == 1

    def test_interval_unit_kernel_generator(self):
        # the kernel of the unit at (v, w) is generated exactly at (w, w)
        base, _ = chain3_module()
        coll = interval_collection(base)
        idx = coll.index.index
        for name, wslot in [("0|1", "1|1"), ("0|2", "2|2"), ("1|2", "2|2")]:
            eta = unit(coll, idx(name))
            ker, _ = kernel(eta)
            b0 = betti(ker, 0).degree(0)
            assert b0 == {idx(wslot): 1}

    def test_unit_at_zero_member(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        a = coll.index.index("0|0")
        eta = unit(coll, a)
        assert sum(eta.target.dims) == 0
        ker, _ = kernel(eta)
        assert betti(ker, 0).degree(0) == {a: 1}

    def test_unit_map_on_free_matches_unit(self):
        base, index, coll = upset_collection()
        a = index.index("full")
        eta = unit(coll, a)
        etab = unit_map(coll, free(index, a, 2))
        for b in range(index.n):
            assert rank(eta.component(b)) == rank(etab.component(b))


class TestThinFlat:
    def test_interval_chain_thin_not_flat(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        assert is_thin(coll) == (True, None)
        flat, witness = is_flat(coll)
        assert not flat
        a, b = witness
        assert coll.index.leq(a, b)
        assert sum(coll.obj(a).dims) > 0 and sum(coll.obj(b).dims) > 0
        assert nat_basis(coll.obj(b), coll.obj(a)) == []

    def test_upset_fixture_flat_despite_zero_member(self):
        _, _, coll = upset_collection()
        assert is_thin(coll) == (True, None)
        assert is_flat(coll) == (True, None)

    def test_twin_generators_not_thin(self):
        coll = twin_generator_collection()
        thin, witness = is_thin(coll)
        assert not thin
        assert witness == (0, 0)
        assert len(nat_basis(coll.obj(0), coll.obj(0))) == 4

    def test_singleton_flat(self):
        coll = point_collection(m0_demo())
        assert is_thin(coll) == (True, None)
        assert is_flat(coll) == (True, None)

    def test_split_pair_thin(self):
        assert is_thin(split_pair_collection()) == (True, None)

    def test_grid_interval_thin(self):
        coll = interval_collection(Poset.grid(2, 2))
        assert is_thin(coll) == (True, None)


class TestDegeneracy:
    def test_interval_fixtures_pass(self):
        assert degeneracy_hypothesis(interval_collection(chain(3))) == (True, None)
        coll = interval_collection(Poset.grid(2, 2))
        assert degeneracy_hypothesis(coll) == (True, None)

    def test_flat_fixture_passes(self):
        _, _, coll = upset_collection()
        assert degeneracy_hypothesis(coll) == (True, None)

    def test_pruned_fixture_fails(self):
        _, index, coll = pruned_interval_collection()
        ok, witness = degeneracy_hypothesis(coll)
        assert not ok
        assert witness == (index.index("0|1"), index.index("1|2"))

    def test_not_thin_raises(self):
        with pytest.raises(NotThin):
            degeneracy_hypothesis(twin_generator_collection())

    def test_not_semilattice_raises(self):
        with pytest.raises(NotSemilattice):
            degeneracy_hypothesis(split_pair_collection())

    def test_result_cached(self):
        _, _, coll = upset_collection()
        assert degeneracy_hypothesis(coll) is degeneracy_hypothesis(coll)

    def test_not_thin_names_the_pair(self):
        want = r"^collection is not thin at pair \('pt', 'pt'\)$"
        with pytest.raises(NotThin, match=want):
            degeneracy_hypothesis(twin_generator_collection())


def _outcome(fn, coll):
    """(flag, witness), or the type of the error the check raised."""
    try:
        return fn(coll)
    except RelbettiError as exc:
        return type(exc)


def _agrees_with_oracle(coll):
    got = _outcome(degeneracy_hypothesis, coll)
    assert got == _outcome(oracle_degeneracy, coll)
    return got


class TestDegeneracyOracle:
    """The scan reads unit kernels off zero composite arrows; the oracle
    builds every unit's hom module, kernel and generators."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        build=st.sampled_from(_INDICATOR_BUILDERS),
        p=st.sampled_from([2, 3]),
        honest=st.booleans(),
    )
    def test_builders_on_random_semilattices(self, seed, k, build, p,
                                             honest):
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), k)
        coll = build(base, p)
        if honest:
            coll.claims = {}
        _agrees_with_oracle(coll)

    @pytest.mark.parametrize("build", [
        lambda: lower_hooks(Poset.grid(3, 2), 2),
        lambda: rectangles_grid(3, 2, 2),
    ])
    def test_grid_collections(self, build):
        coll = build()
        coll.claims = {}
        assert _agrees_with_oracle(coll) == (True, None)

    def test_families_that_fail_or_raise(self):
        base = Poset.grid(1, 2)
        flag, witness = _agrees_with_oracle(rectangles_naive(base, 2))
        assert flag is False and witness is not None
        coll = spreads_omega(base, 2)
        assert _agrees_with_oracle(coll) is NotThin
        assert _agrees_with_oracle(twin_generator_collection()) is NotThin
        assert _agrees_with_oracle(split_pair_collection()) is NotSemilattice

    def test_wrong_thinness_claim(self):
        # the arrow 1 -> 0 is omitted, so zero, though Hom is spanned by
        # the identity: not thin.  Trusting a thin claim, the scan must
        # still follow the unit, whose kernel holds the upper element.
        base = chain(2)
        index = chain(2)
        m = one_dim(base, {0, 1})
        coll = CollectionFunctor(base, index, 2, [m, m], {},
                                 claims={"thin": True})
        assert len(coll.pair_basis(0, 1)) == 1
        assert _agrees_with_oracle(coll) == (False, (0, 1))

    def test_fixtures(self):
        _, index, coll = pruned_interval_collection()
        assert _agrees_with_oracle(coll) == (
            False, (index.index("0|1"), index.index("1|2"))
        )
        # a zero member on top
        assert _agrees_with_oracle(upset_collection()[2]) == (True, None)
        coll = interval_collection(Poset.grid(2, 2), p=3)
        assert _agrees_with_oracle(coll) == (True, None)


class TestFlatOracle:
    """is_flat reads the witness the thinness scan records; the oracle
    runs the thinness and flatness loops apart."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        build=st.sampled_from(_INDICATOR_BUILDERS),
        p=st.sampled_from([2, 3]),
        honest=st.booleans(),
    )
    def test_builders_on_random_semilattices(self, seed, k, build, p,
                                             honest):
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), k)
        coll = build(base, p)
        if honest:
            coll.claims = {}
        assert is_flat(coll) == oracle_flat(coll)

    def test_witness_where_the_source_generates_inside_the_target(self):
        # obj(1) = [1, 1] is generated where obj(0) = [0, 2] is nonzero,
        # yet no map [1, 1] -> [0, 2] survives the cover 1 < 2
        base = chain(3)
        coll = CollectionFunctor(
            base, chain(2), 2, [one_dim(base, {0, 1, 2}), one_dim(base, {1})],
            {},
        )
        assert is_thin(coll) == (True, None)
        assert is_flat(coll) == oracle_flat(coll) == (False, (0, 1))


def _count_solves(monkeypatch):
    """Count the Hom solves the relative module makes: the hom module's
    hom_basis, the scans' hom_dim and pair_basis."""
    calls = {"hom_basis": 0, "hom_dim": 0, "pair_basis": 0}
    for owner, name in ((relbetti.relative, "hom_basis"),
                        (relbetti.relative, "hom_dim"),
                        (CollectionFunctor, "pair_basis")):
        real = getattr(owner, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestThinnessCache:
    @pytest.mark.parametrize("first", [is_thin, is_flat, degeneracy_hypothesis])
    def test_second_scans_solve_nothing(self, first, monkeypatch):
        calls = _count_solves(monkeypatch)
        coll = lower_hooks(Poset.grid(2, 2), 2)
        coll.claims = {}
        first(coll)
        assert sum(calls.values()) > 0
        # every scan runs the thinness scan first, and its result is kept
        none = dict.fromkeys(calls, 0)
        calls.update(none)
        thin = is_thin(coll)
        assert calls == none
        # after that scan nothing solves Hom: is_flat reads its result and
        # the degeneracy scan reads the zero arrows from zero_below
        for fn in (is_thin, is_flat, degeneracy_hypothesis):
            for _ in range(2):
                fn(coll)
                assert calls == none, fn.__name__
        assert is_thin(coll) is thin

    def test_claimed_thin_degeneracy_composes_no_whole_arrow(
            self, monkeypatch):
        calls = _count_solves(monkeypatch)
        for name in ("arrow_to", "__matmul__"):
            owner = (CollectionFunctor if name == "arrow_to"
                     else NatTransformation)
            real = getattr(owner, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            calls[name] = 0
            monkeypatch.setattr(owner, name, counted)
        coll = lower_hooks(Poset.grid(3, 2), 2)
        coll.claims = {"thin": True}
        assert degeneracy_hypothesis(coll) == (True, None)
        assert calls == dict.fromkeys(calls, 0)


def _count_hom_bases(monkeypatch):
    """Record every (source, target) pair relative.hom_basis solves; the
    list holds the modules, so their ids stay theirs."""
    pairs = []
    real = relbetti.relative.hom_basis

    def counted(f, g):
        pairs.append((f, g))
        return real(f, g)

    monkeypatch.setattr(relbetti.relative, "hom_basis", counted)
    return pairs


class TestHomModuleCache:
    """The hom module of m over a collection is solved once and kept on m,
    keyed by the collection."""

    def test_koszul_route_reads_the_resolutions_hom_module(self, monkeypatch):
        pairs = _count_hom_bases(monkeypatch)
        m = m0_demo(2)
        coll = lower_hooks(m.poset, 2)
        res = relative_minimal_resolution(coll, m, 4)
        assert pairs
        del pairs[:]
        assert relative_betti_diagram(coll, m, 4) == res.multiplicities()
        assert pairs == []
        assert nat_module(coll, m) is nat_module(coll, m)

    def test_check_solves_each_module_of_the_chain_once(self, monkeypatch):
        pairs = _count_hom_bases(monkeypatch)
        m = m0_demo(2)
        coll = lower_hooks(m.poset, 2)
        res = relative_minimal_resolution(coll, m, 4)
        assert res.length == 1
        del pairs[:]
        res.check(coll)
        # the target was solved by the resolution; each term once, as the
        # source of one differential and the target of the next
        keys = [(id(f), id(g)) for f, g in pairs]
        assert len(set(keys)) == len(keys)
        assert {id(g) for _, g in pairs} == {id(t) for t in res.terms}
        del pairs[:]
        res.check(coll)
        assert pairs == []

    def test_rebuilt_module_solves_afresh(self, monkeypatch):
        pairs = _count_hom_bases(monkeypatch)
        m = m0_demo(2)
        coll = lower_hooks(m.poset, 2)
        nm = nat_module(coll, m)
        first = len(pairs)
        assert first > 0
        rebuilt = PersistenceModule.from_json(m.to_json(), m.p)
        assert rebuilt == m
        again = nat_module(coll, rebuilt)
        assert len(pairs) == 2 * first
        assert again is not nm and again == nm

    def test_collections_over_one_base_keep_their_own_tables(
            self, monkeypatch):
        pairs = _count_hom_bases(monkeypatch)
        g = Poset.grid(3, 2)
        hooks = lower_hooks(g, 5)
        rects = rectangles_grid(3, 2, 5)
        assert rects.domain is hooks.domain
        m = random_module(np.random.default_rng(7), g, 5)
        fresh = PersistenceModule.from_json(m.to_json(), m.p)
        by_hooks = nat_module(hooks, m)
        by_rects = nat_module(rects, m)
        assert by_hooks.poset == hooks.index
        assert by_rects.poset == rects.index
        assert len(m._hom_modules) == 2
        del pairs[:]
        for _ in range(2):
            assert nat_module(hooks, m) is by_hooks
            assert nat_module(rects, m) is by_rects
        assert pairs == []
        # each entry is the table a fresh module solves
        assert nat_module(rects, fresh) == by_rects
        assert nat_module(hooks, fresh) == by_hooks

    def test_cache_keeps_no_collection_alive(self):
        # unit caches on the collection's own member; a strong reference
        # there would keep the collection in a cycle
        g = Poset.grid(3, 2)
        coll = lower_hooks(g, 2)
        a = coll.index.index("0,0|0,1")
        member = coll.obj(a)
        unit(coll, a)
        assert len(member._hom_modules) == 1
        alive = weakref.ref(coll)
        gc.disable()
        try:
            del coll
            assert alive() is None
        finally:
            gc.enable()
        # a dead entry counts for no collection
        other = lower_hooks(g, 2)
        assert nat_module(other, member).poset == other.index

    def test_cached_bases_are_read_only(self):
        m = m0_demo(2)
        coll = lower_hooks(m.poset, 2)
        _, bases = relbetti.relative._nat_module_data(coll, m)
        solved = [bas for bas in bases if bas is not None]
        assert solved
        assert not any(canon.flags.writeable for canon, _, _ in solved)
        canon = next(canon for canon, _, _ in solved if len(canon))
        with pytest.raises(ValueError):
            canon[0, 0] = 1

    def test_module_over_another_poset_refused(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        other = one_dim(chain(2), {0, 1})
        for _ in range(2):
            with pytest.raises(ValueError, match="different posets"):
                nat_module(coll, other)
        assert other._hom_modules == {}


def _assert_cover_matches_oracle(coll, m):
    """The relative cover of m and of its kernel have the generators and
    components that minimal_cover of the hom module gives, and the
    relative minimal resolution of m passes its check."""
    cur = m
    for _ in range(2):
        g, gens = relative_minimal_cover(coll, cur)
        want_gens, comps = oracle_relative_cover(coll, cur)
        assert gens == want_gens
        for x in range(coll.domain.n):
            assert g.comps[x].a.dtype == np.int64
            assert np.array_equal(g.comps[x].a, comps[x])
        cur = kernel(g)[0]
    res = relative_minimal_resolution(coll, m, 8)
    assert res.complete
    res.check(coll)


def _assert_hom_module_skips_match_oracles(coll, m):
    """radical and koszul_table skip the dead elements of the hom module;
    stacked and read at every element they give the same."""
    nm = nat_module(coll, m)
    assert radical(nm) == oracle_radical(nm)
    every = (1 << coll.index.n) - 1
    for elements in (every, coll._nonzero):
        assert koszul_table(nm, elements, 6) == oracle_koszul_table(
            nm, elements, 6
        )


class TestRelativeCover:
    def test_member_covers_itself(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        a = coll.index.index("0|1")
        g, _ = relative_minimal_cover(coll, coll.obj(a))
        assert g.source.dims == coll.obj(a).dims
        assert g.component(0) == Matrix([[1]], 2)
        ker, _ = kernel(g)
        assert sum(ker.dims) == 0

    def test_cover_of_chain3_module(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        g, gens = relative_minimal_cover(coll, m)
        assert gens == (coll.index.index("0|1"),)
        assert g.component(0) == Matrix([[0], [1]], 2)
        g.check()
        # a relative cover need not be onto, but its hom-module image is
        assert not g.is_epi()
        assert nat_module_map(coll, g).is_epi()

    def test_cover_multiplicities_equal_hom_module_generators(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        _, gens = relative_minimal_cover(coll, m)
        counts = [0] * coll.index.n
        for a in gens:
            counts[a] += 1
        assert tuple(counts) == h0(nat_module(coll, m))

    def test_not_thin_rejected(self):
        coll = twin_generator_collection()
        with pytest.raises(NotThin):
            relative_minimal_cover(coll, coll.obj(0))

    @pytest.mark.parametrize("build", [
        lower_hooks, lambda g, p: rectangles_grid(3, 2, p),
    ], ids=["lower_hooks", "rectangles_grid"])
    def test_matches_oracle_on_criterion3_modules(self, build):
        # acceptance criterion 3's fifty random modules over grid(3,2)
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: build(g, p) for p in (2, 5)}
        for i in range(50):
            p = 2 if i % 2 == 0 else 5
            _assert_cover_matches_oracle(colls[p], random_module(rng, g, p))

    @pytest.mark.parametrize("build", [
        lower_hooks, lambda g, p: rectangles_grid(3, 2, p),
    ], ids=["lower_hooks", "rectangles_grid"])
    def test_hom_module_skips_on_criterion3_modules(self, build):
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: build(g, p) for p in (2, 5)}
        for i in range(50):
            p = 2 if i % 2 == 0 else 5
            _assert_hom_module_skips_match_oracles(
                colls[p], random_module(rng, g, p)
            )

    def test_hom_module_skips_on_m0(self):
        m0 = m0_demo(2)
        coll = lower_hooks(m0.poset, 2)
        _assert_hom_module_skips_match_oracles(coll, m0)
        _assert_hom_module_skips_match_oracles(
            coll, direct_sum(m0.poset, 2, [(m0, 2)])
        )

    @pytest.mark.parametrize("build", [
        lower_hooks, lambda g, p: rectangles_grid(5, 2, p),
    ], ids=["lower_hooks", "rectangles_grid"])
    def test_matches_oracle_on_m0(self, build):
        # m0 + m0 has two generators at each of m0's index elements
        m0 = m0_demo(2)
        coll = build(m0.poset, 2)
        _assert_cover_matches_oracle(coll, m0)
        _assert_cover_matches_oracle(coll, direct_sum(m0.poset, 2, [(m0, 2)]))


class TestOracle:
    def test_upset_fixture_length_one(self):
        base, index, coll = upset_collection()
        s0 = one_dim(base, {0})
        res = relative_minimal_resolution(coll, s0, 4)
        assert res.complete and res.minimal
        assert res.length == 1
        want = BettiDiagram(
            {(0, index.index("full")): 1, (1, index.index("top")): 1}
        )
        assert res.multiplicities() == want
        assert res.terms[0].dims == (1, 1)
        assert res.terms[1].dims == (0, 1)
        assert rank(res.diffs[1].component(1)) == 1
        res.check(coll)

    def test_upset_fixture_koszul_route_agrees(self):
        base, index, coll = upset_collection()
        s0 = one_dim(base, {0})
        assert relative_betti_koszul(coll, s0, index.index("full"), 2) == [1, 0, 0]
        assert relative_betti_koszul(coll, s0, index.index("top"), 2) == [0, 1, 0]

    def test_koszul_route_reads_no_padding(self):
        # lower_hooks over m0's grid: a dmax far beyond any complex's
        # length gives the table at the index's size
        m0 = m0_demo(2)
        coll = lower_hooks(m0.poset, 2)
        assert relative_betti_diagram(coll, m0, 10**20) == (
            relative_betti_diagram(coll, m0, coll.index.n)
        )

    def test_koszul_route_refuses_zero_member(self):
        base, index, coll = upset_collection()
        want = "^member at 'none' is zero; no multiplicities there$"
        with pytest.raises(ValueError, match=want):
            relative_betti_koszul(
                coll, one_dim(base, {0}), index.index("none"), 2
            )

    def test_flat_fixture_matches_standard_betti(self):
        base, _, coll = upset_collection()
        s0 = one_dim(base, {0})
        res = relative_minimal_resolution(coll, s0, 4)
        assert res.multiplicities() == betti(nat_module(coll, s0), 4)

    def test_interval_chain_resolution(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        res = relative_minimal_resolution(coll, m, 4)
        assert res.complete
        assert res.length == 0
        assert res.multiplicities() == BettiDiagram(
            {(0, coll.index.index("0|1")): 1}
        )
        assert relative_projective_dimension(coll, m, 4) == 0

    def test_invisible_module_has_empty_resolution(self):
        m0 = m0_demo()
        coll = point_collection(m0)
        blind = one_dim(m0.poset, {m0.poset.index("4,4")})
        res = relative_minimal_resolution(coll, blind, 3)
        assert res.complete
        assert res.terms == []
        assert res.length == 0
        assert res.multiplicities() == BettiDiagram({})
        assert relative_projective_dimension(coll, blind, 3) == 0

    def test_relative_resolution_is_a_resolution(self):
        base, _, coll = upset_collection()
        res = relative_minimal_resolution(coll, one_dim(base, {0}), 4)
        assert isinstance(res, RelativeResolution)
        assert isinstance(res, Resolution)
        assert res.generators == [
            (coll.index.index("full"),), (coll.index.index("top"),)
        ]

    def test_empty_chain_length_and_diagram(self):
        m0 = m0_demo()
        coll = point_collection(m0)
        blind = one_dim(m0.poset, {m0.poset.index("4,4")})
        res = relative_minimal_resolution(coll, blind, 3)
        assert (res.terms, res.generators, res.diffs) == ([], [], [])
        assert res.length == 0
        assert res.multiplicities() == BettiDiagram({})
        assert res.multiplicities().max_degree() == -1
        res.check(coll)

    def test_truncation_flagged_and_pdim_raises(self):
        base, _, coll = upset_collection()
        s0 = one_dim(base, {0})
        res = relative_minimal_resolution(coll, s0, 0)
        assert not res.complete
        assert res.length == 0
        with pytest.raises(DmaxReached):
            relative_projective_dimension(coll, s0, 0)
        assert relative_projective_dimension(coll, s0, 1) == 1

    def test_free_sum_resolves_in_degree_zero(self):
        base, _ = chain3_module()
        coll = interval_collection(base)
        idx = coll.index.index
        m = direct_sum(
            base, 2, [(coll.obj(idx("0|1")), 1), (coll.obj(idx("0|2")), 1)]
        )
        res = relative_minimal_resolution(coll, m, 2)
        assert res.length == 0
        assert res.multiplicities() == BettiDiagram(
            {(0, idx("0|1")): 1, (0, idx("0|2")): 1}
        )

    def test_multiplicity_recovery_from_realized_sums(self):
        # generators of the hom module of a realized sum recover the
        # multiplicities used to build it
        base, _ = chain3_module()
        coll = interval_collection(base)
        idx = coll.index.index
        mults = {idx("0|1"): 2, idx("0|2"): 1}
        parts = [(coll.obj(a), k) for a, k in sorted(mults.items())]
        m = direct_sum(base, 2, parts)
        gens = h0(nat_module(coll, m))
        assert {a: k for a, k in enumerate(gens) if k} == mults

    @pytest.fixture(scope="class")
    def m0_over_hooks(self):
        m = m0_demo(2)
        coll = lower_hooks(m.poset, 2)
        res = relative_minimal_resolution(coll, m, 5)
        assert res.length == 1 and res.complete
        return coll, res

    @pytest.mark.parametrize(
        "how", ["missing-top", "zero-augmentation", "empty"]
    )
    def test_check_refuses_a_broken_chain(self, m0_over_hooks, how):
        coll, res = m0_over_hooks
        with pytest.raises(ValueError):
            tampered_chain(res, how).check(coll)

    def test_check_refuses_a_generator_at_a_vanishing_member(
        self, m0_over_hooks
    ):
        coll, res = m0_over_hooks
        zero = coll.index.index("0,0|0,0")
        assert coll.member_is_zero(zero)
        gens = [(zero, *res.generators[0][1:]), *res.generators[1:]]
        moved = RelativeResolution(res.target, res.terms, gens, res.diffs,
                                   minimal=True, complete=True)
        with pytest.raises(ValueError, match="vanishing member"):
            moved.check(coll)

    @pytest.mark.parametrize("how", ["truncated", "empty-truncated"])
    def test_check_passes_a_truncated_chain(self, m0_over_hooks, how):
        coll, res = m0_over_hooks
        cut = tampered_chain(res, how)
        assert isinstance(cut, RelativeResolution) and not cut.complete
        cut.check(coll)

    def test_oracle_output_is_relative_exact(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        res = relative_minimal_resolution(coll, m, 4)
        assert is_relative_exact(coll, res.diffs)


class TestMainEquality:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6), st.sampled_from([2, 5]))
    def test_oracle_matches_koszul_route(self, seed, p):
        rng = np.random.default_rng(seed)
        base = Poset.grid(2, 2)
        coll = interval_collection(base, p)
        m = random_module(rng, base, p)
        res = relative_minimal_resolution(coll, m, 6)
        assert res.complete
        mults = res.multiplicities()
        for a in range(coll.index.n):
            if sum(coll.obj(a).dims) == 0:
                assert all(mults.get(d, a) == 0 for d in range(7))
                continue
            kos = relative_betti_koszul(coll, m, a, 6)
            assert kos == [mults.get(d, a) for d in range(7)]

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 10**6),
        st.sampled_from([2, 3, 5]),
        st.sampled_from([
            "lower_hooks", "lower_hooks_inf", "rectangles_grid",
            "spreads_omega", "all_subfunctors", "single_source_omega0",
        ]),
    )
    def test_koszul_table_is_additive(self, seed, p, name):
        # the relative Koszul table equals the complete resolution's and
        # is additive in Hom(X, -) at every nonzero member X; rank
        # additivity needs the free members of lower_hooks_inf, since every
        # lower hook vanishes at the top of the grid.  spreads_omega is
        # only thin over a chain.
        rng = np.random.default_rng(seed)
        base = Poset.grid(3, 1) if name == "spreads_omega" else Poset.grid(2, 2)
        build = {
            "lower_hooks": lower_hooks,
            "lower_hooks_inf": lower_hooks_inf,
            "rectangles_grid": lambda b, q: rectangles_grid(2, 2, q),
            "spreads_omega": spreads_omega,
            "all_subfunctors": all_subfunctors,
            "single_source_omega0": single_source_omega0,
        }
        coll = build[name](base, p)
        assert coll.domain == base
        m = random_module(rng, base, p)
        res = relative_minimal_resolution(coll, m, 6)
        assert res.complete
        table = relative_betti_diagram(coll, m, 6)
        assert table == res.multiplicities()
        terms = [((-1) ** d * k, s) for (d, s), k in table.items()]
        for x in range(coll.index.n):
            if coll.member_is_zero(x):
                continue
            mx = coll.obj(x)
            want = len(nat_basis(mx, m))
            got = sum(c * indicator_hom_dim(mx, coll.obj(s)) for c, s in terms)
            assert got == want, coll.index.names[x]
        if name != "lower_hooks_inf":
            return
        for a in range(base.n):
            for b in range(base.n):
                if base.leq(a, b):
                    want = rank(m.map(a, b))
                    got = sum(c * rank(coll.obj(s).map(a, b)) for c, s in terms)
                    assert got == want, (base.names[a], base.names[b])

    def test_gate_blocks_unverified_collection(self):
        base, index, coll = pruned_interval_collection()
        m = coll.obj(index.index("0|1"))
        with pytest.raises(HypothesisNotVerified):
            relative_betti_koszul(coll, m, index.index("0|1"), 2)

    def test_forced_koszul_disagrees_inside_unit_kernel_support(self):
        # the two routes genuinely split on the pruned fixture, and the
        # disagreement happens where some unit has a nonzero kernel
        base, index, coll = pruned_interval_collection()
        m = coll.obj(index.index("0|1"))
        res = relative_minimal_resolution(coll, m, 2)
        assert res.multiplicities() == BettiDiagram(
            {(0, index.index("0|1")): 1}
        )
        forced = relative_betti_koszul(
            coll, m, index.index("1|2"), 2, force=True
        )
        assert forced == [0, 1, 0]
        bad = set()
        for a in range(index.n):
            ker, _ = kernel(unit(coll, a))
            for (d, b), k in betti(ker, 2).items():
                if k:
                    bad.add(b)
        assert bad == {index.index("1|2")}

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10**6))
    def test_disagreements_stay_inside_unit_kernel_support(self, seed):
        rng = np.random.default_rng(seed)
        base, index, coll = pruned_interval_collection()
        m = random_module(rng, base, 2)
        res = relative_minimal_resolution(coll, m, 4)
        assert res.complete
        mults = res.multiplicities()
        bad = set()
        for a in range(index.n):
            ker, _ = kernel(unit(coll, a))
            for (d, b), k in betti(ker, 4).items():
                if k:
                    bad.add(b)
        for a in range(index.n):
            kos = relative_betti_koszul(coll, m, a, 4, force=True)
            if kos != [mults.get(d, a) for d in range(5)]:
                assert a in bad


class TestIndexResolution:
    @pytest.mark.parametrize("build", [
        lower_hooks, lambda g, p: rectangles_grid(3, 2, p), lower_hooks_inf,
        rectangles_naive, single_source_omega0,
    ], ids=[
        "lower_hooks", "rectangles_grid", "lower_hooks_inf",
        "rectangles_naive", "single_source_omega0",
    ])
    def test_matches_relative_resolution_on_criterion3_modules(self, build):
        # resolving the hom module by the index modules
        # P_a gives the base route's multiplicities, solving Hom once
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: build(g, p) for p in (2, 5)}
        for i in range(50):
            p = 2 if i % 2 == 0 else 5
            m = random_module(rng, g, p)
            for dmax in (8, 1):
                want = relative_minimal_resolution(colls[p], m, dmax)
                got = oracle_index_resolution(colls[p], m, dmax)
                assert got.multiplicities() == want.multiplicities(), (i, dmax)
                assert got.complete == want.complete, (i, dmax)
                assert got.length == want.length, (i, dmax)

    @pytest.mark.parametrize("build", [
        lower_hooks, lambda g, p: rectangles_grid(5, 2, p),
    ], ids=["lower_hooks", "rectangles_grid"])
    def test_matches_relative_resolution_on_m0(self, build):
        m0 = m0_demo(2)
        coll = build(m0.poset, 2)
        want = relative_minimal_resolution(coll, m0, 4)
        got = oracle_index_resolution(coll, m0, 4)
        assert got.multiplicities() == want.multiplicities()
        assert got.complete and want.complete
        assert got.length == want.length > 0


class TestHookCertificate:
    """A complete relative resolution stays exact under Hom(Y, -) for every
    member Y, so at each nonzero member Y:
    sum_d (-1)^d sum_X beta_d(X) dim Hom(Y, obj(X)) = dim Hom(Y, M).
    Both sides come from the conftest oracles for indicators with one
    minimum: the closed form between members and the kernel of M's maps
    out of Y's minimum, never from Hom solving."""

    def _assert_hom_euler_identity(self, coll, m):
        """The identity at every nonzero member, after both routes agree
        on a complete table; returns the members checked, those with a
        nonzero Hom into m, and whether the table has an entry."""
        base = coll.domain
        res = relative_minimal_resolution(coll, m, 8)
        assert res.complete
        table = relative_betti_diagram(coll, m, 8)
        assert table == res.multiplicities()
        terms = [((-1) ** d * k, coll.obj(x).support_bits)
                 for (d, x), k in table.items()]
        nonzero = bit_elements(coll._nonzero)
        homs = 0
        for y in nonzero:
            bits = coll.obj(y).support_bits
            got = sum(c * hook_pair_hom_dim(base, bits, b) for c, b in terms)
            want = hook_hom_dim(m, bits)
            assert got == want, coll.index.names[y]
            homs += want > 0
        return np.array([len(nonzero), homs, bool(terms)])

    def _assert_on_modules(self, build, draw):
        """The identity on fifty modules over grid(3,2), draw(rng, g, p)
        with p alternating 2 and 5 from seed 33; returns the sums of the
        counts above."""
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: build(g, p) for p in (2, 5)}
        counts = np.zeros(3, dtype=int)
        for i in range(50):
            p = 2 if i % 2 == 0 else 5
            counts += self._assert_hom_euler_identity(
                colls[p], draw(rng, g, p)
            )
        return counts.tolist()

    def test_hom_euler_identity_on_criterion3_modules(self):
        # criterion 3's fifty random modules
        checked = self._assert_on_modules(lower_hooks, random_module)[0]
        assert checked == 4200

    def test_hom_euler_identity_on_rectangles(self):
        # criterion 3's modules have almost no Hom out of a box (4 of
        # the 1,800 checks read a nonzero side), so m0 is checked too
        assert self._assert_on_modules(
            lambda g, p: rectangles_grid(3, 2, p), random_module
        ) == [1800, 4, 1]
        m0 = m0_demo(2)
        assert self._assert_hom_euler_identity(
            rectangles_grid(5, 2, 2), m0
        )[0] == 225

    @pytest.mark.parametrize("build, changed, counts", [
        (lower_hooks, False, [4200, 1271, 46]),
        (lower_hooks, True, [4200, 969, 44]),
        (lambda g, p: rectangles_grid(3, 2, p), False, [1800, 177, 25]),
        (lambda g, p: rectangles_grid(3, 2, p), True, [1800, 177, 25]),
    ], ids=["lower_hooks", "lower_hooks-base-changed", "rectangles_grid",
            "rectangles_grid-base-changed"])
    def test_hom_euler_identity_on_interval_sums(self, build, changed,
                                                 counts):
        # interval modules die inside hooks and boxes, which criterion
        # 3's cokernels rarely do (their counts are [4200, 140, 10] and
        # [1800, 4, 1]), and in random fiber bases their presentations
        # carry scalars other than 0 and 1
        def draw(rng, g, p):
            m = random_interval_sum(rng, g, p)
            return base_change(rng, m) if changed else m

        assert self._assert_on_modules(build, draw) == counts


class TestAdjunction:
    def test_hom_dimensions_agree(self):
        rng = np.random.default_rng(11)
        base, m = chain3_module()
        coll = interval_collection(base)
        mods = [m, coll.obj(coll.index.index("0|2")), random_module(rng, base, 2)]
        fs = [
            free(coll.index, coll.index.index("0|1"), 2),
            free_on(coll.index, [0, coll.index.n - 1], 2),
            random_module(rng, coll.index, 2),
        ]
        for f in fs:
            for target in mods:
                left = len(nat_basis(realization(coll, f), target))
                right = len(nat_basis(f, nat_module(coll, target)))
                assert left == right

    def test_triangle_identity_through_hom_module(self):
        for build in [upset_collection, pruned_interval_collection]:
            base, _, coll = build()
            for m in [one_dim(base, {0}), one_dim(base, {0, 1})]:
                nm = nat_module(coll, m)
                comp = nat_module_map(coll, counit_map(coll, m)) @ unit_map(coll, nm)
                assert comp == identity_nat(nm)

    def test_triangle_identity_through_realization(self):
        base, index, coll = upset_collection()
        for f in [
            free(index, index.index("full"), 2),
            free_on(index, [index.index("full"), index.index("top")], 2),
        ]:
            lf = realization(coll, f)
            comp = counit_map(coll, lf) @ realization_map(coll, unit_map(coll, f))
            assert comp == identity_nat(lf)

    def test_counit_natural(self):
        base, m = chain3_module()
        coll = interval_collection(base)
        counit_map(coll, m).check()

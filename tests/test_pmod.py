import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_direct_sum,
    oracle_free_on,
    oracle_indicator,
    oracle_radical,
    random_module,
    random_poset_covers,
    sympy_rank,
)
from relbetti.fieldlin import Matrix, hstack, rank
from relbetti.poset import Poset, bit_elements
from relbetti.pmod import (
    BettiDiagram,
    FunctorialityViolation,
    InvalidSpread,
    PersistenceModule,
    PosetMismatch,
    constant,
    direct_sum,
    free,
    free_on,
    from_antichain,
    from_upset,
    h0,
    indicator,
    is_filtration,
    is_spread,
    m0_demo,
    radical,
    spread,
    validate,
    zero_module,
)


def assert_radical_bases(m, bases):
    """One independent basis per element, carried into the next basis by
    every cover map."""
    assert len(bases) == m.poset.n
    for a, b in enumerate(bases):
        assert b.rows == m.dims[a]
        assert sympy_rank(b.a, m.p) == b.cols
    for a, b in m.poset.sorted_covers:
        img = m.cover_map(a, b) @ bases[a]
        joint = hstack([bases[b], img])
        assert rank(joint) == bases[b].cols


def chain(k):
    names = [str(i) for i in range(k)]
    return Poset.from_covers(
        names, [(str(i), str(i + 1)) for i in range(k - 1)]
    )


def diamond():
    return Poset.from_covers(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")],
    )


class TestValidate:
    def test_free_ok(self):
        p = diamond()
        validate(free(p, p.index("bot"), 2))

    def test_diamond_sign_mismatch(self):
        p = diamond()
        dims = [1, 1, 1, 1]
        maps = {}
        for a, b in p.covers:
            val = 1
            if p.names[a] == "y" and p.names[b] == "top":
                val = -1
            maps[(a, b)] = Matrix([[val]], 3)
        m = PersistenceModule(p, 3, dims, maps)
        with pytest.raises(FunctorialityViolation):
            validate(m)

    def test_m0_ok(self):
        validate(m0_demo(2))

    def test_shape_mismatch_rejected(self):
        p = chain(2)
        with pytest.raises(ValueError):
            PersistenceModule(p, 2, [1, 1], {(0, 1): Matrix.zeros(2, 1, 2)})

    @pytest.mark.parametrize("p", [4, 1, 2.5])
    def test_bad_modulus_rejected(self, p):
        # no cover map, so no Matrix would ever see p
        antichain = Poset.from_covers(["a", "b"], [])
        with pytest.raises(ValueError, match="modulus"):
            PersistenceModule(antichain, p, [1, 1], {})


class TestOmittedMaps:
    def test_omitted_maps_equal_explicit_zeros(self):
        g = Poset.grid(2, 2)
        dims = [(3 * x) % 4 for x in range(g.n)]
        explicit = {
            (a, b): Matrix.zeros(dims[b], dims[a], 3) for a, b in g.covers
        }
        omitted = PersistenceModule(g, 3, dims, {})
        assert omitted == PersistenceModule(g, 3, dims, explicit)
        for a, b in g.covers:
            m = omitted.cover_map(a, b)
            assert m.is_zero() and m.p == 3
            assert (m.rows, m.cols) == (dims[b], dims[a])
        # some supplied, the rest omitted
        some = dict(list(sorted(explicit.items()))[::2])
        assert PersistenceModule(g, 3, dims, some) == omitted

    @pytest.mark.parametrize(
        "dims, bad",
        [([1, 1], Matrix.zeros(2, 1, 2)), ([0, 1], Matrix.zeros(1, 1, 2)),
         ([1, 0], Matrix.zeros(1, 1, 2)), ([1, 1], Matrix.zeros(1, 1, 3)),
         ([0, 0], Matrix.zeros(0, 0, 3))],
        ids=["shape", "zero-source", "zero-target", "modulus",
             "empty-modulus"],
    )
    def test_supplied_map_still_checked(self, dims, bad):
        with pytest.raises(ValueError, match="shape|modulus"):
            PersistenceModule(chain(2), 2, dims, {(0, 1): bad})

    def test_stored_zero_map_equals_omitted_one(self):
        # both ends nonzero, so the explicit zero is stored and the
        # omitted one is not
        p = diamond()
        dims = [1, 2, 1, 1]
        base = {(0, 1): Matrix([[1], [1]], 2), (0, 2): Matrix([[1]], 2)}
        explicit = dict(base)
        explicit[(1, 3)] = Matrix.zeros(1, 2, 2)
        omitted = PersistenceModule(p, 2, dims, base)
        stored = PersistenceModule(p, 2, dims, explicit)
        assert stored == omitted and omitted == stored
        assert stored.cover_map(1, 3) == omitted.cover_map(1, 3)
        # a nonzero map stored on one side only tells them apart
        explicit[(1, 3)] = Matrix([[0, 1]], 2)
        other = PersistenceModule(p, 2, dims, explicit)
        assert other != omitted and omitted != other
        assert other.cover_map(1, 3) == Matrix([[0, 1]], 2)

    def test_to_json_skips_zero_maps(self):
        p = diamond()
        maps = {
            (0, 1): Matrix([[1], [2]], 3),
            (1, 3): Matrix([[0, 0]], 3),
            (0, 2): Matrix.zeros(0, 1, 3),
        }
        m = PersistenceModule(p, 3, [1, 2, 0, 1], maps)
        assert json.dumps(m.to_json(), sort_keys=True) == (
            '{"dims": {"bot": 1, "top": 1, "x": 2}, '
            '"maps": {"bot<x": [[1], [2]]}, '
            '"poset": {"covers": [["bot", "x"], ["bot", "y"], '
            '["x", "top"], ["y", "top"]], '
            '"elements": ["bot", "x", "y", "top"]}}'
        )
        assert PersistenceModule.from_json(m.to_json(), 3) == m

    @pytest.mark.parametrize("key", [(0, 2), (1, 0), (0, 0)])
    def test_cover_map_on_non_cover_raises(self, key):
        m = PersistenceModule(chain(3), 2, [1, 1, 1], {})
        with pytest.raises(KeyError):
            m.cover_map(*key)

    def test_first_bad_map_in_sorted_order_is_named(self):
        bad = {(1, 2): Matrix.zeros(2, 1, 2), (0, 1): Matrix.zeros(3, 1, 2)}
        with pytest.raises(ValueError, match="^cover map '0' < '1' has shape"):
            PersistenceModule(chain(3), 2, [1, 1, 1], bad)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([2, 3]))
    def test_map_composites_on_modules_with_zero_regions(self, seed, p):
        # a random cokernel over a grid vanishes below its generators;
        # given its maps with some zero ones left out, every composite is
        # the product of the full cover arrays along any maximal chain
        rng = np.random.default_rng(seed)
        g = Poset.grid(2, 2)
        src = random_module(rng, g, p)
        dims = src.dims
        full = {
            (a, b): src.cover_map(a, b).a if dims[a] and dims[b]
            else np.zeros((dims[b], dims[a]), dtype=np.int64)
            for a, b in g.covers
        }
        kept = {
            k: Matrix(arr, p) for k, arr in full.items()
            if np.count_nonzero(arr) or rng.random() < 0.5
        }
        m = PersistenceModule(g, p, dims, kept)
        assert m == src and src == m
        for a in range(g.n):
            for b in sorted(g.up(a)):
                arr = np.eye(dims[a], dtype=np.int64)
                cur = a
                while cur != b:
                    up = [c for c in g.children(cur) if g.leq(c, b)]
                    nxt = up[int(rng.integers(len(up)))]
                    arr = full[(cur, nxt)] @ arr % p
                    cur = nxt
                assert np.array_equal(m.map(a, b).a, arr)
        # maps_from stacks those composites over up(a) in the support,
        # ascending, and hands back the same arrays when asked again
        up = g.up_bits()
        for a in range(g.n):
            stack, offsets = m.maps_from(a)
            assert list(offsets) == bit_elements(up[a] & m.support_bits)
            assert stack.shape == (sum(dims[x] for x in offsets), dims[a])
            for x, row in offsets.items():
                block = stack[row:row + dims[x]]
                assert np.array_equal(block, m.map(a, x).a)
            if not dims[a]:
                assert stack.size == 0
            assert m.maps_from(a)[0] is stack

    def test_support_bits(self):
        m = m0_demo(2)
        assert m.support_bits == sum(
            1 << x for x, d in enumerate(m.dims) if d
        )
        assert zero_module(chain(3), 2).support_bits == 0

    def test_numpy_dims_become_ints(self):
        # numpy dims become Python ints; the support is their nonzero bits
        g = Poset.grid(2, 2)
        dims = np.zeros(g.n, dtype=np.int64)
        dims[[1, 5]] = [2, 1]
        m = PersistenceModule(g, 2, dims, {})
        assert m.dims == (0, 2, 0, 0, 0, 1, 0, 0, 0)
        assert all(type(d) is int for d in m.dims)
        assert m.support_bits == 1 << 1 | 1 << 5

    @pytest.mark.parametrize(
        "dims, maps, message",
        [([1, -1, 1, 1], {}, "dimensions must be nonnegative"),
         ([1, -1], {}, "need one dimension per poset element"),
         ([-1, 1, 1, 1], {(0, 3): Matrix.zeros(1, 1, 2)},
          "dimensions must be nonnegative"),
         ([1, 1, 1, 1], {(0, 3): Matrix.zeros(1, 1, 2)},
          "maps attached to non-covers")],
    )
    def test_dims_checked_in_order(self, dims, maps, message):
        # the length before the signs, both before the maps
        with pytest.raises(ValueError, match=message):
            PersistenceModule(diamond(), 2, dims, maps)


class TestFree:
    def test_middle_of_chain(self):
        p = chain(3)
        m = free(p, p.index("1"), 2)
        assert m.dims == (0, 1, 1)

    def test_global_max(self):
        p = diamond()
        m = free(p, p.index("top"), 2)
        assert m.dims == (0, 0, 0, 1)
        assert m.dims[p.index("top")] == 1

    def test_transitions_identity_inside(self):
        p = chain(3)
        m = free(p, 0, 5)
        assert m.map(0, 2) == Matrix.identity(1, 5)

    def test_free_on_layout(self):
        p = chain(3)
        m = free_on(p, [0, 1, 0], 2)
        assert m.dims == (2, 3, 3)
        assert m.free_generators == (0, 1, 0)
        # generator order preserved in coordinates: at element 1 the alive
        # generators are 0,1,2 in that order
        assert m.map(0, 1).tolist() == [[1, 0], [0, 0], [0, 1]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generators_at_lists_the_generators_below(self, seed):
        # the positions of the generators at or below x, in list order,
        # repeats included; they index the coordinates of the fiber at x
        rng = np.random.default_rng(seed)
        names, covers, _ = random_poset_covers(rng, int(rng.integers(1, 8)))
        p = Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])
        gens = [int(g) for g in rng.integers(0, p.n, int(rng.integers(0, 6)))]
        m = free_on(p, gens, 2)
        for x in range(p.n):
            want = tuple(k for k, g in enumerate(gens) if p.leq(g, x))
            assert m.generators_at[x] == want
            assert m.dims[x] == len(want)
            # generator k's image at x is the coordinate of k there
            for r, k in enumerate(want):
                col = m.map(gens[k], x).a[:, m.generators_at[gens[k]].index(k)]
                assert col.tolist() == [int(i == r) for i in range(len(want))]


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]))
    def test_free_on_matches_dense_oracle(self, seed, p):
        # only the covers with two nonzero ends are built, on the same
        # module and bytes as every cover built densely
        rng = np.random.default_rng(seed)
        names, covers, _ = random_poset_covers(rng, int(rng.integers(0, 9)))
        poset = Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        )
        count = int(rng.integers(0, 6)) if poset.n else 0
        gens = [int(g) for g in rng.integers(0, poset.n or 1, count)]
        m = free_on(poset, gens, p)
        want, alive = oracle_free_on(poset, gens, p)
        assert m == want
        assert json.dumps(m.to_json()) == json.dumps(want.to_json())
        assert m.generators_at == tuple(map(tuple, alive))
        assert m.free_generators == tuple(gens)
        _assert_stores_nonzero_ends(m)
        for c in m._cover_maps.values():
            assert c.a.dtype == np.int64 and not c.a.flags.writeable


def _random_poset(rng):
    names, covers, _ = random_poset_covers(rng, int(rng.integers(0, 9)))
    return Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])


def _assert_stores_nonzero_ends(m):
    for a, b in m._cover_maps:
        assert m.dims[a] and m.dims[b]


class TestIndicatorConstructors:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]))
    def test_indicator_matches_dense_oracle(self, seed, p):
        # the identity on every cover inside the support, nothing else
        rng = np.random.default_rng(seed)
        poset = _random_poset(rng)
        support = [x for x in range(poset.n) if rng.integers(0, 2)]
        m = indicator(poset, support, p)
        assert m == oracle_indicator(poset, support, p)
        assert m._cover_maps == {
            (a, b): Matrix.identity(1, p)
            for a, b in poset.covers if a in support and b in support
        }

    def test_empty_upset_is_zero(self):
        p = chain(3)
        m = from_upset(p, frozenset(), 2)
        assert m.dims == (0, 0, 0)

    def test_constant_chain(self):
        p = chain(3)
        m = constant(p, 2)
        assert m.dims == (1, 1, 1)
        assert m.map(0, 2) == Matrix.identity(1, 2)

    def test_from_antichain_is_upset_module(self):
        g = Poset.grid(5, 2)
        s = {g.index("0,2"), g.index("1,0")}
        m = from_antichain(g, s, 2)
        expect = from_upset(g, g.upset_of(s), 2)
        assert m == expect

    def test_spread_support(self):
        g = Poset.grid(5, 2)
        s = {g.index("0,0")}
        t = {g.index("2,3"), g.index("3,1")}
        m = spread(g, s, t, 2)
        for i in range(g.n):
            x, y = g.coords[i]
            inside = (x <= 2 and y <= 3) or (x <= 3 and y <= 1)
            assert m.dims[i] == (1 if inside else 0)
        validate(m)

    def test_invalid_spread(self):
        g = Poset.grid(1, 2)
        with pytest.raises(InvalidSpread):
            spread(g, {g.index("1,0")}, {g.index("0,1")}, 2)


class TestDirectSum:
    def test_empty_is_zero(self):
        p = chain(2)
        m = direct_sum(p, 2, [])
        assert m.dims == (0, 0)

    def test_doubling(self):
        p = chain(2)
        f = free(p, 0, 2)
        m = direct_sum(p, 2, [(f, 2)])
        assert m.dims == (2, 2)

    def test_dims_add(self):
        p = diamond()
        a = free(p, 0, 2)
        b = from_upset(p, p.up(p.index("x")), 2)
        m = direct_sum(p, 2, [(a, 2), (b, 3)])
        for i in range(p.n):
            assert m.dims[i] == 2 * a.dims[i] + 3 * b.dims[i]
        validate(m)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3, 5]))
    def test_direct_sum_matches_dense_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        poset = _random_poset(rng)
        parts = [
            (random_module(rng, poset, p), int(rng.integers(0, 3)))
            for _ in range(int(rng.integers(0, 4)))
        ] if poset.n else []
        m = direct_sum(poset, p, parts)
        _assert_stores_nonzero_ends(m)
        assert m == oracle_direct_sum(poset, p, parts)

    def test_poset_mismatch(self):
        with pytest.raises(PosetMismatch):
            direct_sum(chain(2), 2, [(free(chain(3), 0, 2), 1)])


class TestRadicalH0:
    def test_radical_of_free(self):
        p = diamond()
        a = p.index("bot")
        r = radical(free(p, a, 2))
        for i in range(p.n):
            expect = 1 if (p.leq(a, i) and i != a) else 0
            assert r[i].cols == expect

    def test_radical_of_zero(self):
        p = chain(2)
        r = radical(zero_module(p, 2))
        assert all(r[i].cols == 0 for i in range(p.n))

    def test_radical_of_m0(self):
        m = m0_demo(2)
        g = m.poset
        r = radical(m)
        origin = g.index("0,0")
        for i in range(g.n):
            expect = m.dims[i] if i != origin else 0
            assert r[i].cols == expect

    def test_radical_stable_under_transitions(self):
        m = m0_demo(2)
        assert_radical_bases(m, radical(m))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([2, 3]))
    def test_radical_bases_of_random_modules(self, seed, p):
        rng = np.random.default_rng(seed)
        g = Poset.grid(int(rng.integers(1, 3)), 2)
        m = random_module(rng, g, p)
        assert_radical_bases(m, radical(m))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.sampled_from([2, 3]))
    def test_radical_matches_oracle(self, seed, p):
        rng = np.random.default_rng(seed)
        g = Poset.grid(int(rng.integers(1, 3)), 2)
        m = random_module(rng, g, p)
        assert radical(m) == oracle_radical(m)

    def test_h0_free(self):
        p = diamond()
        a = p.index("x")
        assert h0(free(p, a, 2)) == tuple(
            1 if i == a else 0 for i in range(p.n)
        )

    def test_h0_m0(self):
        m = m0_demo(2)
        g = m.poset
        expect = tuple(1 if i == g.index("0,0") else 0 for i in range(g.n))
        assert h0(m) == expect

    def test_h0_of_free_sum_reads_multiplicities(self):
        p = diamond()
        beta = {0: 2, 2: 1}
        m = direct_sum(p, 2, [(free(p, a, 2), k) for a, k in beta.items()])
        assert h0(m) == tuple(beta.get(i, 0) for i in range(p.n))

    def test_h0_additive(self):
        p = diamond()
        a = free(p, 0, 5)
        b = spread(p, {p.index("x")}, {p.index("x")}, 5)
        s = direct_sum(p, 5, [(a, 1), (b, 2)])
        ha, hb, hs = h0(a), h0(b), h0(s)
        assert hs == tuple(x + 2 * y for x, y in zip(ha, hb))


class TestPredicates:
    def test_free_is_filtration(self):
        p = diamond()
        assert is_filtration(free(p, 0, 2))

    def test_m0_is_spread(self):
        assert is_spread(m0_demo(2))

    def test_rank_drop_not_spread(self):
        p = chain(3)
        m = PersistenceModule(
            p,
            2,
            [1, 1, 1],
            {(0, 1): Matrix([[1]], 2), (1, 2): Matrix.zeros(1, 1, 2)},
        )
        validate(m)
        assert not is_spread(m)

    def test_upset_module_is_filtration(self):
        g = Poset.grid(2, 2)
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = {int(x) for x in rng.choice(g.n, 2, replace=False)}
            u = g.upset_of(s)
            m = from_upset(g, u, 2)
            assert is_filtration(m)
            assert all(d <= 1 for d in m.dims)

    def test_spread_reconstruction(self):
        g = Poset.grid(2, 2)
        m = spread(g, {g.index("0,0")}, {g.index("1,2"), g.index("2,0")}, 2)
        assert is_spread(m)
        supp = [i for i in range(g.n) if m.dims[i] == 1]
        rebuilt = spread(g, g.min_elements(supp), g.max_elements(supp), 2)
        assert rebuilt.dims == m.dims


class TestM0:
    def test_total_dim(self):
        m = m0_demo(2)
        assert sum(m.dims) == 14

    def test_corner_values(self):
        m = m0_demo(2)
        g = m.poset
        assert m.dims[g.index("0,0")] == 1
        assert m.dims[g.index("4,4")] == 0
        assert m.dims[g.index("3,1")] == 1
        assert m.dims[g.index("3,2")] == 0
        assert m.dims[g.index("2,3")] == 1
        assert m.dims[g.index("0,4")] == 0

    def test_odd_characteristic(self):
        m = m0_demo(5)
        assert m.p == 5
        validate(m)


class TestMapCache:
    def test_path_independence_on_diamond(self):
        p = diamond()
        m = constant(p, 7)
        assert m.map(p.index("bot"), p.index("top")) == Matrix.identity(1, 7)

    def test_identity_at_element(self):
        p = chain(2)
        m = free(p, 0, 2)
        assert m.map(1, 1) == Matrix.identity(1, 2)

    def test_non_comparable_rejected(self):
        p = diamond()
        m = constant(p, 2)
        with pytest.raises(ValueError):
            m.map(p.index("x"), p.index("y"))


class TestBettiDiagram:
    def test_entries_and_equality(self):
        b = BettiDiagram({(0, 3): 1, (1, 5): 2})
        assert b.get(0, 3) == 1
        assert b.get(2, 0) == 0
        assert b == BettiDiagram({(1, 5): 2, (0, 3): 1})
        assert b != BettiDiagram({(0, 3): 1})

    def test_zero_entries_dropped(self):
        b = BettiDiagram({(0, 3): 0, (1, 1): 1})
        assert b == BettiDiagram({(1, 1): 1})
        assert b.max_degree() == 1

    def test_degree_view(self):
        b = BettiDiagram({(0, 3): 1, (0, 5): 2, (1, 5): 1})
        assert b.degree(0) == {3: 1, 5: 2}
        assert b.total(0) == 3
        assert b.total(2) == 0

    def test_json_sorted(self):
        p = chain(3)
        b = BettiDiagram({(1, 2): 1, (0, 0): 1, (1, 0): 3})
        assert b.to_json(p) == {
            "betti": [
                {"at": "0", "d": 0, "mult": 1},
                {"at": "0", "d": 1, "mult": 3},
                {"at": "2", "d": 1, "mult": 1},
            ]
        }

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BettiDiagram({(0, 0): -1})


class TestModuleJson:
    def test_roundtrip_m0(self):
        m = m0_demo(2)
        j = m.to_json()
        back = PersistenceModule.from_json(j, p=2)
        assert back == m

    def test_omitted_dims_default_zero(self):
        p = chain(2)
        j = {"poset": p.to_json(), "dims": {"1": 1}, "maps": {}}
        m = PersistenceModule.from_json(j, p=2)
        assert m.dims == (0, 1)

    def test_omitted_maps_default_zero(self):
        p = chain(2)
        j = {"poset": p.to_json(), "dims": {"0": 1, "1": 1}, "maps": {}}
        m = PersistenceModule.from_json(j, p=2)
        assert m.cover_map(0, 1).is_zero()

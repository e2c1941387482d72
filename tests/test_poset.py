import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relbetti import poset as poset_module
from relbetti.collections import rectangles_grid, translated
from relbetti.errors import MeetHypothesisFailed
from relbetti.pmod import zero_module
from relbetti.poset import (
    CyclicCovers,
    NotSemilattice,
    Poset,
    RedundantCover,
    SizeBoundExceeded,
    antichain_poset,
)
from conftest import oracle_join, oracle_koszul, random_poset_covers


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


class TestFromCovers:
    def test_chain_transitivity(self):
        p = chain(3)
        assert p.leq(p.index("0"), p.index("2"))

    def test_incomparable_pair(self):
        p = Poset.from_covers(["a", "b"], [])
        a, b = p.index("a"), p.index("b")
        assert not p.leq(a, b) and not p.leq(b, a)
        assert p.leq(a, a)

    def test_diamond_parents(self):
        p = diamond()
        top = p.index("top")
        assert {p.names[i] for i in p.parents(top)} == {"x", "y"}

    def test_cycle_rejected(self):
        with pytest.raises(CyclicCovers):
            Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])

    def test_redundant_cover_rejected(self):
        with pytest.raises(RedundantCover):
            Poset.from_covers(
                ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Poset.from_covers(["a", "a"], [])

    def test_cover_key_separator_in_a_name_rejected(self):
        # module and collection payloads key a cover as "lower<upper"
        message = "^element name 'a<b' contains '<'"
        with pytest.raises(ValueError, match=message):
            Poset.from_covers(["a<b", "c"], [("a<b", "c")])
        with pytest.raises(ValueError, match=message):
            Poset.from_order(["c", "a<b"], np.eye(2, dtype=bool))
        with pytest.raises(ValueError, match=message):
            Poset.from_json({"elements": ["a<b"], "covers": []})

    def test_indices_are_linear_extension(self):
        names, covers, _ = random_poset_covers(np.random.default_rng(3), 7)
        p = Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])
        for i in range(p.n):
            for j in range(p.n):
                if p.leq(i, j):
                    assert i <= j

    def test_parents_brute_force_random(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            names, covers, _ = random_poset_covers(rng, n)
            p = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
            for a in range(p.n):
                expect = {
                    b
                    for b in range(p.n)
                    if b != a
                    and p.leq(b, a)
                    and not any(
                        c != a and c != b and p.leq(b, c) and p.leq(c, a)
                        for c in range(p.n)
                    )
                }
                assert set(p.parents(a)) == expect


class TestOrderedConstructor:
    def test_listed_order_is_kept(self):
        p = Poset(["top", "bot"], [])
        assert p.names == ("top", "bot")
        q = Poset(["bot", "top"], [(0, 1)])
        assert q == Poset.from_covers(["top", "bot"], [("bot", "top")])

    @pytest.mark.parametrize("cover", [(1, 0), (1, 1)])
    def test_cover_against_the_listed_order_is_refused(self, cover):
        with pytest.raises(ValueError, match="does not go up"):
            Poset(["a", "b"], [cover])


class TestGrid:
    def test_6x6(self):
        g = Poset.grid(5, 2)
        assert g.n == 36
        assert g.grid_shape == (5, 2)

    def test_tiny_chain(self):
        g = Poset.grid(1, 1)
        assert g.n == 2
        assert g.leq(0, 1)

    def test_parents_product_order(self):
        g = Poset.grid(2, 2)
        a = g.index("1,1")
        assert {g.names[i] for i in g.parents(a)} == {"0,1", "1,0"}

    def test_order_is_coordinatewise(self):
        g = Poset.grid(2, 2)
        assert g.leq(g.index("0,1"), g.index("2,2"))
        assert not g.leq(g.index("0,1"), g.index("2,0"))

    def test_size_guard(self):
        with pytest.raises(SizeBoundExceeded):
            Poset.grid(9, 6)

    @pytest.mark.parametrize("n, r", [(1, 10**40), (0, 10**40)])
    def test_size_guard_huge_shape(self, n, r):
        # refused without forming (n + 1) ** r or r coordinates
        with pytest.raises(SizeBoundExceeded):
            Poset.grid(n, r)

    def test_point_grid_of_many_coordinates(self):
        # built without recursion: one element with r coordinates
        g = Poset.grid(0, 2000)
        assert g.n == 1 and g.coords[0] == (0,) * 2000

    def test_coords_roundtrip(self):
        g = Poset.grid(3, 2)
        for i in range(g.n):
            assert g.names[i] == ",".join(str(c) for c in g.coords[i])


class TestSharedGrid:
    @pytest.mark.parametrize("n, r", [(0, 1), (1, 1), (2, 2), (3, 3), (5, 2)])
    def test_one_instance_per_shape(self, n, r):
        g = Poset.grid(n, r)
        assert Poset.grid(n, r) is g
        assert Poset.from_json({"grid": {"n": n, "r": r}}) is g
        assert Poset.from_json(g.to_json()) is g

    @pytest.mark.parametrize("n, r", [(1, 1), (2, 2), (5, 2)])
    def test_rectangles_grid_domain_is_shared(self, n, r):
        assert rectangles_grid(n, r, 2).domain is Poset.grid(n, r)

    def test_over_bound_raises_before_lookup(self, monkeypatch):
        g = Poset.grid(2, 2)
        before = Poset._grid.cache_info()
        monkeypatch.setattr(poset_module, "DEFAULT_MAX_ELEMENTS", 8)
        with pytest.raises(SizeBoundExceeded):
            Poset.grid(2, 2)
        monkeypatch.undo()
        with pytest.raises(SizeBoundExceeded):
            Poset.grid(9, 6)
        assert Poset._grid.cache_info() == before
        monkeypatch.setattr(poset_module, "DEFAULT_MAX_ELEMENTS", 9)
        assert Poset.grid(2, 2) is g

    def test_equality_stays_literal(self):
        g = Poset.grid(2, 2)
        copy = Poset.from_covers(
            g.names, [(g.names[a], g.names[b]) for a, b in g.covers]
        )
        assert copy is not g
        assert copy == g and hash(copy) == hash(g)
        assert g != Poset.grid(2, 1)
        assert g != Poset.from_covers(g.names, [])

    def test_sorted_covers(self):
        for p in (Poset.grid(2, 2), diamond(), chain(4), chain(1)):
            assert p.sorted_covers == tuple(sorted(p.covers))


class TestJoinMeet:
    def test_grid_join_coordinatewise_max(self):
        g = Poset.grid(5, 2)
        s = [g.index("1,3"), g.index("2,2")]
        assert g.join(s) == g.index("2,3")

    def test_chain_join_is_max(self):
        p = chain(4)
        assert p.join([0, 2, 1]) == 2

    def test_no_join(self):
        p = Poset.from_covers(["a", "b"], [])
        assert p.join([0, 1]) is None

    def test_grid_meet_coordinatewise_min(self):
        g = Poset.grid(5, 2)
        s = [g.index("1,3"), g.index("2,2")]
        assert g.meet_bounded(s) == g.index("1,2")

    def test_singleton_meet(self):
        p = chain(3)
        assert p.meet_bounded([1]) == 1

    def test_no_meet(self):
        p = Poset.from_covers(["a", "b"], [])
        assert p.meet_bounded([0, 1]) is None

    def test_empty_rejected(self):
        p = chain(2)
        with pytest.raises(ValueError):
            p.join([])
        with pytest.raises(ValueError):
            p.meet_bounded([])

    def test_join_against_brute_force_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            names, covers, _ = random_poset_covers(rng, n)
            p = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
            for a in range(p.n):
                for b in range(p.n):
                    ub = [x for x in range(p.n) if p.leq(a, x) and p.leq(b, x)]
                    least = [x for x in ub if all(p.leq(x, y) for y in ub)]
                    expect = least[0] if least else None
                    assert p.join([a, b]) == expect


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_join_matches_numpy_oracle(self, seed, n):
        # random posets, non-semilattices among them, every subset of up
        # to three elements (one-element subsets included)
        rng = np.random.default_rng(seed)
        names, covers, _ = random_poset_covers(rng, n)
        p = Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])
        for k in (1, 2, 3):
            for s in itertools.combinations(range(p.n), k):
                assert p.join(s) == oracle_join(p, s)
                assert p.join(reversed(s)) == oracle_join(p, s)
        for x in range(p.n):
            assert p.join([x]) == x
        with pytest.raises(ValueError):
            oracle_join(p, [])
        with pytest.raises(ValueError):
            p.join([])
        semilattice = all(
            oracle_join(p, [a, b]) is not None
            for a in range(p.n) for b in range(a + 1, p.n)
        )
        assert Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        ).is_upper_semilattice() == semilattice

    def test_up_bits_mirror_down_bits(self):
        for p in (Poset.grid(2, 2), diamond(), chain(4), chain(1)):
            up, down = p.up_bits(), p.down_bits()
            for a in range(p.n):
                for b in range(p.n):
                    assert bool(up[a] >> b & 1) == p.leq(a, b)
                    assert bool(up[a] >> b & 1) == bool(down[b] >> a & 1)

    def test_meet_against_brute_force_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            names, covers, _ = random_poset_covers(rng, n)
            p = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
            for k in (1, 2, 3):
                for s in itertools.combinations(range(p.n), k):
                    lb = [x for x in range(p.n) if all(p.leq(x, y) for y in s)]
                    most = [x for x in lb if all(p.leq(y, x) for y in lb)]
                    expect = most[0] if most else None
                    assert p.meet_bounded(s) == expect

class TestStepToward:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    def test_matches_child_search(self, seed, n):
        rng = np.random.default_rng(seed)
        names, covers, _ = random_poset_covers(rng, n)
        p = Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])
        for a in range(p.n):
            for b in range(p.n):
                if a != b and p.leq(a, b):
                    want = next(c for c in p.children(a) if p.leq(c, b))
                    assert p.step_toward(a, b) == want

    def test_grid_steps_in_the_last_coordinate_first(self):
        g = Poset.grid(2, 2)
        assert g.step_toward(g.index("0,0"), g.index("1,1")) == g.index("0,1")
        assert g.step_toward(g.index("0,0"), g.index("2,0")) == g.index("1,0")


class TestParentMeets:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    def test_kept_walk_equals_a_fresh_walk(self, seed, n):
        rng = np.random.default_rng(seed)
        names, covers, _ = random_poset_covers(rng, n)
        pairs = [(names[i], names[j]) for i, j in covers]
        p = Poset.from_covers(names, pairs)
        fresh = Poset.from_covers(names, pairs)
        for a in range(p.n):
            try:
                want = oracle_koszul(zero_module(p, 2), a)
            except MeetHypothesisFailed:
                continue
            kept = p.parent_meets(a)
            assert p.parent_meets(a) is kept
            assert fresh.parent_meets(a) == kept
            index_sets, meets, faces, touched = kept
            assert index_sets == want.index_sets
            assert meets == want.meets
            # a subset's faces are the positions one level down of the
            # subset less each of its parents, in order
            assert faces[0] == ((),)
            assert [len(f) for f in faces] == [len(s) for s in index_sets]
            for d in range(1, len(index_sets)):
                for s, face in zip(index_sets[d], faces[d]):
                    assert [index_sets[d - 1][k] for k in face] == [
                        tuple(y for y in s if y != x) for x in s
                    ]
            bits = 0
            for x in itertools.chain.from_iterable(meets):
                bits |= 1 << x
            assert touched == bits

    def test_bowtie_raises_cold_and_warm(self):
        # a failed walk is not kept, so every call walks and raises the
        # oracle's message
        p = Poset.from_covers(
            ["a", "b", "c", "d", "top"],
            [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "top"), ("d", "top")],
        )
        top = p.index("top")
        with pytest.raises(MeetHypothesisFailed) as want:
            oracle_koszul(zero_module(p, 2), top)
        for _ in range(2):
            with pytest.raises(MeetHypothesisFailed) as got:
                p.parent_meets(top)
            assert str(got.value) == str(want.value)
        assert p._parent_meets[top] is None


class TestSemilattice:
    def test_grid_true(self):
        assert Poset.grid(3, 2).is_upper_semilattice()

    def test_two_maxima_false(self):
        p = Poset.from_covers(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
        assert not p.is_upper_semilattice()

    def test_pairwise_suffices_random(self):
        # pairwise joins existing forces all nonempty joins to exist
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            names, covers, _ = random_poset_covers(rng, n)
            p = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
            if not p.is_upper_semilattice():
                continue
            elts = list(range(p.n))
            for size in range(1, p.n + 1):
                for s in itertools.combinations(elts, size):
                    assert p.join(list(s)) is not None


class TestSublatticeClosure:
    def test_empty(self):
        assert Poset.grid(1, 2).sublattice_closure(set()) == frozenset()

    def test_two_generators(self):
        g = Poset.grid(1, 2)
        s = {g.index("0,1"), g.index("1,0")}
        expect = s | {g.index("1,1")}
        assert g.sublattice_closure(s) == frozenset(expect)

    def test_already_closed(self):
        g = Poset.grid(2, 2)
        s = frozenset({g.index("0,0"), g.index("1,1")})
        assert g.sublattice_closure(s) == s

    def test_requires_semilattice(self):
        p = Poset.from_covers(["a", "b"], [])
        with pytest.raises(NotSemilattice):
            p.sublattice_closure({0, 1})

    def test_matches_all_subset_joins(self):
        g = Poset.grid(2, 2)
        rng = np.random.default_rng(29)
        for _ in range(10):
            s = set(int(x) for x in rng.choice(g.n, size=3, replace=False))
            expect = set()
            for size in range(1, len(s) + 1):
                for t in itertools.combinations(sorted(s), size):
                    expect.add(g.join(list(t)))
            assert g.sublattice_closure(s) == frozenset(expect)


class TestAntichainSets:
    def test_min_of_upset_in_chain(self):
        p = chain(4)
        assert p.min_elements({1, 2, 3}) == frozenset({1})

    def test_upset_of_empty(self):
        assert Poset.grid(1, 1).upset_of(frozenset()) == frozenset()

    def test_upset_of_two_generators(self):
        g = Poset.grid(5, 2)
        s = {g.index("0,2"), g.index("1,0")}
        got = g.upset_of(s)
        expect = {
            i
            for i in range(g.n)
            if g.leq(g.index("0,2"), i) or g.leq(g.index("1,0"), i)
        }
        assert got == frozenset(expect)

    def test_max_elements(self):
        g = Poset.grid(1, 2)
        assert g.max_elements({0, 1, 2}) == frozenset(
            {g.index("0,1"), g.index("1,0")}
        )

    def test_min_upset_bijection_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            names, covers, _ = random_poset_covers(rng, n)
            p = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
            subset = {int(x) for x in rng.choice(p.n, rng.integers(0, p.n + 1), replace=False)}
            u = p.upset_of(subset)
            assert p.is_upset(u)
            a = p.min_elements(u)
            assert p.is_antichain(a)
            assert p.upset_of(a) == u


class TestAntichainPoset:
    def test_chain_count(self):
        ap = antichain_poset(chain(3))
        assert ap.n == 4  # empty + three singletons

    def test_two_point_antichain(self):
        p = Poset.from_covers(["a", "b"], [])
        ap = antichain_poset(p)
        assert ap.n == 4
        assert frozenset() in ap.antichains

    def test_square_grid_count(self):
        # 2x2 grid: empty, four singletons, one incomparable pair
        ap = antichain_poset(Poset.grid(1, 2))
        assert ap.n == 6

    def test_empty_is_maximum(self):
        ap = antichain_poset(Poset.grid(1, 1))
        empty = ap.antichains.index(frozenset())
        assert all(ap.leq(i, empty) for i in range(ap.n))

    def test_order_matches_upset_containment(self):
        g = Poset.grid(1, 1)
        ap = antichain_poset(g)
        for i in range(ap.n):
            for j in range(ap.n):
                ui = g.upset_of(ap.antichains[i])
                uj = g.upset_of(ap.antichains[j])
                assert ap.leq(i, j) == (ui >= uj)

    def test_singletons_embed(self):
        p = diamond()
        ap = antichain_poset(p)
        for a in range(p.n):
            for b in range(p.n):
                ia = ap.antichains.index(frozenset({a}))
                ib = ap.antichains.index(frozenset({b}))
                assert p.leq(a, b) == ap.leq(ia, ib)

    def test_covers_add_one_upset_element(self):
        # parent antichains correspond to upsets grown by one maximal
        # complement element
        p = diamond()
        ap = antichain_poset(p)
        for t in range(ap.n):
            ut = p.upset_of(ap.antichains[t])
            expect = set()
            for v in p.max_elements(set(range(p.n)) - ut):
                expect.add(p.min_elements(ut | {v}))
            got = {ap.antichains[s] for s in ap.parents(t)}
            assert got == expect

    def test_join_is_upset_intersection(self):
        g = Poset.grid(1, 2)
        ap = antichain_poset(g)
        assert ap.is_upper_semilattice()
        rng = np.random.default_rng(41)
        for _ in range(20):
            i, j = (int(x) for x in rng.integers(0, ap.n, size=2))
            k = ap.join([i, j])
            ui = g.upset_of(ap.antichains[i])
            uj = g.upset_of(ap.antichains[j])
            assert g.upset_of(ap.antichains[k]) == ui & uj

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(poset_module, "DEFAULT_MAX_ANTICHAINS", 10)
        with pytest.raises(SizeBoundExceeded):
            antichain_poset(Poset.grid(5, 2))

    def test_bound_admits_exactly_the_antichain_count(self, monkeypatch):
        # grid(1, 2) has 6 antichains and the empty poset 1, the empty
        # antichain included: the bound counts it too
        for poset, count in [(Poset.grid(1, 2), 6),
                             (Poset.from_covers([], []), 1)]:
            monkeypatch.setattr(poset_module, "DEFAULT_MAX_ANTICHAINS", count)
            assert len(antichain_poset(poset).antichains) == count
            monkeypatch.setattr(
                poset_module, "DEFAULT_MAX_ANTICHAINS", count - 1
            )
            with pytest.raises(SizeBoundExceeded,
                               match=f"^more than {count - 1} antichains$"):
                antichain_poset(poset)


class TestPosetJson:
    def test_roundtrip_explicit(self):
        p = diamond()
        q = Poset.from_json(p.to_json())
        assert q == p

    def test_roundtrip_grid(self):
        g = Poset.grid(3, 2)
        j = g.to_json()
        assert j == {"grid": {"n": 3, "r": 2}}
        assert Poset.from_json(j) == g

    @pytest.mark.parametrize(
        "shape",
        [{"n": 1.5, "r": 1}, {"n": "1", "r": True}, {"n": 1, "r": 2.0},
         {"n": True, "r": 1}, {"n": None, "r": 1}, {"n": [1], "r": 1},
         {"n": "x", "r": 1}, {"n": -1, "r": 1}, {"n": 1, "r": 0}],
        ids=["float-n", "bool-r", "float-r", "bool-n", "null-n", "list-n",
             "string-n", "negative-n", "zero-r"],
    )
    def test_bad_grid_shape_refused(self, shape):
        with pytest.raises(ValueError):
            Poset.from_json({"grid": shape})

    @pytest.mark.parametrize(
        "obj",
        [{"elements": "ab", "covers": []},
         {"elements": {"a": 1, "b": 2}, "covers": []},
         {"elements": [1, 2], "covers": []},
         {"elements": ["a", None], "covers": []},
         {"elements": ["a", "b"], "covers": "ab"},
         {"elements": ["a", "b"], "covers": [("a", "b")]},
         {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
         {"elements": ["a", "b"], "covers": [["a", 1]]},
         {"elements": ["a", "b"], "covers": {"a": "b"}}],
        ids=["string", "object", "integer-names", "null-name",
             "string-covers", "tuple-cover", "long-cover", "integer-cover",
             "object-covers"],
    )
    def test_bad_explicit_poset_refused(self, obj):
        # elements are a list of names, covers a list of name pairs;
        # nothing else is read as one
        with pytest.raises(ValueError):
            Poset.from_json(obj)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_upset_parents_lemma_random(seed, n):
    # in the antichain lattice, parents of T are exactly the antichains of
    # up(T) plus one maximal complement element
    rng = np.random.default_rng(seed)
    names, covers, _ = random_poset_covers(rng, n)
    p = Poset.from_covers(names, [(names[i], names[j]) for i, j in covers])
    ap = antichain_poset(p)
    for t in range(ap.n):
        ut = p.upset_of(ap.antichains[t])
        expect = {
            p.min_elements(ut | {v}) for v in p.max_elements(
                set(range(p.n)) - ut
            )
        }
        assert {ap.antichains[s] for s in ap.parents(t)} == expect


def _dfs_reach(n, covers):
    """reach[a]: the elements a path of one or more given covers leads to
    from a, by depth-first search over the cover list as given."""
    out = [[] for _ in range(n)]
    for a, b in covers:
        out[a].append(b)
    reach = []
    for a in range(n):
        seen, stack = set(), list(out[a])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(out[x])
        reach.append(seen)
    return out, reach


@st.composite
def _cover_lists(draw):
    """(n, covers) over elements 0..n-1, in a random order: any pairs
    (self-covers and cycles among them), pairs going up a random order
    (redundant covers among them), or those pairs less every cover that
    a longer path implies."""
    n = draw(st.integers(0, 7))
    mode = draw(st.sampled_from(["any", "up", "reduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = 0.15 if mode == "any" else 0.5
    covers = [
        (a, b) for a in range(n) for b in range(n) if rng.random() < dense
    ]
    if mode != "any":
        rank = rng.permutation(n)
        covers = [(a, b) for a, b in covers if rank[a] < rank[b]]
    if mode == "reduced":
        out, reach = _dfs_reach(n, covers)
        covers = [
            (a, b) for a, b in covers
            if not any(c != b and b in reach[c] for c in out[a])
        ]
    rng.shuffle(covers)
    return n, covers


@settings(max_examples=200, deadline=None)
@given(_cover_lists())
def test_order_matches_dfs_oracle(drawn):
    # from_covers refuses exactly the cyclic and the redundant cover
    # lists a DFS finds; otherwise every order query agrees with the DFS
    # closure, and index order is a linear extension of it
    n, covers = drawn
    names = [f"e{i}" for i in range(n)]
    pairs = [(names[a], names[b]) for a, b in covers]
    out, reach = _dfs_reach(n, covers)
    if any(a in reach[a] for a in range(n)):
        with pytest.raises(CyclicCovers):
            Poset.from_covers(names, pairs)
        return
    if any(c != b and b in reach[c] for a, b in covers for c in out[a]):
        with pytest.raises(RedundantCover):
            Poset.from_covers(names, pairs)
        return
    p = Poset.from_covers(names, pairs)
    old = [int(nm[1:]) for nm in p.names]
    want = np.array(
        [[a == b or old[b] in reach[old[a]] for b in range(n)]
         for a in range(n)],
        dtype=bool,
    ).reshape(n, n)
    assert {(old[a], old[b]) for a, b in p.covers} == set(covers)
    assert np.array_equal(p.leq_matrix, want)
    assert not p.leq_matrix.flags.writeable
    up, down = p.up_bits(), p.down_bits()
    for a in range(n):
        assert p.up(a) == frozenset(np.flatnonzero(want[a]).tolist())
        for b in range(n):
            assert p.leq(a, b) == want[a, b]
            assert bool(up[a] >> b & 1) == want[a, b]
            assert bool(down[b] >> a & 1) == want[a, b]
            if want[a, b]:
                assert a <= b
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            sub = frozenset(sub)
            upset = frozenset(
                b for b in range(n) if any(want[a, b] for a in sub)
            )
            assert p.upset_of(sub) == upset
            assert p.min_elements(sub) == frozenset(
                a for a in sub
                if not any(b != a and want[b, a] for b in sub)
            )
            assert p.max_elements(sub) == frozenset(
                a for a in sub
                if not any(b != a and want[a, b] for b in sub)
            )
            assert p.is_antichain(sub) == (
                not any(a != b and want[a, b] for a in sub for b in sub)
            )
            assert p.is_upset(sub) == (upset == sub)


@pytest.mark.parametrize("n, r", [(0, 1), (1, 1), (3, 1), (1, 3), (2, 2),
                                  (3, 2)])
def test_grid_order_is_coordinatewise(n, r):
    _assert_coordinatewise(Poset.grid(n, r))


@pytest.mark.parametrize("n, translations", [
    (2, [[0, 0]]),
    (3, [[0, 1], [1, 0]]),
    (3, [[0, 2], [1, 1], [2, 0]]),
    (2, [[1, 1]]),
])
def test_translated_index_is_coordinatewise(n, translations):
    coll = translated(Poset.grid(n, 2), translations, 2)
    _assert_coordinatewise(coll.index)


def _assert_coordinatewise(p):
    up, down = p.up_bits(), p.down_bits()
    for a, ca in enumerate(p.coords):
        for b, cb in enumerate(p.coords):
            want = all(x <= y for x, y in zip(ca, cb))
            assert p.leq(a, b) == want == bool(p.leq_matrix[a, b])
            assert bool(up[a] >> b & 1) == want == bool(down[b] >> a & 1)
            if want:
                assert a <= b

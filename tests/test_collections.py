"""Tests for the builtin collection builders.

Fixture expectations come from independent descriptions of each family:
transformation-space dimensions are matched against kernel identities
(maps out of an interval member correspond to kernel vectors of the
target's transitions), index posets are rebuilt from the raw order
relation and compared against the builders' cover formulas, and the
staircase-module multiplicity tables are frozen from hand computations
on the 6x6 grid.  Where a value could not be fully settled by hand, the
test instead demands agreement between the two independent computation
routes (resolution multiplicities vs local Koszul homology) and the
frozen part that was settled.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_indicator_collection,
    random_module,
    random_semilattice,
)
from relbetti.collections import (
    all_subfunctors,
    lower_hooks,
    lower_hooks_inf,
    rectangles_grid,
    rectangles_naive,
    single_source_omega0,
    singleton,
    spreads_omega,
    translated,
)
from relbetti.errors import NameClash, NotSemilattice, SizeBoundExceeded
from relbetti.fieldlin import Matrix, rank
from relbetti.homalg import (
    NatTransformation,
    betti,
    betti_koszul,
    hom_dim,
    nat_basis,
    zero_nat,
)
from relbetti.pmod import (
    PersistenceModule,
    direct_sum,
    free,
    from_upset,
    is_spread,
    m0_demo,
    zero_module,
)
from relbetti.poset import (
    Poset,
    antichain_name,
    bit_elements,
    antichain_poset,
)
from relbetti.relative import (
    CollectionFunctor,
    degeneracy_hypothesis,
    is_flat,
    is_thin,
    nat_module,
    relative_betti_diagram,
    relative_betti_koszul,
    relative_minimal_resolution,
    relative_projective_dimension,
    is_relative_exact,
)


def chain(k):
    names = [str(i) for i in range(k)]
    return Poset.from_covers(
        names, [(str(i), str(i + 1)) for i in range(k - 1)]
    )


def vee():
    # two incomparable elements over a common bottom; joins fail
    return Poset.from_covers(["b", "x", "y"], [("b", "x"), ("b", "y")])


def one_dim(poset, support, p=2):
    dims = [1 if x in support else 0 for x in range(poset.n)]
    maps = {}
    for a, b in poset.covers:
        if dims[a] and dims[b]:
            maps[(a, b)] = Matrix([[1]], p)
    return PersistenceModule(poset, p, dims, maps)


def overlap_nat(src, dst):
    comps = []
    for x in range(src.poset.n):
        if src.dims[x] and dst.dims[x]:
            comps.append(Matrix([[1]], src.p))
        else:
            comps.append(Matrix.zeros(dst.dims[x], src.dims[x], src.p))
    return NatTransformation(src, dst, enumerate(comps))


def by_name(diagram, poset):
    return {(d, poset.names[a]): k for (d, a), k in diagram.items()}


def support_of(m):
    return {x for x in range(m.poset.n) if m.dims[x]}


def inter_kernel_dim(m, v, uppers):
    """dim of the common kernel of the transitions v <= u, u in uppers."""
    uppers = list(uppers)
    if m.dims[v] == 0:
        return 0
    if not uppers:
        return m.dims[v]
    arr = np.concatenate([m.map(v, u).a for u in uppers], axis=0)
    return m.dims[v] - rank(Matrix(arr, m.p))


def module_rank(m):
    """Rank of the full transition from the unique bottom to the top."""
    bot = min(m.poset.min_elements(frozenset(range(m.poset.n))))
    top = max(m.poset.max_elements(frozenset(range(m.poset.n))))
    return rank(m.map(bot, top))


def padded(seq, p):
    """Wrap a short exact sequence in zero maps so every term is inner."""
    poset = seq[0].source.poset
    z = zero_module(poset, p)
    return [zero_nat(z, seq[0].source)] + seq + [zero_nat(seq[-1].target, z)]


def check_all_arrows(coll):
    for a, b in coll.index.covers:
        coll.arrow(a, b).check()


# every builder that assembles its members with _indicator_collection,
# on a base
BUILDERS = {
    "lower_hooks": lower_hooks,
    "lower_hooks_inf": lower_hooks_inf,
    "rectangles_naive": rectangles_naive,
    "rectangles_grid": lambda base, p: rectangles_grid(*base.grid_shape, p),
    "single_source_omega0": single_source_omega0,
    "spreads_omega": spreads_omega,
    "all_subfunctors": all_subfunctors,
    "translated": lambda base, p: translated(
        base, [(1,) + (0,) * (base.grid_shape[1] - 1)], p
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2)])
def test_trusted_arrows_pass_the_checks(name, shape):
    # the builders skip the constructor's shape checks; rebuilding every
    # arrow through it, and checking naturality, must both pass
    for p in (2, 3):
        coll = BUILDERS[name](Poset.grid(*shape), p)
        for a, b in coll.index.covers:
            f = coll.arrow(a, b)
            assert f.source is coll.obj(b) and f.target is coll.obj(a)
            assert NatTransformation(f.source, f.target, enumerate(f.comps)) == f
            f.check()


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2)])
def test_builder_arrows_store_exactly_the_overlap(name, shape):
    base = Poset.grid(*shape)
    coll = BUILDERS[name](base, 3)
    for a, b in coll.index.covers:
        f = coll.arrow(a, b)
        overlap = f.source.support_bits & f.target.support_bits
        assert f._comps == dict.fromkeys(
            bit_elements(overlap), Matrix.identity(1, 3)
        )


# the claims each builder records on a base
CLAIMS = {
    "lower_hooks": lambda base: {"thin": True, "degeneracy": True},
    "lower_hooks_inf": lambda base: {"thin": True, "degeneracy": True},
    "rectangles_naive": lambda base: {"thin": True,
                                      "degeneracy": base.n < 2},
    "rectangles_grid": lambda base: {"thin": True, "degeneracy": True},
    "single_source_omega0": lambda base: {"thin": True, "degeneracy": True},
    "spreads_omega": lambda base: {},
    "all_subfunctors": lambda base: (
        {"thin": True, "flat": True, "degeneracy": True}
        if len(base.max_elements(frozenset(range(base.n)))) == 1 else {}
    ),
    "translated": lambda base: {"thin": True, "flat": True,
                                "degeneracy": True},
}
GRID_ONLY = ("rectangles_grid", "translated")
BOUNDED = ("single_source_omega0", "spreads_omega", "all_subfunctors")


def _oracle_cases():
    rng = np.random.default_rng(21)
    rand = [random_semilattice(rng, Poset.grid(3, 2), k) for k in (3, 4, 5)]
    for name in sorted(BUILDERS):
        for shape in [(1, 2), (2, 2), (3, 2), (1, 3), (5, 2)]:
            if shape != (5, 2) or name not in BOUNDED:
                yield pytest.param(name, Poset.grid(*shape),
                                   id=f"{name}-grid{shape[0]}x{shape[1]}")
        if name not in GRID_ONLY:
            for i, base in enumerate(rand):
                yield pytest.param(name, base, id=f"{name}-rand{i}")


@pytest.mark.parametrize("name, base", _oracle_cases())
def test_builders_match_the_checked_assembly(name, base):
    # the index a builder states in its own order is the one from_covers
    # checks and orders, and the arrows read off support bits are the
    # ones read off member dims
    coll = BUILDERS[name](base, 2)
    want = oracle_indicator_collection(coll)
    assert coll == want
    assert json.dumps(coll.to_json()) == json.dumps(want.to_json())
    assert coll.index.names == want.index.names
    assert coll.index.covers == want.index.covers
    assert coll.claims == CLAIMS[name](base)


def test_slots_out_of_order_are_refused(monkeypatch):
    # two slots listed against the pair order: the index constructor
    # refuses the cover between them instead of reordering
    from relbetti import collections as builders

    def swapped(base):
        slots = real(base)
        slots[0], slots[1] = slots[1], slots[0]
        return slots

    real = builders._pair_slots
    monkeypatch.setattr(builders, "_pair_slots", swapped)
    for build in (lower_hooks, lower_hooks_inf, rectangles_naive):
        with pytest.raises(ValueError, match="does not go up"):
            build(chain(2), 2)


class TestSingleton:
    def test_zero_member_gives_empty_diagrams(self):
        base = chain(3)
        coll = singleton(zero_module(base, 2))
        coll.validate()
        rng = np.random.default_rng(5)
        m = random_module(rng, base, 2)
        res = relative_minimal_resolution(coll, m, 3)
        assert res.complete and res.terms == []
        assert relative_betti_diagram(coll, m, 3).entries == {}

    def test_free_singleton_is_flat_with_yoneda_betti(self):
        base = chain(3)
        coll = singleton(free(base, 0, 2))
        assert is_flat(coll)[0]
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_module(rng, base, 2)
            want = {(0, 0): m.dims[0]} if m.dims[0] else {}
            assert relative_betti_diagram(coll, m, 3).entries == want

    def test_doubled_free_member_is_not_thin(self):
        base = chain(2)
        p0 = direct_sum(base, 2, [(free(base, 0, 2), 2)])
        coll = singleton(p0)
        flag, witness = is_thin(coll)
        assert not flag and witness is not None
        assert coll.claims == {}


class TestLowerHooks:
    def test_chain_structure(self):
        coll = lower_hooks(chain(2), 2)
        coll.validate()
        check_all_arrows(coll)
        assert coll.index.names == ("0|0", "0|1", "1|1")
        assert coll.member_is_zero(coll.index.index("0|0"))
        assert coll.member_is_zero(coll.index.index("1|1"))
        assert support_of(coll.obj(coll.index.index("0|1"))) == {0}

    def test_index_matches_raw_product_order(self):
        # cover formula vs the transitive reduction of the full relation;
        # spreads_omega's index is the same pair index over the antichain
        # lattice
        cases = [
            (base, lower_hooks(base, 2))
            for base in [chain(3), Poset.grid(1, 2), Poset.grid(2, 2)]
        ]
        cases.append((antichain_poset(Poset.grid(1, 2)),
                      spreads_omega(Poset.grid(1, 2), 2)))
        for base, coll in cases:
            pairs = [
                (v, w)
                for v in range(base.n)
                for w in range(base.n)
                if base.leq(v, w)
            ]
            names = [f"{base.names[v]}|{base.names[w]}" for v, w in pairs]
            k = len(pairs)
            leq = np.zeros((k, k), dtype=bool)
            for i, (v, w) in enumerate(pairs):
                for j, (v2, w2) in enumerate(pairs):
                    leq[i, j] = base.leq(v, v2) and base.leq(w, w2)
            assert coll.index == Poset.from_order(names, leq)

    def test_diagonal_members_vanish(self):
        base = Poset.grid(2, 2)
        coll = lower_hooks(base, 2)
        for v in range(base.n):
            nm = f"{base.names[v]}|{base.names[v]}"
            assert coll.member_is_zero(coll.index.index(nm))

    def test_hom_dims_equal_transition_kernels(self):
        base = Poset.grid(1, 2)
        coll = lower_hooks(base, 5)
        rng = np.random.default_rng(7)
        for _ in range(8):
            m = random_module(rng, base, 5)
            nm = nat_module(coll, m)
            for i, name in enumerate(coll.index.names):
                va, wa = name.split("|")
                v, w = base.index(va), base.index(wa)
                if v == w:
                    assert nm.dims[i] == 0
                    continue
                assert nm.dims[i] == inter_kernel_dim(m, v, [w])

    def test_claims_match_honest_checks_small(self):
        for base in [chain(2), chain(3), Poset.grid(1, 2)]:
            coll = lower_hooks(base, 2)
            assert coll.claims == {"thin": True, "degeneracy": True}
            assert is_thin(coll)[0]
            assert degeneracy_hypothesis(coll)[0]

    def test_not_semilattice_rejected(self):
        with pytest.raises(NotSemilattice):
            lower_hooks(vee(), 2)

    def test_staircase_multiplicities_on_big_grid(self):
        # frozen table: three degree-0 hooks at the staircase corners and
        # two degree-1 hooks at their pairwise joins, nothing above
        coll = lower_hooks(Poset.grid(5, 2), 2)
        m0 = m0_demo(2)
        got = by_name(relative_betti_diagram(coll, m0, 2), coll.index)
        assert got == {
            (0, "0,0|0,4"): 1,
            (0, "0,0|3,2"): 1,
            (0, "0,0|4,0"): 1,
            (1, "0,0|3,4"): 1,
            (1, "0,0|4,2"): 1,
        }
        res = relative_minimal_resolution(coll, m0, 2)
        assert res.complete and res.length == 1
        assert by_name(res.multiplicities(), coll.index) == got
        res.check(coll)

    def test_projective_dimension_bound_two_by_two(self):
        base = Poset.grid(1, 2)
        coll = lower_hooks(base, 2)
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = random_module(rng, base, 2)
            assert relative_projective_dimension(coll, m, 4) <= 2


    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 5),
           p=st.sampled_from([2, 3, 5]))
    def test_hom_out_of_a_hook_is_a_kernel(self, seed, k, p):
        # K(v, w) has one generator at v and one vanishing relation at w,
        # so Hom(K(v, w), M) is the kernel of M(v -> w)
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), k)
        coll = lower_hooks(base, p)
        m = random_module(rng, base, p)
        for a, name in enumerate(coll.index.names):
            v, w = (base.index(x) for x in name.split("|"))
            want = m.dims[v] - rank(m.map(v, w))
            assert hom_dim(coll.obj(a), m) == want, name
            assert len(nat_basis(coll.obj(a), m)) == want, name


class TestLowerHooksInf:
    def test_chain_structure(self):
        coll = lower_hooks_inf(chain(2), 2)
        coll.validate()
        check_all_arrows(coll)
        assert coll.index.names == (
            "0|0", "0|1", "1|1", "0|inf", "1|inf", "inf|inf",
        )
        assert coll.obj(coll.index.index("0|inf")) == free(chain(2), 0, 2)
        assert coll.member_is_zero(coll.index.index("inf|inf"))
        # the free slots sit above the hooks with matching source
        j = coll.index
        assert j.leq(j.index("0|1"), j.index("0|inf"))
        assert not j.leq(j.index("0|inf"), j.index("1|inf")) or True
        assert j.leq(j.index("0|inf"), j.index("1|inf"))

    def test_free_slots_have_evaluation_dims(self):
        base = Poset.grid(1, 2)
        coll = lower_hooks_inf(base, 2)
        rng = np.random.default_rng(9)
        for _ in range(6):
            m = random_module(rng, base, 2)
            nm = nat_module(coll, m)
            for v in range(base.n):
                i = coll.index.index(f"{base.names[v]}|inf")
                assert nm.dims[i] == m.dims[v]

    def test_claims_match_honest_checks_small(self):
        for base in [chain(2), chain(3), Poset.grid(1, 2)]:
            coll = lower_hooks_inf(base, 2)
            assert coll.claims == {"thin": True, "degeneracy": True}
            assert is_thin(coll)[0]
            assert degeneracy_hypothesis(coll)[0]

    def test_interval_sequence_fails_hook_exactness(self):
        # 0 -> K_{1} -> K_{0,1} -> K_{0} -> 0 is exact but not exact
        # through the hook at (0,1), and its ranks do not add up
        base = chain(2)
        coll = lower_hooks_inf(base, 2)
        a = one_dim(base, {1})
        b = one_dim(base, {0, 1})
        c = one_dim(base, {0})
        seq = [overlap_nat(a, b), overlap_nat(b, c)]
        assert not is_relative_exact(coll, padded(seq, 2))
        assert module_rank(b) != module_rank(a) + module_rank(c)

    def test_split_sequences_are_exact_and_rank_additive(self):
        base = Poset.grid(1, 2)
        coll = lower_hooks_inf(base, 2)
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = random_module(rng, base, 2)
            c = random_module(rng, base, 2)
            b = direct_sum(base, 2, [(a, 1), (c, 1)])
            incl = NatTransformation(a, b, enumerate([
                Matrix(
                    np.concatenate(
                        [np.eye(a.dims[x], dtype=np.int64),
                         np.zeros((c.dims[x], a.dims[x]), dtype=np.int64)],
                        axis=0,
                    ),
                    2,
                )
                for x in range(base.n)
            ]))
            proj = NatTransformation(b, c, enumerate([
                Matrix(
                    np.concatenate(
                        [np.zeros((c.dims[x], a.dims[x]), dtype=np.int64),
                         np.eye(c.dims[x], dtype=np.int64)],
                        axis=1,
                    ),
                    2,
                )
                for x in range(base.n)
            ]))
            assert is_relative_exact(coll, padded([incl, proj], 2))
            assert module_rank(b) == module_rank(a) + module_rank(c)


class TestRectanglesNaive:
    def test_members_are_closed_boxes(self):
        base = Poset.grid(1, 2)
        coll = rectangles_naive(base, 2)
        coll.validate()
        check_all_arrows(coll)
        for i, name in enumerate(coll.index.names):
            va, wa = name.split("|")
            v, w = base.index(va), base.index(wa)
            box = {x for x in range(base.n)
                   if base.leq(v, x) and base.leq(x, w)}
            assert support_of(coll.obj(i)) == box
            assert not coll.member_is_zero(i)

    def test_degeneracy_claim_tracks_poset_size(self):
        one = chain(1)
        assert rectangles_naive(one, 2).claims == {
            "thin": True, "degeneracy": True,
        }
        two = chain(2)
        coll = rectangles_naive(two, 2)
        assert coll.claims == {"thin": True, "degeneracy": False}
        flag, witness = degeneracy_hypothesis(coll)
        assert not flag and witness is not None
        assert is_thin(coll)[0]

    def test_koszul_gate_requires_force(self):
        base = chain(2)
        coll = rectangles_naive(base, 2)
        m = one_dim(base, {0, 1})
        from relbetti.errors import HypothesisNotVerified
        with pytest.raises(HypothesisNotVerified):
            relative_betti_koszul(coll, m, coll.index.index("0|0"), 2)
        relative_betti_koszul(coll, m, coll.index.index("0|0"), 2, force=True)

    def test_counterexample_box_on_big_grid(self):
        # local Koszul homology reports a phantom degree-1 class at the
        # box [(0,4),(2,4)] even though the honest resolution has none
        coll = rectangles_naive(Poset.grid(5, 2), 2)
        m0 = m0_demo(2)
        a = coll.index.index("0,4|2,4")
        nm = nat_module(coll, m0)
        assert betti_koszul(nm, a, 1) == [0, 1]


class TestPairNameConstraints:
    # index elements are named v|w, and lower_hooks_inf adds v|inf and
    # inf|inf, so base names must leave those unambiguous
    @pytest.mark.parametrize(
        "build", [lower_hooks, rectangles_naive, lower_hooks_inf]
    )
    def test_separator_in_a_base_name_is_refused(self, build):
        base = Poset.from_covers(["a", "x|y"], [("a", "x|y")])
        with pytest.raises(NameClash, match=r"'x\|y'"):
            build(base, 2)

    def test_separator_in_a_base_name_is_refused_by_spreads_omega(self):
        # its index names pair antichain names, which hold the base names
        base = Poset.from_covers(["a", "x|y"], [("a", "x|y")])
        with pytest.raises(NameClash, match=r"'\{x\|y\}'"):
            spreads_omega(base, 2)

    def test_inf_base_name_is_refused_by_lower_hooks_inf(self):
        base = Poset.from_covers(["a", "inf"], [("a", "inf")])
        with pytest.raises(NameClash, match="'inf'"):
            lower_hooks_inf(base, 2)
        # the other pair builders add no inf slot
        assert lower_hooks(base, 2).index.n == 3


class TestRectanglesGrid:
    def test_members_are_half_open_boxes(self):
        coll = rectangles_grid(1, 2, 2)
        base = coll.domain
        coll.validate()
        check_all_arrows(coll)
        for i, name in enumerate(coll.index.names):
            va, wa = name.split("|")
            cv = base.coords[base.index(va)]
            cw = base.coords[base.index(wa)]
            box = {
                x for x in range(base.n)
                if all(cv[t] <= base.coords[x][t] < cw[t]
                       for t in range(len(cv)))
            }
            assert support_of(coll.obj(i)) == box
            assert coll.member_is_zero(i) == any(
                cv[t] == cw[t] for t in range(len(cv))
            )

    def test_hom_dims_equal_common_kernels(self):
        coll = rectangles_grid(1, 2, 5)
        base = coll.domain
        rng = np.random.default_rng(11)
        for _ in range(8):
            m = random_module(rng, base, 5)
            nm = nat_module(coll, m)
            for i, name in enumerate(coll.index.names):
                va, wa = name.split("|")
                v, w = base.index(va), base.index(wa)
                cv, cw = base.coords[v], base.coords[w]
                uppers = []
                for t in range(len(cv)):
                    cu = list(cv)
                    cu[t] = cw[t]
                    uppers.append(base.index(",".join(str(c) for c in cu)))
                if v in uppers:
                    assert nm.dims[i] == 0
                    continue
                assert nm.dims[i] == inter_kernel_dim(m, v, uppers)

    def test_claims_match_honest_checks_small(self):
        for n, r in [(1, 1), (2, 1), (1, 2)]:
            coll = rectangles_grid(n, r, 2)
            assert coll.claims == {"thin": True, "degeneracy": True}
            assert is_thin(coll)[0]
            assert degeneracy_hypothesis(coll)[0]

    def test_staircase_multiplicities_on_big_grid(self):
        # degree 0 settled by hand: the three maximal half-open boxes
        # inside the staircase; the rest is pinned by route agreement
        coll = rectangles_grid(5, 2, 2)
        m0 = m0_demo(2)
        diagram = relative_betti_diagram(coll, m0, 3)
        got = by_name(diagram, coll.index)
        assert got == {
            (0, "0,0|4,4"): 1,
            (0, "0,2|3,4"): 1,
            (0, "3,0|4,2"): 1,
            (1, "0,2|4,4"): 1,
            (1, "3,0|4,4"): 1,
            (2, "3,2|4,4"): 1,
        }
        res = relative_minimal_resolution(coll, m0, 3)
        assert res.complete and res.length == 2
        assert by_name(res.multiplicities(), coll.index) == got


class TestSingleSourceOmega0:
    def test_chain_structure(self):
        coll = single_source_omega0(chain(2), 2)
        coll.validate()
        check_all_arrows(coll)
        assert coll.index.names == (
            "0|{0}", "0|{1}", "0|{}", "1|{1}", "1|{}",
        )
        assert coll.member_is_zero(coll.index.index("0|{0}"))
        assert coll.member_is_zero(coll.index.index("1|{1}"))
        assert support_of(coll.obj(coll.index.index("0|{1}"))) == {0}
        assert support_of(coll.obj(coll.index.index("0|{}"))) == {0, 1}
        assert support_of(coll.obj(coll.index.index("1|{}"))) == {1}

    def test_index_matches_raw_order(self):
        # the pentagon is join-closed but not a grid
        pentagon = Poset.from_covers(
            ["bot", "a", "b", "c", "top"],
            [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"),
             ("c", "top")],
        )
        for base in [chain(3), Poset.grid(1, 2), Poset.grid(2, 2), pentagon]:
            coll = single_source_omega0(base, 2)
            slots = []
            for v in range(base.n):
                ups = [
                    u for u in _upsets_inside(base, base.up(v))
                ]
                for u in ups:
                    slots.append((v, u))
            slots.sort(key=lambda s: (s[0], -len(s[1]), tuple(sorted(s[1]))))
            names = [
                f"{base.names[v]}|"
                f"{antichain_name(base, base.min_elements(u))}"
                for v, u in slots
            ]
            k = len(slots)
            leq = np.zeros((k, k), dtype=bool)
            for i, (v, u) in enumerate(slots):
                for j, (v2, u2) in enumerate(slots):
                    leq[i, j] = base.leq(v, v2) and u >= u2
            assert coll.index == Poset.from_order(names, leq)

    def test_join_formula(self):
        base = Poset.grid(1, 2)
        coll = single_source_omega0(base, 2)
        j = coll.index
        assert j.is_upper_semilattice()
        slots = _slot_table(coll, base)
        for a in range(j.n):
            for b in range(j.n):
                va, ua = slots[a]
                vb, ub = slots[b]
                vj = base.join([va, vb])
                want = _slot_index(coll, base, vj, ua & ub)
                assert j.join([a, b]) == want

    def test_hom_dims_equal_common_kernels(self):
        base = chain(3)
        coll = single_source_omega0(base, 2)
        slots = _slot_table(coll, base)
        rng = np.random.default_rng(12)
        for _ in range(8):
            m = random_module(rng, base, 2)
            nm = nat_module(coll, m)
            for i, (v, u) in enumerate(slots):
                mins = sorted(base.min_elements(u))
                if v in u:
                    assert nm.dims[i] == 0
                    continue
                assert nm.dims[i] == inter_kernel_dim(m, v, mins)

    def test_members_resolve_themselves(self):
        coll = single_source_omega0(Poset.grid(2, 2), 2)
        for a in [
            coll.index.index("0,0|{2,2}"),
            coll.index.index("0,1|{1,2}"),
            coll.index.index("0,0|{}"),
        ]:
            res = relative_minimal_resolution(coll, coll.obj(a), 2)
            assert res.complete and res.length == 0
            assert res.multiplicities().entries == {(0, a): 1}

    def test_claims_match_honest_checks_small(self):
        for base in [chain(2), chain(3), Poset.grid(1, 2)]:
            coll = single_source_omega0(base, 2)
            assert coll.claims == {"thin": True, "degeneracy": True}
            assert is_thin(coll)[0]
            assert degeneracy_hypothesis(coll)[0]

    def test_not_semilattice_rejected(self):
        with pytest.raises(NotSemilattice):
            single_source_omega0(vee(), 2)

    def test_size_bound(self):
        with pytest.raises(SizeBoundExceeded):
            single_source_omega0(Poset.grid(2, 2), 2, max_antichains=10)

    def test_bound_admits_exactly_the_slot_count(self):
        # grid(1, 2) has 14 slots (v, U), the empty upset at each v included
        g = Poset.grid(1, 2)
        assert single_source_omega0(g, 2, max_antichains=14).index.n == 14
        with pytest.raises(SizeBoundExceeded,
                           match="^more than 13 upset slots; "):
            single_source_omega0(g, 2, max_antichains=13)


class TestSpreadsOmega:
    def test_chain_structure(self):
        coll = spreads_omega(chain(2), 2)
        coll.validate()
        check_all_arrows(coll)
        assert coll.index.names == (
            "{0}|{0}", "{0}|{1}", "{0}|{}", "{1}|{1}", "{1}|{}", "{}|{}",
        )
        assert support_of(coll.obj(coll.index.index("{0}|{1}"))) == {0}
        assert support_of(coll.obj(coll.index.index("{0}|{}"))) == {0, 1}
        assert support_of(coll.obj(coll.index.index("{1}|{}"))) == {1}
        for nm in ["{0}|{0}", "{1}|{1}", "{}|{}"]:
            assert coll.member_is_zero(coll.index.index(nm))
        assert coll.claims == {}

    def test_members_are_spreads(self):
        for base in [chain(3), Poset.grid(1, 2)]:
            coll = spreads_omega(base, 2)
            for a in range(coll.index.n):
                if not coll.member_is_zero(a):
                    assert is_spread(coll.obj(a))

    def test_thin_on_small_chains(self):
        for k in [1, 2, 3]:
            coll = spreads_omega(chain(k), 2)
            assert is_thin(coll)[0]

    def test_not_thin_with_incomparable_pair(self):
        for base in [vee(), Poset.grid(1, 2)]:
            flag, witness = is_thin(spreads_omega(base, 2))
            assert not flag and witness is not None

    def test_size_bound(self):
        with pytest.raises(SizeBoundExceeded):
            spreads_omega(Poset.grid(1, 2), 2, max_antichains=4)

    def test_bound_admits_exactly_the_nested_pair_count(self):
        # 6 antichains fit under the bound, so the 20 nested pairs decide
        g = Poset.grid(1, 2)
        assert spreads_omega(g, 2, max_antichains=20).index.n == 20
        with pytest.raises(SizeBoundExceeded,
                           match="^20 nested-pair slots exceed the bound 19$"):
            spreads_omega(g, 2, max_antichains=19)


class TestAllSubfunctors:
    def test_index_is_the_antichain_lattice(self):
        for base in [chain(3), Poset.grid(1, 2), vee()]:
            coll = all_subfunctors(base, 2)
            coll.validate()
            check_all_arrows(coll)
            ap = antichain_poset(base)
            assert coll.index == ap
            for i, s in enumerate(ap.antichains):
                assert support_of(coll.obj(i)) == set(base.upset_of(s))
            # the empty antichain is the top slot and carries zero
            top = ap.index("{}")
            assert coll.member_is_zero(top)

    def test_cover_formula_matches_raw_containment_order(self):
        rng = np.random.default_rng(13)
        posets = [chain(3), Poset.grid(1, 2), vee()]
        from conftest import random_poset_covers
        for _ in range(3):
            names, covers, _ = random_poset_covers(rng, 5)
            posets.append(
                Poset.from_covers(
                    names, [(names[a], names[b]) for a, b in covers]
                )
            )
        for base in posets:
            ap = antichain_poset(base)
            ups = [base.upset_of(s) for s in ap.antichains]
            k = ap.n
            leq = np.zeros((k, k), dtype=bool)
            for i in range(k):
                for j in range(k):
                    leq[i, j] = ups[i] >= ups[j]
            assert ap == Poset.from_order(list(ap.names), leq)

    def test_unique_max_claims_and_honest_checks(self):
        for base in [chain(3), Poset.grid(1, 2)]:
            coll = all_subfunctors(base, 2)
            assert coll.claims == {
                "thin": True, "flat": True, "degeneracy": True,
            }
            assert is_thin(coll)[0]
            assert is_flat(coll)[0]
            assert degeneracy_hypothesis(coll)[0]

    def test_no_unique_max_means_no_claims_and_not_thin(self):
        coll = all_subfunctors(vee(), 2)
        assert coll.claims == {}
        flag, witness = is_thin(coll)
        assert not flag and witness is not None

    def test_staircase_multiplicities_on_big_grid(self):
        # degree 0 settled by hand: the generator at the bottom upset and
        # a second one where the staircase support splits in two
        coll = all_subfunctors(Poset.grid(5, 2), 2)
        m0 = m0_demo(2)
        diagram = relative_betti_diagram(coll, m0, 2)
        got = by_name(diagram, coll.index)
        assert got == {
            (0, "{0,0}"): 1,
            (0, "{0,2;3,0}"): 1,
            (1, "{0,2;4,0}"): 1,
            (1, "{0,4;3,0}"): 1,
        }
        nm = nat_module(coll, m0)
        assert by_name(betti(nm, 2), coll.index) == got


class TestTranslated:
    def test_identity_translation_recovers_standard_betti(self):
        base = Poset.grid(2, 2)
        coll = translated(base, [(0, 0)], 2)
        assert coll.index == base
        for v in range(base.n):
            assert coll.obj(v) == free(base, v, 2)
        rng = np.random.default_rng(14)
        for _ in range(6):
            m = random_module(rng, base, 2)
            assert relative_betti_diagram(coll, m, 3).entries == \
                betti(m, 3).entries

    def test_box_shape_and_parents(self):
        base = Poset.grid(5, 2)
        coll = translated(base, [(0, 2), (1, 0)], 2)
        j = coll.index
        assert j.n == 20
        assert max(c[0] for c in j.coords) == 4
        assert max(c[1] for c in j.coords) == 3
        for i in range(j.n):
            cx = j.coords[i]
            want = set()
            for t in range(2):
                if cx[t] > 0:
                    lower = list(cx)
                    lower[t] -= 1
                    want.add(j.index(",".join(str(c) for c in lower)))
            assert set(j.parents(i)) == want

    def test_members_are_translated_upsets(self):
        base = Poset.grid(2, 2)
        coll = translated(base, [(0, 1), (1, 0)], 2)
        lookup = {c: i for i, c in enumerate(base.coords)}
        for i in range(coll.index.n):
            v = coll.index.coords[i]
            gens = [lookup[(v[0] + 0, v[1] + 1)], lookup[(v[0] + 1, v[1] + 0)]]
            assert coll.obj(i) == from_upset(base, base.upset_of(gens), 2)

    def test_inclusion_order(self):
        base = Poset.grid(2, 2)
        coll = translated(base, [(0, 1), (1, 0)], 2)
        j = coll.index
        for a in range(j.n):
            for b in range(j.n):
                inc = support_of(coll.obj(a)) >= support_of(coll.obj(b))
                assert inc == j.leq(a, b)

    def test_claims_match_honest_checks_small(self):
        coll = translated(Poset.grid(2, 2), [(0, 1), (1, 0)], 2)
        assert coll.claims == {"thin": True, "flat": True, "degeneracy": True}
        assert is_thin(coll)[0]
        assert is_flat(coll)[0]
        assert degeneracy_hypothesis(coll)[0]

    def test_staircase_multiplicities_on_big_grid(self):
        # frozen from the hand computation: two generators, two relation
        # pairs, two second syzygies, total (2, 4, 2)
        coll = translated(Poset.grid(5, 2), [(0, 2), (1, 0)], 2)
        m0 = m0_demo(2)
        diagram = relative_betti_diagram(coll, m0, 3)
        got = by_name(diagram, coll.index)
        assert got == {
            (0, "0,0"): 1,
            (0, "2,0"): 1,
            (1, "2,2"): 2,
            (1, "3,0"): 2,
            (2, "3,2"): 2,
        }
        assert [diagram.total(d) for d in range(3)] == [2, 4, 2]
        nm = nat_module(coll, m0)
        assert by_name(betti(nm, 3), coll.index) == got

    def test_rejects_bad_translation_sets(self):
        base = Poset.grid(2, 2)
        with pytest.raises(ValueError):
            translated(base, [], 2)
        with pytest.raises(ValueError):
            translated(base, [(0, 0), (0, 1)], 2)
        with pytest.raises(ValueError):
            translated(base, [(0, 3)], 2)
        with pytest.raises(ValueError):
            translated(chain(3), [(0,)], 2)


class TestSerialization:
    def test_round_trip(self):
        for coll in [
            lower_hooks(Poset.grid(1, 2), 2),
            single_source_omega0(chain(2), 5),
            translated(Poset.grid(2, 2), [(0, 1), (1, 0)], 2),
        ]:
            blob = coll.to_json()
            again = CollectionFunctor.from_json(blob)
            assert again == coll

    def test_canonical_bytes_are_stable(self):
        a = lower_hooks(Poset.grid(1, 2), 2).to_json()
        b = lower_hooks(Poset.grid(1, 2), 2).to_json()
        ja = json.dumps(a, sort_keys=True, separators=(",", ":"))
        jb = json.dumps(b, sort_keys=True, separators=(",", ":"))
        assert ja == jb


class TestClaimsAgainstHonestChecks:
    """Every recorded claim must agree with the direct computation."""

    def _verify(self, coll):
        checks = {
            "thin": lambda: is_thin(coll)[0],
            "flat": lambda: is_flat(coll)[0],
            "degeneracy": lambda: degeneracy_hypothesis(coll)[0],
        }
        for key, claimed in coll.claims.items():
            assert checks[key]() == claimed, key

    def test_on_random_semilattices(self):
        rng = np.random.default_rng(15)
        ambient = Poset.grid(2, 2)
        for _ in range(6):
            base = random_semilattice(rng, ambient, 4)
            for build in [
                lower_hooks,
                lower_hooks_inf,
                rectangles_naive,
                single_source_omega0,
                all_subfunctors,
            ]:
                self._verify(build(base, 2))

    def test_on_grids(self):
        for n, r in [(1, 2), (2, 1)]:
            self._verify(rectangles_grid(n, r, 2))
            self._verify(
                translated(Poset.grid(n, r), [tuple(0 for _ in range(r))], 2)
            )

    @pytest.mark.parametrize("build", [
        lower_hooks,
        lower_hooks_inf,
        rectangles_naive,
        lambda base, p: rectangles_grid(5, 2, p),
    ], ids=["lower_hooks", "lower_hooks_inf", "rectangles_naive",
            "rectangles_grid"])
    def test_degeneracy_on_m0_base(self, build):
        # the recorded thinness is trusted, as `relbetti check
        # --degeneracy` does; the scan itself is honest
        coll = build(m0_demo().poset, 2)
        claimed = coll.claims["degeneracy"]
        coll.claims = {"thin": coll.claims["thin"]}
        assert degeneracy_hypothesis(coll)[0] == claimed
        # what the scan keeps is per element, never per pair
        bound = max(coll.index.n, len(coll.index.covers), coll.domain.n)
        for name, value in vars(coll).items():
            if isinstance(value, (dict, list, set, tuple)):
                assert len(value) <= bound, name
        assert all(isinstance(z, int) for z in coll._zero_below)

    @pytest.mark.parametrize("build", [
        lower_hooks,
        lower_hooks_inf,
        rectangles_naive,
        lambda base, p: rectangles_grid(5, 2, p),
        lambda base, p: translated(base, [(0, 2), (1, 0)], p),
    ], ids=["lower_hooks", "lower_hooks_inf", "rectangles_naive",
            "rectangles_grid", "translated"])
    def test_every_claim_on_m0_base(self, build):
        """Every recorded claim, checked on m0's grid with the claims
        removed, so that nothing the checks read was recorded: the
        degeneracy scan runs the honest thinness check first.  Two
        builders are left out for their cost on this base:
        all_subfunctors, whose thinness scan alone takes about 40 s, and
        single_source_omega0, whose 3,418 members make 11.7M ordered
        pairs."""
        coll = build(m0_demo().poset, 2)
        claims = coll.claims
        coll.claims = {}
        assert claims
        checks = {
            "thin": is_thin,
            "flat": is_flat,
            "degeneracy": degeneracy_hypothesis,
        }
        for key, claimed in claims.items():
            assert checks[key](coll)[0] == claimed, key

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(min_value=1, max_value=4), p=st.sampled_from([2, 5]))
    def test_hook_members_on_chains(self, k, p):
        coll = lower_hooks(chain(k), p)
        coll.validate()
        for a in range(coll.index.n):
            m = coll.obj(a)
            assert all(d <= 1 for d in m.dims)
        assert is_thin(coll)[0]


def _upsets_inside(base, allowed):
    """All upsets of the base contained in the given upset."""
    allowed = sorted(allowed)
    out = []
    comparable = base.leq_matrix | base.leq_matrix.T

    def extend(current, start):
        for i in range(start, len(allowed)):
            e = allowed[i]
            if all(not comparable[x, e] for x in current):
                nxt = current + [e]
                out.append(frozenset(nxt))
                extend(nxt, i + 1)

    extend([], 0)
    return [base.upset_of(s) for s in out] + [frozenset()]


def _slot_table(coll, base):
    slots = []
    for name in coll.index.names:
        vn, _, un = name.partition("|")
        v = base.index(vn)
        inner = un.strip("{}")
        if inner:
            mins = [base.index(x) for x in inner.split(";")]
            slots.append((v, base.upset_of(mins)))
        else:
            slots.append((v, frozenset()))
    return slots


def _slot_index(coll, base, v, u):
    name = f"{base.names[v]}|{antichain_name(base, base.min_elements(u))}"
    return coll.index.index(name)

import hashlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    base_change,
    hook_hom_dim,
    hook_pair_hom_dim,
    indicator_hom_dim,
    koszul_key,
    longest_chain,
    oracle_cokernel,
    oracle_coords,
    oracle_image,
    oracle_kernel,
    oracle_koszul,
    oracle_koszul_table,
    oracle_nat_basis,
    oracle_quotient,
    random_free_map,
    random_interval_sum,
    random_module,
    random_poset_covers,
    random_semilattice,
    reindexed,
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
    FunctorialityViolation,
    MeetHypothesisFailed,
    NotSemilattice,
    NotSubfunctor,
)
from relbetti.fieldlin import Matrix, hstack, rank, solve
from relbetti.pmod import (
    BettiDiagram,
    PersistenceModule,
    constant,
    direct_sum,
    free,
    free_on,
    from_upset,
    indicator,
    m0_demo,
    radical,
    validate,
    zero_module,
)
from relbetti.homalg import (
    NatTransformation,
    Resolution,
    betti,
    betti_koszul,
    cokernel,
    free_nat,
    generator_elements,
    global_koszul,
    hom_basis,
    hom_dim,
    identity_nat,
    image,
    is_exact,
    kernel,
    koszul,
    koszul_betti_diagram,
    koszul_table,
    minimal_cover,
    minimal_resolution,
    nat_basis,
    section_of,
    zero_nat,
)
from relbetti.homalg import _indicator_support, _presentation
from relbetti.poset import Poset, bit_elements
from relbetti.relative import _gather
import relbetti.homalg as homalg


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


def bowtie():
    # two incomparable minima under two incomparable middles under one top:
    # {x, y} is bounded below but has no meet
    return Poset.from_covers(
        ["b1", "b2", "x", "y", "top"],
        [("b1", "x"), ("b1", "y"), ("b2", "x"), ("b2", "y"),
         ("x", "top"), ("y", "top")],
    )


class TestNatTransformation:
    def test_shape_validation(self):
        p = chain(2)
        f = free(p, 0, 2)
        with pytest.raises(ValueError):
            NatTransformation(
                f, f, enumerate([Matrix.zeros(2, 1, 2), Matrix.zeros(1, 1, 2)])
            )

    def test_stored_zero_equals_omitted_one(self):
        m = constant(chain(2), 3)
        one, zero = Matrix([[1]], 3), Matrix.zeros(1, 1, 3)
        stored = NatTransformation(m, m, {0: one, 1: zero})
        omitted = NatTransformation(m, m, {0: one})
        assert list(stored._comps) == [0, 1] and list(omitted._comps) == [0]
        assert stored == omitted and omitted == stored
        assert stored.comps == omitted.comps == (one, zero)
        zeros = NatTransformation(m, m, {0: zero, 1: zero})
        assert zeros == zero_nat(m, m) and zeros.is_zero()
        assert zeros != omitted and not omitted.is_zero()

    @pytest.mark.parametrize("key", [2, -1, "0", 0.5, None])
    def test_key_outside_the_poset_refused(self, key):
        m = constant(chain(2), 3)
        with pytest.raises(ValueError, match="is not an element"):
            NatTransformation(m, m, {key: Matrix([[1]], 3)})

    def test_shape_checked_at_zero_fibers(self):
        # checked although a component there would not be stored
        p = chain(2)
        m = free(p, 1, 2)
        with pytest.raises(ValueError, match="component at '0' has shape 1x1"):
            NatTransformation(m, m, {0: Matrix([[1]], 2)})
        with pytest.raises(ValueError, match="modulus"):
            NatTransformation(m, m, {1: Matrix([[1]], 3)})

    def test_positional_list_refused(self):
        m = constant(chain(2), 3)
        with pytest.raises(TypeError):
            NatTransformation(m, m, [Matrix([[1]], 3), Matrix([[1]], 3)])

    def test_naturality_checked(self):
        p = chain(2)
        src = constant(p, 3)
        dst = free(p, 0, 3)
        # scaling by different constants at the two elements is not natural
        with pytest.raises(ValueError):
            NatTransformation(
                src, dst, enumerate([Matrix([[1]], 3), Matrix([[2]], 3)])
            ).check()

    def test_compose_and_identity(self):
        p = diamond()
        m = constant(p, 5)
        assert identity_nat(m) @ identity_nat(m) == identity_nat(m)

    def test_epi_mono_flags(self):
        p = chain(2)
        m = constant(p, 2)
        i = identity_nat(m)
        assert i.is_epi() and i.is_mono()
        z = zero_nat(m, m)
        assert not z.is_epi() and not z.is_mono()
        assert zero_nat(zero_module(p, 2), m).is_mono()


class TestNatBasis:
    def test_yoneda_dimension(self):
        g = Poset.grid(2, 2)
        rng = np.random.default_rng(11)
        m = random_module(rng, g, 2)
        for a in range(g.n):
            assert len(nat_basis(free(g, a, 2), m)) == m.dims[a]

    def test_yoneda_between_frees(self):
        p = diamond()
        for a in range(p.n):
            for b in range(p.n):
                want = 1 if p.leq(b, a) else 0
                assert len(nat_basis(free(p, a, 2), free(p, b, 2))) == want

    def test_target_zero(self):
        p = chain(3)
        assert nat_basis(constant(p, 2), zero_module(p, 2)) == []

    def test_incomparable_supports(self):
        p = diamond()
        fx = free(p, p.index("x"), 2)
        fy = free(p, p.index("y"), 2)
        assert len(nat_basis(fx, fy)) == 0

    def test_basis_elements_natural_and_independent(self):
        p = diamond()
        rng = np.random.default_rng(5)
        m = random_module(rng, p, 5)
        mm = random_module(rng, p, 5)
        basis = nat_basis(m, mm)
        for f in basis:
            f.check()
        flat = [
            np.concatenate([c.a.ravel() for c in f.comps] or [np.zeros(0)])
            for f in basis
        ]
        if flat:
            stacked = Matrix(np.stack(flat, axis=1), 5)
            assert rank(stacked) == len(basis)

    def test_deterministic(self):
        p = diamond()
        m = constant(p, 2)
        b1 = nat_basis(m, m)
        b2 = nat_basis(m, m)
        assert b1 == b2


class TestKernelCokernel:
    def test_kernel_of_identity(self):
        p = diamond()
        m = constant(p, 2)
        k, incl = kernel(identity_nat(m))
        assert sum(k.dims) == 0
        assert incl.source is k and incl.target is m

    def test_kernel_of_projection_to_h0(self):
        p = chain(3)
        m = constant(p, 2)
        h = PersistenceModule(p, 2, [1, 0, 0], {})
        proj = NatTransformation(
            m, h, enumerate(
                [Matrix([[1]], 2), Matrix.zeros(0, 1, 2), Matrix.zeros(0, 1, 2)]
            )
        )
        k, incl = kernel(proj)
        assert k.dims == (0, 1, 1)
        validate(k)
        incl.check()

    def test_cokernel_of_free_inclusion(self):
        p = diamond()
        v, w = p.index("bot"), p.index("top")
        f = free_nat(free(p, w, 2), free(p, v, 2), {(0, 0): 1})
        c, proj, _ = cokernel(f)
        expect = tuple(
            1 if (p.leq(v, i) and not p.leq(w, i)) else 0 for i in range(p.n)
        )
        assert c.dims == expect
        validate(c)
        proj.check()
        assert proj.is_epi()
        assert (proj @ f).is_zero()

    def test_kernel_inclusion_composite_zero(self):
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(3)
        f = random_free_map(rng, g, 5, 2, 2)
        k, incl = kernel(f)
        validate(k)
        incl.check()
        assert (f @ incl).is_zero()
        # pointwise the kernel is the whole nullspace, not a proper piece
        for a in range(g.n):
            assert k.dims[a] == f.source.dims[a] - rank(f.component(a))

    def test_image_module(self):
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(7)
        f = random_free_map(rng, g, 3, 2, 2)
        im, incl = image(f)
        validate(im)
        incl.check()
        for a in range(g.n):
            assert im.dims[a] == rank(f.component(a))

    def test_section_of_epi(self):
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(9)
        f = random_free_map(rng, g, 2, 2, 3)
        c, proj, _ = cokernel(f)
        s = section_of(proj)
        assert proj @ s == identity_nat(c)


class TestMinimalCover:
    def test_free_gives_iso(self):
        p = diamond()
        m = free(p, p.index("x"), 2)
        f = minimal_cover(m)
        assert f.is_epi() and f.is_mono()
        assert f.source.free_generators == (p.index("x"),)

    def test_m0_cover_from_origin(self):
        m = m0_demo(2)
        g = m.poset
        f = minimal_cover(m)
        assert f.source.free_generators == (g.index("0,0"),)
        assert f.is_epi()

    def test_zero_module_cover(self):
        p = chain(2)
        f = minimal_cover(zero_module(p, 2))
        assert sum(f.source.dims) == 0

    def test_cover_of_m0_kernel_support(self):
        m = m0_demo(2)
        g = m.poset
        k, _ = kernel(minimal_cover(m))
        assert sum(k.dims) == 22
        supp = [i for i in range(g.n) if k.dims[i] == 1]
        mins = {g.names[i] for i in g.min_elements(supp)}
        assert mins == {"0,4", "3,2", "4,0"}

    def test_epi_iff_h0_epi(self):
        # surjectivity can be read off after quotienting by the radical
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            tgt = random_module(rng, g, 3)
            fs = nat_basis(free_on(g, [0, int(rng.integers(0, g.n))], 3), tgt)
            if not fs:
                continue
            coef = rng.integers(0, 3, len(fs))
            comps = []
            for a in range(g.n):
                acc = Matrix.zeros(tgt.dims[a], fs[0].source.dims[a], 3)
                for c, fb in zip(coef, fs):
                    acc = acc + fb.component(a).scale(int(c))
                comps.append(acc)
            f = NatTransformation(fs[0].source, tgt, enumerate(comps))
            rad = radical(tgt)
            h0_epi = all(
                rank(hstack([f.component(a), rad[a]]))
                == tgt.dims[a]
                for a in range(g.n)
            )
            assert f.is_epi() == h0_epi

    def test_endomorphisms_over_target_are_isos(self):
        # module on the 2-chain with a zero transition: the cover has a
        # one-parameter endomorphism family over the target, all invertible
        p = chain(2)
        m = PersistenceModule(p, 5, [1, 1], {(0, 1): Matrix.zeros(1, 1, 5)})
        f = minimal_cover(m)
        c0 = f.source
        basis = nat_basis(c0, c0)
        cols = []
        for e in basis:
            cols.append(
                np.concatenate([(f.component(a) @ e.component(a)).a.ravel()
                                for a in range(p.n)])
            )
        target_vec = np.concatenate(
            [f.component(a).a.ravel() for a in range(p.n)]
        )
        a_mat = Matrix(np.stack(cols, axis=1), 5)
        b_mat = Matrix(target_vec.reshape(-1, 1), 5)
        from relbetti.fieldlin import kernel_basis, solve

        part = solve(a_mat, b_mat)
        kb = kernel_basis(a_mat)
        assert kb.cols == 1  # nontrivial family
        count = 0
        for t in range(5):
            coef = (part.a[:, 0] + t * kb.a[:, 0]) % 5
            comps = []
            for a in range(p.n):
                acc = Matrix.zeros(c0.dims[a], c0.dims[a], 5)
                for cc, e in zip(coef, basis):
                    acc = acc + e.component(a).scale(int(cc))
                comps.append(acc)
            endo = NatTransformation(c0, c0, enumerate(comps))
            assert (f @ endo) == f
            assert endo.is_epi() and endo.is_mono()
            count += 1
        assert count == 5


class TestMinimalResolution:
    def test_free_length_zero(self):
        p = diamond()
        r = minimal_resolution(free(p, 0, 2), 5)
        assert r.length == 0 and r.complete and r.minimal
        r.check()

    def test_zero_module_resolves_by_the_empty_chain(self):
        # the chain with no terms, as relative_minimal_resolution gives a
        # module its collection cannot see
        r = minimal_resolution(zero_module(diamond(), 2), 5)
        assert (r.terms, r.generators, r.diffs) == ([], [], [])
        assert r.length == 0 and r.complete and r.minimal
        assert r.multiplicities() == BettiDiagram({})
        r.check()

    def test_m0_betti_golden(self):
        m = m0_demo(2)
        g = m.poset
        r = minimal_resolution(m, 5)
        assert r.length == 2 and r.complete
        r.check()
        b = r.multiplicities()
        expect = BettiDiagram({
            (0, g.index("0,0")): 1,
            (1, g.index("0,4")): 1,
            (1, g.index("4,0")): 1,
            (1, g.index("3,2")): 1,
            (2, g.index("3,4")): 1,
            (2, g.index("4,2")): 1,
        })
        assert b == expect

    def test_two_upset_union(self):
        g = Poset.grid(1, 2)
        u = g.up(g.index("0,1")) | g.up(g.index("1,0"))
        r = minimal_resolution(from_upset(g, u, 2), 4)
        assert r.multiplicities() == BettiDiagram({
            (0, g.index("0,1")): 1,
            (0, g.index("1,0")): 1,
            (1, g.index("1,1")): 1,
        })

    def test_truncation_flag(self):
        m = m0_demo(2)
        r = minimal_resolution(m, 1)
        assert r.length == 1 and not r.complete

    @pytest.mark.parametrize(
        "how", ["missing-top", "zero-augmentation", "zero-middle"]
    )
    def test_check_refuses_a_broken_chain(self, how):
        r = minimal_resolution(m0_demo(2), 5)
        assert r.length == 2 and r.complete
        with pytest.raises(ValueError):
            tampered_chain(r, how).check()

    def test_check_refuses_a_nonzero_composite(self):
        # d2 sends the generator at 3,4 to those at 0,4 and 3,2, and the
        # one at 4,2 to those at 3,2 and 4,0.  Keeping only 0,4 and 4,0
        # keeps every rank, so only the composite d1 d2 shows the fault
        r = minimal_resolution(m0_demo(2), 5)
        g = r.target.poset
        assert [[g.names[x] for x in gens] for gens in r.generators[1:]] == [
            ["0,4", "3,2", "4,0"], ["3,4", "4,2"]
        ]
        bad = free_nat(r.terms[2], r.terms[1], {(0, 0): 1, (2, 1): 1})
        chain = Resolution(r.target, r.terms, r.generators,
                           [*r.diffs[:2], bad], minimal=True, complete=True)
        with pytest.raises(ValueError, match="composite"):
            chain.check()

    def test_check_passes_a_truncated_chain(self):
        r = minimal_resolution(m0_demo(2), 5)
        cut = tampered_chain(r, "truncated")
        assert cut.length == 1 and not cut.complete
        cut.check()

    def test_resolution_is_exact(self):
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_module(rng, g, 2)
            r = minimal_resolution(m, g.n + 1)
            assert r.complete
            r.check()

    def test_euler_characteristic(self):
        m = m0_demo(2)
        g = m.poset
        b = betti(m, 5)
        for x in range(g.n):
            total = 0
            for (d, a), mult in b.items():
                if g.leq(a, x):
                    total += (-1) ** d * mult
            assert total == m.dims[x]


class TestBetti:
    def test_free(self):
        p = diamond()
        a = p.index("y")
        assert betti(free(p, a, 2), 3) == BettiDiagram({(0, a): 1})

    def test_direct_sum_additivity(self):
        p = diamond()
        m = direct_sum(p, 2, [(free(p, 1, 2), 2), (free(p, 3, 2), 1)])
        assert betti(m, 3) == BettiDiagram({(0, 1): 2, (0, 3): 1})

    def test_json_shape(self):
        m = m0_demo(2)
        j = betti(m, 5).to_json(m.poset)
        assert j["betti"][0] == {"at": "0,0", "d": 0, "mult": 1}
        assert len(j["betti"]) == 6


class TestKoszul:
    def test_free_module_homology(self):
        g = Poset.grid(2, 2)
        for b in range(g.n):
            f = free(g, b, 2)
            for a in range(g.n):
                h = koszul(f, a).homology()
                for d, hd in enumerate(h):
                    expect = 1 if (d == 0 and a == b) else 0
                    assert hd == expect, (a, b, d)

    def test_minimal_element_complex(self):
        p = diamond()
        k = koszul(constant(p, 2), p.index("bot"))
        assert k.dims == (1,)
        assert k.homology() == [1]

    def test_m0_at_interior_corner(self):
        m = m0_demo(2)
        g = m.poset
        k = koszul(m, g.index("3,2"))
        assert k.homology() == [0, 1, 0]

    def test_m0_matches_golden_diagram(self):
        m = m0_demo(2)
        g = m.poset
        expect = {
            "0,0": (1, 0, 0),
            "0,4": (0, 1, 0),
            "4,0": (0, 1, 0),
            "3,2": (0, 1, 0),
            "3,4": (0, 0, 1),
            "4,2": (0, 0, 1),
        }
        for name, want in expect.items():
            assert tuple(betti_koszul(m, g.index(name), 2)) == want

    def test_m0_zero_everywhere_else(self):
        m = m0_demo(2)
        g = m.poset
        named = {"0,0", "0,4", "4,0", "3,2", "3,4", "4,2"}
        for a in range(g.n):
            if g.names[a] not in named:
                assert tuple(betti_koszul(m, a, 2)) == (0, 0, 0)

    def test_degree_one_term_is_parent_sum(self):
        m = m0_demo(2)
        g = m.poset
        a = g.index("2,2")
        k = koszul(m, a)
        assert k.dims[1] == sum(m.dims[s] for s in g.parents(a))

    def test_index_sets_recorded(self):
        g = Poset.grid(1, 2)
        k = koszul(constant(g, 2), g.index("1,1"))
        assert k.index_sets[0] == ((),)
        assert len(k.index_sets[1]) == 2
        assert len(k.index_sets[2]) == 1

    def test_meet_hypothesis_failure(self):
        p = bowtie()
        with pytest.raises(MeetHypothesisFailed) as want:
            oracle_koszul(constant(p, 2), p.index("top"))
        with pytest.raises(MeetHypothesisFailed) as got:
            koszul(constant(p, 2), p.index("top"))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("module", [zero_module, constant])
    def test_meet_failure_raised_cold_and_warm(self, module):
        # a failed walk records nothing, so every call walks and raises
        p = bowtie()
        f = module(p, 2)
        top = p.index("top")
        with pytest.raises(MeetHypothesisFailed) as want:
            oracle_koszul(f, top)
        for _ in range(2):
            with pytest.raises(MeetHypothesisFailed) as got:
                betti_koszul(f, top, 2)
            assert str(got.value) == str(want.value)
            for a in range(p.n):
                if a != top:
                    assert betti_koszul(f, a, 2) == (
                        _padded_homology(f, a, 2)
                    )
        with pytest.raises(MeetHypothesisFailed) as got:
            koszul(f, top)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("module", ["zero", "top"])
    def test_vanishing_complexes_skipped_on_a_cold_poset(self, module,
                                                         monkeypatch):
        # a fresh poset has no walk kept; a complex whose terms all vanish
        # is still never assembled, on the first call at an element as on
        # later ones
        g = Poset.grid(2, 2)
        cold = Poset.from_covers(
            g.names, [(g.names[a], g.names[b]) for a, b in g.covers]
        )
        top = cold.index("2,2")
        f = (zero_module(cold, 2) if module == "zero"
             else indicator(cold, [top], 2))
        assembled = []

        def counted(f, a):
            assembled.append(a)
            return koszul(f, a)

        monkeypatch.setattr("relbetti.homalg.koszul", counted)
        for _ in range(2):
            for a in range(cold.n):
                assert betti_koszul(f, a, 2) == _padded_homology(f, a, 2)
        # only the top's complex touches the top
        assert assembled == ([] if module == "zero" else [top, top])

    def test_betti_koszul_pads_and_truncates(self):
        m = m0_demo(2)
        g = m.poset
        assert betti_koszul(m, g.index("0,0"), 5) == [1, 0, 0, 0, 0, 0]
        assert betti_koszul(m, g.index("3,4"), 1) == [0, 0]

    def test_parent_order_invariance(self):
        # m0 reindexed so that 3,2's parents come in every order: koszul
        # assembles the oracle's complex in that order, with the same
        # homology
        m = m0_demo(2)
        a = m.poset.index("3,2")
        base = koszul(m, a).homology()
        for perm in itertools.permutations(m.poset.parents(a)):
            moved, new = reindexed(m, a, perm)
            k = koszul(moved, new[a])
            assert koszul_key(k) == koszul_key(oracle_koszul(m, a, perm), new)
            assert k.homology() == base

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_betti_equals_koszul_random(self, seed):
        # the central equality: resolution route vs Koszul route
        rng = np.random.default_rng(seed)
        ambient = Poset.grid(2, 2)
        j = random_semilattice(rng, ambient)
        p = 2 if seed % 2 == 0 else 5
        m = random_module(rng, j, p)
        dmax = longest_chain(j) + 1
        b = betti(m, dmax)
        for a in range(j.n):
            kos = betti_koszul(m, a, dmax)
            for d in range(dmax + 1):
                assert b.get(d, a) == kos[d], (seed, a, d)

    def test_betti_equals_koszul_wherever_every_walk_succeeds(self):
        # betti --method koszul refuses a poset only where a meet is
        # missing, not where a join is: random covers on 3-11 elements
        # whose every walk succeeds, most of them not upper semilattices
        rng = np.random.default_rng(28)
        drawn = []
        while len(drawn) < 150:
            names, covers, _ = random_poset_covers(
                rng, int(rng.integers(3, 12))
            )
            poset = Poset.from_covers(
                names, [(names[x], names[y]) for x, y in covers]
            )
            try:
                for a in range(poset.n):
                    poset.parent_meets(a)
            except MeetHypothesisFailed:
                continue
            drawn.append(poset)
        for i, poset in enumerate(drawn):
            p = (2, 3, 5)[i % 3]
            if i % 2:
                m = base_change(rng, random_interval_sum(rng, poset, p))
            else:
                m = random_module(rng, poset, p)
            dmax = poset.n + 1
            assert betti(m, dmax) == koszul_betti_diagram(m, dmax), i
        off = sum(not poset.is_upper_semilattice() for poset in drawn)
        assert off >= 100, off


    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_koszul_table_matches_every_element(self, seed):
        # koszul_table visits only the up-closure of the support; read at
        # every requested element the table must be the same
        rng = np.random.default_rng(seed)
        j = random_semilattice(rng, Poset.grid(2, 2))
        p = 2 if seed % 2 == 0 else 5
        m = random_module(rng, j, p)
        dmax = longest_chain(j) + 1
        elements = int(rng.integers(1, 1 << j.n))
        assert koszul_table(m, elements, dmax) == oracle_koszul_table(
            m, elements, dmax
        )

    def test_koszul_table_matches_every_element_on_m0(self):
        # m0's relations sit outside its support
        m = m0_demo(2)
        every = (1 << m.poset.n) - 1
        assert koszul_table(m, every, 4) == oracle_koszul_table(m, every, 4)

    def test_koszul_table_reads_no_padding(self):
        # each complex is read as far as it goes: a dmax far beyond any
        # complex's length gives the table at the poset's size
        m = m0_demo(2)
        every = (1 << m.poset.n) - 1
        assert koszul_table(m, every, 10**20) == koszul_table(
            m, every, m.poset.n
        )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by class and message below
        return exc


def _padded_homology(f, a, dmax):
    """The reference for betti_koszul: the homology of the assembled
    oracle complex in the default order, padded or cut to dmax."""
    k = _outcome(oracle_koszul, f, a)
    if isinstance(k, Exception):
        return k
    h = k.homology()[:dmax + 1]
    return h + [0] * (dmax + 1 - len(h))


def _assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


def _interval_module(rng, poset, p):
    """Indicator of a random interval [x, y]: nonzero on few elements."""
    leq = poset.leq_matrix
    x = int(rng.integers(0, poset.n))
    y = int(rng.choice(np.flatnonzero(leq[x])))
    inside = np.flatnonzero(leq[x] & leq[:, y])
    return indicator(poset, inside, p)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["covers", "semilattice"]),
    p=st.sampled_from([2, 3, 5]),
    module=st.sampled_from(["random", "zero", "sparse"]),
)
def test_koszul_matches_oracle(seed, kind, p, module):
    # random covers include non-lattices; the meet hypothesis fails on
    # about one in nine of them at these sizes.  betti_koszul must give
    # the padded oracle homology on a fresh poset (no walk kept yet),
    # after koszul assembled the complex, and on other modules over the
    # same poset, which then skip the complex wherever they vanish.
    # koszul must give the oracle's complex in the parents' own order
    # and, on a reindexed poset, in a random order of them
    rng = np.random.default_rng(seed)
    if kind == "covers":
        names, covers, _ = random_poset_covers(rng, int(rng.integers(4, 12)))
        poset = Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        )
    else:
        n_seeds = int(rng.integers(2, 6))
        poset = random_semilattice(rng, Poset.grid(3, 2), n_seeds)
    drawn = {
        "random": random_module(rng, poset, p),
        "zero": zero_module(poset, p),
        "sparse": _interval_module(rng, poset, p),
    }
    f = drawn.pop(module)
    others = list(drawn.values())
    dmax = int(rng.integers(0, 4))
    for a in range(poset.n):
        order = tuple(int(x) for x in rng.permutation(poset.parents(a)))
        expect = [_padded_homology(g, a, dmax) for g in [f, *others]]
        assembled_first = bool(rng.integers(0, 2))
        if not assembled_first:
            _assert_same_outcome(
                _outcome(betti_koszul, f, a, dmax), expect[0]
            )
        want = _outcome(oracle_koszul, f, a)
        got = _outcome(koszul, f, a)
        for g, e in zip([f, *others], expect):
            _assert_same_outcome(_outcome(betti_koszul, g, a, dmax), e)
        moved, new = reindexed(f, a, order)
        want_moved = _outcome(oracle_koszul, f, a, order)
        got_moved = _outcome(koszul, moved, new[a])
        if isinstance(want, Exception):
            _assert_same_outcome(got, want)
            _assert_same_outcome(got_moved, want_moved)
            continue
        assert koszul_key(got_moved) == koszul_key(want_moved, new)
        assert got.index_sets == want.index_sets
        assert got.meets == want.meets
        assert got.dims == want.dims
        assert len(got.diffs) == len(want.diffs)
        for g, w in zip(got.diffs, want.diffs):
            assert g.a.dtype == np.int64 and g.p == p
            assert g.a.min(initial=0) >= 0 and g.a.max(initial=0) < p
            assert np.array_equal(g.a, w.a)


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (1, 4)])
def test_koszul_matches_oracle_past_the_last_face(shape):
    # at an element with three or more parents every subset of size 3
    # has faces that drop a parent other than its last; the random posets
    # above rarely have such a subset with a nonzero value at its meet
    poset = Poset.grid(*shape)
    rng = np.random.default_rng(29)
    modules = [constant(poset, 5)]
    modules += [random_module(rng, poset, 5) for _ in range(4)]
    elements = [a for a in range(poset.n) if len(poset.parents(a)) >= 3]
    for f in modules:
        for a in elements:
            got, want = koszul(f, a), oracle_koszul(f, a)
            assert koszul_key(got) == koszul_key(want)


def _zero_one_source(rng, poset, p, kind):
    """A 0/1 module: an indicator on a convex support (the presentation
    read off bitsets), or a source that must take the cover presentation:
    a non-convex support, or a convex one in random fiber bases."""
    leq = poset.leq_matrix
    if kind == "nonconvex":
        inside = np.flatnonzero(rng.random(poset.n) < 0.5)
        m = indicator(poset, inside, p)
        try:
            return validate(m)
        except FunctorialityViolation:
            # all-zero transitions are natural on any support
            return PersistenceModule(poset, p, m.dims, {})
    lo = rng.random(poset.n) < 0.3
    hi = rng.random(poset.n) < 0.3
    convex = leq[lo].any(axis=0) & leq[:, hi].any(axis=1)
    m = indicator(poset, np.flatnonzero(convex), p)
    if kind == "convex":
        return m
    scale = [int(c) for c in rng.integers(1, p, poset.n)]
    maps = {
        (a, b): Matrix([[scale[b] * pow(scale[a], p - 2, p)]], p)
        for a, b in poset.covers
        if m.dims[a] and m.dims[b]
    }
    return PersistenceModule(poset, p, m.dims, maps)


def _hom_source(rng, poset, p, kind):
    if kind == "zero":
        return zero_module(poset, p)
    if kind == "random":
        return random_module(rng, poset, p)
    if kind == "changed":
        # maps that die, in bases whose push-out scalars are not 0 or 1
        return base_change(rng, random_interval_sum(rng, poset, p))
    return _zero_one_source(rng, poset, p, kind)


def _assert_same_basis(got, want, f, g):
    assert len(got) == len(want)
    for phi, psi in zip(got, want):
        assert phi.source is f and phi.target is g
        for c, d in zip(phi.comps, psi.comps):
            assert c.p == d.p and c.a.dtype == np.int64
            assert c.a.shape == d.a.shape and np.array_equal(c.a, d.a)


def _assert_hom_basis_matches(basis, f, g):
    """hom_basis's rows are the basis flattened, component x at
    offs[x]:offs[x + 1]; each free position is its row's last nonzero,
    1 there and 0 in every other row."""
    canon, offs, frees = hom_basis(f, g)
    assert canon.dtype == np.int64
    assert np.diff(offs).tolist() == [
        gd * fd for gd, fd in zip(g.dims, f.dims)
    ]
    want = [np.concatenate([c.a.reshape(-1) for c in phi.comps])
            for phi in basis]
    assert canon.shape == (len(basis), offs[-1])
    assert np.array_equal(canon, np.array(want, dtype=np.int64).reshape(
        len(basis), offs[-1]))
    assert len(frees) == len(basis)
    for i, (x, r, c) in enumerate(frees):
        assert 0 <= r < g.dims[x] and 0 <= c < f.dims[x]
        q = offs[x] + r * f.dims[x] + c
        assert not canon[i, q + 1:].any()
        assert canon[i, q] == 1
        assert np.count_nonzero(canon[:, q]) == 1
    return frees


def _assert_gather_matches(rng, basis, f, g, p):
    frees = _assert_hom_basis_matches(basis, f, g)
    coeffs = rng.integers(0, p, len(basis))
    comps = []
    for x in range(f.poset.n):
        acc = np.zeros((g.dims[x], f.dims[x]), dtype=np.int64)
        for c, phi in zip(coeffs, basis):
            acc = (acc + int(c) * phi.comps[x].a) % p
        comps.append(Matrix(acc, p))
    psi = NatTransformation(f, g, enumerate(comps))
    got = _gather(frees, psi.component)[:, 0]
    assert np.array_equal(got, coeffs)
    assert np.array_equal(got, oracle_coords(basis, psi))


KINDS = ["random", "changed", "convex", "nonconvex", "rebased", "zero"]

# the largest modulus fieldlin admits
P_MAX = (1 << 31) - 1


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["covers", "semilattice"]),
    p=st.sampled_from([2, 3, 5, 7, P_MAX]),
    source=st.sampled_from(KINDS),
    target=st.sampled_from(KINDS),
)
def test_nat_basis_matches_oracle(seed, kind, p, source, target):
    # both directions; random covers include non-lattices
    rng = np.random.default_rng(seed)
    if kind == "covers":
        names, covers, _ = random_poset_covers(rng, int(rng.integers(2, 10)))
        poset = Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        )
    else:
        poset = random_semilattice(rng, Poset.grid(3, 2), int(rng.integers(2, 6)))
    f = _hom_source(rng, poset, p, source)
    g = _hom_source(rng, poset, p, target)
    for a, b in ((f, g), (g, f), (f, f)):
        basis = nat_basis(a, b)
        want = oracle_nat_basis(a, b)
        _assert_same_basis(basis, want, a, b)
        for phi in basis:
            phi.check()
        _assert_gather_matches(rng, want, a, b, p)


def _star(rng, low, tops):
    """A module at p = P_MAX on four elements below one top t, of
    dimension low below and 3 at t, whose maps into t are the given
    matrices, random where None."""
    poset = Poset.from_covers(list("abcdt"), [(x, "t") for x in "abcd"])
    t = poset.index("t")
    maps = {
        (i, t): Matrix(rng.integers(0, P_MAX, (3, low)) if c is None else c,
                       P_MAX)
        for i, c in enumerate(tops)
    }
    return PersistenceModule(poset, P_MAX, (low,) * 4 + (3,), maps)


def test_hom_basis_exact_at_largest_modulus():
    # the cover of f at t is [s^-1 | z], so its section there is s, with
    # every entry p - 1 or p - 2: three push-out terms at t, each a
    # product near p times an image, whose unreduced sum leaves int64
    # when the three images add up to more than about 2p
    near = [[P_MAX - 1, P_MAX - 1, P_MAX - 2],
            [P_MAX - 1, P_MAX - 2, P_MAX - 1],
            [P_MAX - 2, P_MAX - 1, P_MAX - 1]]
    inv = solve(Matrix(near, P_MAX), Matrix.identity(3, P_MAX)).a
    for seed in range(3):
        rng = np.random.default_rng(seed)
        f = _star(rng, 1, [inv[:, :1], inv[:, 1:2], inv[:, 2:], None])
        g = _star(rng, 2, [None] * 4)
        t = f.poset.index("t")
        _, _, pushout, _ = _presentation(f)
        assert [i for i, _ in pushout[t]] == [0, 1, 2]
        assert np.array_equal(np.stack([s for _, s in pushout[t]]), near)
        assert len(oracle_nat_basis(f, g)) == 5
        for a, b in ((f, g), (g, f), (f, f)):
            want = oracle_nat_basis(a, b)
            _assert_same_basis(nat_basis(a, b), want, a, b)
            _assert_hom_basis_matches(want, a, b)
            assert hom_dim(a, b) == len(want)


def test_nat_basis_matches_oracle_on_grid_collections():
    # every member of both 441-member grid(5,2) collections, both ways
    # against the demo module
    m0 = m0_demo(2)
    rng = np.random.default_rng(0)
    for coll in (lower_hooks(m0.poset, 2), rectangles_grid(5, 2, 2)):
        for a in range(coll.index.n):
            x = coll.obj(a)
            for f, g in ((x, m0), (m0, x)):
                want = oracle_nat_basis(f, g)
                _assert_same_basis(nat_basis(f, g), want, f, g)
                _assert_gather_matches(rng, want, f, g, 2)


def _assert_submodule_matches_oracle(take, oracle, f, ambient):
    """take(f), kernel or image, equals its oracle's solved module with
    the same inclusion into ambient, and hands the module no map on a
    cover where either fiber is 0."""
    given = []

    def spy(poset, p, dims, cover_maps):
        given.extend(cover_maps)
        return PersistenceModule(poset, p, dims, cover_maps)

    with mock.patch.object(homalg, "PersistenceModule", spy):
        k, incl = take(f)
    want, bases = oracle(f)
    assert k == want
    assert incl.source is k and incl.target is ambient
    assert incl.comps == tuple(bases)
    assert all(k.dims[a] and k.dims[b] for a, b in given)
    return k


def _assert_kernel_matches_oracle(f):
    return _assert_submodule_matches_oracle(kernel, oracle_kernel, f, f.source)


def _assert_cokernel_matches_oracle(f):
    """cokernel(f) equals oracle_cokernel's module and projection, and
    its section is the identity's columns at the complement coordinates,
    a right inverse of the projection."""
    c, proj, section = cokernel(f)
    want, want_proj = oracle_cokernel(f)
    assert c == want and proj == want_proj
    assert section.source is c and section.target is f.target
    for x, comp in enumerate(f.comps):
        coords = oracle_quotient(comp)[1]
        unit = np.eye(f.target.dims[x], dtype=np.int64)
        assert np.array_equal(section.comps[x].a, unit[:, coords])
        eye = Matrix.identity(c.dims[x], c.p)
        assert proj.comps[x] @ section.comps[x] == eye
    return c


def _random_nat(rng, poset, p, source, target, nat):
    """A random natural map of one of five kinds: a random combination
    of nat_basis, a minimal cover of a sum, a random free map, the zero
    map and the identity."""
    src = _hom_source(rng, poset, p, source)
    tgt = _hom_source(rng, poset, p, target)
    if nat == "cover":
        return minimal_cover(direct_sum(poset, p, [(src, 1), (tgt, 1)]))
    if nat == "free":
        return random_free_map(rng, poset, p, int(rng.integers(1, 4)),
                               int(rng.integers(1, 6)))
    if nat == "zero":
        return zero_nat(src, tgt)
    if nat == "identity":
        return identity_nat(src)
    return _combination(rng, src, tgt, p)


def _combination(rng, src, tgt, p):
    """A random combination of nat_basis(src, tgt)."""
    comps = [
        Matrix.zeros(tgt.dims[a], src.dims[a], p) for a in range(src.poset.n)
    ]
    for phi in nat_basis(src, tgt):
        c = int(rng.integers(0, p))
        comps = [acc + x.scale(c) for acc, x in zip(comps, phi.comps)]
    return NatTransformation(src, tgt, enumerate(comps))


def _random_poset(rng, kind):
    if kind == "covers":
        names, covers, _ = random_poset_covers(rng, int(rng.integers(2, 10)))
        return Poset.from_covers(
            names, [(names[i], names[j]) for i, j in covers]
        )
    return random_semilattice(rng, Poset.grid(3, 2), int(rng.integers(2, 6)))


NAT_KINDS = ["combination", "cover", "free", "zero", "identity"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["covers", "semilattice"]),
    p=st.sampled_from([2, 3, 5, 7]),
    source=st.sampled_from(KINDS),
    target=st.sampled_from(KINDS),
    nat=st.sampled_from(NAT_KINDS),
)
def test_kernel_matches_solve_oracle(seed, kind, p, source, target, nat):
    # a zero map has the full kernel, the identity the zero kernel
    rng = np.random.default_rng(seed)
    f = _random_nat(rng, _random_poset(rng, kind), p, source, target, nat)
    k = _assert_kernel_matches_oracle(f)
    if nat == "zero":
        assert k.dims == f.source.dims
    if nat == "identity":
        assert sum(k.dims) == 0


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["covers", "semilattice"]),
    p=st.sampled_from([2, 3, 5, 7]),
    source=st.sampled_from(KINDS),
    target=st.sampled_from(KINDS),
    nat=st.sampled_from(NAT_KINDS),
)
def test_image_and_cokernel_match_solve_oracles(
    seed, kind, p, source, target, nat
):
    # a zero map has the zero image, the identity the whole target
    rng = np.random.default_rng(seed)
    f = _random_nat(rng, _random_poset(rng, kind), p, source, target, nat)
    im = _assert_submodule_matches_oracle(image, oracle_image, f, f.target)
    c = _assert_cokernel_matches_oracle(f)
    assert [i + q for i, q in zip(im.dims, c.dims)] == list(f.target.dims)
    if nat == "zero":
        assert sum(im.dims) == 0
    if nat == "identity":
        assert im.dims == f.target.dims


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["covers", "semilattice"]),
    p=st.sampled_from([2, 3, 5, 7]),
    source=st.sampled_from(KINDS),
    target=st.sampled_from(KINDS),
    nat=st.sampled_from(NAT_KINDS),
)
def test_components_stored_only_between_nonzero_fibers(
    seed, kind, p, source, target, nat
):
    # rebuilt from its nonzero-fiber components alone, or from every
    # component, a transformation is the same in every reading
    rng = np.random.default_rng(seed)
    poset = _random_poset(rng, kind)
    f = _random_nat(rng, poset, p, source, target, nat)
    both = bit_elements(f.source.support_bits & f.target.support_bits)
    # zero_nat stores nothing, the other kinds every nonzero-fiber element
    assert list(f._comps) == ([] if nat == "zero" else both)
    sparse = NatTransformation(
        f.source, f.target, {x: f.component(x) for x in both}
    )
    dense = NatTransformation(f.source, f.target, enumerate(f.comps))
    assert list(sparse._comps) == list(dense._comps) == both
    after = _combination(rng, f.target, _hom_source(rng, poset, p, target), p)
    before = _combination(rng, _hom_source(rng, poset, p, source), f.source, p)
    assert (after @ f).comps == tuple(
        a @ c for a, c in zip(after.comps, f.comps)
    )
    for g in (sparse, dense):
        assert g == f and f == g
        assert g.comps == f.comps
        assert len(g.comps) == poset.n
        _assert_same_outcome(_outcome(g.check), _outcome(f.check))
        assert g.is_zero() == f.is_zero()
        assert g.is_epi() == f.is_epi()
        assert g.is_mono() == f.is_mono()
        assert after @ g == after @ f
        assert g @ before == f @ before


# sha256 of the canonical JSON of cokernel's module and projection on
# the seeded maps below, frozen from the route that inverted
# [basis | section] at every element; perfbench/gen.py builds its
# std-routes modules as such cokernels, so a drift here moves its digests
COKERNEL_DIGEST = (
    "2ab8a6e264c7218156f6046072d23cf8356ca7d44790fa7cb2de03098c3a81ad"
)


def test_cokernel_bytes_are_frozen():
    rng = np.random.default_rng(2209)
    out = []
    for i in range(80):
        p = (2, 3, 5, 7)[i % 4]
        ambient = Poset.grid(2, 3) if i % 4 == 3 else Poset.grid(3, 2)
        poset = random_semilattice(rng, ambient, int(rng.integers(2, 6)))
        f = random_free_map(rng, poset, p, int(rng.integers(0, 5)),
                            int(rng.integers(0, 6)))
        c, proj, _ = cokernel(f)
        out.append([c.to_json(), [x.tolist() for x in proj.comps]])
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == COKERNEL_DIGEST


def test_spans_on_the_empty_poset():
    empty = Poset.from_covers([], [])
    m = zero_module(empty, 3)
    rng = np.random.default_rng(0)
    for f in (identity_nat(m), random_free_map(rng, empty, 3, 0, 0)):
        assert _assert_kernel_matches_oracle(f).dims == ()
        assert _assert_submodule_matches_oracle(
            image, oracle_image, f, f.target).dims == ()
        assert _assert_cokernel_matches_oracle(f).dims == ()


def test_kernel_matches_solve_oracle_along_m0_resolution():
    # every kernel the minimal resolution of m0 takes
    cur = m0_demo(3)
    while sum(cur.dims):
        cur = _assert_kernel_matches_oracle(minimal_cover(cur))


class TestHomDim:
    """hom_dim reads the rank of nat_basis's relation system; the basis
    is its oracle, and an independent count is the oracle of both: the
    connected components of overlapping supports between indicators,
    the naturality system over all components otherwise."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        k=st.integers(2, 4),
        build=st.sampled_from([
            lower_hooks, lower_hooks_inf, rectangles_naive,
            single_source_omega0, spreads_omega, all_subfunctors,
        ]),
        p=st.sampled_from([2, 3, 5, P_MAX]),
    )
    def test_member_pairs_of_indicator_builders(self, seed, k, build, p):
        rng = np.random.default_rng(seed)
        base = random_semilattice(rng, Poset.grid(2, 2), k)
        coll = build(base, p)
        members = [coll.obj(a) for a in range(coll.index.n)]
        for f in members:
            for g in members:
                dim = hom_dim(f, g)
                assert dim == len(nat_basis(f, g))
                assert dim == indicator_hom_dim(f, g)

    def test_lower_hooks_against_hook_oracle(self):
        # Hom out of the hook at v|w is the kernel of m(v -> w), read off
        # m's own map with no relation system; criterion 3's modules
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: lower_hooks(g, p) for p in (2, 5)}
        up = g.up_bits()
        pairs = 0
        for i in range(10):
            p = 2 if i % 2 == 0 else 5
            m = random_module(rng, g, p)
            coll = colls[p]
            for a, name in enumerate(coll.index.names):
                v, w = (g.index(x) for x in name.split("|"))
                hook = coll.obj(a)
                assert hook.support_bits == up[v] & ~up[w]
                want = hook_hom_dim(m, hook.support_bits)
                assert hom_dim(hook, m) == want
                assert len(nat_basis(hook, m)) == want
                pairs += 1
        assert pairs == 1000

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 3)])
    def test_lower_hook_pairs_against_closed_form(self, shape):
        # Hom between two hooks read off their supports alone, on every
        # ordered pair of members
        coll = lower_hooks(Poset.grid(*shape), 2)
        members = [coll.obj(a) for a in range(coll.index.n)]
        for f in members:
            for g in members:
                assert hom_dim(f, g) == hook_pair_hom_dim(
                    coll.domain, f.support_bits, g.support_bits
                )

    def test_rectangles_against_hook_oracle(self):
        # Hom out of the box [v, w) is the kernel of m's maps from v to
        # the minimal elements above v outside the box; criterion 3's
        # modules
        g = Poset.grid(3, 2)
        rng = np.random.default_rng(33)
        colls = {p: rectangles_grid(3, 2, p) for p in (2, 5)}
        nonzero = bit_elements(colls[2]._nonzero)
        for i in range(50):
            p = 2 if i % 2 == 0 else 5
            m = random_module(rng, g, p)
            for a in nonzero:
                box = colls[p].obj(a)
                assert hom_dim(box, m) == hook_hom_dim(m, box.support_bits)
        assert len(nonzero) == 36
        # and every box of the demo module's grid against it
        m0 = m0_demo(2)
        coll = rectangles_grid(5, 2, 2)
        dims = [hom_dim(coll.obj(a), m0) for a in range(coll.index.n)]
        assert dims == [
            hook_hom_dim(m0, coll.obj(a).support_bits)
            for a in range(coll.index.n)
        ]
        assert sum(dims) > 0

    def test_rectangle_pairs_against_closed_form(self):
        # the closed form between lower hooks holds between boxes, which
        # are convex with one minimum too
        coll = rectangles_grid(3, 2, 2)
        members = [coll.obj(a) for a in range(coll.index.n)]
        for f in members:
            for g in members:
                assert hom_dim(f, g) == hook_pair_hom_dim(
                    coll.domain, f.support_bits, g.support_bits
                )

    def test_builds_no_stacked_transitions(self):
        # hom_dim stops at the relation system: a target it is asked
        # about gets no maps_from stack, which only hom_basis's push-out
        # pays for
        coll = lower_hooks(Poset.grid(3, 2), 2)
        members = [coll.obj(a) for a in range(coll.index.n)]
        for f in members:
            for g in members:
                hom_dim(f, g)
        assert all(not g._stacks for g in members)
        g = next(m for m in members if m.support_bits)
        assert len(nat_basis(g, g)) == 1 and g._stacks

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["covers", "semilattice"]),
        p=st.sampled_from([2, 3, 5, P_MAX]),
        source=st.sampled_from(["random", "changed"]),
        target=st.sampled_from(KINDS),
    )
    def test_cover_presentations(self, seed, kind, p, source, target):
        rng = np.random.default_rng(seed)
        if kind == "covers":
            names, covers, _ = random_poset_covers(
                rng, int(rng.integers(2, 8))
            )
            poset = Poset.from_covers(
                names, [(names[i], names[j]) for i, j in covers]
            )
        else:
            poset = random_semilattice(
                rng, Poset.grid(3, 2), int(rng.integers(2, 6))
            )
        f = _hom_source(rng, poset, p, source)
        while _indicator_support(f) is not None:
            f = _hom_source(rng, poset, p, source)
        g = _hom_source(rng, poset, p, target)
        for a, b in ((f, g), (g, f), (f, f)):
            dim = hom_dim(a, b)
            assert dim == len(nat_basis(a, b))
            assert dim == len(oracle_nat_basis(a, b))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["covers", "semilattice"]),
    )
    def test_base_changed_sums_at_largest_modulus(self, seed, kind):
        # every interval twice, in random fiber bases: a fiber of
        # dimension d pushes out through up to d section terms with
        # entries up to p - 1, whose products at p = P_MAX come near p**2,
        # so a sum of five or more of them left unreduced leaves int64
        rng = np.random.default_rng(seed)
        poset = _random_poset(rng, kind)
        twice = direct_sum(
            poset, P_MAX, [(random_interval_sum(rng, poset, P_MAX), 2)]
        )
        f = base_change(rng, twice)
        g = _hom_source(rng, poset, P_MAX, "changed")
        for a, b in ((f, g), (g, f), (f, f)):
            want = oracle_nat_basis(a, b)
            _assert_same_basis(nat_basis(a, b), want, a, b)
            assert hom_dim(a, b) == len(want)

    def test_zero_when_target_vanishes_at_generators(self):
        p = diamond()
        fx = free(p, p.index("x"), 2)
        assert generator_elements(fx) == [p.index("x")]
        # y's free module lives on {y, top}: nonzero, but not at x
        fy = free(p, p.index("y"), 2)
        assert hom_dim(fx, fy) == 0
        assert hom_dim(fy, fx) == 0
        assert hom_dim(fx, fx) == 1
        assert hom_dim(constant(p, 2), zero_module(p, 2)) == 0

    def test_generator_elements_of_a_cover_presentation(self):
        p = diamond()
        f = direct_sum(p, 2, [(free(p, p.index("x"), 2), 2),
                              (free(p, p.index("y"), 2), 1)])
        assert _indicator_support(f) is None
        assert generator_elements(f) == [p.index("x"), p.index("y")]


class TestGlobalKoszul:
    def test_single_generator(self):
        g = Poset.grid(1, 2)
        a = g.index("1,0")
        r = global_koszul(free(g, a, 2))
        assert r.length == 0
        assert not r.minimal
        r.check()

    def test_two_generators(self):
        g = Poset.grid(1, 2)
        s, t = g.index("0,1"), g.index("1,0")
        f = from_upset(g, g.up(s) | g.up(t), 2)
        r = global_koszul(f)
        assert r.length == 1
        assert r.terms[0].free_generators == (s, t)
        assert r.terms[1].free_generators == (g.index("1,1"),)
        r.check()

    def test_exactness_random_antichains(self):
        g = Poset.grid(2, 2)
        rng = np.random.default_rng(13)
        for _ in range(10):
            seeds = {int(x) for x in rng.choice(g.n, 3, replace=False)}
            mins = g.min_elements(seeds)
            f = from_upset(g, g.upset_of(mins), 2)
            r = global_koszul(f)
            r.check()

    def test_not_semilattice(self):
        p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])
        with pytest.raises(NotSemilattice):
            global_koszul(constant(p, 2))

    def test_not_subfunctor(self):
        g = Poset.grid(1, 2)
        m = direct_sum(g, 2, [(free(g, 0, 2), 2)])
        with pytest.raises(NotSubfunctor):
            global_koszul(m)

    def test_nonminimal_example_has_extra_terms(self):
        # three pairwise-joinable generators produce a length-2 complex even
        # when the minimal resolution stops earlier
        g = Poset.grid(1, 2)
        f = constant(g, 2)
        r = global_koszul(f)
        assert r.length == 0 or r.length >= minimal_resolution(f, 4).length


class TestIsExact:
    def test_identity_padded(self):
        p = chain(2)
        m = constant(p, 2)
        z = zero_module(p, 2)
        assert is_exact([zero_nat(z, m), identity_nat(m)])

    def test_ses_from_image(self):
        g = Poset.grid(1, 2)
        rng = np.random.default_rng(19)
        f = random_free_map(rng, g, 2, 2, 2)
        im, incl = image(f)
        c, proj, _ = cokernel(incl)
        z = zero_module(g, 2)
        seq = [zero_nat(z, im), incl, proj, zero_nat(c, z)]
        assert is_exact(seq)

    def test_broken_sequence(self):
        p = chain(2)
        m = constant(p, 2)
        z = zero_module(p, 2)
        assert not is_exact([zero_nat(z, m), zero_nat(m, m)])


class TestContainments:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_sublattice_discretization(self, seed):
        rng = np.random.default_rng(seed)
        j = random_semilattice(rng, Poset.grid(2, 2))
        m = random_module(rng, j, 2)
        dmax = longest_chain(j) + 1
        b = betti(m, dmax)
        lower = {a for d in (0, 1) for a in b.degree(d)}
        hull = j.sublattice_closure(lower)
        for (d, a), _ in b.items():
            assert a in hull

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bounded_below_chain(self, seed):
        rng = np.random.default_rng(seed)
        j = random_semilattice(rng, Poset.grid(2, 2))
        m = random_module(rng, j, 2)
        dmax = longest_chain(j) + 1
        b = betti(m, dmax)
        s0 = set(b.degree(0))
        if not s0 or j.meet_bounded(s0) is None:
            return
        hulls = [
            j.sublattice_closure(set(b.degree(d))) for d in range(dmax + 1)
        ]
        for d in range(2, dmax + 1):
            assert hulls[d] <= hulls[d - 1]

    def test_subfunctor_containment(self):
        g = Poset.grid(2, 2)
        rng = np.random.default_rng(23)
        for _ in range(10):
            seeds = {int(x) for x in rng.choice(g.n, 3, replace=False)}
            f = from_upset(g, g.upset_of(seeds), 2)
            b = betti(f, g.n)
            hull = g.sublattice_closure(set(b.degree(0)))
            for (d, a), _ in b.items():
                assert a in hull

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_equal_betti_outside_sub_support(self, seed):
        # short exact sequence: middle and quotient agree wherever the
        # submodule's diagram vanishes in all degrees
        rng = np.random.default_rng(seed)
        j = random_semilattice(rng, Poset.grid(2, 2))
        m = random_module(rng, j, 2)
        f = random_free_map(rng, j, 2, 2, 1)
        maps = nat_basis(f.source, m)
        if not maps:
            return
        g_nat = maps[int(rng.integers(0, len(maps)))]
        im, _ = image(g_nat)
        c, _, _ = cokernel(g_nat)
        dmax = longest_chain(j) + 1
        b_sub = betti(im, dmax)
        b_mid = betti(m, dmax)
        b_quot = betti(c, dmax)
        dead = [
            a for a in range(j.n)
            if all(b_sub.get(d, a) == 0 for d in range(dmax + 1))
        ]
        for a in dead:
            for d in range(dmax + 1):
                assert b_mid.get(d, a) == b_quot.get(d, a), (seed, a, d)


"""Acceptance suite: end-to-end checks over the whole package.

Each test prints an ``ACCEPTANCE n [part]: PASS/FAIL`` line on the real
stdout before asserting, so a plain ``pytest -v`` run shows a verdict per
criterion even when capture is on.  All comparisons are exact: frozen
tables are matched with ``==``, counted properties must hold with zero
violations.

The criterion 4 tables for the rectangle collection on the six-by-six
grid and the full-subfunctor collection are certified by Hom-Euler
additivity, a third check independent of both computation routes: a
complete relative resolution of M is exact under Hom(X, -) for every
member X, so dim Hom(X, M) = sum_d (-1)^d sum_s beta_d(s) dim Hom(X, s).
The certificate test counts those Hom dimensions combinatorially and
records the values these tables once held as rejected, with the members
where they break additivity.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    indicator_hom_dim,
    koszul_key,
    longest_chain,
    oracle_koszul,
    random_free_map,
    random_module,
    random_poset_covers,
    random_semilattice,
    reindexed,
)
from relbetti.collections import (
    all_subfunctors,
    lower_hooks,
    lower_hooks_inf,
    rectangles_grid,
    rectangles_naive,
    single_source_omega0,
    spreads_omega,
    translated,
)
from relbetti.fieldlin import Matrix, rank
from relbetti.homalg import (
    NatTransformation,
    betti,
    cokernel,
    global_koszul,
    identity_nat,
    image,
    koszul,
    koszul_betti_diagram,
    minimal_resolution,
    nat_basis,
    zero_nat,
)
from relbetti.pmod import (
    PersistenceModule,
    direct_sum,
    free,
    from_upset,
    is_filtration,
    m0_demo,
    zero_module,
)
from relbetti.poset import Poset
from relbetti.relative import (
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
    relative_minimal_resolution,
    relative_projective_dimension,
    unit_map,
)

CLI = [sys.executable, "-m", "relbetti.cli"]

_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    # verdict lines bypass capture so they show up under a plain pytest -v
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(n, part, ok):
    tag = f"ACCEPTANCE {n} {part}" if part else f"ACCEPTANCE {n}"
    line = f"\n{tag}: {'PASS' if ok else 'FAIL'}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def check(n, part, ok, detail=""):
    report(n, part, bool(ok))
    assert ok, detail


def check_eq(n, part, got, want):
    ok = got == want
    report(n, part, ok)
    assert ok, f"got {got!r}, want {want!r}"


def named(table, poset):
    return {(d, poset.names[a]): k for (d, a), k in table.items()}


def module_rank(m):
    bot = min(m.poset.min_elements(frozenset(range(m.poset.n))))
    top = max(m.poset.max_elements(frozenset(range(m.poset.n))))
    return rank(m.map(bot, top))


def padded(seq, p):
    poset = seq[0].source.poset
    z = zero_module(poset, p)
    return [zero_nat(z, seq[0].source)] + seq + [zero_nat(seq[-1].target, z)]


def small_semilattice(rng, ambient, max_n=8):
    j = random_semilattice(rng, ambient)
    while j.n > max_n:
        j = random_semilattice(rng, ambient)
    return j


# Frozen tables for the running example: the module on the 6x6 grid
# generated at (0,0) with relations entering at (2,3) and (3,1).

M0_STD = {
    (0, "0,0"): 1,
    (1, "0,4"): 1,
    (1, "3,2"): 1,
    (1, "4,0"): 1,
    (2, "3,4"): 1,
    (2, "4,2"): 1,
}

M0_HOOKS = {
    (0, "0,0|0,4"): 1,
    (0, "0,0|3,2"): 1,
    (0, "0,0|4,0"): 1,
    (1, "0,0|3,4"): 1,
    (1, "0,0|4,2"): 1,
}

RECT_GRID_REFERENCE = {
    (0, "0,0|4,4"): 1,
    (0, "0,2|3,4"): 1,
    (0, "3,0|4,2"): 1,
    (1, "0,2|4,4"): 1,
    (1, "3,0|4,4"): 1,
    (2, "3,2|4,4"): 1,
}

ALL_SUB_REFERENCE = {
    (0, "{0,0}"): 1,
    (0, "{0,2;3,0}"): 1,
    (1, "{0,2;4,0}"): 1,
    (1, "{0,4;3,0}"): 1,
}

# Former reference values for the two tables above.  They are ordinary
# exact sequences, not relative-exact ones, and fail Hom-Euler additivity;
# kept only so the certificate test can show where.
RECT_GRID_REJECTED = {(0, "0,0|4,4"): 1, (1, "3,2|4,4"): 1}

ALL_SUB_REJECTED = {(0, "{0,0}"): 1, (1, "{0,4;3,2;4,0}"): 1}

TRANSLATED_TABLE = {
    (0, "0,0"): 1,
    (0, "2,0"): 1,
    (1, "2,2"): 2,
    (1, "3,0"): 2,
    (2, "3,2"): 2,
}


# --- 1: standard diagram of the running example, both routes -----------


def test_criterion1_resolution_route():
    m = m0_demo(2)
    res = minimal_resolution(m, 6)
    got = named(dict(res.multiplicities().items()), m.poset)
    ok = res.complete and res.multiplicities().max_degree() == 2 and got == M0_STD
    check(1, "resolution-route", ok, f"complete={res.complete} got={got}")


def test_criterion1_koszul_route():
    m = m0_demo(2)
    got = named(koszul_betti_diagram(m, 6), m.poset)
    # equality with the frozen table forces every entry with d >= 3 to be 0
    check_eq(1, "koszul-route", got, M0_STD)


# --- 2: resolution and Koszul agree on random modules ------------------


def test_criterion2_standard_routes_agree():
    rng = np.random.default_rng(2026)
    ambient = Poset.grid(2, 2)
    bad = 0
    for i in range(200):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        m = random_module(rng, j, p)
        dmax = longest_chain(j) + 2
        if betti(m, dmax) != koszul_betti_diagram(m, dmax):
            bad += 1
    check(2, "", bad == 0, f"{bad} of 200 modules disagreed between routes")


# --- 3: relative resolution vs relative Koszul, three collections ------


def _relative_routes_agree(part, builder):
    g = Poset.grid(3, 2)
    rng = np.random.default_rng(33)
    colls = {p: builder(g, p) for p in (2, 5)}
    bad = 0
    for i in range(50):
        p = 2 if i % 2 == 0 else 5
        m = random_module(rng, g, p)
        res = relative_minimal_resolution(colls[p], m, 8)
        kos = relative_betti_diagram(colls[p], m, 8)
        if not (res.complete and res.multiplicities() == kos):
            bad += 1
    check(3, part, bad == 0, f"{bad} of 50 modules disagreed for {part}")


def test_criterion3_lower_hooks():
    _relative_routes_agree("lower-hooks", lower_hooks)


def test_criterion3_single_source():
    _relative_routes_agree("single-source", single_source_omega0)


def test_criterion3_rectangles_grid():
    _relative_routes_agree("rectangles-grid", lambda g, p: rectangles_grid(3, 2, p))


# --- 4: frozen relative diagrams of the running example ----------------


def test_criterion4_lower_hooks_table():
    m = m0_demo(2)
    coll = lower_hooks(m.poset, 2)
    res = relative_minimal_resolution(coll, m, 4)
    via_res = named(dict(res.multiplicities().items()), coll.index)
    via_kos = named(dict(relative_betti_diagram(coll, m, 4).items()), coll.index)
    ok = res.complete and via_res == M0_HOOKS and via_kos == M0_HOOKS
    check(4, "lower-hooks", ok, f"res={via_res} kos={via_kos}")


def test_criterion4_rectangles_grid_table():
    # frozen table certified by Hom-Euler additivity; the certificate test
    # below records the rejected former value and where it breaks
    m = m0_demo(2)
    coll = rectangles_grid(5, 2, 2)
    got = named(dict(relative_betti_diagram(coll, m, 4).items()), coll.index)
    check_eq(4, "rectangles-grid", got, RECT_GRID_REFERENCE)


def test_criterion4_single_source_length():
    m = m0_demo(2)
    coll = single_source_omega0(m.poset, 2)
    res = relative_minimal_resolution(coll, m, 2)
    got = named(dict(res.multiplicities().items()), coll.index)
    want = {(0, "0,0|{0,4;3,2;4,0}"): 1}
    ok = res.complete and res.length == 0 and got == want
    check(4, "single-source", ok, f"length={res.length} got={got}")


def test_criterion4_all_subfunctors_table():
    # frozen table certified by Hom-Euler additivity; the certificate test
    # below records the rejected former value and where it breaks
    m = m0_demo(2)
    coll = all_subfunctors(m.poset, 2)
    got = named(dict(relative_betti_diagram(coll, m, 4).items()), coll.index)
    check_eq(4, "all-subfunctors", got, ALL_SUB_REFERENCE)


def test_criterion4_translated_table():
    m = m0_demo(2)
    coll = translated(m.poset, {(0, 2), (1, 0)}, 2)
    diag = relative_betti_diagram(coll, m, 4)
    got = named(dict(diag.items()), coll.index)
    totals = (diag.total(0), diag.total(1), diag.total(2))
    ok = got == TRANSLATED_TABLE and totals == (2, 4, 2)
    check(4, "translated", ok, f"got={got} totals={totals}")


def _hom_euler_misses(coll, table, hom):
    # nonzero members X at which dim Hom(X, M) differs from the alternating
    # sum of beta_d(s) * dim Hom(X, member s) over the named table
    terms = [((-1) ** d * k, coll.index.index(s)) for (d, s), k in table.items()]
    return [
        coll.index.names[x]
        for x in range(coll.index.n)
        if not coll.member_is_zero(x)
        and hom(x, None) != sum(sign * hom(x, t) for sign, t in terms)
    ]


def test_criterion4_hom_euler_certificate():
    chain = Poset.grid(2, 1)
    for bad in (
        direct_sum(chain, 2, [(free(chain, 0, 2), 2)]),
        PersistenceModule(chain, 2, [1, 0, 1], {}),
        PersistenceModule(chain, 2, [1, 1, 0], {}),
    ):
        with pytest.raises(ValueError, match="not an indicator"):
            indicator_hom_dim(bad, bad)
    m = m0_demo(2)
    # per collection: certified table, rejected table, how many members
    # the rejected one breaks, and a witness member with its Hom dims into
    # the rejected degree 0 and degree 1 members and into M
    cases = [
        ("rectangles-grid", rectangles_grid(5, 2, 2), RECT_GRID_REFERENCE,
         RECT_GRID_REJECTED, 20, "0,2|3,4", (0, 0, 1)),
        ("all-subfunctors", all_subfunctors(m.poset, 2), ALL_SUB_REFERENCE,
         ALL_SUB_REJECTED, 100, "{0,2;3,0}", (1, 0, 2)),
    ]
    for part, coll, certified, rejected, n_broken, witness, dims in cases:
        counted = {}

        def target(t):
            return m if t is None else coll.obj(t)

        def hom(x, t):
            # t is an index element, or None for M itself
            if (x, t) not in counted:
                counted[(x, t)] = indicator_hom_dim(coll.obj(x), target(t))
            return counted[(x, t)]

        breaks = _hom_euler_misses(coll, certified, hom)
        check(4, f"{part}-certified", breaks == [],
              f"certified table breaks additivity at {breaks}")
        breaks = _hom_euler_misses(coll, rejected, hom)
        w = coll.index.index(witness)
        (_, r0), (_, r1) = sorted(rejected)
        got = (hom(w, coll.index.index(r0)), hom(w, coll.index.index(r1)),
               hom(w, None))
        ok = len(breaks) == n_broken and witness in breaks and got == dims
        check(4, f"{part}-rejected", ok,
              f"{len(breaks)} breaks {breaks[:5]}; {witness} Hom dims {got}")
        wrong = [
            (coll.index.names[x], t)
            for (x, t), k in counted.items()
            if len(nat_basis(coll.obj(x), target(t))) != k
        ]
        check(4, f"{part}-oracle", wrong == [],
              f"oracle and nat_basis differ on {len(wrong)} of "
              f"{len(counted)} pairs: {wrong[:5]}")


# --- 5: the Koszul route needs the degeneracy hypothesis ---------------


def test_criterion5_koszul_sees_homology():
    m = m0_demo(2)
    coll = rectangles_naive(m.poset, 2)
    slot = coll.index.index("0,4|2,4")
    got = relative_betti_koszul(coll, m, slot, 1, force=True)
    check_eq(5, "koszul-homology", got, [0, 1])


def test_criterion5_resolution_disagrees():
    m = m0_demo(2)
    coll = rectangles_naive(m.poset, 2)
    slot = coll.index.index("0,4|2,4")
    res = relative_minimal_resolution(coll, m, 1)
    check_eq(5, "resolution-value", res.multiplicities().get(1, slot), 0)


def test_criterion5_degeneracy_fails_with_witness():
    m = m0_demo(2)
    coll = rectangles_naive(m.poset, 2)
    holds, witness = degeneracy_hypothesis(coll)
    check(5, "degeneracy-witness", holds is False and witness is not None,
          f"holds={holds} witness={witness}")


# --- 6: claimed statuses hold, claimed failures fail -------------------


def _unique_max_poset(rng, n):
    while True:
        names, covers, _ = random_poset_covers(rng, n)
        poset = Poset.from_covers(
            names, [(names[a], names[b]) for a, b in covers]
        )
        if len(poset.max_elements(frozenset(range(poset.n)))) == 1:
            return poset


def test_criterion6_all_subfunctors_flat():
    rng = np.random.default_rng(66)
    bad = 0
    for i in range(50):
        p = 2 if i % 2 == 0 else 5
        poset = _unique_max_poset(rng, int(rng.integers(3, 7)))
        if not is_flat(all_subfunctors(poset, p))[0]:
            bad += 1
    check(6, "all-subfunctors-flat", bad == 0, f"{bad} of 50 not flat")


def test_criterion6_single_generator_thin():
    rng = np.random.default_rng(67)
    ambient = Poset.grid(2, 2)
    bad = 0
    for i in range(50):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        for builder in (single_source_omega0, lower_hooks, lower_hooks_inf):
            if not is_thin(builder(j, p))[0]:
                bad += 1
    check(6, "single-generator-thin", bad == 0, f"{bad} collection(s) not thin")


def _poset_with_incomparable_pair(rng, n):
    while True:
        names, covers, leq = random_poset_covers(rng, n)
        for a in range(n):
            for b in range(a + 1, n):
                if not leq[a, b] and not leq[b, a]:
                    return Poset.from_covers(
                        names, [(names[x], names[y]) for x, y in covers]
                    )


def test_criterion6_spreads_not_thin():
    rng = np.random.default_rng(68)
    bad = 0
    for i in range(50):
        p = 2 if i % 2 == 0 else 5
        poset = _poset_with_incomparable_pair(rng, int(rng.integers(4, 7)))
        if is_thin(spreads_omega(poset, p))[0]:
            bad += 1
    check(6, "spreads-not-thin", bad == 0, f"{bad} of 50 unexpectedly thin")


# --- 7: structural theorems on random instances ------------------------


def test_criterion7_adjunction_dims():
    rng = np.random.default_rng(70)
    ambient = Poset.grid(2, 2)
    bad = 0
    for i in range(12):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        coll = lower_hooks(j, p)
        f = random_module(rng, coll.index, p)
        m = random_module(rng, j, p)
        lhs = len(nat_basis(realization(coll, f), m))
        rhs = len(nat_basis(f, nat_module(coll, m)))
        if lhs != rhs:
            bad += 1
    check(7, "adjunction-dims", bad == 0, f"{bad} of 12 dimension mismatches")


def test_criterion7_triangle_identities():
    rng = np.random.default_rng(71)
    ambient = Poset.grid(2, 2)
    bad = 0
    for i in range(8):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        coll = lower_hooks(j, p)
        m = random_module(rng, j, p)
        nm = nat_module(coll, m)
        left = nat_module_map(coll, counit_map(coll, m)) @ unit_map(coll, nm)
        if left != identity_nat(nm):
            bad += 1
        f = random_module(rng, coll.index, p)
        lf = realization(coll, f)
        right = counit_map(coll, lf) @ realization_map(coll, unit_map(coll, f))
        if right != identity_nat(lf):
            bad += 1
    check(7, "triangle-identities", bad == 0, f"{bad} broken identities")


def _order_dependent(m, a, perm, ref):
    """Whether koszul, run on m reindexed so that a's parents come in the
    order perm, differs from the oracle's complex in that order or gives
    other homology than ref."""
    moved, new = reindexed(m, a, perm)
    k = koszul(moved, new[a])
    return (koszul_key(k) != koszul_key(oracle_koszul(m, a, perm), new)
            or k.homology() != ref)


def test_criterion7_koszul_parent_order():
    m = m0_demo(2)
    g = m.poset
    a = g.index("3,2")
    base = koszul(m, a).homology()
    bad = sum(
        _order_dependent(m, a, perm, base)
        for perm in itertools.permutations(g.parents(a))
    )
    rng = np.random.default_rng(72)
    ambient = Poset.grid(2, 2)
    for i in range(5):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        mm = random_module(rng, j, p)
        for v in range(j.n):
            parents = list(j.parents(v))
            if len(parents) < 2:
                continue
            ref = koszul(mm, v).homology()
            for _ in range(3):
                rng.shuffle(parents)
                bad += _order_dependent(mm, v, parents, ref)
    check(7, "koszul-parent-order", bad == 0, f"{bad} order-dependent results")


def test_criterion7_equal_betti_outside_sub_support():
    rng = np.random.default_rng(73)
    ambient = Poset.grid(2, 2)
    bad = 0
    checked = 0
    for i in range(25):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        m = random_module(rng, j, p)
        f = random_free_map(rng, j, p, 2, 1)
        maps = nat_basis(f.source, m)
        if not maps:
            continue
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
        if dead:
            checked += 1
        for a in dead:
            for d in range(dmax + 1):
                if b_mid.get(d, a) != b_quot.get(d, a):
                    bad += 1
    ok = bad == 0 and checked >= 5
    check(7, "equal-betti", ok, f"{bad} mismatches over {checked} instances")


def test_criterion7_sublattice_discretization():
    rng = np.random.default_rng(74)
    ambient = Poset.grid(2, 2)
    bad = 0
    for i in range(25):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        m = random_module(rng, j, p)
        dmax = longest_chain(j) + 1
        b = betti(m, dmax)
        lower = {a for d in (0, 1) for a in b.degree(d)}
        hull = j.sublattice_closure(lower)
        bad += sum(a not in hull for (d, a), _ in b.items())
    check(7, "sublattice-discretization", bad == 0, f"{bad} entries escaped")


def test_criterion7_bounded_below_containments():
    rng = np.random.default_rng(75)
    ambient = Poset.grid(2, 2)
    bad = 0
    checked = 0
    for i in range(25):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        m = random_module(rng, j, p)
        dmax = longest_chain(j) + 1
        b = betti(m, dmax)
        s0 = set(b.degree(0))
        if not s0 or j.meet_bounded(s0) is None:
            continue
        checked += 1
        hulls = [j.sublattice_closure(set(b.degree(d))) for d in range(dmax + 1)]
        bad += sum(not hulls[d] <= hulls[d - 1] for d in range(2, dmax + 1))
    ok = bad == 0 and checked >= 5
    check(7, "bounded-below", ok, f"{bad} breaks over {checked} instances")


def test_criterion7_filtration_containments():
    # images of maps into free modules have injective transitions, so
    # they are filtrations; targets built on one generator force the
    # degree 0 support to be bounded below
    rng = np.random.default_rng(76)
    ambient = Poset.grid(2, 2)
    bad = 0
    checked = 0
    for i in range(25):
        p = 2 if i % 2 == 0 else 5
        j = small_semilattice(rng, ambient)
        if i % 5 == 0:
            f = random_free_map(rng, j, p, 2, 2)
            pick = f
        else:
            b = int(rng.integers(0, j.n))
            tgt = direct_sum(j, p, [(free(j, b, p), 2)])
            src = random_free_map(rng, j, p, 1, 2).source
            maps = nat_basis(src, tgt)
            if not maps:
                continue
            pick = maps[int(rng.integers(0, len(maps)))]
        im, _ = image(pick)
        if not is_filtration(im):
            bad += 1
            continue
        dmax = longest_chain(j) + 1
        diag = betti(im, dmax)
        s0 = set(diag.degree(0))
        if not s0 or j.meet_bounded(s0) is None:
            continue
        checked += 1
        hulls = [j.sublattice_closure(set(diag.degree(d))) for d in range(dmax + 1)]
        # the chain holds from degree 0 up for filtrations
        bad += sum(not hulls[d] <= hulls[d - 1] for d in range(1, dmax + 1))
    ok = bad == 0 and checked >= 8
    check(7, "filtration-chain", ok, f"{bad} breaks over {checked} instances")


def test_criterion7_subfunctor_containments():
    rng = np.random.default_rng(77)
    g = Poset.grid(2, 2)
    bad = 0
    for i in range(10):
        p = 2 if i % 2 == 0 else 5
        seeds = {int(x) for x in rng.choice(g.n, 3, replace=False)}
        f = from_upset(g, g.upset_of(seeds), p)
        b = betti(f, g.n)
        hull = g.sublattice_closure(set(b.degree(0)))
        bad += sum(a not in hull for (d, a), _ in b.items())
    check(7, "subfunctor-containments", bad == 0, f"{bad} entries escaped")


def test_criterion7_global_koszul_exact():
    rng = np.random.default_rng(78)
    g = Poset.grid(2, 2)
    bad = 0
    for i in range(15):
        p = 2 if i % 2 == 0 else 5
        seeds = {int(x) for x in rng.choice(g.n, int(rng.integers(1, 4)), replace=False)}
        f = from_upset(g, g.upset_of(seeds), p)
        r = global_koszul(f)
        try:
            r.check()
        except ValueError:
            bad += 1
    check(7, "global-koszul-exact", bad == 0, f"{bad} of 15 complexes not exact")


def _split_sequence(rng, base, p):
    a = random_module(rng, base, p)
    c = random_module(rng, base, p)
    b = direct_sum(base, p, [(a, 1), (c, 1)])
    incl = NatTransformation(a, b, enumerate([
        Matrix(
            np.concatenate(
                [np.eye(a.dims[x], dtype=np.int64),
                 np.zeros((c.dims[x], a.dims[x]), dtype=np.int64)],
                axis=0,
            ),
            p,
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
            p,
        )
        for x in range(base.n)
    ]))
    return a, b, c, [incl, proj]


def test_criterion7_rank_additivity():
    rng = np.random.default_rng(79)
    base = Poset.grid(1, 2)
    colls = {p: lower_hooks_inf(base, p) for p in (2, 5)}
    bad = 0
    checked = 0
    for i in range(10):
        p = 2 if i % 2 == 0 else 5
        a, b, c, seq = _split_sequence(rng, base, p)
        if not is_relative_exact(colls[p], padded(seq, p)):
            bad += 1
            continue
        checked += 1
        if module_rank(b) != module_rank(a) + module_rank(c):
            bad += 1
    for i in range(20):
        p = 2 if i % 2 == 0 else 5
        f = random_free_map(rng, base, p, 2, 2)
        im, incl = image(f)
        c, proj, _ = cokernel(incl)
        if not is_relative_exact(colls[p], padded([incl, proj], p)):
            continue
        checked += 1
        if module_rank(f.target) != module_rank(im) + module_rank(c):
            bad += 1
    ok = bad == 0 and checked >= 10
    check(7, "rank-additivity", ok, f"{bad} failures over {checked} exact sequences")


def test_criterion7_hook_pdim_bound():
    rng = np.random.default_rng(710)
    base = Poset.grid(1, 2)
    colls = {p: lower_hooks(base, p) for p in (2, 5)}
    worst = -1
    for i in range(100):
        p = 2 if i % 2 == 0 else 5
        m = random_module(rng, base, p)
        worst = max(worst, relative_projective_dimension(colls[p], m, 4))
    check(7, "hook-pdim", worst <= 2, f"worst relative pdim {worst}")


# --- 8: byte-identical output across runs ------------------------------


def test_criterion8_deterministic_bytes():
    def run(seed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        demo = subprocess.run(
            CLI + ["demo", "m0"], capture_output=True, text=True, env=env
        )
        assert demo.returncode == 0, demo.stderr
        rb = subprocess.run(
            CLI + ["rbetti", "--collection", "lower_hooks", "--dmax", "2"],
            input=demo.stdout, capture_output=True, text=True, env=env,
        )
        assert rb.returncode == 0, rb.stderr
        return demo.stdout, rb.stdout
    first = run("0")
    second = run("1")
    check(8, "", first == second, "outputs differ between identical runs")

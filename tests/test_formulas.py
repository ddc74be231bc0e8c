import itertools
import math
import tracemalloc

import numpy as np
import pytest

from typsat import formulas as fl
from typsat.errors import DomainError, GuardError

LAM = 3 * 4.506

# oracle: 50-digit evaluation of (q+t)log(1+t/q)+(1-q-t)log(1-t/(1-q)), frozen
H_HALF_TENTH = 0.020135513550688873


def family_lits(n, m):
    """Every formula of the (n, m) family as one (formulas, m, 3) stack."""
    lits = [l for v in range(1, n + 1) for l in (v, -v)]
    return np.array(list(itertools.product(lits, repeat=3 * m)),
                    dtype=np.int64).reshape(-1, m, 3)


def all_formulas(n, m):
    for lits in family_lits(n, m):
        yield fl.Formula(n=n, lits=lits)


def all_values(n):
    """(2^n, n) bool rows: row b is the assignment with bit k = variable k+1."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


# -- generation ----------------------------------------------------------------------

def test_generate_deterministic_and_sized():
    f1 = fl.generate(100, 4.506, seed=11)
    f2 = fl.generate(100, 4.506, seed=11)
    assert f1.m == 451  # round half up of 450.6
    assert f1.lits.shape == (451, 3)
    assert np.array_equal(f1.lits, f2.lits)
    assert not np.array_equal(f1.lits, fl.generate(100, 4.506, seed=12).lits)


def test_generate_n1_support():
    # one clause over {x1, ~x1}: 8 equally likely formulas; all appear across seeds
    seen = set()
    for seed in range(200):
        f = fl.generate(1, 1.0, seed)
        seen.add(tuple(f.lits.ravel().tolist()))
    assert len(seen) == 8


def test_generate_preconditions():
    with pytest.raises(DomainError):
        fl.generate(0, 4.506, 0)
    with pytest.raises(DomainError):
        fl.generate(1, 0.1, 0)  # m rounds to 0


# -- measurement ----------------------------------------------------------------------

def test_measure_omega_single_clause():
    f = fl.Formula(n=2, lits=np.array([[1, 1, -1]]))
    w = fl.measure_omega(f, x_cap=4)
    assert w.counts[3, 2] == 1
    assert w.counts[0, 0] == 1
    assert w.heavy_count == 0


def test_measure_omega_invariants():
    f = fl.generate(500, 4.506, seed=3)
    w = fl.measure_omega(f, x_cap=8)
    assert w.counts.sum() + w.heavy_count == f.n
    light_mass = int(sum(x * w.counts[x, : x + 1].sum() for x in range(9)))
    assert light_mass + w.heavy_occurrences == 3 * f.m


def obeys(formula, table, eps, x_cap):
    """Does every cell proportion fall within eps of the table mass?"""
    props = fl.measure_omega(formula, x_cap).proportions()
    for x in range(x_cap + 1):
        for p in range(x + 1):
            if not (table[x][p] - eps <= props[x, p] <= table[x][p] + eps):
                return False
    return True


def test_obeys_trivial_and_irrational(kappa_rows):
    f = fl.generate(50, 4.506, seed=5)
    assert obeys(f, kappa_rows, eps=1.0, x_cap=6)
    assert not obeys(f, kappa_rows, eps=0.0, x_cap=6)  # kappa irrational


def test_obeys_monte_carlo_frequency(kappa_rows):
    # at n = 1e5 the proportions track kappa within 0.01 essentially always
    hits = sum(
        obeys(fl.generate(100_000, 4.506, seed), kappa_rows, eps=0.01, x_cap=6)
        for seed in range(100))
    assert hits >= 99


# -- locally maximal solutions -----------------------------------------------------------

def test_is_pps_spec_cases():
    f = fl.Formula(n=1, lits=np.array([[1, 1, 1]]))
    assert fl.is_pps(f, fl.Assignment([True]))
    g = fl.Formula(n=2, lits=np.array([[1, 2, 2]]))
    assert not fl.is_pps(g, fl.Assignment([True, True]))
    h = fl.Formula(n=1, lits=np.array([[-1, -1, -1]]))
    assert fl.is_pps(h, fl.Assignment([False]))


def enumerate_pps(formula):
    """Exact count of positively prime solutions (plain 2^n scan, guard at 24)."""
    return int(np.count_nonzero(fl.pps_bitmap(formula)))


def test_enumerate_pps_spec_cases():
    assert enumerate_pps(fl.Formula(n=2, lits=np.array([[1, 2, 2]]))) == 2
    assert enumerate_pps(fl.Formula(n=1, lits=np.array([[1, 1, 1]]))) == 1
    # unsatisfiable: all eight sign patterns over three variables
    unsat = fl.Formula(n=3, lits=np.array(
        [[s1, s2, s3] for s1 in (1, -1) for s2 in (2, -2) for s3 in (3, -3)]))
    assert not fl.solution_bitmap(unsat).any()
    assert enumerate_pps(unsat) == 0


def test_enumeration_guard():
    f = fl.generate(25, 1.0, seed=0)
    for scan in (enumerate_pps, fl.solution_bitmap, fl.pps_bitmap):
        with pytest.raises(GuardError):
            scan(f)


def test_pps_soundness_exhaustive_small():
    """Both tables agree with the scalar predicates on every assignment of
    every formula of the families up to (2, 2) and (3, 1): sound and complete."""
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        for f in all_formulas(n, m):
            bitmap = fl.pps_bitmap(f)
            sat = fl.solution_bitmap(f)
            for bits in range(1 << n):
                a = fl.Assignment.from_bits(bits, n)
                assert bitmap[bits] == fl.is_pps(f, a)
                assert sat[bits] == fl.satisfies(f, a)
            # satisfiable implies some PPS
            assert bitmap.any() == sat.any()


def test_truth_tables_over_leading_formula_axes():
    # a (2, 3, m, 3) stack: each formula's tables sit at its own leading index
    formulas = [fl.generate(6, 4.506, seed) for seed in range(6)]
    stack = np.stack([f.lits for f in formulas]).reshape(2, 3, -1, 3)
    sat, pps = fl.truth_tables(stack, 6)
    assert sat.shape == pps.shape == (2, 3, 64)
    for k, f in enumerate(formulas):
        for bits in range(64):
            a = fl.Assignment.from_bits(bits, 6)
            assert sat[divmod(k, 3)][bits] == fl.satisfies(f, a)
            assert pps[divmod(k, 3)][bits] == fl.is_pps(f, a)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_truth_tables_either_side_of_the_word_boundary(n):
    # 64 assignments a packed word: n = 5 is one partial word, n = 6 one
    # whole word, n = 7 two; every assignment against the broadcast oracles
    stack = np.stack([fl.generate(n, 2.0, seed).lits for seed in range(8)])  # many solutions
    sat, pps = fl.truth_tables(stack, n)
    assert sat.shape == pps.shape == (8, 1 << n) and sat.dtype == pps.dtype == bool
    assert np.array_equal(sat, fl.satisfies(stack[:, None], all_values(n)))
    assert np.array_equal(pps, fl.is_pps(stack[:, None], all_values(n)))
    for k, lits in enumerate(stack):
        one_sat, one_pps = fl.truth_tables(lits, n)
        assert np.array_equal(one_sat, sat[k]) and np.array_equal(one_pps, pps[k])


def test_truth_tables_partial_word_with_leading_axes():
    # n = 4: each formula's 16 assignments are sliced from its own packed word
    stack = np.stack([fl.generate(4, 3.0, seed).lits for seed in range(6)]).reshape(3, 2, -1, 3)
    sat, pps = fl.truth_tables(stack, 4)
    assert sat.shape == pps.shape == (3, 2, 16)
    assert np.array_equal(sat, fl.satisfies(stack[..., None, :, :], all_values(4)))
    assert np.array_equal(pps, fl.is_pps(stack[..., None, :, :], all_values(4)))


@pytest.mark.parametrize("n", [6, 7, 9])
def test_truth_tables_of_an_empty_stack(n):
    # no formula: two (0, 2^n) tables, with and without blocks of whole words
    tables = fl.truth_tables(np.zeros((0, 4, 3), dtype=int), n)
    assert len(tables) == 2
    for table in tables:
        assert table.shape == (0, 1 << n) and table.dtype == bool


def test_pps_bitmap_memory_is_packed():
    # packed columns: one pps_bitmap at n = 20 peaks at 7.6 MB (tracemalloc),
    # against 45 MB for one byte per assignment per literal column
    formula = fl.generate(20, 4.506, seed=3)
    tracemalloc.start()
    try:
        bitmap = fl.pps_bitmap(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bitmap.shape == (1 << 20,)
    assert peak < 20e6


def test_pps_soundness_exhaustive_3_2_via_bitmap_vs_direct():
    """Every assignment of all 46,656 (3, 2) formulas: one stacked
    truth_tables call against the broadcast is_pps and satisfies."""
    stack = family_lits(3, 2)
    assert len(stack) == 46_656
    sat, pps = fl.truth_tables(stack, 3)
    assert np.array_equal(pps, fl.is_pps(stack[:, None], all_values(3)))
    assert np.array_equal(sat, fl.satisfies(stack[:, None], all_values(3)))
    # satisfiable implies some PPS, formula by formula
    assert np.array_equal(pps.any(axis=-1), sat.any(axis=-1))


def test_broadcast_predicates_equal_scalar_calls(scalar_reference):
    """On every assignment of every (2, 2) formula, the broadcast satisfies,
    is_pps and variable_type, and their scalar calls, equal the scalar
    reference predicates element by element."""
    ref = scalar_reference
    stack, values = family_lits(2, 2), all_values(2)
    sat = fl.satisfies(stack[:, None], values)
    pps = fl.is_pps(stack[:, None], values)
    assert sat.shape == pps.shape == (4096, 4)
    formula_idx, bits = np.nonzero(sat)
    types = fl.variable_type(stack[formula_idx], values[bits])
    assert types.shape == (len(bits), 2, 3)
    k = 0
    for i, f in enumerate(all_formulas(2, 2)):
        for b in range(4):
            a = fl.Assignment.from_bits(b, 2)
            assert sat[i, b] == fl.satisfies(f, a) == ref.satisfies(f, a)
            assert pps[i, b] == fl.is_pps(f, a) == ref.is_pps(f, a)
            if sat[i, b]:
                expected = [ref.variable_type(f, a, v) for v in (1, 2)]
                assert [tuple(t) for t in types[k]] == expected
                assert [fl.variable_type(f, a, v) for v in (1, 2)] == expected
                assert np.array_equal(fl.variable_type(f, a), types[k])
                k += 1
    assert k == len(bits)
    with pytest.raises(DomainError):  # some pairs of the grid are not solutions
        fl.variable_type(stack[:, None], values)
    with pytest.raises(DomainError):  # a variable index with batched pairs
        fl.variable_type(stack[formula_idx], values[bits], 1)


def test_pps_random_sampling_n12(rng):
    for seed in range(30):
        f = fl.generate(12, 4.506, seed)
        bitmap = fl.pps_bitmap(f)
        for bits in np.flatnonzero(bitmap)[:20]:
            assert fl.is_pps(f, fl.Assignment.from_bits(int(bits), 12))
        if fl.solution_bitmap(f).any():
            assert bitmap.any()


def test_pure_negative_rule(rng):
    # a solution giving value 1 to a pure negative variable is never locally maximal
    for seed in range(40):
        f = fl.generate(10, 4.506, seed)
        pure_neg = fl.pure_negative_vars(f)
        if pure_neg.size == 0:
            continue
        bitmap = fl.pps_bitmap(f)
        idx = np.flatnonzero(bitmap)
        for v in pure_neg:
            assert not np.any((idx >> int(v)) & 1)


# -- variable types -----------------------------------------------------------------------

def test_variable_type_pure_positive():
    # v pure positive, x = p = 2, both occurrences unique satisfiers, value 1
    f = fl.Formula(n=2, lits=np.array([[1, -2, -2], [1, -2, -2]]))
    a = fl.Assignment([True, True])
    assert fl.satisfies(f, a)
    assert fl.variable_type(f, a, 1) == (2, 2, 0)


def test_variable_type_negated_unique_satisfier():
    # v with value 0, p = 1, x = 3, one negated occurrence uniquely satisfying
    f = fl.Formula(n=2, lits=np.array([[-1, -2, -2], [1, 2, -1]]))
    a = fl.Assignment([False, True])
    assert fl.satisfies(f, a)
    # clause 1: truth (T, F, F) -> type 1, unique satisfier is ~v
    x, p, j = fl.variable_type(f, a, 1)
    assert (x, p) == (3, 1)
    assert j == p + 1  # q = 1, value 0


def test_variable_type_requires_solution():
    f = fl.Formula(n=1, lits=np.array([[1, 1, 1]]))
    with pytest.raises(DomainError):
        fl.variable_type(f, fl.Assignment([False]), 1)


def test_variable_type_partition(rng):
    # summing type histograms over variables partitions each (x, p) cell
    f, idx = None, np.array([])
    for seed in range(30):
        f = fl.generate(16, 2.0, seed=seed)
        idx = np.flatnonzero(fl.pps_bitmap(f))
        if idx.size:
            break
    assert idx.size > 0
    # and a formula where variable 3 never occurs and variable 2 occurs only negatively
    sparse = fl.Formula(n=3, lits=np.array([[1, -2, 1], [1, -2, -2]]))
    from collections import Counter
    for f, a in ((f, fl.Assignment.from_bits(int(idx[0]), f.n)),
                 (sparse, fl.Assignment([True, False, False]))):
        total, pos = f.occurrence_counts()
        per_cell = Counter()
        typed = Counter()
        for v in range(1, f.n + 1):
            x, p, j = fl.variable_type(f, a, v)
            assert (x, p) == (int(total[v - 1]), int(pos[v - 1]))
            assert 0 <= j <= x
            per_cell[(x, p)] += 1
            typed[(x, p, j)] += 1
        for (x, p), cnt in per_cell.items():
            assert sum(c for (xx, pp, _), c in typed.items() if (xx, pp) == (x, p)) == cnt
    assert [c.tolist() for c in sparse.occurrence_counts()] == [[3, 3, 0], [3, 0, 0]]


# -- renaming ---------------------------------------------------------------------------

def test_unbalanced_representative_spec_cases():
    f = fl.Formula(n=2, lits=np.array([[1, 1, -2]]))
    r = fl.totally_unbalanced_representative(f)
    assert r.lits.tolist() == [[-1, -1, -2]]
    balanced = fl.Formula(n=2, lits=np.array([[1, -1, -2]]))
    assert fl.totally_unbalanced_representative(balanced).lits.tolist() == [[1, -1, -2]]


def test_unbalanced_representative_idempotent_and_sat_preserving(rng):
    for seed in range(60):
        f = fl.generate(12, 4.506, seed)
        r = fl.totally_unbalanced_representative(f)
        rr = fl.totally_unbalanced_representative(r)
        assert np.array_equal(r.lits, rr.lits)
        total, pos = r.occurrence_counts()
        assert np.all(2 * pos <= total)
        assert fl.solution_bitmap(f).any() == fl.solution_bitmap(r).any()


def test_unbalanced_omega_fold(rng):
    # omega(x, p) of the representative equals omega(x,p) + omega(x,x-p) for x > 2p
    f = fl.generate(2000, 4.506, seed=17)
    r = fl.totally_unbalanced_representative(f)
    w_f = fl.measure_omega(f, 10).counts
    w_r = fl.measure_omega(r, 10).counts
    for x in range(11):
        for p in range(x + 1):
            if x > 2 * p:
                assert w_r[x, p] == w_f[x, p] + w_f[x, x - p]
            elif x == 2 * p:
                assert w_r[x, p] == w_f[x, p]
            else:
                assert w_r[x, p] == 0


def count_unbalanced(formula):
    """Variables with unequal positive and negative occurrence counts."""
    total, pos = formula.occurrence_counts()
    return int(np.count_nonzero(2 * pos != total))


def test_count_unbalanced_cases():
    assert count_unbalanced(fl.Formula(n=2, lits=np.array([[1, -1, 2]]))) == 1
    # absent variable is balanced by definition
    assert count_unbalanced(fl.Formula(n=3, lits=np.array([[1, -1, 2]]))) == 1


def test_renaming_fiber_size_matches_2_pow_vu():
    """Renaming subsets of the representative's unbalanced variables yields
    exactly 2^(v_u) distinct formulas, all mapping back to the representative."""
    for n, m in ((2, 1), (2, 2), (3, 1)):
        count = 0
        for f in all_formulas(n, m):
            rep = fl.totally_unbalanced_representative(f)
            if count >= 40:
                break
            count += 1
            total, pos = rep.occurrence_counts()
            unbalanced = [v + 1 for v in range(n) if 2 * pos[v] != total[v]]
            seen = set()
            for r in range(len(unbalanced) + 1):
                for subset in itertools.combinations(unbalanced, r):
                    lits = rep.lits.copy()
                    for v in subset:
                        lits[np.abs(lits) == v] *= -1
                    renamed = fl.Formula(n=n, lits=lits)
                    seen.add(tuple(lits.ravel().tolist()))
                    back = fl.totally_unbalanced_representative(renamed)
                    assert np.array_equal(back.lits, rep.lits)
            assert len(seen) == 2 ** count_unbalanced(rep)


# -- large deviation budget ------------------------------------------------------------------

def test_binld_infinite_branch():
    assert fl.binomial_large_deviation(0.3, 0.75) == math.inf


def test_binld_positive_inside():
    for q in (0.1, 0.5, 0.9):
        for t in (1e-4, 1e-2, 0.05):
            if t < min(q, 1 - q):
                assert fl.binomial_large_deviation(q, t) > 0.0


def test_binld_domain():
    with pytest.raises(DomainError):
        fl.binomial_large_deviation(0.0, 0.1)
    with pytest.raises(DomainError):
        fl.binomial_large_deviation(0.5, 0.0)


def test_binld_matches_kl_quadrature():
    # oracle: 1e6-step midpoint quadrature of the KL integrand (a-u)/(u(1-u))
    q, t = 0.5, 0.1
    a = q + t
    steps = 1_000_000
    us = np.linspace(q, a, steps + 1)
    mid = 0.5 * (us[:-1] + us[1:])
    integral = float(np.sum((a - mid) / (mid * (1.0 - mid))) * (a - q) / steps)
    val = fl.binomial_large_deviation(q, t)
    assert val == pytest.approx(integral, rel=1e-9)
    assert val == pytest.approx(H_HALF_TENTH, rel=1e-12)


def test_deviation_budget_monotone():
    t1 = fl.deviation_budget(0.01, 10**6, 0.999, 45)
    t2 = fl.deviation_budget(0.01, 10**7, 0.999, 45)
    assert t2 < t1
    assert fl.binomial_large_deviation(0.01, t1) >= math.log(2 * 45 / 0.001) / 10**6


# -- serialization ------------------------------------------------------------------------

def from_ocnf(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("p ocnf"):
        raise DomainError("missing 'p ocnf n m' header")
    _, _, n_str, m_str = lines[0].split()
    n, m = int(n_str), int(m_str)
    if len(lines) - 1 != m:
        raise DomainError(f"expected {m} clause lines, found {len(lines) - 1}")
    lits = np.array([[int(tok) for tok in ln.split()] for ln in lines[1:]], dtype=np.int64)
    if lits.shape != (m, 3):
        raise DomainError("each clause line must hold exactly three signed integers")
    return fl.Formula(n=n, lits=lits)


def test_ocnf_roundtrip():
    f = fl.generate(40, 4.506, seed=2)
    text = fl.to_ocnf(f)
    assert text.startswith(f"p ocnf 40 {f.m}\n")
    g = from_ocnf(text)
    assert np.array_equal(f.lits, g.lits)
    # duplicate literals per clause are legal
    h = from_ocnf("p ocnf 2 1\n1 1 -2\n")
    assert h.lits.tolist() == [[1, 1, -2]]


def test_ocnf_rejects_malformed():
    with pytest.raises(DomainError):
        from_ocnf("1 2 3\n")
    with pytest.raises(DomainError):
        from_ocnf("p ocnf 2 2\n1 2 -1\n")
    with pytest.raises(DomainError):
        from_ocnf("p ocnf 2 1\n1 2\n")


def is_nps(formula, assignment):
    """Symmetric notion (no variable at 0 flippable to 1): a sign-flip wrapper."""
    flipped = fl.Formula(n=formula.n, lits=-formula.lits, seed=formula.seed)
    return fl.is_pps(flipped, fl.Assignment(~assignment.values))


def test_nps_wrapper():
    # mirror of the locally-maximal examples under global sign flip
    f = fl.Formula(n=1, lits=np.array([[-1, -1, -1]]))
    assert is_nps(f, fl.Assignment([False]))
    g = fl.Formula(n=2, lits=np.array([[-1, -2, -2]]))
    assert not is_nps(g, fl.Assignment([False, False]))
    # upward flip blocked: ~x1 or ~x1 or ~x2 under (0, 1) pins x1 at 0
    h = fl.Formula(n=2, lits=np.array([[-1, -1, -2]]))
    assert is_nps(h, fl.Assignment([False, True]))

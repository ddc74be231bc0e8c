"""Ordered-clauses random formulas and the desk-scale empirical oracle.

A formula is a map from m*3 ordered cells to the 2n signed literals;
duplicate variables inside a clause are legal.  This module generates such
formulas reproducibly, measures signed-occurrence proportions against the
limiting tables, tests and enumerates locally maximal solutions (a solution
is *positively prime* when no variable at 1 can be flipped to 0 alone), and
applies the renaming transformations behind the unbalanced counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GuardError
from .params import clause_count

ENUMERATION_GUARD = 24  # exhaustive 2^n assignment scans refuse beyond this


@dataclass(frozen=True)
class Formula:
    """n variables; lits is an (m, 3) array of signed variable indices."""

    n: int
    lits: np.ndarray
    seed: object = None  # recorded generator seed, if any

    @property
    def m(self) -> int:
        return int(self.lits.shape[0])

    def __post_init__(self):
        lits = np.asarray(self.lits, dtype=np.int64)
        if lits.ndim != 2 or lits.shape[1] != 3:
            raise DomainError("formula cells must form an (m, 3) array")
        if lits.size and (np.any(lits == 0) or np.any(np.abs(lits) > self.n)):
            raise DomainError("literals must be nonzero and within 1..n")
        object.__setattr__(self, "lits", lits)

    def occurrence_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(total, positive) occurrence counts per variable, 0-indexed."""
        signed = np.bincount(self.lits.ravel() + self.n, minlength=2 * self.n + 1)  # -n..n
        pos = signed[self.n + 1:]
        return pos + signed[self.n - 1::-1], pos


@dataclass(frozen=True)
class Assignment:
    values: np.ndarray  # bool, length n

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=bool))

    @classmethod
    def from_bits(cls, bits: int, n: int) -> "Assignment":
        return cls(np.array([(bits >> k) & 1 for k in range(n)], dtype=bool))


def literal_truth(lits, values) -> np.ndarray:
    """Cell truth values[|l| - 1] ^ (l < 0), shape (..., m, 3).

    lits (..., m, 3) and bool values (..., n) broadcast over their leading axes.
    """
    lits, values = np.asarray(lits), np.asarray(values, dtype=bool)
    idx = np.abs(lits) - 1
    pad = values.ndim - (lits.ndim - 1)  # gather along one axis of equal rank
    cells = np.take_along_axis(values.reshape((1,) * -pad + values.shape),
                               idx.reshape((1,) * pad + lits.shape[:-2] + (-1,)), axis=-1)
    return cells.reshape(cells.shape[:-1] + lits.shape[-2:]) ^ (lits < 0)


def generate(n: int, c: float, seed) -> Formula:
    """Uniform ordered-clauses formula: every cell an independent literal draw.

    Deterministic given the seed (PCG64 stream); m = round(c*n) half up.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    m = clause_count(n, c)
    if m < 1:
        raise DomainError(f"c*n rounds to m = {m} < 1")
    rng = np.random.default_rng(seed)
    variables = rng.integers(1, n + 1, size=(m, 3))
    signs = rng.integers(0, 2, size=(m, 3)) * 2 - 1
    return Formula(n=n, lits=variables * signs, seed=seed)


def _operands(formula, assignment) -> tuple[np.ndarray, np.ndarray]:
    """(lits, values) of a Formula and an Assignment, or of a literal array
    (..., m, 3) and a bool value array (..., n)."""
    values = np.asarray(getattr(assignment, "values", assignment), dtype=bool)
    n = values.shape[-1]
    if isinstance(formula, Formula):
        if formula.n != n:
            raise DomainError("assignment length does not match the formula")
        return formula.lits, values
    lits = np.asarray(formula)
    if lits.size and (np.any(lits == 0) or np.abs(lits).max() > n):
        raise DomainError("literals must be nonzero and within 1..n")
    return lits, values


def _touches(lits: np.ndarray, n: int) -> np.ndarray:
    """(..., n, m, 3) table: does the cell hold variable v (axis -3, v = 1..n)?"""
    return np.abs(lits)[..., None, :, :] == np.arange(1, n + 1)[:, None, None]


def _scalar(result):
    return bool(result) if np.ndim(result) == 0 else result


def _all_clauses_true(truth: np.ndarray) -> np.ndarray:
    """(...) table of cell truths (..., m, 3): does every clause hold a true cell?"""
    return (truth[..., 0] | truth[..., 1] | truth[..., 2]).all(axis=-1)


def satisfies(formula, assignment):
    """Does the assignment satisfy every clause?  On arrays, one bool per
    broadcast (formula, assignment) pair."""
    lits, values = _operands(formula, assignment)
    return _scalar(_all_clauses_true(literal_truth(lits, values)))


def is_pps(formula, assignment):
    """True iff the assignment satisfies the formula and every variable at 1
    is pinned: flipping it alone to 0 unsatisfies some clause.

    Takes a Formula and an Assignment, or lits (..., m, 3) and values
    (..., n) broadcasting over leading axes (one bool per pair).  Each
    variable's flip re-tests satisfaction with the cells it touches negated.
    """
    lits, values = _operands(formula, assignment)
    truth = literal_truth(lits, values)
    sat = _all_clauses_true(truth)
    flipped = truth[..., None, :, :] ^ _touches(lits, values.shape[-1])
    still_sat = _all_clauses_true(flipped)  # (..., n): the flip keeps a solution
    return _scalar(sat & ~(values & still_sat).any(axis=-1))


#: The literal column of x_(k+1), k < 6, within one packed word: bit b is set
#: when bit k of b is.
IN_WORD_BITS = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                         0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000], dtype="<u8")


def truth_tables(lits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Satisfaction and locally-maximal tables over all 2^n assignments.

    lits is (..., m, 3) with any leading formula axes; both tables are bool
    (..., 2^n), bit k of the table index being variable k+1.  They are built
    packed, 64 assignments to a little-endian uint64 word (bit b of word w is
    assignment 64 w + b; for n < 6 one partial word), and unpacked once at
    the end.  The literal column of x_(k+1) is the pattern IN_WORD_BITS[k] in
    every word for k < 6, and runs of 2^(k-6) words, alternately clear and
    set, beyond; a negated column is the complement.  A clause's table is the
    OR of its three literal columns, and the clauses are ANDed one at a time.
    A solution is locally maximal when clearing any one of its set bits gives
    a non-solution; bit k's partner is 2^k bits down in the same word for
    k < 6 and 2^(k-6) words down beyond.  satisfies, is_pps and variable_type
    do not call this: they are the independent oracles it is tested against.
    """
    if n > ENUMERATION_GUARD:
        raise GuardError(f"refusing exhaustive scan for n = {n} > {ENUMERATION_GUARD}")
    size = 1 << n
    words = max(1, size // 64)
    columns = np.zeros((n, 2, words), dtype="<u8")  # [k, 0]: x_(k+1) true; [k, 1]: negated
    columns[:6, 0] = IN_WORD_BITS[:n, None]
    for k in range(6, n):
        columns[k, 0].reshape(-1, 2, 1 << (k - 6))[:, 1] = ~np.uint64(0)
    np.invert(columns[:, 0], out=columns[:, 1])
    columns = columns.reshape(2 * n, words)
    cells = 2 * np.abs(lits) - 2 + (lits < 0)  # each cell's literal column
    tables = np.empty((2,) + cells.shape[:-2] + (words,), dtype="<u8")
    sat, pps = tables
    sat.fill(~np.uint64(0))
    for clause in np.moveaxis(cells, -2, 0):
        sat &= columns[clause[..., 0]] | columns[clause[..., 1]] | columns[clause[..., 2]]
    pps[...] = sat
    for k in range(min(n, 6)):
        pps &= ~((sat << (1 << k)) & IN_WORD_BITS[k])
    for k in range(6, n):
        by_bit = sat.shape[:-1] + (1 << (n - 1 - k), 2, 1 << (k - 6))
        pps.reshape(by_bit)[..., 1, :] &= ~sat.reshape(by_bit)[..., 0, :]
    # a partial word unpacks only the bytes that hold its 2^n assignments
    packed = tables.view(np.uint8)[..., :max(1, size // 8)]
    sat, pps = np.unpackbits(packed, axis=-1, count=size, bitorder="little").view(bool)
    return sat, pps


def solution_bitmap(formula: Formula) -> np.ndarray:
    """Boolean satisfaction table over all 2^n assignments (bit k = variable k+1)."""
    return truth_tables(formula.lits, formula.n)[0]


def pps_bitmap(formula: Formula) -> np.ndarray:
    """Boolean table of positively prime solutions over all 2^n assignments."""
    return truth_tables(formula.lits, formula.n)[1]


@dataclass(frozen=True)
class MeasuredOmega:
    """Exact per-(x, p) variable counts of one formula, capped at x_cap."""

    n: int
    x_cap: int
    counts: np.ndarray          # (x_cap+1, x_cap+1) ints, counts[x, p]
    heavy_count: int            # variables with more than x_cap occurrences
    heavy_occurrences: int      # their total occurrence mass

    def proportions(self) -> np.ndarray:
        return self.counts / self.n


def measure_omega(formula: Formula, x_cap: int) -> MeasuredOmega:
    if x_cap < 0:
        raise DomainError("x_cap must be nonnegative")
    total, pos = formula.occurrence_counts()
    light = total <= x_cap
    counts = np.zeros((x_cap + 1, x_cap + 1), dtype=np.int64)
    np.add.at(counts, (total[light], pos[light]), 1)
    return MeasuredOmega(
        n=formula.n,
        x_cap=x_cap,
        counts=counts,
        heavy_count=int(np.count_nonzero(~light)),
        heavy_occurrences=int(total[~light].sum()),
    )


def variable_type(formula, assignment, v: int | None = None):
    """Type (x, p, j) of variable v relative to a solution.

    |p - j| counts the occurrences of v that uniquely satisfy a clause with
    exactly one true cell; the sign of p - j encodes the variable's value.
    Without v, every variable's type at once: an (..., n, 3) int32 array, also
    for lits (..., m, 3) and values (..., n) broadcasting over leading axes.
    """
    lits, values = _operands(formula, assignment)
    n = values.shape[-1]
    if v is not None and not (1 <= v <= n):
        raise DomainError(f"variable index {v} out of range")
    if v is not None and (lits.ndim > 2 or values.ndim > 1):
        raise DomainError("a variable index needs one formula and one assignment")
    truth = literal_truth(lits, values)
    if not _all_clauses_true(truth).all():
        raise DomainError("variable types are defined relative to a solution")
    touches = _touches(lits, n)
    count = dict(axis=(-2, -1), dtype=np.int32)  # int32 halves the batched tables
    x = touches.sum(**count)
    p = (touches & (lits > 0)[..., None, :, :]).sum(**count)
    unique = truth & (truth.sum(axis=-1, keepdims=True) == 1)  # sole true cell of its clause
    unique_sat = (touches & unique[..., None, :, :]).sum(**count)
    j = np.where(values, p - unique_sat, p + unique_sat)
    types = np.stack(np.broadcast_arrays(x, p, j), axis=-1)
    return types if v is None else tuple(int(t) for t in types[v - 1])


def totally_unbalanced_representative(formula: Formula) -> Formula:
    """Rename (sign-flip) every variable with more positive than negative
    occurrences; idempotent, preserves satisfiability."""
    total, pos = formula.occurrence_counts()
    flip = 2 * pos > total
    flip_lit = flip[np.abs(formula.lits) - 1]
    return Formula(n=formula.n, lits=np.where(flip_lit, -formula.lits, formula.lits),
                   seed=formula.seed)


def pure_negative_vars(formula: Formula) -> np.ndarray:
    """0-indexed variables that occur and only negatively."""
    total, pos = formula.occurrence_counts()
    return np.flatnonzero((total > 0) & (pos == 0))


# -- large-deviation budget -----------------------------------------------------

def binomial_large_deviation(q: float, t: float) -> float:
    """Rate c(q, t) = min(h(q, t), h(1-q, t)) with
    h(q, t) = (q+t) log(1 + t/q) + (1-q-t) log(1 - t/(1-q)) for t <= 1-q,
    +infinity otherwise; a proportion of samples mean q deviates by >= t with
    probability at most 2 exp(-c(q, t) * samples)."""
    if not (0.0 < q < 1.0):
        raise DomainError(f"need 0 < q < 1, got {q}")
    if not t > 0.0:
        raise DomainError(f"need t > 0, got {t}")

    def h(qq: float, tt: float) -> float:
        if tt > 1.0 - qq:
            return math.inf
        first = (qq + tt) * math.log1p(tt / qq)
        rest = 1.0 - qq - tt
        if rest == 0.0:
            return first
        return first + rest * math.log1p(-tt / (1.0 - qq))

    return min(h(q, t), h(1.0 - q, t))


def deviation_budget(q: float, samples: int, confidence: float, cells: int) -> float:
    """Smallest t with 2 exp(-c(q,t) n) below the per-cell failure allowance."""
    target = math.log(2.0 * cells / (1.0 - confidence)) / samples
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if binomial_large_deviation(q, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


# -- measurement campaigns --------------------------------------------------------

@dataclass
class OmegaCampaign:
    n: int
    c: float
    formulas: int
    seed: int
    x_cap: int
    mean: np.ndarray
    std: np.ndarray
    generator: str = field(default="numpy-pcg64-seedsequence")


def run_omega_campaign(n: int, c: float, formulas: int, seed: int, x_cap: int) -> OmegaCampaign:
    """Generate `formulas` independent formulas and aggregate cell proportions."""
    acc = np.zeros((formulas, x_cap + 1, x_cap + 1))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(formulas)):
        acc[k] = measure_omega(generate(n, c, child), x_cap).proportions()
    return OmegaCampaign(
        n=n, c=c, formulas=formulas, seed=seed, x_cap=x_cap,
        mean=acc.mean(axis=0),
        std=acc.std(axis=0, ddof=1) if formulas > 1 else acc.std(axis=0),
    )


# -- serialization ------------------------------------------------------------------

def to_ocnf(formula: Formula) -> str:
    """Ordered-clauses text form: header then three signed integers per clause."""
    lines = [f"p ocnf {formula.n} {formula.m}"]
    lines.extend(" ".join(str(int(l)) for l in clause) for clause in formula.lits)
    return "\n".join(lines) + "\n"

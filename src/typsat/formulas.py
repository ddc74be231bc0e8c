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
        total = np.bincount(np.abs(self.lits).ravel(), minlength=self.n + 1)[1:]
        pos_lits = self.lits[self.lits > 0]
        pos = np.bincount(pos_lits, minlength=self.n + 1)[1:]
        return total, pos


@dataclass(frozen=True)
class Assignment:
    values: np.ndarray  # bool, length n

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=bool))

    @classmethod
    def from_bits(cls, bits: int, n: int) -> "Assignment":
        return cls(np.array([(bits >> k) & 1 for k in range(n)], dtype=bool))

    def literal_truth(self, lits: np.ndarray) -> np.ndarray:
        return self.values[np.abs(lits) - 1] ^ (lits < 0)


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


def satisfies(formula: Formula, assignment: Assignment) -> bool:
    truth = assignment.literal_truth(formula.lits)
    return bool(truth.any(axis=1).all())


def is_pps(formula: Formula, assignment: Assignment) -> bool:
    """True iff the assignment satisfies the formula and every variable at 1
    is pinned: flipping it alone to 0 unsatisfies some clause."""
    if len(assignment.values) != formula.n:
        raise DomainError("assignment length does not match the formula")
    truth = assignment.literal_truth(formula.lits)
    if not truth.any(axis=1).all():
        return False
    abs_lits = np.abs(formula.lits)
    for v in np.flatnonzero(assignment.values):
        touches = abs_lits == v + 1
        flipped = truth ^ touches
        if flipped.any(axis=1).all():
            return False  # still satisfied after the flip: not locally maximal
    return True


def truth_tables(lits: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Satisfaction and locally-maximal tables over all 2^n assignments.

    lits is (..., m, 3) with any leading formula axes; both tables are
    (..., 2^n), bit k of the table index being variable k+1.  A clause's
    table is the OR of its three literal columns, and the clauses are ANDed
    one at a time.  A solution is locally maximal when clearing any one of
    its set bits gives a non-solution.  satisfies, is_pps and variable_type
    do not call this: they are the scalar oracles it is tested against.
    """
    if n > ENUMERATION_GUARD:
        raise GuardError(f"refusing exhaustive scan for n = {n} > {ENUMERATION_GUARD}")
    size = 1 << n
    columns = np.zeros((n, 2, size), dtype=bool)  # [k, 0]: x_(k+1) true; [k, 1]: negated
    for k in range(n):
        columns[k, 0].reshape(-1, 2, 1 << k)[:, 1] = True
        np.logical_not(columns[k, 0], out=columns[k, 1])
    columns = columns.reshape(2 * n, size)
    cells = 2 * np.abs(lits) - 2 + (lits < 0)  # each cell's literal column
    sat = np.ones(cells.shape[:-2] + (size,), dtype=bool)
    for clause in np.moveaxis(cells, -2, 0):
        sat &= columns[clause[..., 0]] | columns[clause[..., 1]] | columns[clause[..., 2]]
    pps = sat.copy()
    for k in range(n):
        by_bit = sat.shape[:-1] + (-1, 2, 1 << k)
        pps.reshape(by_bit)[..., 1, :] &= ~sat.reshape(by_bit)[..., 0, :]
    return sat, pps


def solution_bitmap(formula: Formula) -> np.ndarray:
    """Boolean satisfaction table over all 2^n assignments (bit k = variable k+1)."""
    return truth_tables(formula.lits, formula.n)[0]


def pps_bitmap(formula: Formula) -> np.ndarray:
    """Boolean table of positively prime solutions over all 2^n assignments."""
    return truth_tables(formula.lits, formula.n)[1]


def enumerate_pps(formula: Formula) -> int:
    """Exact count of positively prime solutions (plain 2^n scan, guard at 24)."""
    return int(np.count_nonzero(pps_bitmap(formula)))


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


def obeys(formula: Formula, table, eps: float, x_cap: int) -> bool:
    """Does every cell proportion fall within eps of the table mass?"""
    measured = measure_omega(formula, x_cap)
    props = measured.proportions()
    for x in range(x_cap + 1):
        for p in range(x + 1):
            target = table.value(x, p) if hasattr(table, "value") else table[x][p]
            if not (target - eps <= props[x, p] <= target + eps):
                return False
    return True


def variable_type(formula: Formula, assignment: Assignment, v: int) -> tuple[int, int, int]:
    """Type (x, p, j) of variable v relative to a solution.

    |p - j| counts the occurrences of v that uniquely satisfy a clause with
    exactly one true cell; the sign of p - j encodes the variable's value.
    """
    if not (1 <= v <= formula.n):
        raise DomainError(f"variable index {v} out of range")
    truth = assignment.literal_truth(formula.lits)
    if not truth.any(axis=1).all():
        raise DomainError("variable types are defined relative to a solution")
    abs_lits = np.abs(formula.lits)
    x = int(np.count_nonzero(abs_lits == v))
    p = int(np.count_nonzero(formula.lits == v))
    single = truth.sum(axis=1) == 1
    unique_sat = int(np.count_nonzero(truth[single] & (abs_lits[single] == v)))
    j = p - unique_sat if assignment.values[v - 1] else p + unique_sat
    return x, p, j


def count_unbalanced(formula: Formula) -> int:
    """Variables with unequal positive and negative occurrence counts."""
    total, pos = formula.occurrence_counts()
    return int(np.count_nonzero(2 * pos != total))


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


def is_nps(formula: Formula, assignment: Assignment) -> bool:
    """Symmetric notion (no variable at 0 flippable to 1): a sign-flip wrapper."""
    flipped = Formula(n=formula.n, lits=-formula.lits, seed=formula.seed)
    return is_pps(flipped, Assignment(~assignment.values))


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
    completed: int = 0
    partial: bool = False
    generator: str = field(default="numpy-pcg64-seedsequence")


def run_omega_campaign(n: int, c: float, formulas: int, seed: int, x_cap: int,
                       time_budget_s: float | None = None) -> OmegaCampaign:
    """Generate `formulas` independent formulas and aggregate cell proportions.

    A time budget truncates the campaign; the result is then flagged partial
    and aggregates only the completed formulas.
    """
    import time as _time
    t0 = _time.perf_counter()
    children = np.random.SeedSequence(seed).spawn(formulas)
    acc = np.zeros((formulas, x_cap + 1, x_cap + 1))
    done = 0
    for k, child in enumerate(children):
        if time_budget_s is not None and _time.perf_counter() - t0 > time_budget_s and done:
            break
        formula = generate(n, c, child)
        acc[k] = measure_omega(formula, x_cap).proportions()
        done += 1
    acc = acc[:done]
    return OmegaCampaign(
        n=n, c=c, formulas=formulas, seed=seed, x_cap=x_cap,
        mean=acc.mean(axis=0),
        std=acc.std(axis=0, ddof=1) if done > 1 else acc.std(axis=0),
        completed=done, partial=done < formulas,
    )


# -- serialization ------------------------------------------------------------------

def to_ocnf(formula: Formula) -> str:
    """Ordered-clauses text form: header then three signed integers per clause."""
    lines = [f"p ocnf {formula.n} {formula.m}"]
    lines.extend(" ".join(str(int(l)) for l in clause) for clause in formula.lits)
    return "\n".join(lines) + "\n"


def from_ocnf(text: str) -> Formula:
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
    return Formula(n=n, lits=lits)

"""Reverse Markov inequality: lower-bounding E[Y] by a coarse threshold sum.

For a bounded discrete Y in [0, beta) and a budget of D threshold levels
0 <= nu_1 <= ... <= nu_D = beta, the objective is

    F(nu) = sum_{j=1}^{D-1} nu_j * P(Y in [nu_j, nu_{j+1})).

A grid can always be chosen with F(nu) >= (1/13) * E[Y] * min(1, D / R)
where R = min(support size, 1 + log2(beta / E[Y])).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .core import (Distribution, _Value, _as_float_array, _count, _freeze, _read_json, _real,
                   _sorted_unique)

GUARANTEE_FACTOR = 1.0 / 13.0


@dataclass(frozen=True, eq=False)
class DiscreteRV(_Value):
    """A discrete random variable on finitely many points of [0, beta)."""

    values: np.ndarray
    masses: np.ndarray
    beta: float

    def __init__(self, values, masses, beta: float):
        values = _as_float_array(values, "values")
        masses = Distribution(masses).probs  # a law on the values
        beta = _real("beta", beta)
        if values.size != masses.size:
            raise ValidationError("values and masses must have equal length")
        if np.any(values < 0) or np.any(values >= beta):
            raise ValidationError("values must lie in [0, beta)")
        if np.any(np.diff(values) <= 0):
            raise ValidationError("values must be strictly increasing")
        _freeze(self, values=values, masses=masses, beta=beta)

    def mean(self) -> float:
        return float(self.values @ self.masses)

    def support_size(self) -> int:
        return int(np.count_nonzero(self.masses > 0))

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "atoms": [[float(v), float(m)] for v, m in zip(self.values, self.masses)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteRV":
        beta, atoms = _read_json(obj, "rv", beta="number", atoms="array")
        atoms = _as_float_array(atoms, "atoms", ndim=2)
        if atoms.shape[1] != 2:
            raise ValidationError("rv atoms must be [value, mass] pairs")
        values, masses = atoms[np.lexsort(atoms.T[::-1])].T  # by value, then by mass
        return cls(values, masses, beta)


@dataclass(frozen=True)
class ThresholdGrid:
    """A feasible grid nu_1 <= ... <= nu_D = beta plus its objective value."""

    nus: tuple[float, ...]
    achieved: float


def _check_grid(rv: DiscreteRV, nus: np.ndarray) -> None:
    if nus.size < 2:
        raise ValidationError("a grid needs at least two levels (D >= 2)")
    if np.any(nus < 0) or np.any(np.diff(nus) < -1e-15):
        raise ValidationError("grid levels must be non-negative and sorted")
    if abs(nus[-1] - rv.beta) > 1e-12:
        raise ValidationError("last grid level must equal beta")


def revmarkov_objective(rv: DiscreteRV, nus) -> float:
    """Evaluate F(nu) = sum_j nu_j P(Y in [nu_j, nu_{j+1})) over j < D."""
    nus = _as_float_array(nus, "nus")
    _check_grid(rv, nus)
    return _objective(rv, nus)


def _objective(rv: DiscreteRV, nus: np.ndarray) -> float:
    """`revmarkov_objective` on a valid grid."""
    cum = np.concatenate(([0.0], np.add.accumulate(rv.masses)))
    return float(_objectives(rv.values, cum, nus[None, :])[0])


def _objectives(values: np.ndarray, cum: np.ndarray, grids: np.ndarray) -> np.ndarray:
    """F(nu) of each row of an n x D array of valid grids on the atoms `values`, with cum =
    [0, m_0, m_0 + m_1, ...]: one dot product of its first D-1 levels with its cell masses."""
    below = cum[values.searchsorted(grids, side="left")]
    cells = below[:, 1:] - below[:, :-1]
    return (grids[:, None, :-1] @ cells[:, :, None])[:, 0, 0]


def _pad_levels(levels: list[float], out_size: int) -> list[float]:
    """Up to D-1 levels (at least one), sorted, the top one repeated up to
    D-1 of them: empty cells contribute nothing."""
    levels = sorted(levels)
    return levels + [levels[-1]] * (out_size - 1 - len(levels))


def _require_positive_mean(values: np.ndarray, masses: np.ndarray) -> float:
    mean = float(values @ masses)
    if mean <= 0:
        raise DegenerateInputError("E[Y] = 0: no grid has positive objective")
    return mean


def _top_row(values: list, masses: list, beta: float, out_size: int) -> list[float]:
    """The grid through the D-1 atoms with the largest value*mass products,
    ties broken toward larger values, given the atoms as lists of floats."""
    ranked = sorted(zip([v * m for v, m in zip(values, masses)], values), reverse=True)
    chosen = [v for score, v in ranked[: out_size - 1] if score > 0]
    return _pad_levels(chosen, out_size) + [beta]


def _doubling_rows(values: np.ndarray, masses: np.ndarray, beta: float, out_size: int,
                   top: list[float]):
    """The grid `top`, then the doubling grids min(beta, x * 2^j), j < D-1, then beta, over
    the candidates x = v / 2^t (v a positive atom, t < D) in ascending order, in blocks of
    at most 2^16 levels (`top` and a doubling grid at least), each filled in place. ldexp
    forms v / 2^t and x * 2^j exactly, also from j = 1024, where 2.0 ** j is inf; a level
    past the float range reads inf, then beta."""
    positive = values[(values > 0) & (masses > 0)]
    xs = _sorted_unique(np.ldexp(positive[:, None], -np.arange(out_size)))
    step = max(1, 2 ** 16 // out_size)
    for i in range(0, xs.size, step):
        lead = int(i == 0)  # the first block starts with `top`
        block = np.empty((lead + xs[i:i + step].size, out_size))
        block[:lead], block[lead:, -1] = top, beta
        with np.errstate(over="ignore"):
            levels = np.ldexp(xs[i:i + step, None], np.arange(out_size - 1))
        np.minimum(levels, beta, out=block[lead:, :-1])
        yield block


def guarantee(rv: DiscreteRV, out_size: int) -> float:
    """The certified floor (1/13) E[Y] min(1, D/R), R = min(k, k')."""
    mean = _require_positive_mean(rv.values, rv.masses)
    out_size = _count("out_size", out_size, 2)
    k = rv.support_size()
    kprime = max(1.0, 1.0 + math.log2(rv.beta / mean))
    r = min(float(k), kprime)
    return GUARANTEE_FACTOR * mean * min(1.0, out_size / r)


def reverse_markov_best(rv: DiscreteRV, out_size: int) -> ThresholdGrid:
    """Best of the top-atom grid and the doubling grids; ties go to the
    top-atom grid, then to the smallest x.

    Always achieves at least `guarantee(rv, out_size)`.
    """
    return ThresholdGrid(*_best_levels(rv.values, rv.masses, rv.beta, out_size))


def _best_levels(values: np.ndarray, masses: np.ndarray, beta: float, out_size: int) -> tuple:
    """`reverse_markov_best` on the atoms (values, masses): the best grid and its objective."""
    _require_positive_mean(values, masses)
    out_size = _count("out_size", out_size, 2)
    cum = np.concatenate(([0.0], np.add.accumulate(masses)))  # np.cumsum, without its wrapper
    top = _top_row(values.tolist(), masses.tolist(), beta, out_size)
    # a positive mean implies an atom with positive value and mass: a first block
    achieved, grid = -math.inf, None
    for grids in _doubling_rows(values, masses, beta, out_size, top):
        scores = _objectives(values, cum, grids)
        win = int(scores.argmax())
        if scores[win] > achieved:  # first of ties
            achieved, grid = scores[win], grids[win]
    return tuple(grid.tolist()), float(achieved)


def _cell_sums(x: np.ndarray) -> np.ndarray:
    """n x (n+1) table of x[a:b].sum() for a < b (0 else), each summed up from
    x[a], so that a small cell keeps its relative accuracy."""
    n = x.size
    upper = np.arange(n)[:, None] <= np.arange(n)  # row a keeps x[a:]
    return np.hstack([np.zeros((n, 1)), np.cumsum(np.where(upper, x, 0.0), 1)])


def _best_cuts(score: np.ndarray, t: int) -> list[int]:
    """Cuts 0 < c_1 < ... < c_t < n maximising score[0, c_1] + score[c_1, c_2]
    + ... + score[c_t, n], by an O(t n^2) dynamic program. score[a, b] scores
    the cell of items a..b-1; it is n x (n+1), read only where a < b, and may
    hold +inf but not -inf or NaN. Exact ties go to the first cuts."""
    n = score.shape[0]
    value = score[:, n].copy()  # value[a]: best score of items a.. with the cuts left
    upper = np.arange(n)[:, None] <= np.arange(n)  # c > a, for the next cut c = column + 1
    pointers = []
    for m in range(n - 1, n - 1 - t, -1):  # starts a < m, next cuts c in 1..m
        total = np.full((m, m), -np.inf)
        # add only where c > a: a masked +inf + -inf would be NaN
        np.add(score[:m, 1:m + 1], value[1:m + 1], out=total, where=upper[:m, :m])
        pointers.append(total.argmax(axis=1) + 1)
        value[:m] = total.max(axis=1)
    cuts = [0]
    for best in reversed(pointers):
        cuts.append(int(best[cuts[-1]]))
    return cuts[1:]


def brute_force_revmarkov(rv: DiscreteRV, out_size: int) -> ThresholdGrid:
    """Exact optimum over all grids, by a dynamic program over atom values.

    An optimal grid can put its D-1 levels (fewer if there are fewer
    positive atoms) on positive atoms. They split the sorted atoms into
    contiguous cells, each scoring its lowest value times its mass, and the
    mass below the first level scores 0.
    """
    _require_positive_mean(rv.values, rv.masses)
    out_size = _count("out_size", out_size, 2)
    positive = rv.values > 0
    # a value-0 head item holds the mass below the first level
    values = np.concatenate(([0.0], rv.values[positive]))
    masses = np.concatenate(([0.0], rv.masses[positive]))
    t = min(out_size - 1, values.size - 1)
    cuts = _best_cuts(values[:, None] * _cell_sums(masses), t)
    nus = tuple(_pad_levels([float(values[c]) for c in cuts], out_size)) + (rv.beta,)
    return ThresholdGrid(nus=nus, achieved=_objective(rv, np.array(nus)))


def tightness_instance(rho: float) -> DiscreteRV:
    """Geometric-mass instance with E[Y] = Theta(rho) on which no grid does
    much better than the guarantee.

    Y takes value 2^-i with mass r * 2^i for i in [k], r = 1/(2(2^k - 1)),
    with k scanned over [ln(1/rho), 2 ln(1/rho)] until E[Y] lands in
    [0.5 rho, 10 rho].
    """
    rho = _real("rho", rho, "(0, 0.25)")
    lo = math.ceil(math.log(1.0 / rho))
    hi = math.floor(2.0 * math.log(1.0 / rho))
    for k in range(lo, hi + 1):
        r = 1.0 / (2.0 * (2.0 ** k - 1.0))
        mean = r * k
        if 0.5 * rho <= mean <= 10.0 * rho:
            i = np.arange(k, 0, -1)  # values ascending: 2^-k ... 2^-1
            values = 2.0 ** (-i.astype(float))
            masses = r * 2.0 ** i.astype(float)
            return DiscreteRV(values=values, masses=masses, beta=1.0)
    raise DegenerateInputError(
        f"no k in [{lo}, {hi}] gives E[Y] within [0.5, 10] * rho for rho={rho}"
    )

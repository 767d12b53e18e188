"""Distributions, channels and f-divergences on finite alphabets.

Conventions used throughout:

- a distribution is a length-k probability vector over the alphabet {0,...,k-1};
- a channel is a column-stochastic D x k matrix T; the output law is T @ p;
- I_f(p, q) = sum_i q_i * f(p_i / q_i) with 0 * f(0/0) = 0 and
  0 * f(a/0) = a * lim_{u->inf} f(u)/u; past p_i = q_i sqrt(float max), a
  summand that overflows is read as its equal p_i f(q_i / p_i).

Public functions and constructors validate their inputs; `_`-prefixed
kernels trust theirs and run on plain arrays.

Frozen dataclasses are values. A validating constructor ends in one `_freeze`
call (fields set, arrays read-only); `_trusted` builds from arrays known valid.
`_Value` classes are equal, and hash alike, when of one type with equal fields,
arrays by shape and value (-0.0 = 0.0). Every `from_json` reads through
`_read_json`: a missing key, or a value of the wrong type or shape, raises
ValidationError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import DimensionError, ValidationError

# Input vectors are renormalized if they are within NORMALIZE_TOL of summing
# to one, rejected otherwise.
NORMALIZE_TOL = 1e-9
_SQRT_FLOAT_MAX = math.sqrt(float(np.finfo(float).max))
_INT64_MAX = 2**63 - 1  # numpy's draws take n and trials as int64


def _as_float_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """A finite, non-empty float copy of `values` with `ndim` axes."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be an array of numbers") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _as_float(value, name: str) -> float:
    """`float(value)`, raising ValidationError where that fails or overflows."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be a number") from exc


def _count(name: str, value, least: int = 1, bounded: bool = True) -> int:
    """`value` as a Python int of at least `least`, and at most 2**63 - 1 if
    `bounded`; a bool is not a count."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValidationError(f"{name} must be at least {least}, got {count}")
    if bounded and count > _INT64_MAX:
        raise ValidationError(f"{name} must be at most 2**63 - 1, got {count}")
    return count


def _freeze(obj, **values):
    """Set the fields of the frozen value `obj`, making its arrays read-only."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _trusted(cls, **values):
    """`cls(**values)` for one of the frozen input dataclasses, unvalidated."""
    return _freeze(object.__new__(cls), **values)


class _Value:
    """Equality and hash by content (see above), for dataclasses with eq=False."""

    def _key(self) -> tuple:
        return tuple((v.shape, (v + 0.0).tobytes()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


# The JSON types each kind of `_read_json` takes; no bool counts as a number.
_JSON_KINDS = {"int": int, "number": (int, float), "array": list}


def _read_json(obj, what: str, **kinds: str) -> list:
    """The values of the JSON object `obj` under the keys of `kinds`, each of
    its kind in _JSON_KINDS; a kind ending in " or null" also takes null or a
    missing key, read as None. Else raises ValidationError."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} JSON must be an object")
    values = [obj.get(key) for key in kinds]
    for (key, kind), value in zip(kinds.items(), values):
        base = kind.removesuffix(" or null")
        if value is None and base != kind:
            continue
        if isinstance(value, bool) or not isinstance(value, _JSON_KINDS[base]):
            raise ValidationError(f"{what} JSON needs '{key}': {kind}")
    return values


@dataclass(frozen=True, eq=False)
class Distribution(_Value):
    """A probability vector over a finite alphabet."""

    probs: np.ndarray

    def __init__(self, probs):
        arr = _as_float_array(probs, "probs")
        if np.any(arr < 0):
            raise ValidationError("probabilities must be non-negative")
        total = arr.sum()
        if abs(total - 1.0) > NORMALIZE_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        arr /= total
        _freeze(self, probs=arr)

    @property
    def k(self) -> int:
        return self.probs.size

    def to_json(self) -> dict:
        return {"probs": self.probs.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Distribution":
        return cls(*_read_json(obj, "distribution", probs="array"))


@dataclass(frozen=True, eq=False)
class Channel(_Value):
    """A column-stochastic matrix mapping alphabet [k] to outputs [D]."""

    matrix: np.ndarray

    def __init__(self, matrix):
        arr = _as_float_array(matrix, "channel matrix", ndim=2)
        if np.any(arr < 0):
            raise ValidationError("channel entries must be non-negative")
        sums = arr.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > NORMALIZE_TOL):
            raise ValidationError("channel columns must each sum to 1")
        arr /= sums
        _freeze(self, matrix=arr)

    @property
    def out_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def in_size(self) -> int:
        return self.matrix.shape[1]

    def compose(self, inner: "Channel") -> "Channel":
        """Channel applying `inner` first, then this channel."""
        if self.in_size != inner.out_size:
            raise DimensionError(
                f"cannot compose: inner output size {inner.out_size} != input size {self.in_size}"
            )
        return Channel(self.matrix @ inner.matrix)

    def to_json(self) -> dict:
        return {
            "rows": self.out_size,
            "cols": self.in_size,
            "data": [float(x) for x in self.matrix.reshape(-1)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Channel":
        rows, cols, data = _read_json(obj, "channel", rows="int", cols="int", data="array")
        data = _as_float_array(data, "channel data")
        if min(rows, cols) < 1 or data.size != rows * cols:
            raise ValidationError("channel JSON needs rows, cols >= 1 and rows*cols data")
        return cls(data.reshape(rows, cols))

    @classmethod
    def identity(cls, k: int, out_size: int | None = None) -> "Channel":
        """Identity embedding of [k]; extra output symbols (if any) stay unused."""
        d = k if out_size is None else out_size
        if d < k:
            raise ValidationError("identity channel needs out_size >= k")
        m = np.zeros((d, k))
        m[:k, :k] = np.eye(k)
        return cls(m)


def _push(matrix: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The output law T @ p of a law p, or of each row of a stack of laws,
    clipped at 0 and divided by its sum twice: without the second division
    last bits, and designer choices, would move. Each row gets the floats it
    gets alone; a 2-D product over the stacked rows would not give them."""
    out = np.clip(matrix @ probs[..., None], 0.0, None)[..., 0]
    out = out / out.sum(axis=-1, keepdims=True)
    return out / out.sum(axis=-1, keepdims=True)


def _check_channel_input(channel: Channel, k: int) -> None:
    """Raise unless `channel` reads an alphabet of size k."""
    if channel.in_size != k:
        raise DimensionError(
            f"channel expects alphabet size {channel.in_size}, distribution has {k}"
        )


def apply_channel(channel: Channel, dist: Distribution) -> Distribution:
    _check_channel_input(channel, dist.k)
    return _trusted(Distribution, probs=_push(channel.matrix, dist.probs))


@dataclass(frozen=True, eq=False)
class ThresholdSet(_Value):
    """Sorted positive thresholds 0 < g_1 <= ... <= g_{D-1} < inf on the
    likelihood ratio axis; repeated values produce empty (unused) cells."""

    values: np.ndarray

    def __init__(self, values):
        arr = _as_float_array(values, "thresholds")
        if np.any(arr <= 0):
            raise ValidationError("thresholds must be strictly positive")
        if np.any(np.diff(arr) < 0):
            raise ValidationError("thresholds must be sorted non-decreasing")
        _freeze(self, values=arr)

    @property
    def out_size(self) -> int:
        return self.values.size + 1

    def to_json(self) -> dict:
        return {"thresholds": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "ThresholdSet":
        return cls(*_read_json(obj, "threshold", thresholds="array"))


def likelihood_ratios(p: Distribution, q: Distribution) -> np.ndarray:
    """Pointwise p_i/q_i with 0/0 -> 0 and a/0 -> inf."""
    _check_same_alphabet(p, q)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = p.probs / q.probs  # a/0 is already inf
    return np.where((q.probs == 0) & (p.probs == 0), 0.0, r)


def threshold_channel(p: Distribution, q: Distribution, gamma: ThresholdSet) -> Channel:
    """Deterministic channel labelling x by which ratio cell p(x)/q(x) lands in.

    Cell j collects ratios in [g_j, g_{j+1}) with g_0 = 0, g_D = inf; points
    with q(x) = 0 < p(x) go to the top cell.
    """
    return _trusted(Channel, matrix=_ratio_labels(likelihood_ratios(p, q), gamma.values))


def _ratio_labels(ratios: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The 0/1 matrix of `threshold_channel`, given the likelihood ratios of
    (p, q) and the sorted thresholds; an infinite ratio lands past them all."""
    labels = np.searchsorted(levels, ratios, side="right")
    return (np.arange(levels.size + 1)[:, None] == labels).astype(float)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) for NaN-free a: same sort, same bytes, no numpy.ma import."""
    s = np.sort(a, axis=None)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


def _check_same_alphabet(p: Distribution, q: Distribution) -> None:
    if p.k != q.k:
        raise DimensionError(f"alphabet mismatch: {p.k} vs {q.k}")


# --------------------------------------------------------------------------
# f-divergences


@dataclass(frozen=True)
class FDivergenceSpec:
    """A generator f plus the constants certifying it is well behaved:

    f convex, f(1) = 0, the symmetry x*f(y/x) = y*f(x/y), and the sandwich
    c1 * x**alpha <= f(1 + x) <= c2 * x**alpha for x in [0, kappa].

    `at_zero` is f(0) and `slope_at_inf` is lim_{u->inf} f(u)/u; either may
    be inf.
    """

    name: str
    f: Callable[[float], float] = field(compare=False)
    kappa: float
    c1: float
    c2: float
    alpha: float
    at_zero: float
    slope_at_inf: float

    def evaluate(self, x: float) -> float:
        if x < 0:
            raise ValidationError("f is only defined on [0, inf)")
        if x == 0:
            return self.at_zero
        return float(self.f(x))


def _sym_kl_generator(x: float) -> float:
    return (x - 1.0) * math.log(x)


def _triangular_generator(x: float) -> float:
    # (x - 1)**2 stays finite exactly up to sqrt(float max); past it, factor.
    t = x - 1.0
    if t <= _SQRT_FLOAT_MAX:
        return t ** 2 / (1.0 + x)
    return t * (t / (1.0 + x))


_BUILTINS: dict[str, FDivergenceSpec] = {
    "hellinger": FDivergenceSpec(
        name="hellinger",
        f=lambda x: (math.sqrt(x) - 1.0) ** 2,
        kappa=1.0,
        c1=2.0 ** -3.5,
        c2=1.0,
        alpha=2.0,
        at_zero=1.0,
        slope_at_inf=1.0,
    ),
    "tv": FDivergenceSpec(
        name="tv",
        f=lambda x: 0.5 * abs(x - 1.0),
        kappa=1.0,
        c1=0.5,
        c2=0.5,
        alpha=1.0,
        at_zero=0.5,
        slope_at_inf=0.5,
    ),
    "sym_kl": FDivergenceSpec(
        name="sym_kl",
        f=_sym_kl_generator,
        kappa=1.0,
        c1=0.5,
        c2=1.0,
        alpha=2.0,
        at_zero=math.inf,
        slope_at_inf=math.inf,
    ),
    "triangular": FDivergenceSpec(
        name="triangular",
        f=_triangular_generator,
        kappa=1.0,
        c1=1.0 / 3.0,
        c2=0.5,
        alpha=2.0,
        at_zero=1.0,
        slope_at_inf=1.0,
    ),
}


def sym_chi_spec(s: float) -> FDivergenceSpec:
    """Symmetrized chi^s generator |x-1|^s + x^{1-s} |x-1|^s, s in [1, 2]."""
    if not (1.0 <= s <= 2.0):
        raise ValidationError("sym_chi order s must lie in [1, 2]")
    return FDivergenceSpec(
        name=f"sym_chi_{s:g}",
        f=lambda x: abs(x - 1.0) ** s * (1.0 + x ** (1.0 - s)),
        kappa=1.0,
        c1=1.0,
        c2=3.0,
        alpha=s,
        at_zero=2.0 if s == 1.0 else math.inf,
        slope_at_inf=2.0 if s == 1.0 else math.inf,
    )


def builtin_fdiv(name: str) -> FDivergenceSpec:
    """Look up a built-in generator; sym_chi takes its order as a suffix,
    e.g. "sym_chi_1.5"."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name.startswith("sym_chi_"):
        try:
            s = float(name[len("sym_chi_"):])
        except ValueError as exc:
            raise ValidationError(f"bad sym_chi order in {name!r}") from exc
        return sym_chi_spec(s)
    raise ValidationError(
        f"unknown f-divergence {name!r}; available: "
        f"{sorted(_BUILTINS)} or sym_chi_<s>"
    )


def _fdiv_term(spec: FDivergenceSpec, pi: float, qi: float) -> float:
    """One summand q_i f(p_i / q_i) of I_f, with the 0/0 and a/0 conventions;
    past p_i = q_i sqrt(float max), if it overflows, p_i f(q_i / p_i) instead
    (x f(y/x) = y f(x/y)): the quotient, or f of it, may pass the float range
    though the summand does not."""
    if qi > 0:
        if pi <= qi * _SQRT_FLOAT_MAX:
            return qi * spec.evaluate(pi / qi)
        with np.errstate(over="ignore", invalid="ignore"):
            term = qi * spec.evaluate(pi / qi)
            return term if math.isfinite(term) else pi * spec.evaluate(qi / pi)
    if pi > 0:
        return pi * spec.slope_at_inf
    return 0.0


def _fdiv_sum(spec: FDivergenceSpec, pa: np.ndarray, qa: np.ndarray) -> float:
    """I_f over two probability arrays of one length."""
    total = 0.0
    for pi, qi in zip(pa, qa):
        total += _fdiv_term(spec, pi, qi)
    return float(total)


def f_divergence(spec: FDivergenceSpec, p: Distribution, q: Distribution) -> float:
    _check_same_alphabet(p, q)
    return _fdiv_sum(spec, p.probs, q.probs)


def hellinger_affinity(p: Distribution, q: Distribution) -> float:
    _check_same_alphabet(p, q)
    return float(np.sqrt(p.probs * q.probs).sum())


def hellinger_sq(p: Distribution, q: Distribution) -> float:
    """Squared Hellinger distance sum (sqrt(p_i) - sqrt(q_i))^2 = 2(1 - affinity)."""
    _check_same_alphabet(p, q)
    return float(((np.sqrt(p.probs) - np.sqrt(q.probs)) ** 2).sum())


def total_variation(p: Distribution, q: Distribution) -> float:
    _check_same_alphabet(p, q)
    return float(0.5 * np.abs(p.probs - q.probs).sum())

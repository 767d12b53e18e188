"""Robust binary testing under total-variation contamination.

The least favorable pair for TV balls of radius eps around (p, q) clips the
likelihood ratio: p_lfd / q_lfd = clamp(p/q, clip_low, clip_high). Each clip
constant solves a scalar balance equation that makes exactly eps TV mass
move; the equation is piecewise linear in the constant, so its root comes in
closed form from one sort and one prefix sum. The moved mass is
redistributed inside the clipped region (the resulting Hellinger affinity
does not depend on the per-element split, so a proportional split is used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    Channel,
    Distribution,
    _freeze,
    _real,
    _trusted,
    likelihood_ratios,
    total_variation,
)
from .errors import DegenerateInputError, InfeasibleContaminationError, ValidationError

if TYPE_CHECKING:
    from .quantizer import QuantizeResult


@dataclass(frozen=True)
class ContaminationSetup:
    """Hypotheses p vs q with TV-contamination radius eps around each."""

    p: Distribution
    q: Distribution
    epsilon: float

    def __init__(self, p: Distribution, q: Distribution, epsilon: float):
        epsilon = _real("epsilon", epsilon, "[0, inf)")
        tv = total_variation(p, q)
        if epsilon >= tv / 2.0:
            raise InfeasibleContaminationError(
                f"epsilon={epsilon} >= d_TV(p,q)/2 = {tv / 2.0}: balls meet"
            )
        _freeze(self, p=p, q=q, epsilon=epsilon)


@dataclass(frozen=True)
class LfdPair:
    """Least favorable pair plus the ratio clip constants that define it."""

    p_lfd: Distribution
    q_lfd: Distribution
    clip_low: float
    clip_high: float

    def to_json(self) -> dict:
        return {
            "p_lfd": self.p_lfd.to_json(),
            "q_lfd": self.q_lfd.to_json(),
            "clip_low": self.clip_low,
            "clip_high": self.clip_high,
        }


def _clip_side(a: Distribution, b: Distribution, eps: float):
    """Clip a/b from above so that exactly eps of a's mass moves onto b.

    The balance G(c) = sum_i (a_i - c b_i)_+ - eps (1 + c) is the maximum over
    index sets S of the lines A_S - c B_S - eps (1 + c), so its root is the
    largest line root (A_S - eps) / (B_S + eps), and that is reached on a set
    of the largest ratios a_i / b_i (Huber 1965). Returns the winning prefix
    of the atoms sorted by ratio, each prefix atom's share of A_S + B_S, and
    the root's numerator and denominator. An atom's new masses are its share
    of the numerator (a) and of the denominator (b): it keeps a_i + b_i, and
    mass moves in proportion to its excess a_i - c b_i.
    """
    r = likelihood_ratios(a, b)
    order = np.argsort(-r, kind="stable")
    num = np.cumsum(a.probs[order]) - eps
    den = np.cumsum(b.probs[order]) + eps
    with np.errstate(over="ignore"):
        quot = num / den
    # A prefix ending on a ratio below its own quotient only won by rounding.
    j = int(np.argmax(np.where(r[order] >= quot, quot, -np.inf)))
    top = order[: j + 1]
    share = (a.probs[top] + b.probs[top]) / (num[j] + den[j])
    return top, share, float(num[j]), float(den[j])


def huber_lfd(setup: ContaminationSetup) -> LfdPair:
    """Least favorable pair for the TV balls: exact eps of mass moves in each
    distribution and the LFD likelihood ratio is the clipped original ratio."""
    eps = setup.epsilon
    if eps == 0.0:  # no clip: the constants span the ratios of the joint support, 0 and inf too
        r = likelihood_ratios(setup.p, setup.q)[(setup.p.probs > 0) | (setup.q.probs > 0)]
        return LfdPair(p_lfd=setup.p, q_lfd=setup.q, clip_low=float(r.min()),
                       clip_high=float(r.max()))

    # High region: p loses eps to q; low region, the mirror: q loses eps to p.
    high, share_hi, num_hi, den_hi = _clip_side(setup.p, setup.q, eps)
    low, share_lo, num_lo, den_lo = _clip_side(setup.q, setup.p, eps)
    c_lo, c_hi = den_lo / num_lo, num_hi / den_hi
    if np.isinf(c_hi):
        raise DegenerateInputError(f"eps={eps!r} is too small: clip_high overflows")
    q_new = setup.q.probs.copy()
    q_new[high], q_new[low] = share_hi * den_hi, share_lo * num_lo
    # p = c q in both regions: the clipped ratio up to a single rounding.
    p_new = setup.p.probs.copy()
    p_new[high], p_new[low] = c_hi * q_new[high], c_lo * q_new[low]
    return LfdPair(
        p_lfd=Distribution(p_new),
        q_lfd=Distribution(q_new),
        clip_low=c_lo,
        clip_high=c_hi,
    )


def design_robust_channel(
    setup: ContaminationSetup, out_size: int
) -> tuple[LfdPair, QuantizeResult]:
    """LFD pair plus a Hellinger-preserving channel designed for it."""
    from .quantizer import design_hellinger_channel
    lfd = huber_lfd(setup)
    design = design_hellinger_channel(lfd.p_lfd, lfd.q_lfd, out_size)
    return lfd, design


def robust_decide(
    channel: Channel, lfd: LfdPair, messages: Sequence[int]
) -> str:
    """LRT between the channel images of the LFD pair; ties go to P."""
    from .testing import TestRule, lrt_decide
    rule = _trusted(TestRule, channels=(channel,))  # one channel: nothing to check
    return lrt_decide(lfd.p_lfd, lfd.q_lfd, rule, messages)


def example_nonrobust_instance(
    eps: float, alpha: float
) -> tuple[Distribution, Distribution, Distribution, Channel]:
    """Three-point pair where the optimal clean channel (the indicator of the
    third symbol) is blinded by an eps^(1+alpha)-small contamination of p.

    Returns (p, q, p_contaminated, blinding_channel).
    """
    alpha, eps = _real("alpha", alpha, "(0, 1)"), _real("eps", eps, "(0, 0.1]")
    spike = eps ** (1.0 + alpha)
    p = Distribution([0.5 - 3 * eps - spike, 0.5 + 3 * eps, spike])
    q = Distribution([0.5, 0.5, 0.0])
    p_tilde = Distribution([0.5 - 3 * eps, 0.5 + 3 * eps, 0.0])
    channel = Channel([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    return p, q, p_tilde, channel


def example_phase_transition_instance(
    eps: float, alpha: float, beta: float, delta: float
) -> tuple[Distribution, Distribution]:
    """Four-point pair whose testing difficulty jumps as the contamination
    radius crosses eps^(1+delta): d_h^2(p, q) = Theta(eps^(1+delta)) while
    the binary Scheffe reduction only sees Theta(eps^2)."""
    alpha, beta, delta = (_real(name, value, "(0, 1)") for name, value in
                          (("alpha", alpha), ("beta", beta), ("delta", delta)))
    if not (alpha < beta < delta < 2 * beta - alpha):
        raise ValidationError("need alpha < beta < delta < 2*beta - alpha")
    eps = _real("eps", eps, "(0, 0.01]")
    ea = eps ** (1.0 + alpha)
    eb = eps ** (1.0 + beta)
    ed = eps ** (1.0 + delta)
    p = Distribution([0.5 - 2 * eps - ea + eb - ed, 0.5 + 2 * eps, ea - eb, ed])
    q = Distribution([0.5, 0.5 - ea, ea, 0.0])
    return p, q

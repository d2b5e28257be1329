"""Min-norm contraction feedback from geodesic boundary data.

Given the geodesic from the desired state to the actual state, the feedback
term is the smallest input correction (in the Euclidean norm) that makes the
Riemannian energy decay at the contracted rate.  That constraint is a single
linear inequality in the input, so the minimizer has a closed form: zero when
the inequality already holds, otherwise a scaled copy of the constraint
normal.  No iterative QP solver is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesic import GeodesicCurve
from .metric import MetricField
from .models import matvec, row_dot

# Below this constraint-normal norm the closed form divides by ~zero, so the
# correction is left at zero.
_FEASIBILITY_FLOOR = 1e-10
# The constraint counts as degenerate (no input reaches it: B^T M gamma' ~ 0)
# only when its normal is also this small relative to the geodesic's endpoint
# speed.  At vanishing tracking error normal and speed shrink together, and
# the unforced decay falls short by rounding alone.
_DEGENERATE_RATIO = 1e-10


@dataclass
class CcmFeedbackResult:
    """Row-wise feedback of a batch of geodesics."""

    gain: np.ndarray             # (K, m) min-norm input corrections
    active_rows: np.ndarray      # (K,) the correction is nonzero
    infeasible_rows: np.ndarray  # (K,) the constraint normal degenerated

    @property
    def active(self) -> bool:
        """True when some row's correction is nonzero."""
        return bool(self.active_rows.any())

    @property
    def infeasible(self) -> bool:
        """True when some row's constraint normal degenerated."""
        return bool(self.infeasible_rows.any())


def feedback_gain(field: MetricField, curve: GeodesicCurve,
                  rate_des: np.ndarray, rate_act: np.ndarray,
                  input_act: np.ndarray) -> CcmFeedbackResult:
    """Closed-form min-norm feedback for each row of a batch of geodesics.

    Row r of the curve must run from the desired state (s=0) to the actual
    state (s=1); the endpoint metrics are the ones the solver evaluated (and
    checked positive definite) for it.  ``rate_des`` and ``rate_act`` are
    the nominal rates under the desired input at the desired and the actual
    states ((K, n), or (1, n) shared by every row) and ``input_act`` the
    (K, n, m) input matrices at the actual states.  When the constraint
    normal degenerates (actual state nearly uncontrollable through the
    metric), the row's gain is zero and it is flagged infeasible; callers
    log it as a certificate violation.
    """
    m_x, m_des = curve.metrics[:, -1], curve.metrics[:, 0]
    v_end, v_start = curve.velocities[:, -1], curve.velocities[:, 0]
    lam = field.contraction_rate

    # decay constraint in the input correction k:  a @ k <= b
    a = 2.0 * matvec(input_act.swapaxes(1, 2), matvec(m_x, v_end))
    b = (-2.0 * lam * curve.energy
         - 2.0 * row_dot(v_end, matvec(m_x, rate_act))
         + 2.0 * row_dot(v_start, matvec(m_des, rate_des)))

    # no correction when the unforced decay suffices (b >= 0) or when no
    # input reaches the constraint (a degenerate normal)
    a_sq = row_dot(a, a)
    zero = (b >= 0.0) | (a_sq < _FEASIBILITY_FLOOR ** 2)
    active = ~zero
    coef = b / np.where(active, a_sq, 1.0)
    gain = np.where(active[:, None], coef[:, None] * a, 0.0)
    # a zero correction where the decay falls short is degenerate only if
    # the normal is negligible against the geodesic's endpoint speed
    infeasible = zero & (b < 0.0)
    if infeasible.any():
        infeasible &= a_sq <= _DEGENERATE_RATIO ** 2 * row_dot(v_end, v_end)
    return CcmFeedbackResult(gain=gain, active_rows=active,
                             infeasible_rows=infeasible)

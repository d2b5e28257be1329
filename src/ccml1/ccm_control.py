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
from .models import DynamicsModel

# Below this constraint-normal norm the inequality cannot be influenced by
# the input at all (B^T M gamma' ~ 0) and the closed form divides by ~zero.
_FEASIBILITY_FLOOR = 1e-10


@dataclass
class CcmFeedbackResult:
    """Feedback value plus the pieces audits care about."""

    gain: np.ndarray            # the min-norm input correction
    constraint_slack: float     # b >= 0 means the constraint was inactive
    active: bool                # True when the correction is nonzero
    infeasible: bool            # True when the constraint normal degenerated
    geodesic: GeodesicCurve
    energy: float


def feedback_gain(model: DynamicsModel, field: MetricField,
                  curve: GeodesicCurve, u_desired: np.ndarray
                  ) -> CcmFeedbackResult:
    """Closed-form min-norm feedback for one geodesic.

    The curve must run from the desired state (s=0) to the actual state
    (s=1); the endpoint metrics are the ones the solver evaluated (and
    checked positive definite) for it.  When the constraint normal
    degenerates (actual state nearly uncontrollable through the metric), the
    returned gain is zero and ``infeasible`` is set; callers log it as a
    certificate violation.
    """
    x_des = curve.states[0]
    x = curve.states[-1]
    m_x = curve.endpoint_metric("end")
    m_des = curve.endpoint_metric("start")
    v_end = curve.endpoint_velocity("end")
    v_start = curve.endpoint_velocity("start")
    lam = field.contraction_rate

    rate_des = model.nominal_rate(x_des, u_desired)
    rate_act = model.nominal_rate(x, u_desired)

    # decay constraint in the input correction k:  a @ k <= b
    a = 2.0 * (model.input_matrix(x).T @ (m_x @ v_end))
    b = (-2.0 * lam * curve.energy
         - 2.0 * float(v_end @ (m_x @ rate_act))
         + 2.0 * float(v_start @ (m_des @ rate_des)))

    # no correction when the unforced decay suffices (b >= 0) or when no
    # input reaches the constraint (a degenerate normal: infeasible)
    a_sq = float(a @ a)
    if b >= 0.0 or a_sq < _FEASIBILITY_FLOOR ** 2:
        return CcmFeedbackResult(gain=np.zeros(model.input_dim),
                                 constraint_slack=b, active=False,
                                 infeasible=b < 0.0, geodesic=curve,
                                 energy=curve.energy)

    gain = (b / a_sq) * a
    return CcmFeedbackResult(gain=gain, constraint_slack=b, active=True,
                             infeasible=False, geodesic=curve,
                             energy=curve.energy)

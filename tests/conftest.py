import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ccml1.models import builtin_example
from ccml1.sim import ilqr_plan

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def ex1():
    return builtin_example("ex1")


@pytest.fixture(scope="session")
def ex2():
    return builtin_example("ex2")


@pytest.fixture(scope="session")
def ex2_plan(ex2):
    """Planned transfer to the origin; reused everywhere (it is expensive)."""
    return ilqr_plan(ex2.model, np.array([3.4, -2.4]), np.zeros(2),
                     t_final=8.0, dt=0.01)


@pytest.fixture(scope="session")
def ex2_plan_fine(ex2, ex2_plan):
    return ex2_plan.refine(ex2.model, 1e-3)


@pytest.fixture(scope="session")
def is_consistent():
    """Whether a sampled (state, input) pair follows the nominal dynamics.

    Compares per-segment finite differences of the states with the nominal
    rate at the segment's state midpoint under the segment's held input
    (planner segments are zero-order hold).  The defect is normalized by
    (1 + |rate|), so a consistent integrator's output scores O(dt^2) while a
    mismatched state-input pairing scores O(1).
    """
    def check(traj, model, tol_scale=25.0):
        worst = 0.0
        for k in range(traj.states.shape[0] - 1):
            mid_x = 0.5 * (traj.states[k] + traj.states[k + 1])
            rate = model.nominal_rate(mid_x, traj.inputs[k])
            fd = (traj.states[k + 1] - traj.states[k]) / traj.dt
            worst = max(worst, float(np.linalg.norm(fd - rate)
                                     / (1.0 + np.linalg.norm(rate))))
        return worst <= 1e-9 + tol_scale * traj.dt ** 2

    return check

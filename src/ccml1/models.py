"""Uncertain control-affine system definitions and the two built-in systems.

A model is ``rate = drift(x) + input_matrix(x) @ (u + uncertainty(t, x))``
with the uncertainty entering through the input channels (matched). The
built-in systems are the package's reference workloads: a three-state
polynomial system with a state-dependent metric, and a two-state system with
a constant metric driven to the origin by a planned trajectory.

Derivative callables are optional; finite-difference fallbacks (central,
step 1e-6*(1+|x|)) keep the condition checker and constant estimators usable
for models given only as black-box callables.  Code that needs the model at
many states at once goes through :meth:`DynamicsModel.eval_batch`, which a
model may back with a vectorized implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch
from .metric import MetricField, PolyMatrix


def _fd_step(x: np.ndarray) -> float:
    return 1e-6 * (1.0 + float(np.linalg.norm(x)))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (last axis) of two stacks.

    A stacked matmul of (1, d) by (d, 1) slices makes one BLAS dot per row,
    the same call as a 1-D ``a @ b``, so each result carries the bits of
    the row-by-row product (an elementwise multiply-and-sum rounds
    differently wherever BLAS fuses the multiply-add).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Products of matching rows of a stack of matrices, (..., n, k), and a
    stack of vectors, (..., k): one BLAS matrix-vector call per row, the
    call a 2-D ``a @ v`` makes, so each row carries its row-by-row bits."""
    return (a @ v[..., None])[..., 0]


if hasattr(np, "vecdot") and hasattr(np, "matvec"):
    # the same BLAS calls, without the reshaping (numpy >= 2.2)
    row_dot, matvec = np.vecdot, np.matvec   # noqa: F811


class ModelBatch(NamedTuple):
    """Model quantities at a (k, n) batch of states; the derivative fields
    are None where only the rate was asked for."""

    drift: np.ndarray      # (k, n)
    jac: np.ndarray        # (k, n, n)
    input: np.ndarray      # (k, n, m)
    d_input: np.ndarray    # (k, n, n, m), [:, i] = d(input)/dx_i

    def rate(self, us: np.ndarray) -> np.ndarray:
        """Nominal rate ``drift + input @ u`` of each row under the matching
        row of a (k, m) input stack."""
        return self.drift + matvec(self.input, us)


@dataclass
class DynamicsModel:
    """Control-affine model given by per-state callables.

    ``uncertainty(t, x)``, when given, returns the matched uncertainty as an
    (m,) vector.  ``vectorized``, when given, maps a (k, n) batch of states to the
    :class:`ModelBatch` that :meth:`eval_batch` returns, and must agree with
    the per-state callables.  Without it, :meth:`eval_batch` loops over the
    rows, so black-box callables work unchanged.
    """

    state_dim: int
    input_dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    input_matrix: Callable[[np.ndarray], np.ndarray]
    jac_drift: Callable[[np.ndarray], np.ndarray] = None
    d_input: Callable[[np.ndarray], np.ndarray] = None  # x -> (n, n, m), [i] = d(input)/dx_i
    uncertainty: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    vectorized: Optional[Callable[[np.ndarray], ModelBatch]] = None

    def __post_init__(self):
        if self.jac_drift is None:
            self.jac_drift = self._fd_jac_drift
        if self.d_input is None:
            self.d_input = self._fd_d_input

    # -- derivative fallbacks ------------------------------------------------

    def _fd_jac_drift(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eps = _fd_step(x)
        cols = []
        for i in range(self.state_dim):
            dx = np.zeros(self.state_dim)
            dx[i] = eps
            cols.append((self.drift(x + dx) - self.drift(x - dx)) / (2 * eps))
        return np.stack(cols, axis=1)

    def _fd_d_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eps = _fd_step(x)
        out = np.empty((self.state_dim, self.state_dim, self.input_dim))
        for i in range(self.state_dim):
            dx = np.zeros(self.state_dim)
            dx[i] = eps
            out[i] = (self.input_matrix(x + dx) - self.input_matrix(x - dx)) / (2 * eps)
        return out

    # -- evaluation helpers ----------------------------------------------------

    def eval_batch(self, xs: np.ndarray) -> ModelBatch:
        """Drift, drift Jacobian, input matrix and input partials at a (k, n)
        batch of states."""
        xs = np.asarray(xs, dtype=float)
        if self.vectorized is not None:
            return self.vectorized(xs)
        k, n, m = xs.shape[0], self.state_dim, self.input_dim
        at = self.rate_batch(xs)
        return ModelBatch(
            at.drift,
            np.array([self.jac_drift(x) for x in xs],
                     dtype=float).reshape(k, n, n),
            at.input,
            np.array([self.d_input(x) for x in xs],
                     dtype=float).reshape(k, n, n, m))

    def rate_batch(self, xs: np.ndarray) -> ModelBatch:
        """Drift and input matrix at each row of a (k, n) stack of states,
        without the derivatives (``jac`` and ``d_input`` are None): what a
        simulation step needs.  Every row goes through the per-state
        callables, so it carries the bits the model gives that state alone,
        whatever the stack around it."""
        k = xs.shape[0]
        drift = np.empty((k, self.state_dim))
        input_mat = np.empty((k, self.state_dim, self.input_dim))
        for i, x in enumerate(xs):
            drift[i] = self.drift(x)
            input_mat[i] = self.input_matrix(x)
        return ModelBatch(drift, None, input_mat, None)

    def nominal_rate(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """drift(x) + input_matrix(x) @ u — the uncertainty-free vector field."""
        return self.drift(x) + self.input_matrix(x) @ u

    def input_pinv(self, x: np.ndarray) -> np.ndarray:
        """Left pseudoinverse of the (full-column-rank) input matrix."""
        b = self.input_matrix(x)
        return np.linalg.solve(b.T @ b, b.T)

    def d_input_pinv(self, x: np.ndarray) -> np.ndarray:
        """(n, m, n) stack of pseudoinverse partials via the product rule."""
        b = self.input_matrix(x)
        gram_inv = np.linalg.inv(b.T @ b)
        dstack = self.d_input(x)
        out = np.empty((self.state_dim, self.input_dim, self.state_dim))
        for i in range(self.state_dim):
            db = dstack[i]
            dgram = db.T @ b + b.T @ db
            out[i] = -gram_inv @ dgram @ gram_inv @ b.T + gram_inv @ db.T
        return out


@dataclass
class AssumptionBounds:
    """Known (or to-be-sampled) supremum bounds over the operating region.

    ``None`` entries are estimated by sampling the certification tube with an
    inflation factor; supplied entries are trusted as given.
    """

    drift_sup: Optional[float] = None            # sup |drift|
    drift_jac_sup: Optional[float] = None        # sup |d drift/dx|
    input_sup: Optional[float] = None            # sup |input matrix|
    input_grad_sup: Optional[float] = None       # sup sum_i |d input/dx_i|
    input_col_jac_sup: Optional[float] = None    # sup sum_j |jac of column j|
    unc_sup: Optional[float] = None              # sup |uncertainty|
    unc_state_grad_sup: Optional[float] = None   # sup |d uncertainty/dx|
    unc_time_grad_sup: Optional[float] = None    # sup |d uncertainty/dt|
    pinv_sup: Optional[float] = None             # sup |pinv(input matrix)|
    pinv_grad_sup: Optional[float] = None        # sup sum_i |d pinv/dx_i|
    desired_input_sup: Optional[float] = None    # sup |planned input|

    def __post_init__(self):
        for name, val in self.as_dict().items():
            if val is not None and val < 0:
                raise ValueError(f"bound {name} must be nonnegative, got {val}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class SafeSet:
    """Axis-aligned box or Euclidean ball with closed-form erosion."""

    kind: str                      # "box" | "ball"
    center: np.ndarray
    half_widths: Optional[np.ndarray] = None   # box
    radius: Optional[float] = None             # ball

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.kind == "box":
            self.half_widths = np.asarray(self.half_widths, dtype=float)
            if np.any(self.half_widths <= 0):
                raise ValueError("box half-widths must be positive")
        elif self.kind == "ball":
            if self.radius is None or self.radius <= 0:
                raise ValueError("ball radius must be positive")
        else:
            raise ValueError(f"unknown safe-set kind {self.kind!r}")

    @classmethod
    def box(cls, center, half_widths) -> "SafeSet":
        center = np.asarray(center, dtype=float)
        half_widths = np.broadcast_to(np.asarray(half_widths, dtype=float),
                                      center.shape).copy()
        return cls("box", center, half_widths=half_widths)

    @classmethod
    def ball(cls, center, radius: float) -> "SafeSet":
        return cls("ball", np.asarray(center, dtype=float), radius=float(radius))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def is_bounded(self) -> bool:
        extent = self.half_widths if self.kind == "box" else self.radius
        return bool(np.all(np.isfinite(self.center))
                    and np.all(np.isfinite(extent)))

    def contains(self, x, margin: float = 0.0):
        """Membership of a state, as a bool, or of each row of a (k, n)
        stack, as a (k,) bool array."""
        x = np.asarray(x, dtype=float)
        d = x - self.center
        if self.kind == "box":
            inside = (np.abs(d) <= self.half_widths - margin).all(axis=-1)
        else:
            # sqrt of the BLAS dot, as np.linalg.norm of one row computes it
            inside = np.sqrt(row_dot(d, d)) <= self.radius - margin
        return bool(inside) if x.ndim == 1 else inside

    def erode(self, rho: float) -> "SafeSet":
        """Pontryagin difference with a Euclidean rho-ball (closed form)."""
        if rho < 0:
            raise ValueError("erosion radius must be nonnegative")
        if self.kind == "box":
            hw = self.half_widths - rho
            if np.any(hw <= 0):
                raise ValueError(f"erosion by {rho} empties the box")
            return SafeSet.box(self.center, hw)
        r = self.radius - rho
        if r <= 0:
            raise ValueError(f"erosion by {rho} empties the ball")
        return SafeSet.ball(self.center, r)

    def sample(self, k: int, rng: np.random.Generator,
               include_extremes: bool = False) -> np.ndarray:
        """Draw k points; with extremes, prepend center/corner/pole points."""
        n = self.dim
        extremes = []
        if include_extremes:
            extremes.append(self.center.copy())
            if self.kind == "box" and n <= 12:
                for mask in range(2 ** n):
                    signs = np.array([1.0 if mask & (1 << i) else -1.0
                                      for i in range(n)])
                    extremes.append(self.center + signs * self.half_widths)
            else:
                scale = self.half_widths if self.kind == "box" else self.radius
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = 1.0
                    extremes.append(self.center + e * scale)
                    extremes.append(self.center - e * scale)
        k_rand = max(k - len(extremes), 0)
        if self.kind == "box":
            pts = self.center + rng.uniform(-1.0, 1.0, (k_rand, n)) * self.half_widths
        else:
            direc = rng.normal(size=(k_rand, n))
            direc /= np.maximum(np.linalg.norm(direc, axis=1, keepdims=True), 1e-300)
            radii = self.radius * rng.uniform(0.0, 1.0, (k_rand, 1)) ** (1.0 / n)
            pts = self.center + direc * radii
        if extremes:
            pts = np.vstack([np.array(extremes), pts])
        return pts


class DesiredTrajectory:
    """Uniformly sampled desired state/input pair, read by :meth:`sample`."""

    def __init__(self, t0: float, dt: float, states: np.ndarray, inputs: np.ndarray):
        self.t0 = float(t0)
        self.dt = float(dt)
        self.states = np.asarray(states, dtype=float)
        self.inputs = np.asarray(inputs, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.states.ndim != 2 or self.inputs.ndim != 2 \
                or self.states.shape[0] != self.inputs.shape[0]:
            raise DimensionMismatch("states/inputs sample counts differ")

    @classmethod
    def constant(cls, x_eq, u_eq, t0: float = 0.0, t_final: float = 1.0,
                 dt: float = 0.1) -> "DesiredTrajectory":
        steps = max(int(round((t_final - t0) / dt)), 1)
        xs = np.tile(np.asarray(x_eq, dtype=float), (steps + 1, 1))
        us = np.tile(np.asarray(u_eq, dtype=float), (steps + 1, 1))
        return cls(t0, dt, xs, us)

    def sample(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The desired state and input at each of an array of times, as
        (len(times), n) and (len(times), m) arrays.  The state is linear
        between samples and the input held over each step (the planner's
        zero-order hold); times outside the horizon read its ends."""
        count = self.states.shape[0]
        if count == 1:
            return (np.repeat(self.states, len(times), axis=0),
                    np.repeat(self.inputs, len(times), axis=0))
        tau = np.minimum(np.maximum((times - self.t0) / self.dt, 0.0),
                         count - 1.0)
        k = np.minimum(tau.astype(int), count - 2)
        frac = (tau - k)[:, None]
        return ((1.0 - frac) * self.states[k] + frac * self.states[k + 1],
                self.inputs[k])

    def sup_input_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.inputs, axis=1)))

    def refine(self, model: DynamicsModel, dt: float) -> "DesiredTrajectory":
        """Densify to a finer grid by re-integrating the trajectory's own flow.

        Each original segment holds its input while the state is advanced by
        RK4 at the new step, restarting from the stored node so the coarse
        nodes are reproduced exactly (open-loop replay would amplify rounding
        on unstable plants).  The segment-boundary jumps this introduces are
        the coarse integrator's local error, far below everything else.
        The new step must divide the original one.
        """
        per = int(round(self.dt / dt))
        if per < 1 or abs(per * dt - self.dt) > 1e-12 * self.dt:
            raise ValueError("refined step must evenly divide the original")
        if per == 1:
            return self
        n_seg = self.states.shape[0] - 1
        states = np.empty((n_seg * per + 1, self.states.shape[1]))
        states[0] = self.states[0]
        inputs = np.vstack([np.repeat(self.inputs[:-1], per, axis=0),
                            self.inputs[-1:]])
        # the segments are independent, so all of them advance together:
        # substep j of segment k lands on row k * per + j + 1
        us = self.inputs[:-1]
        x = self.states[:-1]
        for j in range(per):
            k1 = model.eval_batch(x).rate(us)
            k2 = model.eval_batch(x + 0.5 * dt * k1).rate(us)
            k3 = model.eval_batch(x + 0.5 * dt * k2).rate(us)
            k4 = model.eval_batch(x + dt * k3).rate(us)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            states[j + 1::per] = x
        return DesiredTrajectory(t0=self.t0, dt=dt, states=states,
                                 inputs=inputs)


class BuiltinSystem(NamedTuple):
    model: DynamicsModel
    metric: MetricField
    bounds: AssumptionBounds
    safe_set: SafeSet


# ---------------------------------------------------------------------------
# Built-in system 1: three-state polynomial plant, single input channel,
# state-dependent dual metric quadratic in x1, sinusoidal input disturbance.
# ---------------------------------------------------------------------------

_EX1_B = np.array([[0.0], [0.0], [1.0]])


def _ex1_drift(x):
    return np.array([-x[0] + x[2],
                     x[0] * x[0] - 2.0 * x[0] * x[2] - x[1] + x[2],
                     -x[1]])


def _ex1_jac(x):
    return np.array([[-1.0, 0.0, 1.0],
                     [2.0 * x[0] - 2.0 * x[2], -1.0, -2.0 * x[0] + 1.0],
                     [0.0, -1.0, 0.0]])


def _ex1_batch(xs):
    # the per-state formulas above, one array operation per entry
    x0, x1, x2 = xs[:, 0], xs[:, 1], xs[:, 2]
    k = xs.shape[0]
    drift = np.stack([-x0 + x2, x0 * x0 - 2.0 * x0 * x2 - x1 + x2, -x1],
                     axis=1)
    jac = np.zeros((k, 3, 3))
    jac[:, 0, 0] = -1.0
    jac[:, 0, 2] = 1.0
    jac[:, 1, 0] = 2.0 * x0 - 2.0 * x2
    jac[:, 1, 1] = -1.0
    jac[:, 1, 2] = -2.0 * x0 + 1.0
    jac[:, 2, 1] = -1.0
    return ModelBatch(drift, jac, np.repeat(_EX1_B[None], k, axis=0),
                      np.zeros((k, 3, 3, 1)))


def _ex1_uncertainty(t, x):
    return np.array([0.1 * math.sin(2.0 * t)])


def _ex1_dual_poly() -> PolyMatrix:
    c0 = np.array([[0.2, 0.0, -0.01],
                   [0.0, 0.22, -0.01],
                   [-0.01, -0.01, 0.22]])
    c1 = np.array([[0.0, -0.41, 0.0],
                   [-0.41, 0.0, 0.01],
                   [0.0, 0.01, 0.07]])
    c2 = np.array([[0.0, 0.0, 0.0],
                   [0.0, 0.81, 0.0],
                   [0.0, 0.0, 0.0]])
    return PolyMatrix(3, (3, 3), [((0, 0, 0), c0), ((1, 0, 0), c1), ((2, 0, 0), c2)])


# The published eigenvalue envelope [3.85, 5.88] and a contraction rate of
# 0.995 hold (with sampling cushion) on this sub-box of the declared safe set;
# the rounded printed metric coefficients do not support the full 0.1 box at
# rate 1.0. Certification flags runs that leave the validated domain.
_EX1_METRIC_BOX = 0.05
_EX1_RATE = 0.995
_EX1_EIG = (3.85, 5.88)


def _make_ex1() -> BuiltinSystem:
    model = DynamicsModel(
        state_dim=3, input_dim=1,
        drift=_ex1_drift,
        input_matrix=lambda x: _EX1_B,
        jac_drift=_ex1_jac,
        d_input=lambda x: np.zeros((3, 3, 1)),
        uncertainty=_ex1_uncertainty,
        vectorized=_ex1_batch)
    metric = MetricField.from_dual_polynomial(
        _ex1_dual_poly(), contraction_rate=_EX1_RATE,
        eig_floor=_EX1_EIG[0], eig_ceil=_EX1_EIG[1],
        domain=SafeSet.box(np.zeros(3), _EX1_METRIC_BOX),
        validate=True, n_samples=512, seed=7)
    bounds = AssumptionBounds(
        input_sup=1.0, input_grad_sup=0.0, input_col_jac_sup=0.0,
        unc_sup=0.1, unc_state_grad_sup=0.0, unc_time_grad_sup=0.2,
        pinv_sup=1.0, pinv_grad_sup=0.0, desired_input_sup=0.0)
    safe = SafeSet.box(np.zeros(3), 0.1)
    return BuiltinSystem(model, metric, bounds, safe)


# ---------------------------------------------------------------------------
# Built-in system 2: two-state plant with cubic damping, constant dual metric,
# planner-driven transfer to the origin, state- and time-dependent disturbance.
# ---------------------------------------------------------------------------

_EX2_B = np.array([[0.5], [-2.0]])
_EX2_DUAL = np.array([[4.26, -0.93], [-0.93, 3.77]])


def _ex2_drift(x):
    return np.array([-x[0] + 2.0 * x[1],
                     -0.25 * x[1] ** 3 - 3.0 * x[0] + 4.0 * x[1]])


def _ex2_jac(x):
    return np.array([[-1.0, 2.0],
                     [-3.0, 4.0 - 0.75 * x[1] ** 2]])


def _pow(col, p: float) -> np.ndarray:
    """``col ** p`` through libm's pow, as the per-state ``x[i] ** p`` does;
    numpy's SIMD array power rounds some results differently."""
    return np.array([math.pow(v, p) for v in col.tolist()])


def _ex2_batch(xs):
    x0, x1 = xs[:, 0], xs[:, 1]
    k = xs.shape[0]
    drift = np.stack([-x0 + 2.0 * x1,
                      -0.25 * _pow(x1, 3.0) - 3.0 * x0 + 4.0 * x1], axis=1)
    jac = np.empty((k, 2, 2))
    jac[:, 0, 0] = -1.0
    jac[:, 0, 1] = 2.0
    jac[:, 1, 0] = -3.0
    jac[:, 1, 1] = 4.0 - 0.75 * _pow(x1, 2.0)
    return ModelBatch(drift, jac, np.repeat(_EX2_B[None], k, axis=0),
                      np.zeros((k, 2, 2, 1)))


def _ex2_uncertainty(t, x):
    return np.array([-2.0 * math.sin(2.0 * t) - 0.1 * math.hypot(x[0], x[1])])


# Largest rate at which the printed (rounded) constant dual metric passes the
# projected contraction condition with margin.  The worst point sits on the
# x2 = 0 line well inside the box, so the margin is box-size independent;
# the box is sized to cover the planner's transient overshoot plus the tube.
_EX2_RATE = 1.739
_EX2_BOX = 5.0
# Closed-form eigenvalues of the metric, rounded outward.
_EX2_EIG = (0.200935, 0.327518)


def _make_ex2() -> BuiltinSystem:
    model = DynamicsModel(
        state_dim=2, input_dim=1,
        drift=_ex2_drift,
        input_matrix=lambda x: _EX2_B,
        jac_drift=_ex2_jac,
        d_input=lambda x: np.zeros((2, 2, 1)),
        uncertainty=_ex2_uncertainty,
        vectorized=_ex2_batch)
    safe = SafeSet.box(np.zeros(2), _EX2_BOX)
    metric = MetricField.constant_dual(
        _EX2_DUAL, contraction_rate=_EX2_RATE,
        eig_floor=_EX2_EIG[0], eig_ceil=_EX2_EIG[1], domain=safe)
    input_norm = float(np.linalg.norm(_EX2_B, 2))
    sup_state_norm = _EX2_BOX * math.sqrt(2.0)
    bounds = AssumptionBounds(
        input_sup=input_norm, input_grad_sup=0.0, input_col_jac_sup=0.0,
        unc_sup=2.0 + 0.1 * sup_state_norm,
        unc_state_grad_sup=0.1, unc_time_grad_sup=4.0,
        pinv_sup=1.0 / input_norm, pinv_grad_sup=0.0)
    return BuiltinSystem(model, metric, bounds, safe)


_BUILTINS = {"ex1": _make_ex1, "ex2": _make_ex2}


def builtin_example(name: str) -> BuiltinSystem:
    """Construct one of the built-in systems ('ex1' or 'ex2')."""
    try:
        maker = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; choose from {sorted(_BUILTINS)}")
    return maker()

"""Safety-tube certificates: constants, bandwidth/adaptation conditions, bounds.

The guarantees have the shape "if the filter bandwidth and adaptation rate
satisfy three scalar inequalities built from worst-case constants over the
tube, then the actual state stays inside a tube of known radius around the
desired trajectory".  This module computes those constants (by closed form
where available, otherwise by sampling the tube and inflating), evaluates the
inequalities with explicit margins, and exposes the resulting time-varying
radius evaluators.

The constants and the tube radius are circularly coupled (the suprema are
taken over the tube, whose radius depends on the constants).  Resolution
here: the caller fixes the candidate radius first from the chosen slack
parameters, constants are then estimated over that tube, and the conditions
are checked last.  If they fail, enlarge the slacks or the bandwidth and
repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InfeasibleCertificate
from .geodesic import GeodesicSolver
from .l1_control import L1Config
from .metric import MetricField, finite_or_none, sym
from .models import (AssumptionBounds, DesiredTrajectory, DynamicsModel,
                     row_dot)

_SIGMA_FLOOR = 1e-10
_POLE_TOL = 1e-9


@dataclass
class TubeSampling:
    """How the tube around the desired trajectory is covered."""

    n_times: int = 40
    n_dirs: int = 25
    inflation: float = 1.1
    seed: int = 0


@dataclass
class DeltaConstants:
    """Worst-case constants over the tube, plus what the evaluators need.

    Scalar fields are plain suprema; the estimator-rate and drive-magnitude
    bounds depend affinely on the filter bandwidth and are exposed as the
    evaluators :meth:`est_rate_bound` and :meth:`drive_bound`.
    ``provenance`` maps field name -> one of {"user", "sampled",
    "closed-form"}.
    """

    # resolved model/uncertainty bounds (user-supplied or sampled)
    drift_sup: float
    drift_jac_sup: float
    input_sup: float
    input_grad_sum: float
    input_col_jac_sum: float
    pinv_sup: float
    pinv_grad_sum: float
    unc_sup: float
    unc_state_grad_sup: float
    unc_time_grad_sup: float
    desired_input_sup: float
    # derived constants
    metric_grad_sum: float        # sum of metric partial norms
    gain_grad_bound: float        # sensitivity of the feedback constraint normal
    feedback_per_dist: float      # min-norm feedback magnitude per unit distance
    ref_rate_sup: float           # reference-system state rate
    rate_sup: float               # actual closed-loop state rate
    pred_error_scale: float       # prediction error times sqrt(adaptation gain)
    est_rate_static: float        # bandwidth-independent part of est_rate_bound
    est_rate_slope: float         # bandwidth coefficient of est_rate_bound
    geo_speed_rate: float         # geodesic boundary-speed drift rate
    gain_rate_bound: float        # time rate of the constraint normal
    # context carried for the evaluators
    alpha_lo: float
    alpha_hi: float
    rate: float                   # contraction rate of the metric
    tube_radius: float            # radius the suprema were taken over
    pred_matrix_norm: float
    provenance: dict = dc_field(default_factory=dict)
    n_samples: int = 0
    inflation: float = 1.0
    domain_exceeded: bool = False

    def __post_init__(self):
        for name, val in self.as_dict()["constants"].items():
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"constant {name} must be finite and >= 0, "
                                 f"got {val}")

    def est_rate_bound(self, bandwidth: float) -> float:
        """Estimation-rate constant at a given filter bandwidth."""
        return self.est_rate_static + self.est_rate_slope * bandwidth

    def drive_bound(self, bandwidth: float) -> float:
        """Adaptation-drive constant at a given filter bandwidth."""
        return (self.input_sup * self.alpha_hi
                * self.est_rate_bound(bandwidth) / self.rate)

    def as_dict(self) -> dict:
        names = ["drift_sup", "drift_jac_sup", "input_sup", "input_grad_sum",
                 "input_col_jac_sum", "pinv_sup", "pinv_grad_sum", "unc_sup",
                 "unc_state_grad_sup", "unc_time_grad_sup",
                 "desired_input_sup", "metric_grad_sum", "gain_grad_bound",
                 "feedback_per_dist", "ref_rate_sup", "rate_sup",
                 "pred_error_scale", "est_rate_static", "est_rate_slope",
                 "geo_speed_rate", "gain_rate_bound"]
        return {
            "constants": {n: float(getattr(self, n)) for n in names},
            "context": {
                "alpha_lo": self.alpha_lo, "alpha_hi": self.alpha_hi,
                "rate": self.rate, "tube_radius": self.tube_radius,
                "pred_matrix_norm": self.pred_matrix_norm,
            },
            "provenance": dict(self.provenance),
            "sampling": {"n_samples": self.n_samples,
                         "inflation": self.inflation,
                         "domain_exceeded": self.domain_exceeded},
        }


def _tube_points(traj: DesiredTrajectory, rho: float,
                 sampling: TubeSampling) -> tuple[np.ndarray, np.ndarray]:
    """Cover of the moving ball around the desired trajectory.

    Returns (times, points); each time index contributes the center plus
    axis poles plus uniform ball samples, all at radius rho.
    """
    rng = np.random.default_rng(sampling.seed)
    n = traj.states.shape[1]
    k = traj.states.shape[0]
    idx = np.unique(np.linspace(0, k - 1, sampling.n_times).astype(int))
    times, points = [], []
    for i in idx:
        t = traj.t0 + i * traj.dt
        c = traj.states[i]
        base = [np.zeros(n)]
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            base.extend([e, -e])
        dirs = rng.normal(size=(sampling.n_dirs, n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
        radii = rng.random(sampling.n_dirs) ** (1.0 / n)
        base.extend(list(dirs * radii[:, None]))
        for d in base:
            times.append(t)
            points.append(c + rho * d)
    return np.asarray(times), np.asarray(points)


def _resolve(user_val, sample_fn, provenance, name, inflation):
    if user_val is not None:
        provenance[name] = "user"
        return float(user_val)
    provenance[name] = "sampled"
    return float(sample_fn()) * inflation


def estimate_deltas(model: DynamicsModel, field: MetricField,
                    bounds: AssumptionBounds, rho: float,
                    traj: DesiredTrajectory,
                    sampling: TubeSampling | None = None,
                    l1_config: L1Config | None = None) -> DeltaConstants:
    """Worst-case constants over the tube of radius ``rho`` around ``traj``.

    User-supplied bounds are taken as given; missing ones are estimated by
    sampling the tube and inflating by ``sampling.inflation``.  The
    feedback-magnitude constant divides by the smallest nonzero singular
    value of the projected input map; if that degenerates anywhere the
    certificate cannot be built and InfeasibleCertificate is raised.
    """
    sampling = sampling or TubeSampling()
    if l1_config is None:
        l1_config = L1Config(state_dim=model.state_dim,
                             input_dim=model.input_dim,
                             bandwidth=1.0, adaptation_gain=1.0,
                             unc_bound=max(bounds.unc_sup or 1.0, 1e-12))
    times, pts = _tube_points(traj, rho, sampling)
    prov: dict[str, str] = {}
    infl = sampling.inflation

    domain_exceeded = False
    if field.domain is not None:
        domain_exceeded = not bool(np.all(field.domain.contains(pts)))

    # --- resolved model bounds ------------------------------------------------
    drifts, jacs, inputs, d_inputs = model.eval_batch(pts)
    drift_sup = _resolve(
        bounds.drift_sup,
        lambda: np.sqrt(row_dot(drifts, drifts)).max(),
        prov, "drift_sup", infl)
    drift_jac_sup = _resolve(
        bounds.drift_jac_sup,
        lambda: np.linalg.norm(jacs, 2, axis=(1, 2)).max(),
        prov, "drift_jac_sup", infl)
    input_sup = _resolve(
        bounds.input_sup,
        lambda: np.linalg.norm(inputs, 2, axis=(1, 2)).max(),
        prov, "input_sup", infl)
    input_grad_sum = _resolve(
        bounds.input_grad_sup,
        lambda: np.linalg.norm(d_inputs, 2, axis=(2, 3)).sum(axis=1).max(),
        prov, "input_grad_sum", infl)
    input_col_jac_sum = _resolve(
        bounds.input_col_jac_sup,
        # column j's Jacobian is d_inputs[:, :, :, j] transposed
        lambda: np.linalg.norm(d_inputs.swapaxes(1, 2), 2,
                               axis=(1, 2)).sum(axis=1).max(),
        prov, "input_col_jac_sum", infl)
    try:
        pinv_sup = _resolve(
            bounds.pinv_sup,
            lambda: max(np.linalg.norm(model.input_pinv(p), 2) for p in pts),
            prov, "pinv_sup", infl)
        pinv_grad_sum = _resolve(
            bounds.pinv_grad_sup,
            lambda: max(sum(np.linalg.norm(model.d_input_pinv(p)[i], 2)
                            for i in range(model.state_dim)) for p in pts),
            prov, "pinv_grad_sum", infl)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleCertificate(
            "input matrix loses column rank inside the tube; the matched "
            "channel is not invertible there", binding="input_rank") from exc

    # --- uncertainty bounds ---------------------------------------------------
    def _unc_samples():
        return max(np.linalg.norm(model.uncertainty(t, p))
                   for t, p in zip(times, pts))

    def _unc_state_grad():
        worst = 0.0
        for t, p in zip(times, pts):
            h0 = model.uncertainty(t, p)
            g = np.zeros((len(h0), model.state_dim))
            for i in range(model.state_dim):
                dp = np.zeros(model.state_dim)
                step = 1e-6 * (1.0 + abs(p[i]))
                dp[i] = step
                g[:, i] = (model.uncertainty(t, p + dp) - h0) / step
            worst = max(worst, np.linalg.norm(g, 2))
        return worst

    def _unc_time_grad():
        worst = 0.0
        for t, p in zip(times, pts):
            step = 1e-6 * (1.0 + abs(t))
            dh = (model.uncertainty(t + step, p)
                  - model.uncertainty(t, p)) / step
            worst = max(worst, np.linalg.norm(dh))
        return worst

    if model.uncertainty is None:
        unc_sup = unc_state_grad = unc_time_grad = 0.0
        prov["unc_sup"] = prov["unc_state_grad_sup"] = \
            prov["unc_time_grad_sup"] = "closed-form"
    else:
        unc_sup = _resolve(bounds.unc_sup, _unc_samples, prov, "unc_sup", infl)
        unc_state_grad = _resolve(bounds.unc_state_grad_sup, _unc_state_grad,
                                  prov, "unc_state_grad_sup", infl)
        unc_time_grad = _resolve(bounds.unc_time_grad_sup, _unc_time_grad,
                                 prov, "unc_time_grad_sup", infl)

    if bounds.desired_input_sup is not None:
        desired_input_sup = float(bounds.desired_input_sup)
        prov["desired_input_sup"] = "user"
    else:
        desired_input_sup = traj.sup_input_norm()
        prov["desired_input_sup"] = "closed-form"

    # --- metric-coupled constants ----------------------------------------------
    duals, dual_partials, _, dm = field.evaluate_batch(pts)
    if field.is_constant:
        metric_grad_sum = 0.0
        prov["metric_grad_sum"] = "closed-form"
    else:
        metric_grad_sum = float(
            np.linalg.norm(dm, ord=2, axis=(2, 3)).sum(axis=1).max()) * infl
        prov["metric_grad_sum"] = "sampled"

    alpha_lo, alpha_hi = field.eig_floor, field.eig_ceil
    lam = field.contraction_rate

    gain_grad_bound = (2.0 * input_grad_sum
                       + input_sup * metric_grad_sum / alpha_lo)
    prov["gain_grad_bound"] = "closed-form"

    # feedback magnitude per unit distance: worst generalized Rayleigh
    # quotient of the decay residual over the input's reach through the
    # dual factor.  The dual-form contraction matrix is
    # F = -(derivative of the dual along the drift) + sym(jac @ dual)
    #     + 2*rate*dual.
    d_along_f = np.einsum("ka,kaij->kij", drifts[:, field.active_coords],
                          dual_partials)
    f_mats = -d_along_f + sym(jacs @ duals) + 2.0 * lam * duals
    try:
        chol = np.linalg.cholesky(duals)        # chol @ chol.T = dual
    except np.linalg.LinAlgError:
        raise InfeasibleCertificate(
            "dual metric lost positive definiteness on the tube",
            binding="feedback_per_dist") from None
    y = np.linalg.solve(chol, f_mats)                               # L^-1 F
    g = np.linalg.solve(chol, y.swapaxes(1, 2)).swapaxes(1, 2)      # L^-1 F L^-T
    top = np.linalg.eigvalsh(0.5 * (g + g.swapaxes(1, 2)))[:, -1]
    z = np.linalg.solve(chol, inputs)
    sv = np.linalg.svd(z.swapaxes(1, 2), compute_uv=False)
    nonzero = sv > np.maximum(_SIGMA_FLOOR, 1e-12 * sv.max(axis=1))[:, None]
    if not nonzero.any(axis=1).all():
        raise InfeasibleCertificate(
            "input map degenerates through the metric on the tube",
            binding="feedback_per_dist")
    worst_ratio = max(0.0, float(np.max(
        top / np.where(nonzero, sv, np.inf).min(axis=1))))
    feedback_per_dist = max(0.0, 0.5 * worst_ratio) * infl
    prov["feedback_per_dist"] = "sampled"

    # --- rate bounds (filter norms: passband 1, complement 2, derivative 2w) --
    rate_sup = ref_rate_sup = drift_sup + input_sup * (
        2.0 * unc_sup + desired_input_sup + rho * feedback_per_dist)
    prov["ref_rate_sup"] = prov["rate_sup"] = "closed-form"

    p_mat, q_mat = l1_config.lyap_p, l1_config.lyap_q
    p_eigs = np.linalg.eigvalsh(p_mat)
    q_lo = float(np.linalg.eigvalsh(q_mat)[0])
    pred_error_scale = math.sqrt(
        4.0 * p_eigs[-1] * unc_sup * (unc_time_grad
                                      + unc_state_grad * rate_sup)
        / (p_eigs[0] * q_lo)
        + 4.0 * unc_sup ** 2 / p_eigs[0])
    prov["pred_error_scale"] = "closed-form"

    pred_matrix_norm = float(np.linalg.norm(l1_config.pred_matrix, 2))
    est_rate_static = (pinv_grad_sum * rate_sup
                       + pred_matrix_norm * pinv_sup) * pred_error_scale
    est_rate_slope = 2.0 * pinv_sup * pred_error_scale
    prov["est_rate_static"] = prov["est_rate_slope"] = "closed-form"

    geo_speed_rate = math.sqrt(alpha_hi / alpha_lo) * (
        drift_jac_sup
        + (unc_sup + desired_input_sup + rho * feedback_per_dist)
        * input_col_jac_sum
        + (unc_state_grad
           + math.sqrt(alpha_lo) * feedback_per_dist / math.sqrt(alpha_hi))
        * input_sup)
    gain_rate_bound = alpha_hi * (
        input_sup * geo_speed_rate
        + input_sup * metric_grad_sum * rate_sup
        / math.sqrt(alpha_hi * alpha_lo)
        + input_grad_sum * rate_sup)
    prov["geo_speed_rate"] = prov["gain_rate_bound"] = "closed-form"

    return DeltaConstants(
        drift_sup=drift_sup, drift_jac_sup=drift_jac_sup,
        input_sup=input_sup, input_grad_sum=input_grad_sum,
        input_col_jac_sum=input_col_jac_sum, pinv_sup=pinv_sup,
        pinv_grad_sum=pinv_grad_sum, unc_sup=unc_sup,
        unc_state_grad_sup=unc_state_grad, unc_time_grad_sup=unc_time_grad,
        desired_input_sup=desired_input_sup,
        metric_grad_sum=metric_grad_sum, gain_grad_bound=gain_grad_bound,
        feedback_per_dist=feedback_per_dist, ref_rate_sup=ref_rate_sup,
        rate_sup=rate_sup, pred_error_scale=pred_error_scale,
        est_rate_static=est_rate_static, est_rate_slope=est_rate_slope,
        geo_speed_rate=geo_speed_rate, gain_rate_bound=gain_rate_bound,
        alpha_lo=alpha_lo, alpha_hi=alpha_hi, rate=lam, tube_radius=rho,
        pred_matrix_norm=pred_matrix_norm, provenance=prov,
        n_samples=len(pts), inflation=infl, domain_exceeded=domain_exceeded)


def zeta(omega: float, d: DeltaConstants) -> tuple[float, float, float]:
    """The three bandwidth-dependent interference terms.

    All three vanish as the bandwidth grows; the first two have a pole at
    twice the contraction rate, which is rejected rather than evaluated.
    """
    if omega <= 0.0:
        raise ValueError("bandwidth must be positive")
    lam = d.rate
    if abs(2.0 * lam - omega) < _POLE_TOL:
        raise ValueError(
            f"bandwidth {omega} sits on the pole at twice the contraction "
            f"rate ({2*lam}); choose a different bandwidth")
    bracket = (d.unc_sup / abs(2.0 * lam - omega)
               + (d.unc_time_grad_sup + d.unc_state_grad_sup * d.ref_rate_sup)
               / (2.0 * lam * omega))
    z1 = 2.0 * d.tube_radius * d.input_sup * (d.alpha_hi / d.alpha_lo) * bracket
    z2 = d.alpha_hi * d.gain_grad_bound * bracket
    z3 = (d.alpha_hi * d.unc_state_grad_sup
          * (4.0 * lam * d.input_sup + d.gain_rate_bound) / (lam * omega))
    return z1, z2, z3


@dataclass
class TubeCertificate:
    """Checked tube certificate: radii, margins, and bound evaluators."""

    eps: float
    rho_a: float
    rho_r: float
    rho: float
    omega: float
    gamma: float
    energy0: float
    zeta1: float
    zeta2: float
    zeta3: float
    drive_bound: float           # adaptation-drive constant at omega
    margin_energy: float         # radius condition
    margin_bandwidth: float      # interference condition
    margin_adaptation: float     # adaptation-rate condition
    alpha_lo: float
    rate: float
    domain_exceeded: bool = False

    @property
    def valid(self) -> bool:
        return (self.margin_energy > 0.0 and self.margin_bandwidth > 0.0
                and self.margin_adaptation > 0.0)

    def mu(self, horizon: float) -> float:
        """Shrinking transient radius at a given elapsed time."""
        return math.sqrt(math.exp(-2.0 * self.rate * horizon)
                         * self.energy0 / self.alpha_lo + self.zeta1)

    def as_dict(self) -> dict:
        """JSON form; a non-finite margin is written as null.  The filter
        norms are those of the first-order low-pass: passband gain 1,
        complement 2, derivative 2 omega."""
        return {
            "eps": self.eps, "rho_a": self.rho_a, "rho_r": self.rho_r,
            "rho": self.rho, "omega": self.omega, "gamma": self.gamma,
            "energy0": self.energy0,
            "zeta": [self.zeta1, self.zeta2, self.zeta3],
            "drive_bound": self.drive_bound,
            "margins": {
                "energy": finite_or_none(self.margin_energy),
                "bandwidth": finite_or_none(self.margin_bandwidth),
                "adaptation": finite_or_none(self.margin_adaptation),
            },
            "valid": self.valid,
            "filter_norms": {"gain": 1.0, "complement": 2.0,
                             "derivative": 2.0 * self.omega},
            "domain_exceeded": self.domain_exceeded,
        }


def initial_energy(field: MetricField, x0, x0_star) -> float:
    """Riemannian energy of the geodesic from the desired to the actual
    initial state."""
    solver = GeodesicSolver(field, enforce_domain=False)
    return float(solver.solve(np.asarray(x0_star, dtype=float)[None],
                              np.asarray(x0, dtype=float)[None]).energy[0])


def tube_radii(alpha_lo: float, alpha_hi: float, eps: float, rho_a: float,
               x0, x0_star) -> tuple[float, float]:
    """Reference and full tube radii for a metric envelope [alpha_lo,
    alpha_hi]: ``rho_r = sqrt(alpha_hi/alpha_lo) |x0 - x0*| + eps`` and
    ``rho = rho_r + rho_a``."""
    gap = float(np.linalg.norm(np.asarray(x0_star, dtype=float)
                               - np.asarray(x0, dtype=float)))
    rho_r = math.sqrt(alpha_hi / alpha_lo) * gap + eps
    return rho_r, rho_r + rho_a


def check_conditions(field: MetricField, d: DeltaConstants, omega: float,
                     gamma: float, eps: float, rho_a: float,
                     x0, x0_star, energy0: float | None = None
                     ) -> TubeCertificate:
    """Evaluate the three certificate inequalities at a candidate tuning.

    The returned certificate is marked valid only when all margins are
    strictly positive.  The adaptation margin is reported as -inf when the
    interference condition already fails (the rate condition is then
    unsatisfiable at this bandwidth).  ``energy0`` is
    :func:`initial_energy` of the same states, solved here when not given.
    """
    if eps <= 0.0 or rho_a <= 0.0:
        raise ValueError("tube slack parameters must be positive")
    rho_r, rho = tube_radii(d.alpha_lo, d.alpha_hi, eps, rho_a, x0, x0_star)

    if energy0 is None:
        energy0 = initial_energy(field, x0, x0_star)

    z1, z2, z3 = zeta(omega, d)
    margin_energy = rho_r ** 2 - energy0 / d.alpha_lo - z1
    margin_bandwidth = d.alpha_lo - z2 - z3
    drive = d.drive_bound(omega)
    if margin_bandwidth > 0.0:
        margin_adaptation = math.sqrt(gamma) - drive / (rho_a
                                                        * margin_bandwidth)
    else:
        margin_adaptation = -math.inf

    return TubeCertificate(
        eps=eps, rho_a=rho_a, rho_r=rho_r, rho=rho, omega=omega, gamma=gamma,
        energy0=energy0, zeta1=z1, zeta2=z2, zeta3=z3, drive_bound=drive,
        margin_energy=margin_energy, margin_bandwidth=margin_bandwidth,
        margin_adaptation=margin_adaptation, alpha_lo=d.alpha_lo, rate=d.rate,
        domain_exceeded=d.domain_exceeded)


@dataclass
class SearchResult:
    """Outcome of the bandwidth/adaptation-rate search."""

    feasible: bool
    omega: float = float("nan")
    gamma: float = float("nan")
    binding: str = ""
    certificate: TubeCertificate | None = None


def search_params(field: MetricField, d: DeltaConstants, eps: float,
                  rho_a: float, x0, x0_star,
                  omega_range: tuple[float, float] = (1.0, 1e4),
                  margin: float = 0.1, n_grid: int = 80) -> SearchResult:
    """Smallest bandwidth on a log grid meeting the first two conditions
    with relative margin, then the matching adaptation rate.

    Returns a structured result either way; when infeasible over the range,
    ``binding`` names the condition that failed at the most favorable grid
    point.
    """
    lo, hi = omega_range
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise ValueError("bandwidth range must be finite and increasing")
    grid = np.geomspace(lo, hi, n_grid)
    energy0 = initial_energy(field, x0, x0_star)
    best_binding = "energy"
    best_shortfall = math.inf
    for omega in grid:
        if abs(2.0 * d.rate - omega) < 1e-6:
            continue
        cert = check_conditions(field, d, omega, gamma=1.0, eps=eps,
                                rho_a=rho_a, x0=x0, x0_star=x0_star,
                                energy0=energy0)
        need_energy = (cert.energy0 / d.alpha_lo + cert.zeta1) * (1.0 + margin)
        need_band = (cert.zeta2 + cert.zeta3) * (1.0 + margin)
        ok_energy = cert.rho_r ** 2 >= need_energy
        ok_band = d.alpha_lo >= need_band
        if ok_energy and ok_band:
            gamma = ((1.0 + margin)
                     * cert.drive_bound
                     / (rho_a * cert.margin_bandwidth)) ** 2
            final = check_conditions(field, d, float(omega), gamma, eps,
                                     rho_a, x0, x0_star, energy0=energy0)
            return SearchResult(feasible=True, omega=float(omega),
                                gamma=float(gamma), certificate=final)
        shortfall = 0.0
        if not ok_energy:
            shortfall += need_energy - cert.rho_r ** 2
            name = "energy"
        if not ok_band:
            shortfall += need_band - d.alpha_lo
            name = "bandwidth"
        if shortfall < best_shortfall:
            best_shortfall, best_binding = shortfall, name
    return SearchResult(feasible=False, binding=best_binding)


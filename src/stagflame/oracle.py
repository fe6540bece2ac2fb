"""Exact solution of the fast-chemistry deflagration Riemann problem.

In the limit of instantaneous chemistry the solution of the quiescent
ignition problem is a two-wave pattern: a precursor shock running into the
fresh gas, a zone of shocked fresh gas behind it, and a reactive
discontinuity (the deflagration) that eats the shocked gas at the
prescribed flame speed and leaves burnt gas at rest.  The precursor branch
uses the classical single-shock relations (see e.g. Toro, "Riemann Solvers
and Numerical Methods for Fluid Dynamics", ch. 4); the deflagration closes
the pattern with the Rankine-Hugoniot relations including the chemical
enthalpy jump.  The one scalar unknown is the shocked-gas pressure, pinned
by requiring the burnt gas to be at rest; it is found on an expanding
bracket by bisection down to two adjacent doubles, and the returned pattern
certifies itself by checking every jump relation.  Bisection needs no
tolerance, and it keeps ``scipy.optimize``, which costs about 0.3 s to
import, out of every run.  Both waves start at the closed end at t = 0:
positions are distances from that wall, at x = 0 on every grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleError
from .thermo import (
    chemical_enthalpy,
    gas_constant_mix,
    sensible_enthalpy,
    temperature,
    z_from_fractions,
)

_REL_TOL = 1e-10


@dataclass(frozen=True)
class WavePattern:
    """Self-similar two-wave solution, states ordered left (burnt) to right
    (fresh).  ``s_flame`` and ``s_shock`` are the wave speeds; only the
    shocked gas moves.  ``flame_speed_product`` is the mass-burning
    prefactor rho_shocked * u_flame used by the discrete flame term."""

    mixture: object
    p_fresh: float
    rho_fresh: float
    y_fresh: tuple
    p_shocked: float
    rho_shocked: float
    u_shocked: float
    p_burnt: float
    rho_burnt: float
    y_burnt: tuple
    s_shock: float
    s_flame: float
    u_flame: float
    heat_release: float

    @property
    def flame_speed_product(self):
        return self.rho_shocked * self.u_flame


def fresh_density(mixture, p, T, y):
    """Ideal-gas density of a mixture at (p, T)."""
    r_mix = gas_constant_mix(mixture, *y)
    return p / (r_mix * T)


def asymptotic_composition(mixture, y_F, y_O, y_N, G):
    """Composition the infinitely fast reaction leaves behind.

    Burnt cells (G < 1/2, where the reaction cutoff is active) keep only the
    excess reactant implied by the invariant z; fresh cells keep their fuel
    and oxidant.  Every cell keeps its neutral, and its product is the rest,
    1 - y_F - y_O - y_N.  Idempotent.
    """
    y_F = np.asarray(y_F, dtype=float)
    y_O = np.asarray(y_O, dtype=float)
    y_N = np.asarray(y_N, dtype=float)
    burnt = np.asarray(G) < 0.5
    z = z_from_fractions(mixture, y_F, y_O)
    yF_b = mixture.nu_F * mixture.W_F * np.maximum(z, 0.0)
    yO_b = mixture.nu_O * mixture.W_O * np.maximum(-z, 0.0)
    out_F = np.where(burnt, yF_b, y_F)
    out_O = np.where(burnt, yO_b, y_O)
    out_N = y_N.copy()
    out_P = 1.0 - out_F - out_O - out_N
    return out_F, out_O, out_N, out_P


def _wave_states(mixture, p_fresh, rho_fresh, u_flame, p):
    """At a trial shocked-gas pressure p (>= p_fresh): the state behind the
    right-running shock (rho, u, shock speed), then the burnt state behind
    the flame that eats it at ``u_flame`` (flame speed, rho, p)."""
    gamma = mixture.gamma
    beta = (gamma - 1.0) / (gamma + 1.0)
    r = p / p_fresh
    rho = rho_fresh * (r + beta) / (beta * r + 1.0)
    a_r = 2.0 / ((gamma + 1.0) * rho_fresh)
    b_r = beta * p_fresh
    u = (p - p_fresh) * np.sqrt(a_r / (p + b_r))
    c_fresh = np.sqrt(gamma * p_fresh / rho_fresh)
    s = c_fresh * np.sqrt((gamma + 1.0) / (2.0 * gamma) * r + (gamma - 1.0) / (2.0 * gamma))
    s_flame = u + u_flame
    rho_b = rho * u_flame / s_flame
    p_b = p - rho * u_flame * u
    return rho, u, s, s_flame, rho_b, p_b


def _bisect(f, lo, hi):
    """Root of ``f`` in the bracket [lo, hi] by bisection to adjacent doubles.

    The bracket is halved at ``lo + 0.5 * (hi - lo)`` until no double lies
    strictly between its ends, so no tolerance or iteration cap is needed:
    a bracket of doubles of one sign halves at most about 2100 times.
    Returns a point where ``f`` is exactly zero, or else the end with the
    smaller |f|.  Signs are compared, never multiplied, so values too small
    for their product still bracket.  Raises OracleError for a NaN value of
    ``f`` and for a bracket whose ends have the same sign.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise OracleError(f"the shocked-gas pressure balance is NaN at p = {x:.6g}")
        return fx

    f_lo = value(lo)
    f_hi = value(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise OracleError("the shocked-gas pressure bracket has no sign change")
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = value(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def solve_deflagration_riemann(mixture, p_fresh, T_fresh, y_fresh, u_flame):
    """Solve the ignition Riemann problem for a flame of speed ``u_flame``.

    The fresh gas is quiescent at (p_fresh, T_fresh) with composition
    ``y_fresh`` (mass fractions, ordered F/O/N/P).  Returns a certified
    WavePattern; raises OracleError when no admissible pattern exists or a
    jump relation check fails.
    """
    if u_flame < 0.0:
        raise OracleError("flame speed must be non-negative")
    gamma = mixture.gamma
    rho_fresh = fresh_density(mixture, p_fresh, T_fresh, y_fresh)
    if not 0.0 < rho_fresh < math.inf:
        raise OracleError(f"the fresh density p / (R T) = {rho_fresh:.6g} is "
                          f"not positive and finite")
    y_burnt = tuple(
        float(v) for v in asymptotic_composition(mixture, *y_fresh[:3], G=0.0)
    )
    # the burnt gas holds at least the fresh product and dh_P <= 0, so a
    # negative jump is the rounding of a fresh gas that cannot burn
    dq = max(chemical_enthalpy(mixture, y_fresh[3])
             - chemical_enthalpy(mixture, y_burnt[3]), 0.0)

    if u_flame == 0.0 or dq == 0.0:
        # without heat release a moving flame is a pure composition contact
        if dq > 0.0:
            raise OracleError("static flame with heat release has no self-similar pattern")
        p2, rho2, u2 = p_fresh, rho_fresh, 0.0
        s_shock = np.sqrt(gamma * p_fresh / rho_fresh)
        s_flame, rho_b, p_b = u_flame, rho_fresh, p_fresh
    else:
        def phi(p):
            rho2, _, _, s_flame, rho_b, p_b = _wave_states(
                mixture, p_fresh, rho_fresh, u_flame, p)
            hs2 = sensible_enthalpy(p, rho2, gamma)
            hs_b = sensible_enthalpy(p_b, rho_b, gamma)
            return hs_b + 0.5 * s_flame**2 - hs2 - 0.5 * u_flame**2 - dq

        lo = p_fresh
        hi = 2.0 * p_fresh
        try:
            # an overflowing or singular balance is not finite: no bracket
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for _ in range(200):
                    if phi(hi) > 0.0:
                        break
                    hi *= 2.0
                else:
                    raise OracleError("could not bracket the shocked-gas pressure")
                p2 = _bisect(phi, lo, hi)
        except OverflowError:
            raise OracleError("the shocked-gas pressure balance overflows") from None

        rho2, u2, s_shock, s_flame, rho_b, p_b = _wave_states(
            mixture, p_fresh, rho_fresh, u_flame, p2)
        if rho_b <= 0.0 or p_b <= 0.0:
            raise OracleError("non-positive burnt state")

    return _certify(WavePattern(
        mixture=mixture, p_fresh=p_fresh, rho_fresh=rho_fresh,
        y_fresh=tuple(y_fresh), p_shocked=p2, rho_shocked=rho2, u_shocked=u2,
        p_burnt=p_b, rho_burnt=rho_b, y_burnt=y_burnt,
        s_shock=s_shock, s_flame=s_flame, u_flame=u_flame, heat_release=dq,
    ))


def rh_residuals(pattern):
    """Relative jump-relation residuals of both waves.

    Keys: mass/momentum/energy residuals across the precursor shock and the
    reactive discontinuity; energies include the chemical enthalpy.
    """
    mix = pattern.mixture
    gamma = mix.gamma
    c = np.sqrt(gamma * pattern.p_fresh / pattern.rho_fresh)
    m_scale = pattern.rho_fresh * c
    q_scale = pattern.p_fresh + pattern.rho_fresh * c**2
    e_scale = (sensible_enthalpy(pattern.p_fresh, pattern.rho_fresh, gamma)
               + c**2 + pattern.heat_release)

    out = {}

    def jump(tag, sL, pL, rhoL, uL, hcL, pR, rhoR, uR, hcR):
        mL = rhoL * (uL - sL)
        mR = rhoR * (uR - sL)
        out[f"{tag}_mass"] = abs(mL - mR) / m_scale
        out[f"{tag}_momentum"] = abs(
            (pL + mL * (uL - sL)) - (pR + mR * (uR - sL))
        ) / q_scale
        eL = sensible_enthalpy(pL, rhoL, gamma) + hcL + 0.5 * (uL - sL) ** 2
        eR = sensible_enthalpy(pR, rhoR, gamma) + hcR + 0.5 * (uR - sL) ** 2
        out[f"{tag}_energy"] = abs(eL - eR) / e_scale

    hc_fresh = chemical_enthalpy(mix, pattern.y_fresh[3])
    hc_burnt = chemical_enthalpy(mix, pattern.y_burnt[3])
    jump("shock", pattern.s_shock,
         pattern.p_shocked, pattern.rho_shocked, pattern.u_shocked, hc_fresh,
         pattern.p_fresh, pattern.rho_fresh, 0.0, hc_fresh)
    jump("flame", pattern.s_flame,
         pattern.p_burnt, pattern.rho_burnt, 0.0, hc_burnt,
         pattern.p_shocked, pattern.rho_shocked, pattern.u_shocked, hc_fresh)
    return out


def _certify(pattern):
    res = rh_residuals(pattern)
    worst = max(res.values())
    if not np.isfinite(worst) or worst > _REL_TOL:
        raise OracleError(f"jump relation residual {worst:.3e} exceeds {_REL_TOL:.1e}")
    if pattern.s_shock <= pattern.s_flame:
        raise OracleError(
            f"precursor speed {pattern.s_shock:.6g} does not outrun "
            f"the flame {pattern.s_flame:.6g}"
        )
    return pattern


def _region_values(pattern):
    """Per-field (burnt, shocked, fresh) plateau values."""
    mix = pattern.mixture
    yb, yf = pattern.y_burnt, pattern.y_fresh
    z = float(z_from_fractions(mix, yf[0], yf[1]))
    fields = {
        "p": (pattern.p_burnt, pattern.p_shocked, pattern.p_fresh),
        "rho": (pattern.rho_burnt, pattern.rho_shocked, pattern.rho_fresh),
        "u": (0.0, pattern.u_shocked, 0.0),
        "y_F": (yb[0], yf[0], yf[0]),
        "y_O": (yb[1], yf[1], yf[1]),
        "y_N": (yb[2], yf[2], yf[2]),
        "y_P": (yb[3], yf[3], yf[3]),
        "z": (z, z, z),
        "G": (0.0, 1.0, 1.0),
    }
    gamma = mix.gamma
    hs, T = [], []
    columns = ("p", "rho", "y_F", "y_O", "y_N", "y_P")
    for p, rho, *y in zip(*(fields[k] for k in columns)):
        hs.append(sensible_enthalpy(p, rho, gamma))
        T.append(temperature(mix, p / ((gamma - 1.0) * rho), *y))
    fields["h_s"] = tuple(hs)
    fields["T"] = tuple(T)
    return fields


def sample_solution(pattern, x, t):
    """Point values of the exact solution at positions x and time t (> 0)."""
    if t <= 0.0:
        raise OracleError("the self-similar solution needs t > 0")
    # x against s t, not x / t against s: x / t overflows for a tiny t
    x = np.asarray(x, dtype=float)
    region = np.where(x < pattern.s_flame * t, 0,
                      np.where(x < pattern.s_shock * t, 1, 2))
    return {name: np.asarray(vals)[region]
            for name, vals in _region_values(pattern).items()}


def interval_averages(pattern, edges, t):
    """Exact averages of the solution over the intervals defined by ``edges``.

    ``edges`` is an increasing array of n+1 interval boundaries; the result
    holds, for every field, the exact mean of the piecewise-constant
    solution over each of the n intervals at time t.
    """
    if t <= 0.0:
        raise OracleError("the self-similar solution needs t > 0")
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    b = edges[1:]
    width = b - a
    x_flame = pattern.s_flame * t
    x_shock = pattern.s_shock * t
    len_burnt = np.clip(np.minimum(b, x_flame) - a, 0.0, None)
    len_fresh = np.clip(b - np.maximum(a, x_shock), 0.0, None)
    len_shocked = width - len_burnt - len_fresh
    return {name: (len_burnt * vb + len_shocked * vs + len_fresh * vf) / width
            for name, (vb, vs, vf) in _region_values(pattern).items()}


def exact_cell_averages(pattern, grid, t):
    """Exact primal-cell averages of every field at time t."""
    return interval_averages(pattern, grid.x_faces, t)


def exact_dual_averages(pattern, grid, t):
    """Exact dual-cell averages (the velocity control volumes) at time t."""
    edges = np.concatenate(([grid.x_faces[0]], grid.x_centers, [grid.x_faces[-1]]))
    return interval_averages(pattern, edges, t)

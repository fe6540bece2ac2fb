import math
import random
from dataclasses import replace

import numpy as np
import pytest

from stagflame import oracle
from stagflame.errors import OracleError
from stagflame.grid import build_uniform_grid
from stagflame.harness import CaseConfig
from stagflame.oracle import (
    asymptotic_composition,
    exact_cell_averages,
    exact_dual_averages,
    fresh_density,
    interval_averages,
    rh_residuals,
    sample_solution,
    solve_deflagration_riemann,
)
from stagflame.thermo import gas_constant_mix, mass_fractions_from_molar
from helpers import benchmark_mixture

# reference configuration: quiescent stoichiometric hydrogen/oxygen/nitrogen
# mixture at 0.99 bar and 283 K ignited by a flame of speed 63 m/s
P_FRESH = 9.9e4
T_FRESH = 283.0
U_FLAME = 63.0


def benchmark_pattern():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    return solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, U_FLAME)


def test_fresh_density_is_ideal_gas():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    rho = fresh_density(mix, P_FRESH, T_FRESH, y)
    r = gas_constant_mix(mix, *y)
    assert rho == pytest.approx(P_FRESH / (r * T_FRESH), rel=1e-14)
    assert rho == pytest.approx(0.8896, rel=1e-3)


def _burnt_and_fresh_velocities(pattern, t=1e-3):
    """The sampled velocity one unit of xi inside the burnt and the fresh
    region."""
    x = t * np.array([pattern.s_flame - 1.0, pattern.s_shock + 1.0])
    return sample_solution(pattern, x, t)["u"]


def test_benchmark_pattern_values():
    # pinned plateau values for the reference configuration
    pat = benchmark_pattern()
    assert np.all(_burnt_and_fresh_velocities(pat) == 0.0)
    assert pat.p_shocked == pytest.approx(350756.435, rel=1e-8)
    assert pat.u_shocked == pytest.approx(401.96661, rel=1e-8)
    assert pat.rho_shocked == pytest.approx(2.0760191, rel=1e-8)
    assert pat.p_burnt == pytest.approx(298183.54, rel=1e-8)
    assert pat.rho_burnt == pytest.approx(0.28128730, rel=1e-8)
    assert pat.s_flame == pytest.approx(464.96661, rel=1e-8)
    assert pat.s_shock == pytest.approx(703.65546, rel=1e-8)
    assert pat.heat_release == pytest.approx(3225002.0, rel=1e-8)
    assert pat.flame_speed_product == pytest.approx(pat.rho_shocked * U_FLAME)


def test_benchmark_pattern_is_admissible():
    pat = benchmark_pattern()
    # compressive precursor, expanding deflagration, ordered wave speeds
    assert pat.p_shocked > pat.p_fresh
    assert pat.rho_shocked > pat.rho_fresh
    assert pat.p_burnt < pat.p_shocked
    assert pat.rho_burnt < pat.rho_shocked
    assert 0.0 < pat.s_flame < pat.s_shock
    # the flame speed is the shocked-gas speed relative to the front
    assert pat.s_flame - pat.u_shocked == pytest.approx(U_FLAME, rel=1e-12)


def test_jump_relation_residuals():
    res = rh_residuals(benchmark_pattern())
    assert set(res) == {
        "shock_mass", "shock_momentum", "shock_energy",
        "flame_mass", "flame_momentum", "flame_energy",
    }
    assert max(res.values()) < 1e-10


def test_shock_satisfies_textbook_relations():
    # independent re-derivation of the precursor branch
    pat = benchmark_pattern()
    g = pat.mixture.gamma
    r = pat.p_shocked / pat.p_fresh
    beta = (g - 1.0) / (g + 1.0)
    rho_want = pat.rho_fresh * (r + beta) / (beta * r + 1.0)
    assert pat.rho_shocked == pytest.approx(rho_want, rel=1e-12)
    a_r = 2.0 / ((g + 1.0) * pat.rho_fresh)
    b_r = beta * pat.p_fresh
    u_want = (pat.p_shocked - pat.p_fresh) * np.sqrt(a_r / (pat.p_shocked + b_r))
    assert pat.u_shocked == pytest.approx(u_want, rel=1e-12)


def test_burnt_composition_is_the_asymptotic_map():
    pat = benchmark_pattern()
    want = asymptotic_composition(pat.mixture, *pat.y_fresh, G=0.0)
    assert pat.y_burnt == tuple(float(v) for v in want)
    # stoichiometric fresh gas burns out completely
    assert pat.y_burnt[0] == 0.0
    assert pat.y_burnt[1] == 0.0
    assert pat.y_burnt[2] == pytest.approx(pat.y_fresh[2], abs=1e-15)
    assert sum(pat.y_burnt) == pytest.approx(1.0, abs=1e-14)


def test_asymptotic_composition_is_idempotent_and_gated():
    mix = benchmark_mixture()
    y = (0.04, 0.1, 0.5, 0.36)  # rich
    out = asymptotic_composition(mix, *y, G=0.0)
    again = asymptotic_composition(mix, *out, G=0.0)
    assert np.allclose(out, again, atol=1e-16)
    assert out[1] == 0.0  # oxidant exhausted in a rich mixture
    assert float(sum(out)) == pytest.approx(1.0, abs=1e-15)
    # fresh cells (G >= 1/2, no reaction cutoff active) pass through
    untouched = asymptotic_composition(mix, *y, G=0.5)
    assert tuple(float(v) for v in untouched) == y


def test_zero_flame_speed_with_heat_release_fails():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, 0.0)


def test_inert_composition_gives_trivial_pattern():
    # every field of the static pattern: the fresh gas at rest on both sides
    # of a composition contact that moves at u_flame, also at u_flame = 0
    mix = benchmark_mixture()
    y = (0.0, 0.0, 1.0, 0.0)  # pure inert gas: zero heat release
    rho_fresh = fresh_density(mix, P_FRESH, T_FRESH, y)
    for u_flame in (U_FLAME, 0.0):
        pat = solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, u_flame)
        assert pat.mixture is mix
        assert pat.heat_release == 0.0
        assert pat.y_fresh == y and pat.y_burnt == y
        assert pat.p_fresh == pat.p_shocked == pat.p_burnt == P_FRESH
        assert pat.rho_fresh == pat.rho_shocked == pat.rho_burnt == rho_fresh
        assert pat.u_shocked == 0.0
        assert np.all(_burnt_and_fresh_velocities(pat) == 0.0)
        assert pat.s_shock == np.sqrt(mix.gamma * P_FRESH / rho_fresh)
        assert pat.s_flame == pat.u_flame == u_flame


def test_negative_flame_speed_rejected():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, -1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_flame_speed_is_an_oracle_error():
    # u_flame**2 overflows a Python float; that used to escape as OverflowError
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError, match="overflow"):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, 1e300)


def test_too_fast_a_flame_leaves_no_positive_burnt_state():
    # at 1e12 m/s the burnt pressure p - rho u_flame u comes out negative
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError, match="non-positive burnt state"):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, 1e12)


def test_overflowing_fresh_pressure_is_an_oracle_error():
    # the pressure balance overflows to inf, then NaN, while the bracket
    # doubles; under warnings-as-errors that must not surface as a warning
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError, match="could not bracket"):
        solve_deflagration_riemann(mix, 1e300, T_FRESH, y, U_FLAME)


def test_oracle_messages_print_plain_numbers():
    mix = CaseConfig(W_N=1e300).mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    with pytest.raises(OracleError, match="does not outrun") as info:
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, U_FLAME)
    message = str(info.value)
    assert "np.float64" not in message
    assert "precursor speed 7.59265e-149 does not outrun the flame 63" in message


def test_every_random_oracle_problem_certifies():
    # u_flame down to 1e-3 m/s: problems 166 and 472 are nearly static
    # flames (p_shocked / p_fresh about 1) whose energy jump needs the root
    # to the last double
    base = benchmark_mixture()
    rng = random.Random(5)
    for _ in range(1000):
        u_flame = 10.0 ** rng.uniform(-3.0, 3.5)
        p_fresh = 10.0 ** rng.uniform(2.0, 8.0)
        T_fresh = rng.uniform(150.0, 2500.0)
        mix = replace(base, gamma=rng.uniform(1.05, 1.9))
        x_F = rng.uniform(0.01, 0.5)
        x_O = rng.uniform(0.01, 0.45)
        y = mass_fractions_from_molar(mix, x_F, x_O)
        pattern = solve_deflagration_riemann(mix, p_fresh, T_fresh, y, u_flame)
        assert max(rh_residuals(pattern).values()) <= 1e-10


def test_nearly_static_flame_certifies():
    mix = replace(benchmark_mixture(), gamma=1.273)
    y = mass_fractions_from_molar(mix, 0.0414, 0.2217)
    pattern = solve_deflagration_riemann(mix, 108.0, 2272.0, y, 1.7e-3)
    assert pattern.p_shocked / pattern.p_fresh == pytest.approx(1.0, abs=1e-6)
    assert max(rh_residuals(pattern).values()) <= 1e-10


def counted(f, cap=None):
    """``f`` and a list that grows by one entry per evaluation; an
    evaluation past ``cap`` raises, so a bisection that fails to end fails
    its test instead of hanging it."""
    calls = []

    def traced(x):
        calls.append(x)
        if cap is not None and len(calls) > cap:
            raise AssertionError(f"more than {cap} evaluations")
        return f(x)

    return traced, calls


BRANCH_CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "exponential": (lambda x: math.exp(x) - 1e4, 0.0, 20.0),
    "steep exponential": (lambda x: math.exp(-22.0 * (x - 0.4)) - 1.0, 0.0, 1.0),
    # a flat triple root
    "triple root": (lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    # equal |f| on both sides of the jump
    "step": (lambda x: -1.0 if x < 1.0 / 3.0 else 1.0, 0.0, 1.0),
    # f(a) f(b) underflows to -0: only the signs may be compared
    "tiny values": (lambda x: 1e-200 * (0.3 - x), 0.0, 1.0),
    # exact zeros at either end of the bracket are returned as they are
    "zero at a": (lambda x: x - 1.0, 1.0, 2.0),
    "zero at b": (lambda x: x - 1.0, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(BRANCH_CASES))
def test_bisection_ends_on_a_zero_or_a_sign_change(name):
    f, a, b = BRANCH_CASES[name]
    # the two ends and at most about 2100 halvings, as _bisect documents
    traced, calls = counted(f, cap=2102)
    root = oracle._bisect(traced, a, b)
    assert type(root) is float and a <= root <= b
    if name.startswith("zero at"):
        assert root == 1.0 and len(calls) == 2
    fx = f(root)
    if fx != 0.0:
        neighbours = (f(math.nextafter(root, a)), f(math.nextafter(root, b)))
        assert any(math.copysign(1.0, fn) != math.copysign(1.0, fx)
                   for fn in neighbours)


def test_bisection_refuses_nan_values():
    f = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5
    with pytest.raises(OracleError, match="NaN"):
        oracle._bisect(f, 0.0, 1.0)


@pytest.mark.parametrize("value", [1.0, 1e-200])
def test_bisection_needs_a_sign_change(value):
    # with 1e-200 the product f(a) f(b) underflows to 0; the signs agree
    f = lambda x: value * (x * x + 1.0)
    with pytest.raises(OracleError, match="no sign change"):
        oracle._bisect(f, -1.0, 1.0)


def test_bisection_runs_to_adjacent_doubles_without_a_cap():
    # a jump at 1 in [0, 1e300]: about 997 halvings down to a bracket of
    # width 1, 52 more down to adjacent doubles, and the two ends
    traced, calls = counted(lambda x: -1.0 if x < 1.0 else 1.0, cap=1051)
    root = oracle._bisect(traced, 0.0, 1e300)
    assert root in (1.0, math.nextafter(1.0, 0.0))
    assert len(calls) == 1051


def test_bisection_ends_when_the_midpoint_rounds_onto_lo():
    # lo + 0.5 * (hi - lo) is 1 + 2**-53, a tie that rounds to even, onto
    # lo: the bracket already holds adjacent doubles, so only its two ends
    # are evaluated
    hi = math.nextafter(1.0, 2.0)
    traced, calls = counted(lambda x: -1.0 if x < hi else 1.0, cap=2)
    assert oracle._bisect(traced, 1.0, hi) == 1.0
    assert calls == [1.0, hi]


# ---------------------------------------------------------------------------
# sampling and averaging


def test_sample_solution_regions():
    pat = benchmark_pattern()
    t = 1e-3
    x = np.array([
        pat.s_flame * t - 0.05,          # burnt
        0.5 * (pat.s_flame + pat.s_shock) * t,  # shocked
        pat.s_shock * t + 0.05,          # fresh
    ])
    fields = sample_solution(pat, x, t)
    assert np.allclose(fields["p"], [pat.p_burnt, pat.p_shocked, pat.p_fresh])
    assert np.allclose(fields["rho"],
                       [pat.rho_burnt, pat.rho_shocked, pat.rho_fresh])
    assert np.allclose(fields["u"], [0.0, pat.u_shocked, 0.0])
    assert np.allclose(fields["G"], [0.0, 1.0, 1.0])
    assert np.allclose(fields["y_F"],
                       [pat.y_burnt[0], pat.y_fresh[0], pat.y_fresh[0]])


def test_sample_solution_needs_positive_time():
    pat = benchmark_pattern()
    with pytest.raises(OracleError):
        sample_solution(pat, np.array([0.0]), 0.0)
    with pytest.raises(OracleError, match="needs t > 0"):
        interval_averages(pat, np.array([0.0, 1.0]), -1e-3)


def test_interval_averages_against_quadrature():
    pat = benchmark_pattern()
    t = 2e-3
    edges = np.array([0.0, 0.8, 1.2, 1.35, 1.5, 3.0])
    avg = interval_averages(pat, edges, t)
    for k in ("p", "rho", "u", "y_F", "G", "h_s", "T"):
        for i in range(len(edges) - 1):
            xs = np.linspace(edges[i], edges[i + 1], 20001)
            mids = 0.5 * (xs[:-1] + xs[1:])
            brute = float(np.mean(sample_solution(pat, mids, t)[k]))
            exact = avg[k][i]
            scale = max(abs(brute), 1e-12)
            assert abs(exact - brute) / scale < 5e-4, (k, i)


def test_interval_average_inside_one_region_is_exact():
    pat = benchmark_pattern()
    t = 2e-3
    lo = pat.s_shock * t + 0.1
    avg = interval_averages(pat, np.array([lo, lo + 0.2]), t)
    assert avg["p"][0] == pytest.approx(pat.p_fresh, rel=1e-14)
    assert avg["u"][0] == 0.0


def test_cell_and_dual_averages_shapes():
    pat = benchmark_pattern()
    grid = build_uniform_grid(25, 4.5)
    t = 2e-3
    cells = exact_cell_averages(pat, grid, t)
    duals = exact_dual_averages(pat, grid, t)
    assert cells["rho"].shape == (25,)
    assert duals["u"].shape == (26,)
    # conservation of the averaging: both tilings integrate to the same mass
    m_cells = np.sum(grid.cell_volumes * cells["rho"])
    m_duals = np.sum(grid.dual_volumes * duals["rho"])
    assert m_cells == pytest.approx(m_duals, rel=1e-12)

import numpy as np
import pytest

from stagflame.errors import OracleError
from stagflame.grid import build_uniform_grid
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
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    return solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, U_FLAME)


def test_fresh_density_is_ideal_gas():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    rho = fresh_density(mix, P_FRESH, T_FRESH, y)
    r = gas_constant_mix(mix, *y)
    assert rho == pytest.approx(P_FRESH / (r * T_FRESH), rel=1e-14)
    assert rho == pytest.approx(0.8896, rel=1e-3)


def test_benchmark_pattern_values():
    # pinned plateau values for the reference configuration
    pat = benchmark_pattern()
    assert pat.u_fresh == 0.0 and pat.u_burnt == 0.0
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
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    with pytest.raises(OracleError):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, 0.0)


def test_inert_composition_gives_trivial_pattern():
    mix = benchmark_mixture()
    y = (0.0, 0.0, 1.0, 0.0)  # pure inert gas: zero heat release
    pat = solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, U_FLAME)
    assert pat.heat_release == 0.0
    assert pat.p_shocked == pat.p_fresh
    assert pat.rho_burnt == pat.rho_fresh
    assert pat.u_shocked == 0.0
    assert pat.s_flame == U_FLAME


def test_negative_flame_speed_rejected():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    with pytest.raises(OracleError):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, -1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_flame_speed_is_an_oracle_error():
    # u_flame**2 overflows a Python float; that used to escape as OverflowError
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    with pytest.raises(OracleError, match="overflow"):
        solve_deflagration_riemann(mix, P_FRESH, T_FRESH, y, 1e300)


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
    grid = build_uniform_grid(25, 0.0, 4.5)
    t = 2e-3
    cells = exact_cell_averages(pat, grid, t)
    duals = exact_dual_averages(pat, grid, t)
    assert cells["rho"].shape == (25,)
    assert duals["u"].shape == (26,)
    # conservation of the averaging: both tilings integrate to the same mass
    m_cells = np.sum(grid.cell_volumes * cells["rho"])
    m_duals = np.sum(grid.dual_volumes * duals["rho"])
    assert m_cells == pytest.approx(m_duals, rel=1e-12)

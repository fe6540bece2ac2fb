import numpy as np
import pytest
from hypothesis import given, strategies as st

from stagflame.thermo import (
    MixtureSpec,
    R_UNIVERSAL,
    chemical_enthalpy,
    gas_constant_mix,
    mass_fractions_from_molar,
    pressure_from_state,
    temperature,
    y_O_from_z,
    z_from_fractions,
)
from helpers import benchmark_mixture

finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_universal_gas_constant_value():
    assert R_UNIVERSAL == 8.31446261815324


@given(rho=finite, e_s=finite, gamma=st.floats(min_value=1.01, max_value=2.0))
def test_eos_round_trip(rho, e_s, gamma):
    h_s = gamma * e_s  # perfect gas
    p = pressure_from_state(rho, h_s, gamma)
    assert p == pytest.approx((gamma - 1.0) * rho * e_s, rel=1e-12)
    # the gamma-free identity the state class uses
    assert h_s - p / rho == pytest.approx(e_s, rel=1e-12)


@given(y_F=st.floats(min_value=0.0, max_value=0.3),
       y_O=st.floats(min_value=0.0, max_value=0.5))
def test_z_invariant_round_trip(y_F, y_O):
    mix = benchmark_mixture()
    z = z_from_fractions(mix, y_F, y_O)
    assert y_O_from_z(mix, y_F, z) == pytest.approx(y_O, abs=1e-15)


def test_benchmark_mixture_fractions():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    assert sum(y) == pytest.approx(1.0, abs=1e-15)
    # stoichiometric fuel/oxidant ratio: the reaction invariant vanishes
    assert z_from_fractions(mix, y[0], y[1]) == pytest.approx(0.0, abs=1e-18)
    w_mix = (2.0 * 2.016 + 1.0 * 31.998 + 4.0 * 28.014) / 7.0 * 1e-3
    assert y[0] == pytest.approx(2.0 / 7.0 * 2.016e-3 / w_mix, rel=1e-12)
    assert y[2] == pytest.approx(4.0 / 7.0 * 28.014e-3 / w_mix, rel=1e-12)
    assert y[3] == 0.0


def test_molar_fractions_must_sum_to_one():
    mix = benchmark_mixture()
    with pytest.raises(ValueError):
        mass_fractions_from_molar(mix, 0.5, 0.2, 0.2)


def test_temperature_of_fresh_benchmark_gas():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0)
    r = gas_constant_mix(mix, *y)
    # p = rho r T  with  e_s = p / ((gamma-1) rho)
    rho = 9.9e4 / (r * 283.0)
    e_s = 9.9e4 / ((mix.gamma - 1.0) * rho)
    assert temperature(mix, e_s, *y) == pytest.approx(283.0, rel=1e-12)


def test_stoichiometric_mass_balance_enforced():
    with pytest.raises(ValueError, match="mass balance"):
        MixtureSpec(nu_F=2.0, nu_O=1.0, nu_P=2.0,
                    W_F=2.0e-3, W_O=32.0e-3, W_N=28.0e-3, W_P=17.0e-3)


def test_positive_parameters_enforced():
    with pytest.raises(ValueError):
        MixtureSpec(nu_F=2.0, nu_O=1.0, nu_P=2.0,
                    W_F=-2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3)
    with pytest.raises(ValueError, match="gamma"):
        MixtureSpec(nu_F=2.0, nu_O=1.0, nu_P=2.0,
                    W_F=2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3,
                    gamma=1.0)


def test_endothermic_mixture_is_refused():
    with pytest.raises(ValueError, match="endothermic"):
        MixtureSpec(nu_F=2.0, nu_O=1.0, nu_P=2.0,
                    W_F=2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3,
                    dh_P=+1.0e6)


def test_reaction_heat_coefficient_of_benchmark():
    mix = benchmark_mixture()
    # only the product carries formation enthalpy: Lambda = -nu_P W_P dh_P
    assert mix.reaction_heat_coefficient == pytest.approx(
        -2.0 * 18.015e-3 * (-13.255e6), rel=1e-12)
    assert mix.reaction_heat_coefficient > 0.0


def test_chemical_enthalpy_is_linear_in_fractions():
    mix = benchmark_mixture()
    assert chemical_enthalpy(mix, 0.0, 0.0, 1.0, 0.0) == 0.0
    assert chemical_enthalpy(mix, 0.0, 0.0, 0.3, 0.7) == pytest.approx(
        0.7 * -13.255e6, rel=1e-12)

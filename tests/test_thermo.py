import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stagflame.oracle import asymptotic_composition
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
EPS = np.finfo(float).eps


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
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    assert sum(y) == pytest.approx(1.0, abs=1e-15)
    # stoichiometric fuel/oxidant ratio: the reaction invariant vanishes
    assert z_from_fractions(mix, y[0], y[1]) == pytest.approx(0.0, abs=1e-18)
    w_mix = (2.0 * 2.016 + 1.0 * 31.998 + 4.0 * 28.014) / 7.0 * 1e-3
    assert y[0] == pytest.approx(2.0 / 7.0 * 2.016e-3 / w_mix, rel=1e-12)
    assert y[2] == pytest.approx(4.0 / 7.0 * 28.014e-3 / w_mix, rel=1e-12)
    assert y[3] == 0.0


def test_molar_fractions_must_sum_to_one():
    # the neutral takes the rest, so a fuel and oxidant pair over 1 by more
    # than 1e-12 leaves no molar fraction to give it
    mix = benchmark_mixture()
    with pytest.raises(ValueError, match=r"^molar_F \+ molar_O must not "
                       r"exceed 1, got molar_F = 0.5 and molar_O = 0.5000001$"):
        mass_fractions_from_molar(mix, 0.5, 0.5000001)
    with pytest.raises(ValueError):
        mass_fractions_from_molar(mix, 0.5, 0.5 + 2e-12)
    # within 1e-12 the pair is taken, its rest as no neutral at all
    assert 1.0 - 0.064 - 0.936 < 0.0
    assert mass_fractions_from_molar(mix, 0.064, 0.936)[2] == 0.0
    assert mass_fractions_from_molar(mix, 0.5, 0.5 + 5e-13)[2] == 0.0
    assert mass_fractions_from_molar(mix, 0.25, 0.75)[2] == 0.0
    # 1 - 1 - 1e-12 is exactly -1e-12, the bound, which is taken; the next
    # double of molar_O is not
    assert mass_fractions_from_molar(mix, 1.0, 1e-12)[2] == 0.0
    with pytest.raises(ValueError, match="must not exceed 1"):
        mass_fractions_from_molar(mix, 1.0, math.nextafter(1e-12, 1.0))


def test_temperature_of_fresh_benchmark_gas():
    mix = benchmark_mixture()
    y = mass_fractions_from_molar(mix, 2.0 / 7.0, 1.0 / 7.0)
    r = gas_constant_mix(mix, *y)
    # p = rho r T  with  e_s = p / ((gamma-1) rho)
    rho = 9.9e4 / (r * 283.0)
    e_s = 9.9e4 / ((mix.gamma - 1.0) * rho)
    assert temperature(mix, e_s, *y) == pytest.approx(283.0, rel=1e-12)


def test_product_molar_mass_names_the_product():
    # a reaction event makes the product mass nu_F W_F + nu_O W_O whatever
    # W_P is: W_P = 17e-3 names a product of coefficient 36.03 / 17, and
    # only the gas constant of the product sees it
    mix = MixtureSpec(nu_F=2.0, nu_O=1.0, W_F=2.016e-3, W_O=31.998e-3,
                      W_N=28.014e-3, W_P=17.0e-3, dh_P=-13.255e6)
    assert mix.reaction_heat_coefficient == (
        benchmark_mixture().reaction_heat_coefficient)
    assert gas_constant_mix(mix, 0.0, 0.0, 0.0, 1.0) == R_UNIVERSAL / 17.0e-3


def test_positive_parameters_enforced():
    with pytest.raises(ValueError):
        MixtureSpec(nu_F=2.0, nu_O=1.0,
                    W_F=-2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3)
    with pytest.raises(ValueError, match="gamma"):
        MixtureSpec(nu_F=2.0, nu_O=1.0,
                    W_F=2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3,
                    gamma=1.0)
    with pytest.raises(ValueError, match="nu_F must be positive"):
        MixtureSpec(nu_F=0.0, nu_O=1.0,
                    W_F=2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3)


def test_endothermic_mixture_is_refused():
    with pytest.raises(ValueError, match="endothermic"):
        MixtureSpec(nu_F=2.0, nu_O=1.0,
                    W_F=2.016e-3, W_O=31.998e-3, W_N=28.014e-3, W_P=18.015e-3,
                    dh_P=+1.0e6)


def test_reaction_heat_coefficient_of_benchmark():
    mix = benchmark_mixture()
    # only the product carries formation enthalpy, and one event makes
    # nu_F W_F + nu_O W_O = 2 W_P of it: Lambda = -2 W_P dh_P
    assert mix.reaction_heat_coefficient == -2.0 * 18.015e-3 * (-13.255e6)
    assert mix.reaction_heat_coefficient > 0.0


def test_chemical_enthalpy_is_linear_in_fractions():
    mix = benchmark_mixture()
    assert chemical_enthalpy(mix, 0.0) == 0.0
    assert chemical_enthalpy(mix, 0.7) == pytest.approx(0.7 * -13.255e6,
                                                        rel=1e-12)
    y_P = np.array([0.0, 0.35, 0.7])
    assert np.array_equal(chemical_enthalpy(mix, y_P), y_P * -13.255e6)


@st.composite
def exothermic_mixtures(draw):
    """A mixture with every molar mass and coefficient drawn, and a product
    formation enthalpy that releases 1e3 to 5e7 J/kg of heat, or none.
    Tiny enthalpies are left out: near the subnormal range the products
    lose the relative precision the test asks for."""
    nu_F, nu_O = (draw(st.floats(0.1, 10.0)) for _ in range(2))
    W_F, W_O, W_N, W_P = (draw(st.floats(1e-3, 0.3)) for _ in range(4))
    dh_P = draw(st.just(0.0) | st.floats(-5e7, -1e3))
    return MixtureSpec(nu_F=nu_F, nu_O=nu_O, W_F=W_F, W_O=W_O, W_N=W_N,
                       W_P=W_P, dh_P=dh_P)


@settings(max_examples=300, deadline=None)
@given(mix=exothermic_mixtures(), x_F=st.floats(0.0, 1.0),
       share_O=st.floats(0.0, 1.0))
def test_derived_product_mass_closes_the_reaction(mix, x_F, share_O):
    # the fast-chemistry burnt gas of a fresh, product-free gas: its
    # fractions sum to 1, and the chemical enthalpy it gave up is the
    # reaction heat of the moles of fuel burnt.  Both sides agree to a few
    # ulps of what is in play: the product's formation enthalpy, and the
    # heat of every reaction event the fresh fuel and oxidant could make,
    # whose rounding the invariant z carries into the moles burnt
    x_O = share_O * (1.0 - x_F)
    fresh = mass_fractions_from_molar(mix, x_F, x_O)
    burnt = [float(v) for v in
             asymptotic_composition(mix, *fresh[:3], np.zeros(()))]
    assert math.fsum(burnt) == pytest.approx(1.0, abs=4 * EPS)
    released = chemical_enthalpy(mix, fresh[3]) - chemical_enthalpy(mix, burnt[3])
    m_F, m_O = mix.nu_F * mix.W_F, mix.nu_O * mix.W_O
    moles = (fresh[0] - burnt[0]) / m_F
    scale = (abs(mix.dh_P)
             + mix.reaction_heat_coefficient * (fresh[0] / m_F + fresh[1] / m_O))
    assert released == pytest.approx(mix.reaction_heat_coefficient * moles,
                                     rel=8 * EPS, abs=8 * EPS * scale)

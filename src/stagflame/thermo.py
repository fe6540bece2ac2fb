"""Thermodynamics: stiffened-free ideal gas EOS, mixture data, and the field
state of one time level with the arrays its readers share."""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .transport import cfl_number, dual_density, pressure_gradient

R_UNIVERSAL = 8.31446261815324  # J/(mol K)


@dataclass(frozen=True)
class MixtureSpec:
    """Four-species mixture (fuel, oxidant, neutral, product) with one-step
    stoichiometry ``nu_F F + nu_O O -> nu_P P``.

    Molar masses ``W_*`` are in kg/mol, formation enthalpies ``dh_*`` in J/kg.
    ``gamma`` is the (common) adiabatic exponent.  Construction checks the
    stoichiometric mass balance ``nu_F W_F + nu_O W_O == nu_P W_P`` and
    refuses an endothermic reaction (a negative reaction heat), which no
    deflagration of the model can burn.
    """

    nu_F: float
    nu_O: float
    nu_P: float
    W_F: float
    W_O: float
    W_N: float
    W_P: float
    dh_F: float = 0.0
    dh_O: float = 0.0
    dh_N: float = 0.0
    dh_P: float = 0.0
    gamma: float = 1.4

    def __post_init__(self):
        for name in ("nu_F", "nu_O", "nu_P", "W_F", "W_O", "W_N", "W_P"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        lhs = self.nu_F * self.W_F + self.nu_O * self.W_O
        rhs = self.nu_P * self.W_P
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
            raise ValueError(
                f"stoichiometric mass balance violated: "
                f"nu_F*W_F + nu_O*W_O = {lhs!r} but nu_P*W_P = {rhs!r}"
            )
        if self.reaction_heat_coefficient < 0.0:
            raise ValueError(
                f"the reaction is endothermic: reaction heat coefficient "
                f"{self.reaction_heat_coefficient!r} J/mol is negative")

    @property
    def reaction_heat_coefficient(self):
        """Heat released per mole of reaction event (J/mol), from the
        formation-enthalpy balance of the consumed and created masses."""
        return (
            self.nu_F * self.W_F * self.dh_F
            + self.nu_O * self.W_O * self.dh_O
            - self.nu_P * self.W_P * self.dh_P
        )


@dataclass
class FieldState:
    """All discrete unknowns of one accepted time level, and the arrays every
    reader of the level needs, built once by the constructor.

    Cell arrays have shape (n_cells,), the velocity and flux arrays shape
    (n_cells + 1,).  ``rho_prev`` is the density of the *previous* level; the
    scheme is two-level in the density, so a state is complete only with it.
    ``flux`` holds the per-face mass fluxes of the last accepted step, which
    satisfy the discrete mass balance between ``rho_prev`` and ``rho`` with
    the fixed step ``dt``.

    Built from those: the dual densities ``rho_d`` of ``rho`` and
    ``rho_d_prev`` of ``rho_prev``, the face pressure gradient ``grad_p``,
    the sensible energy ``e_s = h_s - p / rho`` and the material CFL
    ``cfl`` of ``flux``.  A step passes its starting level's ``rho_d`` as
    ``prev_rho_d``, which is the new level's ``rho_d_prev``; without it, as
    in ``dataclasses.replace``, that is built too.  No array of a level is
    written after construction: a changed level is a new one, made with
    ``dataclasses.replace``.  The constructor raises no numpy warning, not
    even for a state the gates reject (rho <= 0, a non-finite p), so that
    the gates name the field and the cell.
    """

    grid: object
    mixture: MixtureSpec
    dt: float
    rho_prev: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    p: np.ndarray
    h_s: np.ndarray
    y_F: np.ndarray
    y_O: np.ndarray
    y_N: np.ndarray
    y_P: np.ndarray
    z: np.ndarray
    G: np.ndarray
    flux: np.ndarray
    prev_rho_d: InitVar[np.ndarray] = None
    rho_d: np.ndarray = field(init=False, repr=False)
    rho_d_prev: np.ndarray = field(init=False, repr=False)
    grad_p: np.ndarray = field(init=False, repr=False)
    e_s: np.ndarray = field(init=False, repr=False)
    cfl: float = field(init=False, repr=False)

    @np.errstate(all="ignore")
    def __post_init__(self, prev_rho_d):
        grid = self.grid
        self.rho_d = dual_density(grid, self.rho)
        self.rho_d_prev = (dual_density(grid, self.rho_prev)
                           if prev_rho_d is None else prev_rho_d)
        self.grad_p = pressure_gradient(self.p, grid)
        # the gamma-free identity
        self.e_s = self.h_s - self.p / self.rho
        self.cfl = cfl_number(self.flux, self.rho, self.dt, grid)


def pressure_from_state(rho, h_s, gamma):
    """EOS written in enthalpy form: p = ((gamma-1)/gamma) rho h_s."""
    return (gamma - 1.0) / gamma * rho * h_s


def sensible_enthalpy(p, rho, gamma):
    """The same EOS solved for the enthalpy: h_s = gamma/(gamma-1) p / rho."""
    return gamma / (gamma - 1.0) * p / rho


def gas_constant_mix(mixture, y_F, y_O, y_N, y_P):
    """Specific gas constant of the local mixture, R_u * sum_i y_i / W_i."""
    return R_UNIVERSAL * (
        y_F / mixture.W_F + y_O / mixture.W_O + y_N / mixture.W_N + y_P / mixture.W_P
    )


def temperature(mixture, e_s, y_F, y_O, y_N, y_P):
    """T = (gamma - 1) e_s / R_mix."""
    r_mix = gas_constant_mix(mixture, y_F, y_O, y_N, y_P)
    return (mixture.gamma - 1.0) * e_s / r_mix


def z_from_fractions(mixture, y_F, y_O):
    """Linear reaction invariant z = y_F/(nu_F W_F) - y_O/(nu_O W_O).

    It is transported like a passive scalar because the reaction consumes
    fuel and oxidant in the stoichiometric mass ratio.
    """
    return y_F / (mixture.nu_F * mixture.W_F) - y_O / (mixture.nu_O * mixture.W_O)


def y_O_from_z(mixture, y_F, z):
    """Recover the oxidant fraction from the fuel fraction and the invariant."""
    return mixture.nu_O * mixture.W_O * (y_F / (mixture.nu_F * mixture.W_F) - z)


def mass_fractions_from_molar(mixture, x_F, x_O, x_N):
    """Convert the molar fractions of a product-free gas to mass fractions
    (y_F, y_O, y_N, y_P = 0); the input must sum to 1."""
    total = x_F + x_O + x_N
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"molar fractions sum to {total!r}, expected 1")
    w = x_F * mixture.W_F + x_O * mixture.W_O + x_N * mixture.W_N
    return (
        x_F * mixture.W_F / w,
        x_O * mixture.W_O / w,
        x_N * mixture.W_N / w,
        0.0,
    )


def chemical_enthalpy(mixture, y_F, y_O, y_N, y_P):
    """Formation-enthalpy content sum_i y_i dh_i (J/kg)."""
    return (
        y_F * mixture.dh_F + y_O * mixture.dh_O + y_N * mixture.dh_N + y_P * mixture.dh_P
    )

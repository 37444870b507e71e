"""Validate effective generators against the full perturbed dynamics.

The comparison runs on the rescaled clock of the perturbation: for a
perturbation of strength eps, second-order effects accumulate on times
t ~ 1/eps^2, so the sweep fixes a grid of rescaled times tau and compares

    full:      P_inf exp(t L_full) rho_0        with t = tau / eps^order
    effective: exp(t L_eff(eps)) rho_0

in trace distance, where L_full is the exactly perturbed generator, P_inf the
unperturbed asymptotic projection (removing the O(eps) dressing outside the
DFS; the generator's factor applies it to the propagated states), and
L_eff(eps) the effective generator at that strength. L_eff comes as
its (d^2, d^2) DFS block and vanishes off the DFS corner, so only the DFS
corner of rho_0 evolves, under exp(t block) (:func:`propagate_effective`, one
stacked expm over the taus).
Agreement must improve as eps decreases; the fitted log-log slope of the error
against eps measures the order of the neglected terms.

The full side is propagated on the slow subspace of L_full (the slow-manifold
picture of Zanardi and Campos Venuti, PRL 113, 240406 (2014)), not by a dense
exp(t L_full) per cell: at t = 5/eps^2 that expm carries a round-off floor of
about t u ||L_full||, which at eps = 1e-4 exceeds the distances it measures.
For each eps, one dense propagator Pi = exp(t0 L_full) is formed at the
horizon t0 = HORIZON_FACTOR / r, with r the slowest decay rate of the
unperturbed generator (:func:`~ejof.lindblad.slowest_decay_rate`). By t0
every fast mode has decayed by about exp(-40), so Pi has numerical rank d^2
and its range is the slow invariant subspace of L_full. Two certificates check this
(:func:`slow_subspace`):

* rank: in a pivoted QR of Pi, |R_{d^2, d^2}| <= RANK_BOUND |R_00|; the first
  d^2 columns of Q are an orthonormal basis V of the range;
* invariance: ||L_full V - V G||_F <= INVARIANCE_BOUND ||L_full||_F, with
  G = V† L_full V the (d^2, d^2) slow generator.

When both hold, every cell with t >= t0 is exp(t L_full) rho =
V exp((t - t0) G) V† Pi rho, one stacked d^2 x d^2 expm for all such taus of
that eps (:func:`propagate_full`). Cells below the horizon (tau = 0, or the
first-order clock at the larger eps), and every cell of an eps whose
certificate fails, take the dense exp(t L_full); an eps with no cell past
the horizon forms no Pi. Each eps records its
horizon, both certificate values and its number of dense cells
(:class:`Propagation`). The cell diagnostics (trace distance, drift, trace
errors, minimum eigenvalues) come from one stacked eigvalsh over all cells,
and :class:`SweepTable` keeps each as an (eps, tau, state) array; the
convergence fit and the drift constants are reductions over those arrays.

For cancellation scenarios L_eff = 0 and there is no secular drift: the full
state exp(t L_full) rho_0 itself, without any projection, stays within
C * eps * (1 + tau) of rho_0 in trace distance with an eps-independent
constant. The eps term covers the immediate dressing of the state outside the
DFS and the tau term covers any slow residual accumulation. Each sweep cell
records this drift alongside the projected comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, qr

from .effective import Perturbation, _general_blocks, perturbed_superop
from .lindblad import StructuredLindbladian, slowest_decay_rate
from .operators import (
    as_operator,
    dagger,
    devectorize_columns,
    four_corners,
    frob,
    vectorize_stack,
)

MODES = ("first-order", "second-order")
# Slow-subspace propagation: the horizon t0 is HORIZON_FACTOR over the slowest
# unperturbed decay rate, where fast modes have decayed by exp(-40) ~ 4e-18,
# below round-off; the certificates of the slow subspace at t0 must read at
# most these bounds, relative (see slow_subspace).
HORIZON_FACTOR = 40.0
RANK_BOUND = 1e-12
INVARIANCE_BOUND = 1e-12
# Distances at or below this are converged noise to the convergence fit.
FIT_FLOOR = 1e-11


@dataclass(frozen=True)
class SweepConfig:
    """Grid for a full-vs-effective comparison sweep.

    epsilons: distinct perturbation strengths (the base perturbation is scaled by each).
    taus: distinct rescaled times, nonnegative.
    initial_states: density matrices supported on the DFS (full dimension).
    mode: "second-order" compares at t = tau/eps^2, "first-order" at tau/eps.
    """

    epsilons: tuple[float, ...]
    taus: tuple[float, ...]
    initial_states: tuple[np.ndarray, ...]
    mode: str = "second-order"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if not self.taus or any(t < 0 for t in self.taus):
            raise ValueError("taus must be nonnegative")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        for name, values in (("epsilons", self.epsilons), ("taus", self.taus)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must be distinct")
        object.__setattr__(self, "initial_states", tuple(as_operator(r) for r in self.initial_states))

    @property
    def order(self) -> int:
        return 2 if self.mode == "second-order" else 1


def validate_initial_state(rho: np.ndarray, dfs, tol: float = 1e-9) -> None:
    rho = as_operator(rho)
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"initial state trace {np.trace(rho):.6f} != 1")
    skew = frob(rho - rho.conj().T)
    if skew > tol:
        raise ValueError(f"initial state is not Hermitian (residual {skew:.3e})")
    if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2))) < -tol:
        raise ValueError("initial state is not positive semidefinite")
    if frob(rho - four_corners(rho, dfs).ul) > tol:
        raise ValueError("initial state is not supported on the DFS")


# The (E, T, S) cell diagnostics of a SweepTable, named as in its rows.
CELL_KEYS = ("trace_distance", "drift", "trace_error_full", "trace_error_eff",
             "min_eig_full", "min_eig_eff")


@dataclass(frozen=True)
class SweepTable:
    """The sweep's cell diagnostics, each an (E, T, S) array over (eps, tau, state).

    epsilons and taus are the grid in the order of the config; propagation
    holds one :class:`Propagation` per eps.
    """

    epsilons: np.ndarray
    taus: np.ndarray
    trace_distance: np.ndarray
    drift: np.ndarray
    trace_error_full: np.ndarray
    trace_error_eff: np.ndarray
    min_eig_full: np.ndarray
    min_eig_eff: np.ndarray
    propagation: tuple[Propagation, ...]

    def rows(self) -> list[dict]:
        """One dict per cell, in (eps, tau, state) order."""
        e, t, s = np.indices(self.trace_distance.shape).reshape(3, -1)
        columns = [self.epsilons[e].tolist(), self.taus[t].tolist(), s.tolist()]
        columns += [getattr(self, key).ravel().tolist() for key in CELL_KEYS]
        keys = ("epsilon", "tau", "state_index", *CELL_KEYS)
        return [dict(zip(keys, values)) for values in zip(*columns)]


def slow_subspace(l_full: np.ndarray, horizon: float, rank: int):
    """(Pi, V, G, rank ratio, invariance) of L_full at the horizon t0.

    Pi = exp(t0 L_full); V is the first `rank` columns of the Q of a pivoted
    QR of Pi, an orthonormal basis of its range, and G = V† L_full V. The
    rank ratio is |R_rr| / |R_00| (R_rr the first diagonal entry past `rank`)
    and the invariance ||L_full V - V G||_F / ||L_full||_F.
    """
    pi = expm(horizon * l_full)
    q, r, _ = qr(pi, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    v = q[:, :rank]
    lv = l_full @ v
    g = dagger(v) @ lv
    return pi, v, g, float(diag[rank] / diag[0]), frob(lv - v @ g) / frob(l_full)


@dataclass(frozen=True)
class Propagation:
    """How the sweep propagated L_full at one eps.

    horizon: t0, None when the unperturbed generator has no decay rate.
    rank_ratio, invariance: the certificates of :func:`slow_subspace`, None
        when no tau reaches the horizon (no Pi is formed).
    dense_cells: taus propagated by a dense exp(t L_full).
    """

    epsilon: float
    horizon: float | None
    rank_ratio: float | None
    invariance: float | None
    dense_cells: int


def propagate_full(l_full: np.ndarray, horizon: float, rank: int, times: np.ndarray,
                   states: np.ndarray):
    """exp(t L_full) on the (D^2, S) state columns at each time: (T, D^2, S), and how.

    When some time reaches the horizon, Pi and its certificates are formed
    (:func:`slow_subspace`); if both hold, those times propagate on the slow
    subspace, V exp((t - t0) G) V† Pi. Every other time takes a dense
    exp(t L_full). Returns the states, the rank ratio and invariance (None
    when no Pi was formed) and the number of dense times.
    """
    out = np.empty((len(times), *states.shape), dtype=complex)
    slow = times >= horizon
    rank_ratio = invariance = None
    if slow.any():
        pi, v, g, rank_ratio, invariance = slow_subspace(l_full, horizon, rank)
        if rank_ratio <= RANK_BOUND and invariance <= INVARIANCE_BOUND:
            x0 = dagger(v) @ (pi @ states)
            out[slow] = v @ (expm((times[slow] - horizon)[:, None, None] * g) @ x0)
        else:
            slow[:] = False
    for i in np.flatnonzero(~slow):
        out[i] = expm(times[i] * l_full) @ states
    return out, rank_ratio, invariance, int(np.count_nonzero(~slow))


def propagate_effective(block: np.ndarray, indices: np.ndarray, times,
                        states: np.ndarray) -> np.ndarray:
    """exp(t L_eff) rho for each time t and state rho, L_eff given as its (d^2, d^2) DFS block.

    exp(t L_eff) = I + E (exp(t block) - I) E†, for E the unit columns at the
    DFS vec positions: the DFS block of rho, its rows and columns at
    `indices`, evolves and everything else carries over unchanged. `states`
    is an (S, D, D) stack; the result is (T, S, D, D), from one stacked expm
    over the times.
    """
    times = np.asarray(times, dtype=float)
    m = block.shape[0]
    ul = (..., indices[:, None], indices)
    steps = expm(times[:, None, None] * block) - np.eye(m)
    moved = steps @ vectorize_stack(states[ul])  # (T, m, S)
    moved = devectorize_columns(moved.transpose(1, 0, 2).reshape(m, -1))
    out = np.repeat(states[None], len(times), axis=0)
    out[ul] += moved.reshape(len(times), len(states), *moved.shape[1:])
    return out


def evolve_and_compare(lind: StructuredLindbladian, pert: Perturbation,
                       config: SweepConfig) -> SweepTable:
    """Run the sweep and tabulate trace distances and sanity diagnostics."""
    for rho in config.initial_states:
        validate_initial_state(rho, lind.dfs)
    rho0 = np.array(config.initial_states)
    states = vectorize_stack(rho0)
    taus = np.array(config.taus)
    rate = slowest_decay_rate(lind)
    horizon = HORIZON_FACTOR / rate if rate > 0 else np.inf
    reported_horizon = float(horizon) if rate > 0 else None
    scaled = [pert.scaled(eps) for eps in config.epsilons]
    raws, effs, propagation = [], [], []
    for eps, pert_eps, l_eff in zip(config.epsilons, scaled, _general_blocks(lind, scaled)):
        times = taus / eps ** config.order
        raw, rank_ratio, invariance, dense = propagate_full(
            perturbed_superop(lind, pert_eps), horizon, lind.dfs.d ** 2, times, states)
        raws.append(raw)
        propagation.append(Propagation(eps, reported_horizon, rank_ratio, invariance, dense))
        effs.append(propagate_effective(l_eff, lind.dfs.indices, times, rho0))
    # Columns in (eps, tau, state) order, the order of the cells.
    cols = np.stack(raws).transpose(2, 0, 1, 3).reshape(states.shape[0], -1)
    grid = (len(config.epsilons), len(taus), len(rho0), *rho0.shape[1:])
    raw = devectorize_columns(cols).reshape(grid)
    full = devectorize_columns(lind.factor.apply_projection(cols)).reshape(grid)
    eff = np.stack(effs)
    stack = np.stack([full - eff, raw - rho0, full, eff])
    spectra = np.linalg.eigvalsh((stack + dagger(stack)) / 2)
    distance, drift = 0.5 * np.abs(spectra[:2]).sum(axis=-1)
    min_full, min_eff = spectra[2:, ..., 0]
    trace_full, trace_eff = np.abs(np.trace(stack[2:], axis1=-2, axis2=-1) - 1.0)
    return SweepTable(np.array(config.epsilons), taus, distance, drift, trace_full, trace_eff,
                      min_full, min_eff, tuple(propagation))


@dataclass(frozen=True)
class ConvergenceFit:
    """Log-log convergence of the sweep errors in eps.

    slope: fit of max-over-(tau, state) distance against eps.
    per_tau: fitted slope for each tau with errors above the floor.
    monotone: distances nonincreasing in eps at every tau (up to the floor).
    max_distances: max-over-(tau, state) distance per eps, eps descending.
    floor: FIT_FLOOR, below which distances are treated as converged noise.
    """

    slope: float
    per_tau: dict[float, float]
    monotone: bool
    max_distances: dict[float, float]
    floor: float


def convergence_order(table: SweepTable) -> ConvergenceFit:
    if len(table.epsilons) < 2:
        raise ValueError("need at least two epsilon values to fit a slope")
    order = np.argsort(-table.epsilons)
    log_eps = np.log(table.epsilons[order])
    errs = table.trace_distance[order].max(axis=2)  # (E, T), eps descending
    max_d = errs.max(axis=1)
    slope = float(np.polyfit(log_eps, np.log(np.maximum(max_d, FIT_FLOOR)), 1)[0])
    rising = (errs[1:] > np.maximum(errs[:-1], FIT_FLOOR) * (1 + 1e-9)) & (errs[1:] > FIT_FLOOR)
    per_tau = {
        float(table.taus[t]): float(np.polyfit(log_eps, np.log(errs[:, t]), 1)[0])
        for t in np.argsort(table.taus) if np.all(errs[:, t] > FIT_FLOOR)
    }
    return ConvergenceFit(
        slope=slope,
        per_tau=per_tau,
        monotone=not rising.any(),
        max_distances=dict(zip(table.epsilons[order].tolist(), max_d.tolist())),
        floor=FIT_FLOOR,
    )


def drift_constants(table: SweepTable) -> dict[float, float]:
    """Fitted constants C_eps = max over cells of drift / (eps * (1 + tau)), eps descending.

    The drift is the trace distance of the unprojected full state from its
    initial state. For a cancellation scenario it is bounded by
    C * eps * (1 + tau) with C independent of eps; comparing the fitted
    constants across eps checks that no secular term was missed (a residual
    decay at rate eps^2 would show up as C growing like 1/eps on the
    rescaled clock).
    """
    order = np.argsort(-table.epsilons)
    eps = table.epsilons[order]
    scale = eps[:, None, None] * (1.0 + table.taus[:, None])
    return dict(zip(eps.tolist(), (table.drift[order] / scale).max(axis=(1, 2)).tolist()))

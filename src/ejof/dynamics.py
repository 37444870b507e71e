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
corner of rho_0 evolves, under exp(t block) (:func:`_effective_states`).
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
V exp((t - t0) G) V† Pi rho. Cells below the horizon (tau = 0, or the
first-order clock at the larger eps), and every cell of an eps whose
certificate fails, take the dense exp(t L_full); an eps with no cell past
the horizon forms no Pi. Each eps records its
horizon, both certificate values and its number of dense cells
(:class:`Propagation`).

:func:`evolve_and_compare` does each kind of work once for the whole (eps,
tau) grid. The Pis of all eps are one stacked scipy expm, whose scaling
handles the stiff ||t0 L_full|| (4e9 on a file with rates 1e4 and 1e-4), and
the dense cells are one more. All d^2 x d^2 exponentials, exp((t - t0) G)
of each slow cell and exp(t block) of each cell, go through one call of the
batched Padé kernel :func:`_expm_stack`. The cell diagnostics (trace distance,
drift, trace errors, minimum eigenvalues) come from one stacked eigvalsh
over all cells, and :class:`SweepTable` keeps each as an (eps, tau, state)
array; the convergence fit (one polyfit of every series) and the drift
constants are reductions over those arrays.

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
# Largest trace error, skew part, negative eigenvalue or weight off the DFS
# corner that an initial state may carry.
INITIAL_STATE_TOL = 1e-9


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


def validate_initial_state(rho: np.ndarray, dfs) -> None:
    rho = as_operator(rho)
    if abs(np.trace(rho) - 1.0) > INITIAL_STATE_TOL:
        raise ValueError(f"initial state trace {np.trace(rho):.6f} != 1")
    skew = frob(rho - rho.conj().T)
    if skew > INITIAL_STATE_TOL:
        raise ValueError(f"initial state is not Hermitian (residual {skew:.3e})")
    if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2))) < -INITIAL_STATE_TOL:
        raise ValueError("initial state is not positive semidefinite")
    if frob(rho - four_corners(rho, dfs).ul) > INITIAL_STATE_TOL:
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


def slow_subspace(l_full: np.ndarray, pi: np.ndarray, rank: int):
    """(V, G, rank ratio, invariance) of L_full from its horizon propagator Pi = exp(t0 L_full).

    V is the first `rank` columns of the Q of a pivoted QR of Pi, an
    orthonormal basis of its range, and G = V† L_full V. The rank ratio is
    |R_rr| / |R_00| (R_rr the first diagonal entry past `rank`) and the
    invariance ||L_full V - V G||_F / ||L_full||_F.
    """
    q, r, _ = qr(pi, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(r))
    v = q[:, :rank]
    lv = l_full @ v
    g = dagger(v) @ lv
    return v, g, float(diag[rank] / diag[0]), frob(lv - v @ g) / frob(l_full)


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


# Padé [13/13] coefficients b_0..b_13 of exp over b_0, so that exp(0) = I
# exactly, and theta_13, the largest 1-norm at which that approximant needs no
# scaling (Higham 2005, table 2.3).
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each slice of an (N, m, m) stack, by Padé [13/13] scaling and squaring.

    Slice k is scaled by 2^-s_k, s_k the least s >= 0 that brings its 1-norm
    to at most theta_13 (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), without
    the lower-degree approximants), and squared back s_k times; each squaring
    step multiplies only the slices that still need it. The sweep's d^2 x d^2
    exponentials are small and mild, so one call replaces scipy's Python loop
    over slices.
    """
    mantissa, exponent = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(norm / theta_13)), at least 0
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        todo = s > k
        r[todo] = r[todo] @ r[todo]
    return r


def _effective_states(exps: np.ndarray, indices: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """exp(t L_eff) rho for each (..., m, m) exp(t block) and each state of an (S, D, D) stack.

    exp(t L_eff) = I + E (exp(t block) - I) E†, for E the unit columns at the
    DFS vec positions: the DFS block of rho, its rows and columns at
    `indices`, evolves and everything else carries over unchanged. The result
    is (..., S, D, D).
    """
    lead, m, d = exps.shape[:-2], exps.shape[-1], len(indices)
    ul = (..., indices[:, None], indices)
    moved = (exps - np.eye(m)) @ vectorize_stack(rho0[ul])  # (..., m, S)
    out = np.broadcast_to(rho0, (*lead, *rho0.shape)).copy()
    out[ul] += devectorize_columns(np.moveaxis(moved, -2, 0).reshape(m, -1)).reshape(
        *lead, len(rho0), d, d)
    return out


def evolve_and_compare(lind: StructuredLindbladian, pert: Perturbation,
                       config: SweepConfig) -> SweepTable:
    """Run the sweep and tabulate trace distances and sanity diagnostics.

    Each initial state is validated once (:func:`validate_initial_state`); a
    failure names it as initial_states[i]. Every cell is propagated in one
    batched pass (see the module docstring).
    """
    dfs = lind.dfs
    for i, rho in enumerate(config.initial_states):
        try:
            validate_initial_state(rho, dfs)
        except ValueError as err:
            raise ValueError(f"initial_states[{i}]: {err}") from err
    rho0 = np.array(config.initial_states)
    states = vectorize_stack(rho0)  # (D^2, S)
    epsilons, taus = np.array(config.epsilons), np.array(config.taus)
    times = taus / epsilons[:, None] ** config.order  # (E, T)
    rate = slowest_decay_rate(lind)
    horizon = HORIZON_FACTOR / rate if rate > 0 else np.inf
    scaled = [pert.scaled(eps) for eps in config.epsilons]
    l_full = np.array([perturbed_superop(lind, p) for p in scaled])  # (E, D^2, D^2)
    m = dfs.d ** 2
    # Pi for each eps with a cell past the horizon, one stacked expm; each eps
    # whose certificates hold keeps V, G and V† Pi rho_0, and the others go dense.
    slow = times >= horizon
    formed = np.flatnonzero(slow.any(axis=1))
    certificates = [(None, None)] * len(epsilons)
    bases = np.zeros((len(epsilons), states.shape[0], m), dtype=complex)
    gens = np.zeros((len(epsilons), m, m), dtype=complex)
    starts = np.zeros((len(epsilons), m, states.shape[1]), dtype=complex)
    for e, pi in zip(formed, expm(horizon * l_full[formed]) if formed.size else ()):
        v, g, rank_ratio, invariance = slow_subspace(l_full[e], pi, m)
        certificates[e] = rank_ratio, invariance
        if rank_ratio <= RANK_BOUND and invariance <= INVARIANCE_BOUND:
            bases[e], gens[e], starts[e] = v, g, dagger(v) @ (pi @ states)
        else:
            slow[e] = False
    raw = np.empty((*times.shape, *states.shape), dtype=complex)  # (E, T, D^2, S)
    if not slow.all():
        raw[~slow] = expm(times[~slow][:, None, None] * l_full[np.nonzero(~slow)[0]]) @ states
    # One Padé call: exp((t - t0) G) for the slow cells, then exp(t L_eff) for every cell.
    slow_e = np.nonzero(slow)[0]
    blocks = _general_blocks(lind, scaled)  # (E, m, m)
    exps = _expm_stack(np.concatenate([
        (times[slow] - horizon)[:, None, None] * gens[slow_e],
        (times[..., None, None] * blocks[:, None]).reshape(-1, m, m)]))
    raw[slow] = bases[slow_e] @ (exps[:slow_e.size] @ starts[slow_e])
    eff = _effective_states(exps[slow_e.size:].reshape(*times.shape, m, m), dfs.indices, rho0)
    # Columns in (eps, tau, state) order, the order of the cells.
    grid = eff.shape  # (E, T, S, D, D)
    cols = raw.transpose(2, 0, 1, 3).reshape(states.shape[0], -1)
    raw = devectorize_columns(cols).reshape(grid)
    full = devectorize_columns(lind.factor.apply_projection(cols)).reshape(grid)
    stack = np.stack([full - eff, raw - rho0, full, eff])
    spectra = np.linalg.eigvalsh((stack + dagger(stack)) / 2)
    distance, drift = 0.5 * np.abs(spectra[:2]).sum(axis=-1)
    min_full, min_eff = spectra[2:, ..., 0]
    trace_full, trace_eff = np.abs(np.trace(stack[2:], axis1=-2, axis2=-1) - 1.0)
    reported_horizon = float(horizon) if rate > 0 else None
    propagation = tuple(Propagation(eps, reported_horizon, *cert, int(dense))
                        for eps, cert, dense in zip(config.epsilons, certificates,
                                                    (~slow).sum(axis=1)))
    return SweepTable(epsilons, taus, distance, drift, trace_full, trace_eff,
                      min_full, min_eff, propagation)


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
    rising = (errs[1:] > np.maximum(errs[:-1], FIT_FLOOR) * (1 + 1e-9)) & (errs[1:] > FIT_FLOOR)
    fitted = [t for t in np.argsort(table.taus) if np.all(errs[:, t] > FIT_FLOOR)]
    # One fit of every series: the floored max distance, then each fitted tau's.
    series = np.column_stack([np.maximum(max_d, FIT_FLOOR), errs[:, fitted]])
    slope, *per_tau = np.polyfit(log_eps, np.log(series), 1)[0].tolist()
    return ConvergenceFit(
        slope=slope,
        per_tau=dict(zip(table.taus[fitted].tolist(), per_tau)),
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

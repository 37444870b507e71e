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
corner of rho_0 evolves, under exp(t block) (:func:`propagate_effective`).
Agreement must improve as eps decreases; the fitted log-log slope of the error
against eps measures the order of the neglected terms.

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
from scipy.linalg import expm

from .effective import Perturbation, _general_blocks, perturbed_superop
from .lindblad import StructuredLindbladian
from .operators import (
    as_operator,
    dagger,
    devectorize,
    frob,
    trace_distance,
    vectorize,
    vectorize_stack,
)

MODES = ("first-order", "second-order")


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
    if float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2))) < -tol:
        raise ValueError("initial state is not positive semidefinite")
    if frob(rho - dfs.p @ rho @ dfs.p) > tol:
        raise ValueError("initial state is not supported on the DFS")


@dataclass(frozen=True)
class SweepCell:
    epsilon: float
    tau: float
    state_index: int
    distance: float
    drift: float
    trace_error_full: float
    trace_error_eff: float
    min_eig_full: float
    min_eig_eff: float


@dataclass(frozen=True)
class SweepTable:
    cells: tuple[SweepCell, ...]
    mode: str

    def distances(self, epsilon: float) -> np.ndarray:
        return np.array([c.distance for c in self.cells if c.epsilon == epsilon])

    def max_distance(self, epsilon: float, tau: float | None = None) -> float:
        sel = [
            c.distance for c in self.cells
            if c.epsilon == epsilon and (tau is None or c.tau == tau)
        ]
        return max(sel) if sel else 0.0

    def rows(self) -> list[dict]:
        return [
            {
                "epsilon": c.epsilon,
                "tau": c.tau,
                "state_index": c.state_index,
                "trace_distance": c.distance,
                "drift": c.drift,
                "trace_error_full": c.trace_error_full,
                "trace_error_eff": c.trace_error_eff,
                "min_eig_full": c.min_eig_full,
                "min_eig_eff": c.min_eig_eff,
            }
            for c in self.cells
        ]


def propagate_effective(block: np.ndarray, basis: np.ndarray, t: float,
                        states) -> list[np.ndarray]:
    """exp(t L_eff) rho for each state, L_eff given as its (d^2, d^2) DFS block.

    exp(t L_eff) = I + E (exp(t block) - I) E† with E = conj(B) kron B: the
    DFS corner B† rho B evolves and everything else carries over unchanged.
    """
    step = expm(t * block) - np.eye(block.shape[0])
    return [
        rho + basis @ devectorize(step @ vectorize(dagger(basis) @ rho @ basis)) @ dagger(basis)
        for rho in states
    ]


def evolve_and_compare(lind: StructuredLindbladian, pert: Perturbation,
                       config: SweepConfig) -> SweepTable:
    """Run the sweep and tabulate trace distances and sanity diagnostics."""
    for rho in config.initial_states:
        validate_initial_state(rho, lind.dfs)
    cells = []
    scaled = [pert.scaled(eps) for eps in config.epsilons]
    states = vectorize_stack(np.array(config.initial_states))
    for eps, pert_eps, l_eff in zip(config.epsilons, scaled, _general_blocks(lind, scaled)):
        l_full = perturbed_superop(lind, pert_eps)
        for tau in config.taus:
            t = tau / eps ** config.order
            raws = expm(t * l_full) @ states
            fulls = lind.factor.apply_projection(raws)
            effs = propagate_effective(l_eff, lind.dfs.basis, t, config.initial_states)
            for idx, (rho, eff) in enumerate(zip(config.initial_states, effs)):
                raw = devectorize(raws[:, idx])
                full = devectorize(fulls[:, idx])
                cells.append(SweepCell(
                    epsilon=eps,
                    tau=tau,
                    state_index=idx,
                    distance=trace_distance(full, eff),
                    drift=trace_distance(raw, rho),
                    trace_error_full=abs(np.trace(full) - 1.0),
                    trace_error_eff=abs(np.trace(eff) - 1.0),
                    min_eig_full=float(np.min(np.linalg.eigvalsh((full + full.conj().T) / 2))),
                    min_eig_eff=float(np.min(np.linalg.eigvalsh((eff + eff.conj().T) / 2))),
                ))
    return SweepTable(cells=tuple(cells), mode=config.mode)


@dataclass(frozen=True)
class ConvergenceFit:
    """Log-log convergence of the sweep errors in eps.

    slope: fit of max-over-(tau, state) distance against eps.
    per_tau: fitted slope for each tau with errors above the floor.
    monotone: distances nonincreasing in eps at every tau (up to the floor).
    floor: distances below this are treated as converged noise.
    """

    slope: float
    per_tau: dict[float, float]
    monotone: bool
    max_distances: dict[float, float]
    floor: float


def convergence_order(table: SweepTable, floor: float = 1e-11) -> ConvergenceFit:
    eps_values = sorted({c.epsilon for c in table.cells}, reverse=True)
    taus = sorted({c.tau for c in table.cells})
    if len(eps_values) < 2:
        raise ValueError("need at least two epsilon values to fit a slope")
    max_d = {e: max(c.distance for c in table.cells if c.epsilon == e) for e in eps_values}
    slope = float(np.polyfit(np.log(eps_values), np.log([max(max_d[e], floor) for e in eps_values]), 1)[0])
    per_tau = {}
    monotone = True
    for tau in taus:
        errs = []
        for e in eps_values:
            sel = [c.distance for c in table.cells if c.epsilon == e and c.tau == tau]
            errs.append(max(sel))
        for a, b in zip(errs, errs[1:]):
            if b > max(a, floor) * (1 + 1e-9) and b > floor:
                monotone = False
        if all(err > floor for err in errs):
            per_tau[tau] = float(np.polyfit(np.log(eps_values), np.log(errs), 1)[0])
    return ConvergenceFit(
        slope=slope,
        per_tau=per_tau,
        monotone=monotone,
        max_distances=max_d,
        floor=floor,
    )


def drift_constants(table: SweepTable) -> dict[float, float]:
    """Fitted constants C_eps = max over cells of drift / (eps * (1 + tau)).

    The drift is the trace distance of the unprojected full state from its
    initial state. For a cancellation scenario it is bounded by
    C * eps * (1 + tau) with C independent of eps; comparing the fitted
    constants across eps checks that no secular term was missed (a residual
    decay at rate eps^2 would show up as C growing like 1/eps on the
    rescaled clock).
    """
    out = {}
    for eps in sorted({c.epsilon for c in table.cells}, reverse=True):
        vals = [
            c.drift / (eps * (1.0 + c.tau))
            for c in table.cells if c.epsilon == eps
        ]
        out[eps] = max(vals)
    return out

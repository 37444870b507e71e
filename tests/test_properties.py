"""Property checks over random structured instances.

Each example draws a normal-form generator (DFS of dimension d, n decaying
levels, 1-3 jumps, a defective K_qq when n == 2 and asked for, optionally an
extra zero jump) with a full-corner perturbation, and checks the structured
spectrum, the corner factor against the dense Schur oracle and (up to D = 20)
against the dense normal-form factor, the dual-route
agreement and the insensitivity to the inert perturbation corners. Four
metamorphic properties check each route on its own against an exact symmetry
of the GKSL form: mixing the jumps and their deformations by one unitary,
relabelling the basis by a permutation (which scatters the DFS over unsorted
indices), and shifting V by a multiple of the identity, leave the effective
generator unchanged, and scaling the perturbation by s gives s A + s^2 B. Route residuals, corner deltas and the symmetry residuals are read
on the second-order problem scale max(||general||, ||closed||, ||pert||^2):
for d = 1 the effective generator vanishes identically.
"""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from ejof.effective import (
    RESIDUAL_FLOOR,
    Perturbation,
    corner_sensitivity,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    random_structured_instance,
)
from ejof.lindblad import CornerFactor, structured_lindbladian
from ejof.operators import DfsProjector, frob
from oracles import dense_normal_form_factor, drazin_inverse


@st.composite
def instances(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    n_jumps = draw(st.integers(1, 3))
    defective = n == 2 and draw(st.booleans())
    extra = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 16))
    try:
        return random_structured_instance(d, n, n_jumps, seed, defective_k=defective,
                                          extra_zero_jump=extra)
    except RuntimeError:
        # The generator refuses shapes whose draws keep a near-zero decay
        # rate (few jumps of low rank on many levels); they are not instances.
        assume(False)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(instances())
def test_structured_instance_properties(instance):
    lind, pert = instance
    assert lind.report.zero_multiplicity == lind.dfs.d ** 2
    assert isinstance(lind.factor, CornerFactor)
    want = drazin_inverse(lind.superop)
    assert frob(lind.drazin - want) <= 1e-10 * frob(want)
    general = effective_lindbladian_general(lind, pert)
    closed = effective_to_superop(effective_lindbladian_closed(lind, pert))
    scale = max(frob(general), frob(closed), pert.norm() ** 2)
    assert frob(general - closed) <= 1e-9 * scale
    # corner_sensitivity reports ||stripped - general|| / max(||general||, floor).
    corner = max(corner_sensitivity(lind, pert).as_dict().values())
    assert corner * max(frob(general), RESIDUAL_FLOOR) <= 1e-10 * scale


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(2, 16), st.integers(1, 5), st.integers(0, 2 ** 16),
       st.booleans(), st.booleans())
@example(1, 3, 2, 0, False, False)  # d = 1
@example(2, 2, 2, 4, True, False)   # defective K_qq
@example(2, 3, 2, 6, False, True)   # an extra zero jump
def test_structured_solves_match_the_dense_normal_form_factor(d, n, n_jumps, seed, defective,
                                                               extra):
    # D <= 20: the corner factor solves ll and ur by n x n LUs and lr by a
    # Bartels-Stewart sweep; the oracle forms the three blocks and LU-factors
    # each. A K = 5 batch of columns goes through apply_drazin at once.
    assume(d + n <= 20)
    try:
        lind, _ = random_structured_instance(d, n, n_jumps, seed, defective_k=defective and n == 2,
                                             extra_zero_jump=extra)
    except RuntimeError:
        assume(False)
    factor = lind.factor
    assert not factor.leaky
    drazin, projection, g = dense_normal_form_factor(lind)
    assert frob(factor._factored[1] - g) <= 1e-12 * frob(g)
    assert frob(factor.drazin() - drazin) <= 1e-12 * frob(drazin)
    assert frob(factor.projection() - projection) <= 1e-12 * frob(projection)
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((lind.dim ** 2, 5 * d * d)) + 1j * rng.standard_normal(
        (lind.dim ** 2, 5 * d * d))
    want = drazin @ cols
    assert frob(factor.apply_drazin(cols) - want) <= 1e-12 * frob(want)


def _routes(lind, pert):
    """(general block, closed block) of one generator and perturbation."""
    return (effective_lindbladian_general(lind, pert),
            effective_to_superop(effective_lindbladian_closed(lind, pert)))


def _assert_each_route_unchanged(lind, pert, moved_lind, moved_pert):
    before = _routes(lind, pert)
    scale = max(frob(before[0]), frob(before[1]), pert.norm() ** 2)
    for old, new in zip(before, _routes(moved_lind, moved_pert)):
        assert frob(new - old) <= 1e-12 * scale


@settings(max_examples=25, derandomize=True, deadline=None)
@given(instances(), st.integers(0, 2 ** 16))
def test_jump_mixing_leaves_each_route_unchanged(instance, seed):
    # F_l -> sum_k u_lk F_k and f_l -> sum_k u_lk f_k with u unitary.
    lind, pert = instance
    rng = np.random.default_rng(seed)
    n = len(lind.jumps)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def mix(ops):
        return tuple(np.einsum("lk,kij->lij", u, np.array(ops)))

    mixed = structured_lindbladian(lind.h, mix(lind.jumps), lind.dfs)
    _assert_each_route_unchanged(lind, pert, mixed, Perturbation(v=pert.v, fs=mix(pert.fs)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(instances(), st.integers(0, 2 ** 16))
def test_relabelling_the_basis_leaves_each_route_unchanged(instance, seed):
    # Basis state i -> perm[i] moves the DFS onto scattered, unsorted indices;
    # its block, read in the order of dfs.indices, is the same matrix.
    lind, pert = instance
    perm = np.random.default_rng(seed).permutation(lind.dim)

    def relabel(a):
        out = np.empty_like(a)
        out[np.ix_(perm, perm)] = a
        return out

    dfs = DfsProjector.from_indices(lind.dim, perm[lind.dfs.indices])
    moved = structured_lindbladian(relabel(lind.h), [relabel(f) for f in lind.jumps], dfs)
    _assert_each_route_unchanged(lind, pert, moved, Perturbation(
        v=relabel(pert.v), fs=tuple(relabel(f) for f in pert.fs)))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(instances(), st.floats(-10.0, 10.0))
def test_identity_shift_leaves_each_route_unchanged(instance, c):
    # V -> V + c I.
    lind, pert = instance
    shifted = Perturbation(v=pert.v + c * np.eye(lind.dim), fs=pert.fs)
    _assert_each_route_unchanged(lind, pert, lind, shifted)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(instances())
def test_scaled_perturbation_is_a_polynomial_on_each_route(instance):
    # L_eff(s pert) = s A + s^2 B: P O1 P is first order, the rest second.
    # A and B come from s = 1 and s = 1/2 and must predict s = 0.37.
    lind, pert = instance
    one, half, probe = (_routes(lind, pert.scaled(s)) for s in (1.0, 0.5, 0.37))
    scale = max(frob(one[0]), frob(one[1]), pert.norm() ** 2)
    for at_one, at_half, got in zip(one, half, probe):
        b = 2 * (at_one - 2 * at_half)
        a = at_one - b
        assert frob(0.37 * a + 0.37 ** 2 * b - got) <= 1e-12 * scale

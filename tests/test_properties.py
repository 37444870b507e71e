"""Property checks over random structured instances.

Each example draws a normal-form generator (DFS of dimension d, n decaying
levels, 1-3 jumps, a defective K_qq when n == 2 and asked for, optionally an
extra zero jump) with a full-corner perturbation, and checks the structured
spectrum, the corner factor against the dense Schur oracle and (up to D = 20)
against the dense normal-form factor, the dual-route
agreement, the rank-two general route against its stacked path, and the
insensitivity to the inert perturbation corners. Four
metamorphic properties check each route on its own against an exact symmetry
of the GKSL form: mixing the jumps and their deformations by one unitary,
relabelling the basis by a permutation (which scatters the DFS over unsorted
indices), and shifting V by a multiple of the identity, leave the effective
generator unchanged, and scaling the perturbation by s gives s A + s^2 B. Route residuals, corner deltas and the symmetry residuals are read
on the second-order problem scale max(||general||, ||closed||, ||pert||^2):
for d = 1 the effective generator vanishes identically.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ejof.effective import (
    RESIDUAL_FLOOR,
    Perturbation,
    Study,
    _general_blocks,
    _stacked_blocks,
    corner_sensitivity,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    random_structured_instance,
)
from ejof.lindblad import CornerFactor, structured_lindbladian
from ejof.operators import DfsProjector, dagger, frob, projector_frame
from oracles import (
    closed_route_full_space,
    dense_normal_form_factor,
    drazin_inverse,
    relabel,
    relabelled,
)


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
       st.booleans(), st.booleans(), st.booleans())
@example(1, 3, 2, 0, False, False, False)  # d = 1
@example(2, 2, 2, 4, True, False, False)   # defective K_qq
@example(2, 3, 2, 6, False, True, False)   # an extra zero jump
@example(4, 16, 5, 3, False, False, True)  # D = 20, the DFS scattered
def test_structured_solves_match_the_dense_normal_form_factor(d, n, n_jumps, seed, defective,
                                                               extra, scatter):
    # D <= 20: the corner factor solves ll and ur by n x n LUs and lr by a
    # Bartels-Stewart sweep; the oracle forms the three blocks and LU-factors
    # each. A K = 5 batch of columns goes through the written L^D. With
    # scatter, the basis is relabelled by a permutation, which moves the DFS
    # onto unsorted indices that are not the leading ones.
    assume(d + n <= 20)
    try:
        lind, _ = random_structured_instance(d, n, n_jumps, seed, defective_k=defective and n == 2,
                                             extra_zero_jump=extra)
    except RuntimeError:
        assume(False)
    if scatter:
        lind = relabelled(lind, np.random.default_rng(seed).permutation(lind.dim))
    _assert_matches_the_dense_normal_form_factor(lind, seed)


def test_a_dfs_off_the_leading_indices_matches_the_dense_normal_form_factor():
    # The DFS {1, 3} of D = 5: decaying levels 0, 2 and 4 sit on both sides of it.
    lind = relabelled(random_structured_instance(2, 3, 2, 11)[0], [1, 3, 0, 2, 4])
    assert lind.dfs.indices.tolist() == [1, 3] and lind.report.passed
    _assert_matches_the_dense_normal_form_factor(lind, 0)


def _assert_matches_the_dense_normal_form_factor(lind, seed):
    d = lind.dfs.d
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
    assert frob(factor.drazin() @ cols - want) <= 1e-12 * frob(want)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(2, 16), st.integers(1, 5), st.integers(0, 2 ** 16),
       st.booleans(), st.booleans(), st.integers(2, 4))
@example(1, 3, 2, 0, False, False, 2)  # d = 1
@example(2, 2, 2, 4, True, False, 3)   # defective K_qq
@example(2, 3, 2, 6, False, True, 2)   # an extra zero jump
def test_rank_two_route_matches_the_stacked_path(d, n, n_jumps, seed, defective, extra, k):
    # D <= 20, a batch of K >= 2 perturbations of one generator: L^D O1 E read
    # off the factor's n x n LU as six pair kinds on DFS columns, against the
    # L^D solve of the same factor forced leaky and the stacked D x D products
    # of the second O1.
    assume(d + n <= 20)
    try:
        lind, pert = random_structured_instance(d, n, n_jumps, seed,
                                                defective_k=defective and n == 2,
                                                extra_zero_jump=extra)
    except RuntimeError:
        assume(False)
    assert isinstance(lind.factor, CornerFactor) and not lind.factor.leaky
    rng = np.random.default_rng(seed)
    shape = (k - 1, 1 + len(lind.jumps), lind.dim, lind.dim)
    ops = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    perts = [pert] + [Perturbation(v=op[0] + dagger(op[0]), fs=tuple(op[1:])) for op in ops]
    # Forced leaky, the factor gathers L_rr whole and LU-factors it: the
    # reference shares no solve with the route.
    leaky = dataclasses.replace(lind, factor=dataclasses.replace(lind.factor, leaky=True))
    got, want = _general_blocks(lind, perts), _stacked_blocks(leaky, perts)
    for got_k, want_k, pert_k in zip(got, want, perts):
        assert frob(got_k - want_k) <= 1e-12 * max(frob(want_k), pert_k.norm() ** 2)


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
    moved = relabelled(lind, perm)
    assert moved.report.passed
    _assert_each_route_unchanged(lind, pert, moved, Perturbation(
        v=relabel(pert.v, perm), fs=tuple(relabel(f, perm) for f in pert.fs)))


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


def _assert_closed_route_matches_the_full_space_oracle(lind, pert):
    # The closed route and the identities on blocks, with four_corners refused
    # everywhere in the package, against the route on the full-space C and Kinv.
    study = Study(lind, pert)
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "ejof" and hasattr(module, "four_corners"):
                patch.setattr(module, "four_corners",
                              lambda *a, **k: pytest.fail("the closed route called four_corners"))
        got = study.closed_block
        assert study.identities.passed, study.identities.as_dict()
    # Every field is a block, none the (D, D) of the full space.
    d, n, eff = lind.dfs.d, lind.dfs.n_decay, study.closed
    shapes = {f.name: np.shape(getattr(eff, f.name)) for f in dataclasses.fields(eff)
              if f.name != "coupling"}
    assert shapes == {"h_eff": (d, d), "jumps_eff": (len(lind.jumps), d, d),
                      "cp_superop": (d * d, d * d), "cp_adjoint_identity": (d, d), "kinv": (n, n)}
    assert [c.shape for c in eff.coupling] == [(n, d), (d, n)]
    want = effective_to_superop(closed_route_full_space(lind, pert))
    assert frob(got - want) <= 1e-12 * max(frob(want), pert.norm() ** 2)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(1, 4), st.integers(2, 16), st.integers(1, 5), st.integers(0, 2 ** 16),
       st.booleans(), st.booleans())
@example(1, 3, 2, 0, False, False)  # d = 1
@example(2, 2, 2, 4, True, False)   # defective K_qq
@example(2, 3, 2, 6, False, True)   # an extra zero jump
def test_closed_route_matches_the_full_space_oracle(d, n, n_jumps, seed, defective, extra):
    assume(d + n <= 20)
    try:
        lind, pert = random_structured_instance(d, n, n_jumps, seed,
                                                defective_k=defective and n == 2,
                                                extra_zero_jump=extra)
    except RuntimeError:
        assume(False)
    _assert_closed_route_matches_the_full_space_oracle(lind, pert)


def _leaky_system():
    """The README system with H coupling the DFS to the decaying level by 1e-12."""
    h = np.zeros((3, 3), dtype=complex)
    h[2, 2], h[0, 2], h[2, 0] = 1.0, 1e-12, 1e-12
    f = np.zeros((3, 3), dtype=complex)
    f[0, 2] = 1.4142
    lind = structured_lindbladian(h, [f], DfsProjector.from_indices(3, [0, 1]))
    assert lind.factor.leaky
    deformation = np.zeros((3, 3), dtype=complex)
    deformation[0, 1] = 0.2
    return lind, Perturbation(v=np.zeros((3, 3)), fs=(deformation,))


def _rotated_draw():
    """A draw turned by a dense unitary and read in its projector's eigenbasis.

    That frame is dense inside each block and leaves round-off in every corner
    of H and the jumps.
    """
    lind, pert = random_structured_instance(2, 6, 3, 5)
    rng = np.random.default_rng(8)
    dim = lind.dim
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    p = np.zeros((dim, dim))
    p[lind.dfs.indices, lind.dfs.indices] = 1.0
    frame, rank = projector_frame(u @ p @ dagger(u))

    def turn(a):
        return dagger(frame) @ (u @ a @ dagger(u)) @ frame

    turned = structured_lindbladian(turn(lind.h), [turn(f) for f in lind.jumps],
                                    DfsProjector.from_indices(dim, range(rank)))
    return turned, Perturbation(v=turn(pert.v), fs=tuple(turn(f) for f in pert.fs))


@pytest.mark.parametrize("make", [_leaky_system, _rotated_draw], ids=["leaky", "rotated"])
def test_closed_route_matches_the_full_space_oracle_off_the_exact_normal_form(make):
    _assert_closed_route_matches_the_full_space_oracle(*make())

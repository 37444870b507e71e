"""Property checks over random structured instances.

Each example draws a normal-form generator (DFS of dimension d, n decaying
levels, 1-3 jumps, a defective K_qq when n == 2 and asked for, optionally an
extra zero jump) with a full-corner perturbation, and checks the structured
spectrum, the bordered factor against the dense Schur oracle, the dual-route
agreement and the insensitivity to the inert perturbation corners. Route
residuals and corner deltas are read on the second-order problem scale
max(||general||, ||closed||, ||pert||^2): for d = 1 the effective generator
vanishes identically.
"""

from hypothesis import assume, given, settings, strategies as st

from ejof.effective import (
    RESIDUAL_FLOOR,
    corner_sensitivity,
    effective_lindbladian_closed,
    effective_lindbladian_general,
    effective_to_superop,
    random_structured_instance,
)
from ejof.lindblad import BorderedFactor, drazin_inverse
from ejof.operators import frob


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
    assert isinstance(lind.factor, BorderedFactor)
    want = drazin_inverse(lind.superop)
    assert frob(lind.drazin - want) <= 1e-10 * frob(want)
    general = effective_lindbladian_general(lind, pert)
    closed = effective_to_superop(effective_lindbladian_closed(lind, pert))
    scale = max(frob(general), frob(closed), pert.norm() ** 2)
    assert frob(general - closed) <= 1e-9 * scale
    # corner_sensitivity reports ||stripped - general|| / max(||general||, floor).
    corner = max(corner_sensitivity(lind, pert).as_dict().values())
    assert corner * max(frob(general), RESIDUAL_FLOOR) <= 1e-10 * scale

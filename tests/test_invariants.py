"""Property tests: every identity of `cavcool.invariants` over the whole domain,
and S_ff finite and nonnegative.

The response identities and S_ff take the bit-contract domain (kappa, kappa3 in
[1e-6, 1e6], J = 0 and down to 1e-300, |delta2p| up to 3e6), the
single-cavity criterion puts Omega_m on its stability edge, and kappa runs
up to 1e6 throughout.  Bounds are the unit tests'.  The limits:

- J -> 0+: J^2 underflows to 0 below J ~ 1e-154; chi_total is then chi2.
- Enlargement: kappa / (4 S_min) rounds to 1 for kappa3 <= 2e-16.
- Single-cavity edge: detunings run from 0.01 to 3 kappa, as in the unit
  draws.  The margin's rounding error grows like eps (|delta2p| / kappa)^3:
  from |delta2p| ~ 10 kappa up, a point rounded onto the edge has |margin|
  above the 1e-6 exclusion and the verdicts disagree (seen at 12.3 kappa).
- Lyapunov: |delta2p| <= 300 and kappa3 <= 10, as in the bit-contract
  Lyapunov domain; at |delta2p| ~ 1e6 against kappa ~ 1e-2 the solve misses
  its residual target and the occupancy is NaN.  The occupancy's absolute
  error is near 1e-16, so its error relative to n_th + gamma_sc / gamma
  passes 1e-10 as that falls to 1e-6; n_th runs from 1e-4.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_bit_contract import BLOCK, SETTINGS, as_block, log_uniform, with_zero

from cavcool import invariants, response
from cavcool.params import NormalizedParams


@pytest.mark.parametrize(
    "name, bound", [("interference", 1e-12), ("two_way_rate", 1e-10), ("lorentzian", 1e-12)]
)
@SETTINGS
@given(points=BLOCK, omega=st.floats(-1e3, 1e3))
def test_response_identity(name, bound, points, omega):
    args = () if name == "two_way_rate" else (omega,)
    assert getattr(invariants, name)(as_block(points), *args) <= bound


@SETTINGS
@given(points=BLOCK, omega=st.floats(-1e3, 1e3))
def test_s_ff_finite_and_nonnegative(points, omega):
    s = response.s_ff(omega, as_block(points))
    assert np.all(np.isfinite(s)) and np.all(s >= 0.0)


KAPPA = log_uniform(1e-6, 1e6)


@SETTINGS
@given(pairs=st.lists(st.tuples(KAPPA, KAPPA), min_size=1, max_size=24))
def test_enlargement(pairs):
    kappa, kappa3 = np.array(pairs).T
    assert invariants.enlargement(kappa, kappa3) < 1.0


EDGE_OFFSET = st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.floats(0.0, 0.5))
SIGN = st.sampled_from([-1.0, 1.0])
# (kappa, sign of delta2p, |delta2p| / kappa, side of the edge, offset)
EDGE_POINT = st.tuples(KAPPA, SIGN, log_uniform(1e-2, 3.0), SIGN, EDGE_OFFSET)


@SETTINGS
@given(points=st.lists(EDGE_POINT, min_size=1, max_size=24))
def test_single_criterion_on_the_edge(points):
    """Omega_m = edge (1 +- offset), edge^2 = (4 delta2p^2 + kappa^2) / (16 |delta2p|):
    the stability edge for delta2p < 0; every Omega_m is unstable for delta2p > 0."""
    kappa, sign, ratio, side, offset = np.array(points).T
    delta = sign * ratio * kappa
    edge = np.sqrt((4.0 * delta**2 + kappa**2) / (16.0 * np.abs(delta)))
    omega = edge * (1.0 + side * offset)
    p = NormalizedParams(delta2p=delta, delta3=0.5, kappa=kappa, kappa3=1.0, J=0.0, Omega_m=omega)
    assert invariants.single_criterion(p) == 0.0


LYAPUNOV_POINT = st.fixed_dictionaries(
    {
        "delta2p": st.floats(-300.0, 300.0),
        "delta3": st.floats(-2.0, 2.0),
        "kappa": log_uniform(1e-2, 1e6),
        "kappa3": log_uniform(1e-2, 10.0),
        "J": st.one_of(st.just(0.0), log_uniform(1e-300, 1e-150), log_uniform(1e-3, 30.0)),
        "Omega_m": st.just(0.0),
        "gamma": log_uniform(1e-6, 1e-1),
        "gamma_sc": with_zero(log_uniform(1e-6, 1e-2)),
        "n_th": log_uniform(1e-4, 100.0),
    }
)


@pytest.mark.parametrize("name, bound", [("thermal_limit", 1e-10), ("vacuum", 1e-12)])
@SETTINGS
@given(points=st.lists(LYAPUNOV_POINT, min_size=1, max_size=24))
def test_lyapunov_identity(name, bound, points):
    assert getattr(invariants, name)(as_block(points)) <= bound

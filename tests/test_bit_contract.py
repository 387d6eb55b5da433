"""Bit contract of the array core: a block of points gives each point the
exact bits of that point evaluated on its own in Python arithmetic.

The references below are written point by point with Python `float` and
`complex` from the documented formulas (response, cooling and reduction
module docstrings), so they share no code with the array core.  |z| is
`np.abs` of a Python complex, the package's definition of the modulus;
builtin `abs` and `np.hypot` round differently.  For `SweptJ` blocks the
reference holds J as a numpy scalar, which makes the coupled reciprocal a
numpy complex division, as that class documents.

Domain: kappa and kappa3 in [1e-6, 1e6], J = 0, J down to 1e-300 (J -> 0+)
and up to 1e6, delta2p of both signs up to 3e6, Omega_m from 0 to 1e3.
Comparisons are on the IEEE bits (sign of zero included); NaN matches NaN.

Where float range runs out the domain is kept and the case recorded: for
tiny eta (J -> 0+) 16 eta^2 underflows (Python raises ZeroDivisionError at
0) or the closed coupled bound (4 + kappa_eff^2) / (16 eta^2) overflows to
inf.  At exactly those elements the reference, like the block, takes the
margin as 1 - 16 (eta Omega_m)^2 / (4 + kappa_eff^2).
"""

import dataclasses
import math
import struct

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cavcool import cooling, lyapunov, reduction, response
from cavcool.params import NormalizedParams, SweptJ


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def with_zero(strategy):
    return st.one_of(st.just(0.0), strategy)


POINT = st.fixed_dictionaries(
    {
        "delta2p": st.one_of(
            st.just(0.0),
            st.floats(-3e6, 3e6),
            st.floats(-5.0, 5.0),
        ),
        "delta3": st.floats(-1e3, 1e3),
        "kappa": log_uniform(1e-6, 1e6),
        "kappa3": log_uniform(1e-6, 1e6),
        "J": st.one_of(st.just(0.0), log_uniform(1e-300, 1e-150), log_uniform(1e-6, 1e6)),
        "Omega_m": with_zero(log_uniform(1e-6, 1e3)),
        "gamma": with_zero(log_uniform(1e-12, 1.0)),
        "gamma_sc": with_zero(log_uniform(1e-9, 1.0)),
        "n_th": st.floats(0.0, 100.0),
    }
)
BLOCK = st.lists(POINT, min_size=1, max_size=24)
SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def bits(x):
    x = float(x)
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def assert_same(name, block, reference):
    got = np.broadcast_to(block, (len(reference),))
    for i, (a, b) in enumerate(zip(got, reference)):
        assert bits(a) == bits(b), f"{name}[{i}]: block {a!r} != point {b!r}"


def assert_same_complex(name, block, reference):
    reference = [complex(z) for z in reference]
    assert_same(f"Re {name}", np.real(block), [z.real for z in reference])
    assert_same(f"Im {name}", np.imag(block), [z.imag for z in reference])


def as_block(points, cls=NormalizedParams):
    return cls(**{k: np.array([pt[k] for pt in points]) for k in points[0]})


# ---------------------------------------------------------------------------
# Point references in Python arithmetic
# ---------------------------------------------------------------------------


def ref_chi2(w, pt):
    return 1.0 / (-1j * (w + pt["delta2p"]) + pt["kappa"] / 2.0)


def ref_chi3(w, pt):
    return 1.0 / (-1j * (w + pt["delta3"]) + pt["kappa3"] / 2.0)


def ref_chi(w, pt, J):
    if J == 0.0:
        return ref_chi2(w, pt)
    return 1.0 / (1.0 / ref_chi2(w, pt) + J**2 * ref_chi3(w, pt))


def ref_s(w, pt, J):
    bracket = pt["kappa"] + pt["kappa3"] * J**2 * float(np.abs(ref_chi3(w, pt))) ** 2
    return pt["Omega_m"] ** 2 * float(np.abs(ref_chi(w, pt, J))) ** 2 * bracket


def ref_cooling(pt, J):
    a_minus, a_plus = ref_s(1.0, pt, J), ref_s(-1.0, pt, J)
    gamma_opt = a_minus - a_plus
    if gamma_opt <= 0.0:
        nan = float("nan")
        return dict(A_minus=a_minus, A_plus=a_plus, Gamma_opt=gamma_opt,
                    n_q=nan, n_c=nan, n_f=nan, cooling=False)
    n_q, n_c = a_plus / gamma_opt, pt["gamma_sc"] / gamma_opt
    return dict(A_minus=a_minus, A_plus=a_plus, Gamma_opt=gamma_opt,
                n_q=n_q, n_c=n_c, n_f=n_q + n_c, cooling=True)


def ref_spring(pt, J):
    back = complex(ref_chi(-1.0, pt, J)).conjugate()
    return (-1j * pt["Omega_m"] ** 2 * (ref_chi(1.0, pt, J) - back)).real


def ref_effective(pt):
    eta = pt["J"] / math.sqrt(pt["delta2p"] ** 2 + (pt["kappa"] / 2.0) ** 2)
    return dict(
        eta=eta,
        Omega_eff=eta * pt["Omega_m"],
        kappa_eff=pt["kappa3"] + eta**2 * pt["kappa"],
        Delta_eff=pt["delta3"] - eta**2 * pt["delta2p"],
        regime_ok=(
            abs(pt["delta2p"]) >= 10.0 * abs(pt["delta3"])
            and pt["kappa"] >= 10.0 * pt["kappa3"]
            and pt["kappa"] >= 10.0 * pt["gamma"]
            and pt["kappa"] >= 10.0 * pt["J"]
        ),
    )


def ref_general(delta, coupling, kappa):
    return delta * (16.0 * delta * coupling**2 + (4.0 * delta**2 + kappa**2) * 1.0)


def ref_closed_margin(pt, eff):
    scale = 4.0 * 1.0**2 + eff["kappa_eff"] ** 2
    try:
        bound = scale / (16.0 * eff["eta"] ** 2)
    except ZeroDivisionError:
        bound = math.inf
    if math.isinf(bound):
        event("closed coupled margin: bound out of float range")
        return 1.0 - 16.0 * eff["Omega_eff"] ** 2 / scale
    return (bound - pt["Omega_m"] ** 2) / bound


def ref_margins(pt):
    """(single, coupled closed, coupled effective) margins."""
    eff = ref_effective(pt)
    single = -ref_general(pt["delta2p"], pt["Omega_m"], pt["kappa"]) / (pt["kappa"] ** 2 * 1.0)
    if eff["eta"] == 0.0:
        return single, math.inf, math.inf
    lhs = ref_general(eff["Delta_eff"], eff["Omega_eff"], eff["kappa_eff"])
    effective = -lhs / (eff["kappa_eff"] ** 2 * 1.0)
    return single, ref_closed_margin(pt, eff), effective


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(points=BLOCK, swept=st.booleans(), omega=st.floats(-1e3, 1e3))
def test_closed_forms_match_point_references(points, swept, omega):
    block = as_block(points, SweptJ if swept else NormalizedParams)
    js = [np.float64(pt["J"]) if swept else pt["J"] for pt in points]

    assert_same_complex("chi2", response.chi2(omega, block), [ref_chi2(omega, pt) for pt in points])
    chi = [ref_chi(omega, pt, j) for pt, j in zip(points, js)]
    assert_same_complex("chi_total", response.chi_total(omega, block), chi)
    s_ff = [ref_s(omega, pt, j) for pt, j in zip(points, js)]
    assert_same("S_ff", response.s_ff(omega, block), s_ff)

    a_minus, a_plus = cooling.rates(block)
    assert_same("rates A_minus", a_minus, np.broadcast_to(response.s_ff(1.0, block), len(points)))
    assert_same("rates A_plus", a_plus, np.broadcast_to(response.s_ff(-1.0, block), len(points)))

    report = cooling.cooling_limit(block)
    refs = [ref_cooling(pt, j) for pt, j in zip(points, js)]
    for name in ("A_minus", "A_plus", "Gamma_opt", "n_q", "n_c", "n_f", "cooling"):
        assert_same(name, getattr(report, name), [r[name] for r in refs])
    spring = [ref_spring(pt, j) for pt, j in zip(points, js)]
    assert_same("spring_shift", cooling.spring_shift(block), spring)

    eff = reduction.effective_params(block)
    refs = [ref_effective(pt) for pt in points]
    for name in ("eta", "Omega_eff", "kappa_eff", "Delta_eff", "regime_ok"):
        assert_same(name, getattr(eff, name), [r[name] for r in refs])

    margins = [ref_margins(pt) for pt in points]
    verdicts = (
        reduction.stability_single(block),
        reduction.stability_coupled(block, form="closed"),
        reduction.stability_coupled(block, form="effective"),
    )
    for k, verdict in enumerate(verdicts):
        assert_same(verdict.criterion, verdict.margin, [m[k] for m in margins])
        stable = [m[k] > 0.0 for m in margins]
        assert_same(verdict.criterion, verdict.stable, stable)


@SETTINGS
@given(point=POINT, omega=st.floats(-1e3, 1e3))
def test_scalar_callers_get_python_scalars(point, omega):
    p = NormalizedParams(**point)
    report = cooling.cooling_limit(p)
    ref = ref_cooling(point, point["J"])
    for name, value in ref.items():
        got = getattr(report, name)
        assert type(got) is type(value), name
        assert bits(got) == bits(value), name
    assert type(response.chi_total(omega, p)) is complex
    assert type(cooling.spring_shift(p)) is float
    assert type(reduction.effective_params(p).regime_ok) is bool
    assert type(reduction.stability_coupled(p).margin) is float


def ref_solve(drift, diffusion):
    """(stable, max Re eig, V, residual) of one model, solved on its own
    through the 36x36 Kronecker system (A (x) I + I (x) A) vec(V) = -vec(D)."""
    max_real = float(np.max(np.linalg.eigvals(drift).real))
    if not max_real < 0.0:
        return False, max_real, np.full((6, 6), np.nan), math.nan
    eye = np.eye(6)
    system = np.kron(drift, eye) + np.kron(eye, drift)
    v = np.linalg.solve(system, -diffusion.reshape(-1)).reshape(6, 6)
    v = 0.5 * (v + v.T)
    residual = np.linalg.norm(drift @ v + v @ drift.T + diffusion) / np.linalg.norm(diffusion)
    return True, max_real, v, residual


def occupancy(v):
    """Phonon occupancy of a covariance, before the residual mask."""
    return (v[4, 4] + v[5, 5] - 1.0) / 2.0


LYAPUNOV_POINT = st.fixed_dictionaries(
    {
        "delta2p": st.floats(-300.0, 300.0),
        "delta3": st.floats(-2.0, 2.0),
        "kappa": log_uniform(1e-2, 1e3),
        "kappa3": log_uniform(1e-2, 10.0),
        "J": with_zero(log_uniform(1e-3, 30.0)),
        "Omega_m": log_uniform(1e-3, 5.0),
        "gamma": log_uniform(1e-6, 1e-1),
        "gamma_sc": with_zero(log_uniform(1e-6, 1e-2)),
        "n_th": st.floats(0.0, 10.0),
    }
)


# The package solves for the 21 entries of the symmetric V and the reference
# for all 36, so the two round differently.  The eigenvalue verdict matches
# bit for bit.  The occupancies are NaN exactly where unstable and otherwise
# differ by at most N_PHONON_FACTOR (n + 1/2) r, where n + 1/2 is the
# mechanical variance that n is read from and r the larger of the two
# residuals and RESIDUAL_FLOOR.  The package's residual is at most
# RESIDUAL_FACTOR times the larger of the reference's and RESIDUAL_FLOOR.
# Worst seen, on these draws and on 18,573 stable points drawn uniformly from
# this domain: 0.98 and 1.3 (n + 1/2) r; residual ratio 5.5 and 49.  The
# occupancy is compared before the residual mask because a point whose
# residual lies at RESIDUAL_RTOL can fall on either side of it: delta2p =
# delta3 = J = 0, kappa = kappa3 = Omega_m = 1, gamma = 10**-5.75 has a
# Kronecker residual of 9.7e-11 and a package residual of 1.06e-10.
N_PHONON_FACTOR = 10.0
RESIDUAL_FACTOR = 500.0
RESIDUAL_FLOOR = 1e-13


@SETTINGS
@given(points=st.lists(LYAPUNOV_POINT, min_size=1, max_size=lyapunov.SOLVE_CHUNK + 8))
def test_batched_solve_matches_per_matrix_solves(points):
    block = as_block(points)
    model = lyapunov.build_model(block)
    result = lyapunov.solve_steady(model)
    for i, pt in enumerate(points):
        single = lyapunov.build_model(NormalizedParams(**pt))
        assert model.drift[i].tobytes() == single.drift.tobytes()
        assert model.diffusion[i].tobytes() == single.diffusion.tobytes()
        stable, max_real, v, residual = ref_solve(single.drift, single.diffusion)
        assert bool(result.stable[i]) is stable
        assert bits(result.max_real_eigenvalue[i]) == bits(max_real)
        n, n_ref = occupancy(result.V[i]), occupancy(v)
        assert math.isnan(n) == math.isnan(n_ref) == (not stable), i
        r = max(result.residual[i], residual, RESIDUAL_FLOOR)
        assert not abs(n - n_ref) > N_PHONON_FACTOR * (abs(n_ref) + 0.5) * r, (i, n, n_ref)
        assert math.isnan(result.residual[i]) == (not stable), i
        assert not result.residual[i] > RESIDUAL_FACTOR * max(residual, RESIDUAL_FLOOR), i
        masked = not result.residual[i] <= lyapunov.RESIDUAL_RTOL
        assert bits(result.n_phonon[i]) == bits(math.nan if masked else n)


# Blue-detuned single cavity: unstable (Omega_m = 0.5), and stable but not
# cooling (Omega_m = 0.01).
UNSTABLE_POINT = dict(delta2p=50.0, delta3=0.5, kappa=100.0, kappa3=1.0, J=0.0, Omega_m=0.5,
                      gamma=1e-5, gamma_sc=0.0, n_th=0.0)
NOT_COOLING_POINT = dict(UNSTABLE_POINT, Omega_m=0.01)
SOLVE_FIELDS = ("stable", "max_real_eigenvalue", "n_phonon", "residual")
ORACLE_FIELDS = tuple(f.name for f in dataclasses.fields(lyapunov.OracleReport))
ORACLE_NAN_FIELDS = ("n_formula", "n_rate", "n_lyapunov", "rel_dev", "rel_dev_formula")


def test_single_model_and_stack_flag_unstable_alike():
    single = lyapunov.solve_steady(lyapunov.build_model(NormalizedParams(**UNSTABLE_POINT)))
    stack = lyapunov.solve_steady(lyapunov.build_model(as_block([UNSTABLE_POINT] * 2)))
    assert single.stable is False and not stack.stable.any()
    assert math.isnan(single.n_phonon) and np.isnan(stack.n_phonon).all()
    assert math.isnan(single.residual) and np.isnan(stack.residual).all()
    assert np.isnan(single.V).all() and np.isnan(stack.V).all()


@SETTINGS
@given(points=st.lists(LYAPUNOV_POINT, min_size=1, max_size=12))
def test_single_point_is_a_one_point_block(points):
    """solve_steady and oracle_compare never raise: a single model gives the
    fields of a one-point stack as Python scalars, and a block gives each
    point the bits of its own call, unstable and non-cooling points included."""
    points = points + [UNSTABLE_POINT, NOT_COOLING_POINT]
    block = as_block(points)
    solved = lyapunov.solve_steady(lyapunov.build_model(block))
    report = lyapunov.oracle_compare(block)
    for i, pt in enumerate(points):
        p = NormalizedParams(**pt)
        single = lyapunov.solve_steady(lyapunov.build_model(p))
        stack = lyapunov.solve_steady(lyapunov.build_model(as_block([pt])))
        for name in SOLVE_FIELDS:
            value = getattr(single, name)
            assert type(value) is (bool if name == "stable" else float), name
            assert bits(value) == bits(getattr(stack, name)[0]), name
            assert bits(value) == bits(getattr(solved, name)[i]), name
        assert single.V.tobytes() == stack.V[0].tobytes() == solved.V[i].tobytes()
        one = lyapunov.oracle_compare(p)
        for name in ORACLE_FIELDS:
            value = getattr(one, name)
            assert type(value) is (bool if name == "stable" else float), name
            assert bits(value) == bits(np.broadcast_to(getattr(report, name), len(points))[i]), name
        assert one.stable is single.stable
        assert bits(one.residual) == bits(single.residual)
        if not (single.stable and cooling.cooling_limit(p).cooling):
            assert all(math.isnan(getattr(one, name)) for name in ORACLE_NAN_FIELDS)
    event("a drawn point is unstable" if not solved.stable[:-2].all() else "drawn points stable")

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.

Two criteria are asserted where the model makes its claim rather than at a
fixed figure-level threshold:

- Far-field agreement (criterion 3).  S_coupled/S_single - 1 is first order
  in J^2 chi2 chi3 and decays like 2 J^2 (omega+delta2p) / ((omega+delta3)
  ((kappa/2)^2 + (omega+delta2p)^2)), about 7e-2 at |omega+delta3| = 20.
  The worst deviation must shrink strictly as the exclusion radius grows
  and stay below 1e-3 beyond a radius computed from that leading-order
  term (|omega| ~ 446 for delta2p = 0, ~ 498 for delta2p = +-100).
- Ground-state window (criterion 5).  The window n_f < 1 closes inside the
  [10, 100] grid: at kappa = 98.06 for the rate formula and at 98.88 for the
  exact Lyapunov solve.  Both closures are found by bisection and must agree
  within the formula's perturbative gap; n_f < 1 is asserted on every grid
  point below the exact closure.
"""

import math

import numpy as np
import pytest
from conftest import RECOIL_50NM, fig3_params, fig5_coupled, fig5_single

from cavcool import cooling, invariants, lyapunov, reduction, response
from cavcool.params import NormalizedParams


def announce(number, text):
    print(f"CRITERION {number}: PASS - {text}")


def closing_kappa(occupancy, lo, hi, tol=1e-6):
    """kappa in [lo, hi] where occupancy(kappa) crosses 1, by plain bisection.

    Requires occupancy(lo) < 1 <= occupancy(hi).
    """
    n_lo, n_hi = occupancy(lo), occupancy(hi)
    assert n_lo < 1.0 <= n_hi, (
        f"no window edge in [{lo}, {hi}]: occupancy {n_lo:.4f} -> {n_hi:.4f}"
    )
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if occupancy(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriterion1:
    def test_lorentzian_reduction(self):
        """J = 0 spectrum equals the re-derived Lorentzian to 1e-12 relative."""
        p = NormalizedParams(delta2p=-60.0, delta3=0.5, kappa=100.0, kappa3=1.0,
                             J=0.0, Omega_m=0.25, gamma=1e-5)
        worst = invariants.lorentzian(p, np.linspace(-300.0, 300.0, 4001))
        assert worst < 1e-12, f"max relative error {worst:.3e}"
        announce(1, f"Lorentzian reduction, max rel err {worst:.2e} on 4001-point grid")


class TestCriterion2:
    def test_self_energy_identities(self):
        """2 Re chi = |chi|^2 (kappa + J^2 kappa3 |chi3|^2) and
        Gamma_opt = -2 Im Sigma(omega_m) over 1000 randomized parameter sets."""
        rng = np.random.default_rng(101)
        kappa = 10 ** rng.uniform(0, 3, 1000)
        p = NormalizedParams(
            delta2p=rng.uniform(-1e3, 1e3, 1000),
            delta3=rng.uniform(-2, 2, 1000),
            kappa=kappa,
            kappa3=10 ** rng.uniform(-1, 1, 1000),
            J=rng.uniform(0, np.sqrt(kappa)),
            Omega_m=rng.uniform(0.01, 2.0, 1000),
            gamma=10 ** rng.uniform(-6, -2, 1000),
        )
        worst_identity = invariants.interference(p, rng.uniform(-2e3, 2e3, 1000))
        worst_rate = invariants.two_way_rate(p)
        assert worst_identity < 1e-10, f"identity deviation {worst_identity:.3e}"
        assert worst_rate < 1e-10, f"rate-vs-self-energy deviation {worst_rate:.3e}"
        announce(2, f"self-energy identities, worst {max(worst_identity, worst_rate):.2e}")


def extrema(grid, values):
    """(omega, "max" | "min") at each interior sign change of the sampled slope."""
    slope = np.sign(np.diff(values))
    turns = np.nonzero(slope[:-1] * slope[1:] < 0)[0] + 1
    return [(float(grid[i]), "max" if slope[i - 1] > 0 else "min") for i in turns]


class TestCriterion3:
    def test_lineshape_morphology(self):
        """fig3d: min between two maxima at the auxiliary resonance;
        fig3b/fig3f: one adjacent Fano max/min pair near omega = -delta3."""
        window = np.linspace(-30.0, 30.0, 6001)

        eit = extrema(window, response.s_ff(window, fig3_params(0.0)))
        kinds = [k for _, k in eit]
        assert kinds == ["max", "min", "max"], f"fig3d extrema: {eit}"
        dip = eit[1][0]
        assert abs(dip + 0.5) <= 0.05, f"EIT dip at {dip}, expected near -0.5"

        for delta2p, label in ((100.0, "fig3b"), (-100.0, "fig3f")):
            fano = extrema(window, response.s_ff(window, fig3_params(delta2p)))
            assert len(fano) == 2, f"{label} extrema: {fano}"
            assert {k for _, k in fano} == {"max", "min"}, f"{label} extrema: {fano}"
            for omega, _ in fano:
                assert abs(omega + 0.5) <= 3.0, f"{label} extremum far from -delta3: {fano}"
        announce(3, "lineshape morphology (EIT dip and Fano pairs near -delta3)")

    def test_far_field_agreement(self):
        """Away from the auxiliary resonance the coupled spectrum relaxes onto
        the single-cavity Lorentzian: the worst |S_coupled/S_single - 1| over
        |omega+delta3| > U shrinks strictly as U grows, and is below 1e-3
        beyond the radius where the leading-order deviation
            J^2 (kappa3 |chi3|^2 / kappa - 2 Re chi2 chi3)
          ~ 2 J^2 (omega+delta2p) / ((omega+delta3)((kappa/2)^2 + (omega+delta2p)^2))
        falls to 0.9e-3.  The 10% allowance covers the higher orders in
        J^2 chi2 chi3, which raise the deviation above the leading term by
        under 0.1% at that radius.
        """
        bound = 1e-3
        radii = (20.0, 50.0, 100.0, 200.0, 450.0)
        grid = np.linspace(-1000.0, 1000.0, 80001)
        for delta2p in (100.0, 0.0, -100.0):
            p = fig3_params(delta2p)
            single = p.replace(J=0.0)
            distance = np.abs(grid + p.delta3)
            rel = np.abs(response.s_ff(grid, p) / response.s_ff(grid, single) - 1.0)

            ladder = [float(np.max(rel[distance > u])) for u in radii]
            assert all(a > b for a, b in zip(ladder, ladder[1:])), (
                f"delta2p = {delta2p}: worst deviation over |omega+delta3| > "
                f"{radii} is not strictly shrinking: {ladder}"
            )

            c2 = 1.0 / (-1j * (grid + p.delta2p) + p.kappa / 2.0)
            c3 = 1.0 / (-1j * (grid + p.delta3) + p.kappa3 / 2.0)
            leading = p.J**2 * (p.kappa3 * np.abs(c3) ** 2 / p.kappa - 2.0 * (c2 * c3).real)
            radius = float(np.max(distance[np.abs(leading) >= 0.9 * bound]))
            assert radius < 0.9 * distance.max(), (
                f"delta2p = {delta2p}: grid too narrow for far-field radius {radius:.1f}"
            )
            far = distance > radius
            worst = float(np.max(rel[far]))
            worst_at = float(grid[far][np.argmax(rel[far])])
            assert worst < bound, (
                f"delta2p = {delta2p}: far-field deviation {worst:.3e} at omega = "
                f"{worst_at:.2f}, beyond the leading-order radius {radius:.1f}"
            )
            print(
                f"  delta2p = {delta2p:+.0f}: worst deviation "
                + ", ".join(f"{d:.1e}" for d in ladder)
                + f" for |omega+delta3| > {radii}; {worst:.2e} beyond {radius:.1f}"
            )
        announce(3, "far-field agreement below 1e-3 beyond the leading-order radius")


class TestCriterion4:
    def test_blue_detuned_optimum(self):
        """argmax_delta2p Gamma_opt strictly positive for coupled cavities,
        strictly negative for the single cavity."""
        p = fig5_coupled(100.0)
        best_coupled = cooling.optimal_detuning(p, mode="numeric", objective="net_rate")
        best_single = cooling.optimal_detuning(
            p.replace(J=0.0), mode="numeric", objective="net_rate"
        )
        assert best_coupled > 1e-3, f"coupled optimum {best_coupled}"
        assert best_single < -1e-3, f"single optimum {best_single}"
        announce(
            4,
            f"optimum detuning blue for coupled (+{best_coupled:.1f}), "
            f"red for single ({best_single:.1f})",
        )


class TestCriterion5:
    def test_coupled_ground_state_window(self):
        """The coupled window n_f < 1 is open at kappa = 10, far above omega_m,
        and closes at the same kappa for the rate formula and for the exact
        Lyapunov solve (within 1%, the formula's perturbative gap here: the
        two occupancies differ by 0.6% at kappa = 100).  n_f < 1 holds at
        every point of a 50-point log grid over [10, 100] below that closure.

        gamma_sc = 1.0335e-3 (r = 50 nm, lambda = 1 um, eps = 2), J = sqrt(kappa),
        delta2p = J^2 / (delta3 + 1), Omega_m = 1/4, kappa3 = 1, gamma = 1e-5.
        """

        def formula(kappa):
            return cooling.cooling_limit(fig5_coupled(kappa)).n_f

        def exact(kappa):
            return lyapunov.solve_steady(lyapunov.build_model(fig5_coupled(kappa))).n_phonon

        closure_formula = closing_kappa(formula, 10.0, 100.0)
        closure_exact = closing_kappa(exact, 10.0, 100.0)
        print(f"  window closes at kappa = {closure_formula:.2f} (formula), "
              f"{closure_exact:.2f} (exact)")
        gap = abs(closure_formula - closure_exact) / closure_exact
        assert gap < 0.01, (
            f"closures disagree by {gap:.2%}: formula {closure_formula:.4g}, "
            f"exact {closure_exact:.4g}"
        )

        grid = np.logspace(1, 2, 50)
        inside = grid[grid < closure_exact]
        n_fs = np.array([formula(k) for k in inside])
        offenders = [(k, n) for k, n in zip(inside, n_fs) if not n < 1.0]
        assert not offenders, (
            f"n_f >= 1 below the exact closure {closure_exact:.4g} at "
            + ", ".join(f"kappa={k:.4g} -> n_f={n:.4f}" for k, n in offenders)
        )
        announce(
            5,
            f"coupled window n_f < 1 on [10, {closure_exact:.2f}], max n_f "
            f"{n_fs.max():.3f}; closes at {closure_formula:.2f} (formula) / "
            f"{closure_exact:.2f} (exact)",
        )

    def test_single_cavity_misses_ground_state(self):
        """Single cavity at kappa = 100 with delta2p = -kappa/2 has n_f > 1."""
        report = cooling.cooling_limit(fig5_single(100.0))
        assert report.cooling
        assert report.n_f > 1.0, f"single-cavity n_f = {report.n_f}"
        announce(5, f"single cavity at kappa=100 stays hot, n_f = {report.n_f:.1f}")


class TestCriterion6:
    def test_monotone_in_recoil(self):
        """n_f strictly increasing in gamma_sc (hence in r^3) at kappa = 50 and 100."""
        scales = (0.25, 0.5, 1.0, 2.0, 4.0)
        for kappa in (50.0, 100.0):
            values = [
                cooling.cooling_limit(fig5_coupled(kappa, gamma_sc=s * RECOIL_50NM)).n_f
                for s in scales
            ]
            assert all(a < b for a, b in zip(values, values[1:])), values
        announce(6, "n_f strictly increasing in gamma_sc")

    def test_degrading_with_auxiliary_linewidth(self):
        """At the kappa = 100 preset, n_f increases across kappa3 in {1, 2, 5}."""
        values = [
            cooling.cooling_limit(fig5_coupled(100.0, kappa3=k3)).n_f
            for k3 in (0.5, 1.0, 2.0, 5.0)
        ]
        increasing_tail = all(a < b for a, b in zip(values[1:], values[2:]))
        assert increasing_tail, values
        announce(6, f"n_f grows with kappa3 beyond 1: {[f'{v:.3f}' for v in values]}")


class TestCriterion7:
    def test_oracle_equivalence(self):
        """Lyapunov occupancy vs rate-formula occupancy: <= 20% at Omega_m =
        0.025 and monotone decreasing along {0.25, 0.15, 0.1, 0.05, 0.025}.

        The comparison restores the intrinsic damping gamma to the formula's
        denominator (the known gap of the bare expression, documented in the
        oracle report); gamma_sc enters the oracle as mechanical diffusion.
        """
        ladder = (0.25, 0.15, 0.1, 0.05, 0.025)
        deviations = []
        for omega in ladder:
            report = lyapunov.oracle_compare(fig5_coupled(100.0, Omega_m=omega))
            deviations.append(report.rel_dev)
        assert deviations[-1] <= 0.20, f"deviation at 0.025: {deviations[-1]:.3f}"
        assert all(a > b for a, b in zip(deviations, deviations[1:])), deviations
        announce(
            7,
            "oracle deviation "
            + " > ".join(f"{d:.2e}" for d in deviations)
            + " (monotone, final <= 20%)",
        )


class TestCriterion8:
    def test_single_cavity_criterion_exact(self):
        """Eigenvalue stability matches the closed single-cavity inequality on
        100% of a 1000-point grid (margin exclusion 1e-6)."""
        rng = np.random.default_rng(313)
        kappa = 10 ** rng.uniform(0, 3, 1000)
        delta = rng.choice([-1.0, 1.0], 1000) * kappa * 10 ** rng.uniform(-2, math.log10(3), 1000)
        p = NormalizedParams(
            delta2p=delta, delta3=0.5, kappa=kappa, kappa3=1.0, J=0.0,
            Omega_m=rng.uniform(0.05, 3.0, 1000), gamma=0.0,
        )
        checked = np.count_nonzero(np.abs(reduction.stability_single(p).margin) >= 1e-6)
        assert checked > 900
        assert invariants.single_criterion(p) == 0.0
        announce(8, f"single-cavity criterion matches eigenvalues on {checked}/1000 points")

    def test_coupled_criterion_in_regime(self):
        """Closed coupled bound vs eigenvalues on >= 99% of in-regime points.

        In-regime means every derivation assumption holds: |delta2p| >=
        10 |delta3|, kappa >= 10 (kappa3, gamma, J), and weak coupling
        Omega_m << omega_m.  Near the criterion's own bound Omega_m is of
        order 1/eta >> omega_m (outside the regime); the measured
        conservatism there is printed for the record, not asserted.
        """
        rng = np.random.default_rng(919)
        total = 0
        agree = 0
        for kappa in np.geomspace(100.0, 1000.0, 10):
            j = math.sqrt(kappa)
            for factor in (0.7, 1.0, 1.4):
                for kappa3 in (0.3, 1.0):
                    base = NormalizedParams(
                        delta2p=factor * j**2 / 1.5, delta3=0.5, kappa=kappa,
                        kappa3=kappa3, J=j, Omega_m=0.1, gamma=1e-5,
                    )
                    assert reduction.effective_params(base).regime_ok
                    for omega in rng.uniform(0.02, 0.5, 17):
                        p = base.replace(Omega_m=omega)
                        verdict = reduction.stability_coupled(p)
                        if abs(verdict.margin) < 1e-3:
                            continue
                        total += 1
                        stable, _ = lyapunov.eigen_stable(lyapunov.build_model(p))
                        agree += stable == verdict.stable
        fraction = agree / total
        assert total >= 1000
        assert fraction >= 0.99, f"agreement {fraction:.4f} on {total} points"

        # Out-of-regime conservatism, logged; the criterion must flag this side.
        p = fig5_coupled(400.0)
        eff = reduction.effective_params(p)
        bound = math.sqrt((4 + eff.kappa_eff**2) / (16 * eff.eta**2))
        probe = p.replace(Omega_m=1.2 * bound)
        assert not reduction.stability_coupled(probe).stable
        eigen_ok, _ = lyapunov.eigen_stable(lyapunov.build_model(probe))
        print(
            f"  [logged] at Omega_m = 1.2 x closed bound (far outside Omega_m << "
            f"omega_m): criterion says unstable, eigenvalues say "
            f"{'stable' if eigen_ok else 'unstable'} - criterion is conservative there"
        )
        announce(8, f"coupled criterion agrees on {fraction:.1%} of {total} in-regime points")


class TestCriterion9:
    def test_stability_enlargement(self):
        """S_min = (kappa/4) sqrt(1 + kappa3^2/4) + kappa kappa3 / 8 exceeds the
        single-cavity bound kappa/4 for 1000 random (kappa, kappa3) pairs."""
        rng = np.random.default_rng(77)
        kappa = 10 ** rng.uniform(-1, 3, 1000)
        kappa3 = 10 ** rng.uniform(-3, 1, 1000)
        assert invariants.enlargement(kappa, kappa3) < 1.0
        # machine-precision identity with the analytic form
        analytic = kappa / 4 * np.sqrt(1 + kappa3**2 / 4) + kappa * kappa3 / 8
        assert reduction.minimum_coupled_bound(kappa, kappa3) == pytest.approx(analytic, rel=1e-15)
        announce(9, "coupled stability bound exceeds single-cavity bound (1000 draws)")


class TestCriterion10:
    def test_thermal_limits_exact(self):
        """Omega_m = 0 gives n_phonon = n_th + gamma_sc/gamma to 1e-10 relative
        on 100 random draws."""
        rng = np.random.default_rng(1001)
        p = NormalizedParams(
            delta2p=rng.uniform(-100, 100, 100),
            delta3=rng.uniform(-2, 2, 100),
            kappa=10 ** rng.uniform(-1, 2, 100),
            kappa3=10 ** rng.uniform(-1, 1, 100),
            J=rng.uniform(0, 5, 100),
            Omega_m=0.0,
            gamma=10 ** rng.uniform(-3, 0, 100),
            gamma_sc=10 ** rng.uniform(-6, -2, 100),
            n_th=rng.uniform(0, 100, 100),
        )
        worst = invariants.thermal_limit(p)
        assert worst < 1e-10, f"worst relative deviation {worst:.3e}"
        announce(10, f"thermal limits exact, worst deviation {worst:.2e}")

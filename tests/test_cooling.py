"""Cooling-rate and phonon-limit tests with independently computed oracles."""

import math

import numpy as np
import pytest
from conftest import RECOIL_50NM, fig5_coupled, fig5_single

from cavcool import cli, cooling, invariants, params, response
from cavcool.errors import NoCoolingWindow
from cavcool.params import NormalizedParams, SweptJ


def direct_rate_formula(omega_sign, p):
    """Closed-form rate expression, written out independently of s_ff."""
    w = omega_sign * 1.0
    denom = (
        -1j * (p.delta2p + w)
        + p.kappa / 2.0
        + p.J**2 / (-1j * (p.delta3 + w) + p.kappa3 / 2.0)
    )
    bracket = p.kappa + p.kappa3 * p.J**2 / ((p.delta3 + w) ** 2 + p.kappa3**2 / 4.0)
    return abs(p.Omega_m / denom) ** 2 * bracket


class TestRates:
    def test_zero_coupling(self):
        p = fig5_coupled(100.0).replace(Omega_m=0.0)
        assert cooling.rates(p) == (0.0, 0.0)

    def test_symmetric_spectrum_equal_rates(self):
        p = NormalizedParams(delta2p=0.0, delta3=0.5, kappa=100.0, kappa3=1.0,
                             J=0.0, Omega_m=0.25, gamma=1e-5)
        a_minus, a_plus = cooling.rates(p)
        assert a_minus == pytest.approx(a_plus, rel=1e-13)

    def test_fig5_point_against_closed_form(self):
        p = fig5_coupled(100.0)
        a_minus, a_plus = cooling.rates(p)
        assert a_minus == pytest.approx(direct_rate_formula(+1, p), rel=1e-12)
        assert a_plus == pytest.approx(direct_rate_formula(-1, p), rel=1e-12)
        # Frozen values from the independent evaluation above.
        assert a_minus == pytest.approx(1.7645477156e-3, rel=1e-9)
        assert a_plus == pytest.approx(3.7540961360e-4, rel=1e-9)
        assert a_plus < 0.25 * a_minus  # interference-suppressed heating

    def test_scale_law_in_coupling(self):
        p = fig5_coupled(100.0)
        p2 = p.replace(Omega_m=3.0 * p.Omega_m)
        r1 = cooling.cooling_limit(p)
        r2 = cooling.cooling_limit(p2)
        assert r2.A_minus == pytest.approx(9 * r1.A_minus, rel=1e-12)
        assert r2.Gamma_opt == pytest.approx(9 * r1.Gamma_opt, rel=1e-12)
        assert r2.n_q == pytest.approx(r1.n_q, rel=1e-12)
        assert r2.n_c == pytest.approx(r1.n_c / 9, rel=1e-12)


class TestNetRateAndSpring:
    def test_zero_coupling(self):
        p = fig5_coupled(100.0).replace(Omega_m=0.0)
        assert cooling.net_rate(p) == 0.0
        assert cooling.spring_shift(p) == 0.0

    def test_red_detuned_single_cavity_cools(self):
        p = fig5_single(100.0)
        assert cooling.net_rate(p) > 0.0

    def test_blue_detuned_single_cavity_heats(self):
        p = fig5_single(100.0).replace(delta2p=+50.0)
        assert cooling.net_rate(p) < 0.0

    def test_two_routes_to_net_rate_agree(self):
        rng = np.random.default_rng(23)
        p = NormalizedParams(
            delta2p=rng.uniform(-1e3, 1e3, 300),
            delta3=rng.uniform(-2, 2, 300),
            kappa=10 ** rng.uniform(0, 3, 300),
            kappa3=10 ** rng.uniform(-1, 1, 300),
            J=rng.uniform(0, np.sqrt(10 ** rng.uniform(0, 3, 300))),
            Omega_m=rng.uniform(0, 2, 300),
            gamma=1e-5,
        )
        assert invariants.two_way_rate(p) <= 1e-10

    def test_spring_shift_is_self_energy_real_part(self):
        p = fig5_coupled(100.0)
        assert cooling.spring_shift(p) == pytest.approx(
            response.self_energy(1.0, p).real, rel=1e-13
        )


def shaped_points(cls, J):
    """The fig5 point at coupling J as a scalar point, a 1-point block and a 65-point block."""
    fields = vars(fig5_coupled(100.0).replace(J=J))
    point = cls(**{k: fields[k] for k in params.RATE_KEYS})
    return (
        point,
        point.replace(delta2p=np.array([point.delta2p])),
        point.replace(delta2p=np.linspace(-300.0, 300.0, 65)),
    )


class TestOneResponsePass:
    """One rate pair is one stacked response pass: chi2 and chi3 at +-omega_m
    share one reciprocal, then 1/chi2 and the coupled sum take one each.
    For `SweptJ` the coupled sum is inverted in numpy's order instead."""

    @pytest.mark.parametrize("J", [10.0, 0.0])
    @pytest.mark.parametrize("cls", [NormalizedParams, SweptJ])
    @pytest.mark.parametrize("fn", [cooling.cooling_limit, cooling.net_rate])
    def test_reciprocal_and_square_calls(self, fn, cls, J, monkeypatch):
        calls = {}

        def counted(name, real):
            def call(x):
                calls[name] = calls.get(name, 0) + 1
                return real(x)

            return call

        for name in ("_reciprocal", "_numpy_reciprocal", "square"):
            monkeypatch.setattr(response, name, counted(name, getattr(response, name)))
        for p in shaped_points(cls, J):
            calls.clear()
            fn(p)
            if J == 0.0:
                assert calls == {"_reciprocal": 1, "square": 4}, p.shape
            elif cls is SweptJ:
                assert calls == {"_reciprocal": 2, "_numpy_reciprocal": 1, "square": 5}, p.shape
            else:
                assert calls == {"_reciprocal": 3, "square": 5}, p.shape


class TestCoolingLimit:
    def test_deep_resolved_limit_tiny(self):
        # kappa -> 0 at delta2p = -1: A_plus/A_minus -> (kappa/4)^2, so n_f -> 0.
        p = NormalizedParams(delta2p=-1.0, delta3=0.5, kappa=0.01, kappa3=1.0,
                             J=0.0, Omega_m=0.001, gamma=0.0, gamma_sc=0.0)
        report = cooling.cooling_limit(p)
        assert report.cooling
        assert report.n_f == pytest.approx(p.kappa**2 / 16.0, rel=0.01)

    def test_limit_composition(self):
        p = fig5_coupled(100.0)
        report = cooling.cooling_limit(p)
        assert report.n_f == pytest.approx(report.n_q + report.n_c, rel=1e-13)
        assert report.n_q == pytest.approx(report.A_plus / report.Gamma_opt, rel=1e-13)
        assert report.n_c == pytest.approx(p.gamma_sc / report.Gamma_opt, rel=1e-13)

    def test_not_cooling_flagged(self):
        p = fig5_single(100.0).replace(delta2p=+50.0)
        report = cooling.cooling_limit(p)
        assert not report.cooling
        assert np.isnan(report.n_f)

    def test_nan_net_rate_is_not_cooling(self, monkeypatch, tmp_path):
        # A NaN Gamma_opt does not cool: for one point and in a block, in the
        # report, in the evaluator's condition and in the CLI flag.
        monkeypatch.setattr(cooling, "rates", lambda p: (np.array([1.0, math.nan]), np.zeros(2)))
        block = fig5_coupled(100.0).replace(kappa=np.array([100.0, 200.0]))
        assert cooling.cooling_limit(block).cooling.tolist() == [True, False]
        _, conditions = cli.evaluate_quantities(block, ["n_f"])
        assert conditions["not_cooling"].tolist() == [False, True]
        monkeypatch.setattr(cooling, "rates", lambda p: (math.nan, math.nan))
        report = cooling.cooling_limit(fig5_coupled(100.0))
        assert report.cooling is False
        assert math.isnan(report.n_f)
        config = tmp_path / "point.cfg"
        config.write_text(
            "delta2p = 50\ndelta3 = 0.5\nkappa = 100\nkappa3 = 1\nJ = 10\nOmega_m = 0.25\n"
        )
        out = tmp_path / "limit.csv"
        assert cli.main(["limit", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",nan,nan,nan,nan,nan,nan,not_cooling")

    def test_heating_suppression_vs_single_cavity(self):
        coupled = cooling.cooling_limit(fig5_coupled(100.0))
        single = cooling.cooling_limit(fig5_single(100.0))
        assert coupled.A_plus < single.A_plus


class TestOptimalDetuning:
    def test_closed_form(self):
        p = fig5_coupled(100.0)
        assert cooling.closed_form_detuning(p) == pytest.approx(100.0 / 1.5, rel=1e-12)
        with pytest.raises(ValueError, match="closed_form_detuning"):
            cooling.optimal_detuning(p, mode="closed_form")

    def test_single_cavity_numeric_optimum_is_red(self):
        p = fig5_single(100.0)
        best = cooling.optimal_detuning(p, mode="numeric")
        assert best < 0.0
        # Cross-check against a brute-force scan oracle.
        grid = np.linspace(-300, 300, 20001)
        n_fs = []
        for d in grid:
            rep = cooling.cooling_limit(p.replace(delta2p=d))
            n_fs.append(rep.n_f if rep.cooling else np.inf)
        brute = grid[int(np.argmin(n_fs))]
        assert best == pytest.approx(brute, abs=0.05)

    def test_numeric_near_closed_form_on_fig5_preset(self):
        p = fig5_coupled(100.0)
        numeric = cooling.optimal_detuning(p, mode="numeric")
        closed = cooling.closed_form_detuning(p)
        assert abs(numeric - closed) / closed < 0.20

    def test_no_cooling_window_without_coupling(self):
        p = fig5_coupled(100.0).replace(Omega_m=0.0)
        with pytest.raises(NoCoolingWindow):
            cooling.optimal_detuning(p, mode="numeric")

    def test_rate_objective_argmax(self):
        p = fig5_coupled(100.0)
        best = cooling.optimal_detuning(p, mode="numeric", objective="net_rate")
        gamma_best = cooling.net_rate(p.replace(delta2p=best))
        for probe in (best - 0.5, best + 0.5):
            assert cooling.net_rate(p.replace(delta2p=probe)) <= gamma_best + 1e-15

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            cooling.optimal_detuning(fig5_coupled(100.0), mode="magic")

    @pytest.mark.parametrize(
        "bad",
        [
            {"mode": "closed_form"},
            {"mode": "Numeric"},
            {"mode": ""},
            {"mode": None},
            {"objective": "N_F"},
            {"objective": "n_f "},
            {"objective": "rate"},
            {"objective": ""},
            {"objective": None},
        ],
    )
    def test_bad_arguments_rejected(self, bad):
        # The error names the argument it rejects.
        with pytest.raises(ValueError, match=next(iter(bad))):
            cooling.optimal_detuning(fig5_coupled(100.0), **bad)

    def test_tolerance_below_float_spacing_returns(self, monkeypatch):
        # Near delta2p = 1.3e10 one float step, 1.9e-6, is wider than SCAN_TOL,
        # so the bracket stops shrinking before it reaches the tolerance.
        p = fig5_coupled(2e10)
        grids = []
        real = cooling.cooling_limit

        def recorded(q):
            grids.append(np.asarray(q.delta2p))
            return real(q)

        monkeypatch.setattr(cooling, "cooling_limit", recorded)
        best = cooling.optimal_detuning(p, mode="numeric")
        monkeypatch.undo()
        assert np.spacing(best) > cooling.SCAN_TOL
        assert np.ptp(grids[-1]) <= 4.0 * np.spacing(best)
        seen = real(p.replace(delta2p=np.concatenate(grids))).n_f
        around = real(p.replace(delta2p=np.nextafter(best, np.array([-np.inf, np.inf])))).n_f
        found = real(p.replace(delta2p=best)).n_f
        assert found == np.nanmin(seen) and found <= np.min(around)


def golden_section(fun, a, b, tol):
    """Reference minimizer: golden section on [a, b] to absolute tolerance tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def bench_like_points(seed, count):
    """Seeded points near the interference-optimal detuning, kappa in 10-316."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kappa = 10 ** rng.uniform(1.0, 2.5)
        j = math.sqrt(kappa) * rng.uniform(0.8, 1.2)
        delta3 = rng.uniform(0.3, 0.8)
        out.append(
            NormalizedParams(
                delta2p=j**2 / (delta3 + 1.0),
                delta3=delta3,
                kappa=kappa,
                kappa3=rng.uniform(0.5, 2.0),
                J=j,
                Omega_m=rng.uniform(0.1, 0.4),
                gamma=10 ** rng.uniform(-6.0, -4.0),
                gamma_sc=RECOIL_50NM * rng.uniform(0.5, 2.0),
            )
        )
    return out


def objective_cost(objective, p, delta):
    """Cost minimized by optimal_detuning: n_f (inf where not cooling) or -Gamma_opt."""
    if objective == "n_f":
        report = cooling.cooling_limit(p.replace(delta2p=delta))
        return np.where(report.cooling, report.n_f, np.inf)
    return -np.asarray(cooling.net_rate(p.replace(delta2p=delta)))


def beyond_scan(p):
    """`p` with J tripled, which moves the closed-form detuning J^2/(delta3 + 1)
    to 3.2-10 kappa: the optimum lies beyond the scanned +-SCAN_SPAN kappa."""
    j = 3.0 * p.J
    return p.replace(J=j, delta2p=j**2 / (p.delta3 + 1.0))


class TestOptimiserRegression:
    """Block re-scan against a fine scan and a golden-section reference.

    For the `beyond` points the optimum lies outside the scanned range, so
    the best scan point is the grid's right edge.
    """

    @pytest.mark.parametrize("beyond", [False, True], ids=["inside", "beyond"])
    @pytest.mark.parametrize("objective", ["n_f", "net_rate"])
    @pytest.mark.parametrize("p", bench_like_points(2024, 6))
    def test_against_scan_golden_section_and_block_count(self, p, objective, beyond, monkeypatch):
        if beyond:
            p = beyond_scan(p)
        span, points, tol = cooling.SCAN_SPAN, cooling.SCAN_POINTS, cooling.SCAN_TOL
        blocks = []

        def counted(real):
            def call(q, *args, **kwargs):
                blocks.append(q)
                return real(q, *args, **kwargs)

            return call

        monkeypatch.setattr(cooling, "cooling_limit", counted(cooling.cooling_limit))
        monkeypatch.setattr(cooling, "net_rate", counted(cooling.net_rate))
        best = cooling.optimal_detuning(p, mode="numeric", objective=objective)
        monkeypatch.undo()
        assert all(np.ndim(q.delta2p) == 1 for q in blocks)
        width = 2.0 * (2.0 * span * p.kappa / (points - 1))
        assert len(blocks) <= 1 + math.ceil(math.log(width / tol) / math.log(32.0))

        found = float(objective_cost(objective, p, best))
        fine = np.linspace(-span * p.kappa, span * p.kappa, 60001)
        target = float(np.min(objective_cost(objective, p, fine)))
        assert found <= target + 1e-9 * abs(target)

        grid = np.linspace(-span * p.kappa, span * p.kappa, points)
        i = int(np.argmin(objective_cost(objective, p, grid)))
        golden = golden_section(
            lambda d: float(objective_cost(objective, p, d)),
            grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], tol,
        )
        reference = float(objective_cost(objective, p, golden))
        assert found <= reference + 1e-12 * abs(reference)
        if beyond:
            assert i == points - 1

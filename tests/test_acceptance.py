"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 8 needs the
public prostate z-score CSV (see README) and is skipped when absent.
Criterion 5 is known-red: the faithful pipeline cannot meet the stated
tolerance at z = -4 (analysis in the project notes); it is kept failing
rather than weakened.
"""

import math
import os
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from cdfdr.cli import main
from cdfdr.density import eval_comparison_density_many, integrate_comparison_density
from cdfdr.legendre import basis_matrix
from cdfdr.pipeline import (
    NullSpec,
    discoveries,
    evaluate,
    fit_cdfdr,
    to_pvalues,
)
from cdfdr.simulate import (
    MixtureNormalDesign,
    MixtureUniformDesign,
    replicate_rng,
    run_replicates,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _two_sided_mixture(rng, n_null, n_signal, mu):
    signs = np.where(rng.random(n_signal) < 0.5, -1.0, 1.0)
    means = signs * mu + rng.normal(0.0, 1.0, n_signal)
    return np.concatenate([
        rng.normal(0.0, 1.0, n_null), means + rng.normal(0.0, 1.0, n_signal),
    ])


@pytest.fixture(scope="module")
def fitted_models():
    """Ten models over varied simulated inputs, nulls, and transforms."""
    models = []

    def rng(k):
        return replicate_rng(7000, 3, k)

    # One-sided normal mixtures of increasing separation.
    for k, mu in enumerate((1.0, 2.0, 3.0, 4.0)):
        r = rng(k)
        stats = np.concatenate([
            r.normal(0.0, 1.0, 4500), r.normal(mu, 1.0, 500) + r.normal(0.0, 1.0, 500),
        ])
        models.append(fit_cdfdr(stats, NullSpec.standard_normal()))
    # All-null and a two-sided alternative.
    models.append(fit_cdfdr(rng(4).normal(0.0, 1.0, 2000), NullSpec.standard_normal()))
    models.append(fit_cdfdr(_two_sided_mixture(rng(5), 1800, 200, 3.0),
                            NullSpec.standard_normal()))
    # Precomputed p-value mixtures.
    r = rng(6)
    u1 = np.where(r.random(5000) < 0.9, r.random(5000), 0.02 * r.random(5000))
    models.append(fit_cdfdr(u1, NullSpec.precomputed()))
    r = rng(7)
    u2 = np.where(r.random(3000) < 0.95, r.random(3000), 0.002 * r.random(3000))
    models.append(fit_cdfdr(u2, NullSpec.precomputed()))
    # Student-t null and a shifted-scaled normal null.
    r = rng(8)
    t_stats = np.concatenate([r.standard_t(10, 1800), r.standard_t(10, 200) + 3.0])
    models.append(fit_cdfdr(t_stats, NullSpec.student_t(10.0)))
    r = rng(9)
    n_stats = np.concatenate([r.normal(1.0, 2.0, 1800), r.normal(6.0, 2.0, 200)])
    models.append(fit_cdfdr(n_stats, NullSpec.normal(1.0, 2.0),
                            mode="two_sided"))
    assert len(models) == 10
    return models


def _eval_points(model):
    if model.null_spec.kind == "precomputed_pvalues":
        return np.linspace(1e-4, 1.0 - 1e-4, 1000)
    center = model.null_spec.median()
    spread = model.null_spec.sigma0 if model.null_spec.kind == "normal" else 1.0
    return np.linspace(center - 6.0 * spread, center + 6.0 * spread, 1000)


class TestAcceptance:
    def test_criterion_1_proposition_identity(self, fitted_models):
        start = time.perf_counter()
        worst = 0.0
        for model in fitted_models:
            points = _eval_points(model)
            raw = model.pi0 / evaluate(model, points).d
            dens = eval_comparison_density_many(
                model.cd_model, to_pvalues(points, model.null_spec, model.transform_mode)
            )
            worst = max(worst, float(np.max(np.abs(raw * dens - model.pi0))))
        elapsed = time.perf_counter() - start
        _report(
            1, "Proposition-1 identity", worst <= 1e-12 and elapsed < 5.0,
            f"max |fdr*d - pi0| = {worst:.2e} over 10 models x 1000 points, "
            f"{elapsed:.2f}s",
        )

    def test_criterion_2_basis_and_normalization(self, fitted_models):
        start = time.perf_counter()
        nodes, weights = leggauss(64)
        mat = basis_matrix(10, 0.5 * (nodes + 1.0))
        gram = (mat * (0.5 * weights)[:, None]).T @ mat
        gram_err = float(np.max(np.abs(gram - np.eye(10))))
        worst_integral = 0.0
        for model in fitted_models:
            total = integrate_comparison_density(model.cd_model)
            worst_integral = max(worst_integral, abs(total - 1.0))
        elapsed = time.perf_counter() - start
        _report(
            2, "basis orthonormality and density normalization",
            gram_err <= 1e-10 and worst_integral <= 1e-4 and elapsed < 5.0,
            f"Gram error {gram_err:.2e}, max |integral - 1| = "
            f"{worst_integral:.2e}, {elapsed:.2f}s",
        )

    def test_criterion_3_threshold_arithmetic(self):
        n = 7129
        threshold = 2.0 * math.log(n) / n
        survives = 0.16 ** 2 > threshold
        zeroed = not (0.04 ** 2 > threshold)
        _report(
            3, "threshold arithmetic",
            survives and zeroed,
            f"threshold(7129) = {threshold:.6f}; 0.0256 passes: {survives}; "
            f"0.0016 zeroed: {zeroed}",
        )

    def test_criterion_4_null_calibration(self):
        start = time.perf_counter()
        clean = 0
        clean_discoveries_ok = True
        for seed in range(50):
            stats = replicate_rng(1000, 1, seed).normal(0.0, 1.0, 5000)
            model = fit_cdfdr(stats, NullSpec.standard_normal())
            if np.all(model.cd_model.coeffs.theta_hat == 0.0) and model.pi0 >= 0.98:
                clean += 1
                if discoveries(model, stats, threshold=0.2).n_discoveries != 0:
                    clean_discoveries_ok = False
        elapsed = time.perf_counter() - start
        _report(
            4, "null calibration",
            clean >= 45 and clean_discoveries_ok and elapsed < 120.0,
            f"{clean}/50 replicates with zero coefficients and pi0 >= 0.98, "
            f"zero discoveries in all of them: {clean_discoveries_ok}, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_5_mixture_normal_accuracy(self):
        # Known-red: at z = -4 the pit p-value is ~3.2e-5 (no data at
        # N=5000) and the fitted beta's alpha < 1 drives the estimate to
        # ~0.6 against a true fdr of 0.97; see the project notes for the
        # full analysis (max error inside the sampled range is ~0.03).
        start = time.perf_counter()
        design = MixtureNormalDesign(mu=2.0, n=5000, n_null=4500,
                                     replicates=20, seed=0)
        report = run_replicates(design)
        window = np.abs(report.grid) <= 4.0
        err = np.abs(report.mean_fdr - report.true_fdr)[window]
        max_err = float(np.max(err))
        z_at = float(report.grid[window][int(np.argmax(err))])
        elapsed = time.perf_counter() - start
        _report(
            5, "mixture-normal mu=2 accuracy",
            max_err <= 0.10 and elapsed < 300.0,
            f"max |mean fdr - true fdr| over z in [-4,4] = {max_err:.3f} "
            f"at z = {z_at} (tolerance 0.10), {elapsed:.1f}s",
        )

    def test_criterion_6_pi0_recovery(self):
        start = time.perf_counter()
        medians = {}
        for mu in (3.0, 4.0):
            design = MixtureNormalDesign(mu=mu, n=5000, n_null=4500,
                                         replicates=20, seed=0)
            report = run_replicates(design)
            medians[mu] = float(np.median(report.pi0_estimates))
        elapsed = time.perf_counter() - start
        ok = all(0.87 <= m <= 0.93 for m in medians.values())
        _report(
            6, "pi0 recovery",
            ok and elapsed < 300.0,
            f"median pi0: mu=3 -> {medians[3.0]:.4f}, mu=4 -> {medians[4.0]:.4f} "
            f"(target [0.87, 0.93], true 0.9), {elapsed:.1f}s",
        )

    def test_criterion_7_uniform_tail(self):
        start = time.perf_counter()
        # Closed form against a 1e6-draw Monte Carlo classifier.
        rng = replicate_rng(2000, 5)
        n = 1_000_000
        is_null = rng.random(n) < 0.9
        u = np.where(is_null, rng.random(n), 0.02 * rng.random(n))
        inside = u <= 0.02
        mc = float(is_null[inside].mean())
        closed = 0.9 / 5.9
        oracle_ok = abs(mc - closed) <= 0.01
        # Tail-restricted accuracy of the fitted estimator.
        rmse = {}
        for a in (0.02, 0.002):
            design = MixtureUniformDesign(pi0=0.9, a=a, n=5000,
                                          replicates=20, seed=0)
            report = run_replicates(design)
            span = float(report.grid[99] - report.grid[0])
            rmse[a] = float(math.sqrt(report.tail_mise / span))
        elapsed = time.perf_counter() - start
        ok = oracle_ok and all(v <= 0.15 for v in rmse.values())
        _report(
            7, "uniform-mixture tail",
            ok and elapsed < 300.0,
            f"closed form {closed:.5f} vs MC {mc:.5f}; tail RMSE: "
            f"a=0.02 -> {rmse[0.02]:.3f}, a=0.002 -> {rmse[0.002]:.3f} "
            f"(tolerance 0.15), {elapsed:.1f}s",
        )

    def test_criterion_8_prostate_replication(self):
        path = os.environ.get("CDFDR_PROSTATE_CSV", "")
        if not path:
            candidate = os.path.join(os.path.dirname(__file__), "..", "data",
                                     "prostate_z.csv")
            path = candidate if os.path.exists(candidate) else ""
        if not path or not os.path.exists(path):
            print("[SKIP] criterion 8 (prostate replication): dataset not "
                  "supplied (set CDFDR_PROSTATE_CSV or add data/prostate_z.csv)")
            pytest.skip("prostate z-score CSV not supplied")
        import csv as _csv

        with open(path, encoding="utf-8", newline="") as handle:
            reader = _csv.reader(handle)
            header = [h.strip() for h in next(reader)]
            col = header.index("stat") if "stat" in header else 0
            z = np.array([float(row[col]) for row in reader if row])
        model = fit_cdfdr(z, NullSpec.standard_normal())
        fit = model.beta_fit
        coeffs = model.cd_model.coeffs
        disc = discoveries(model, z, threshold=0.2)
        checks = {
            "alpha": abs(fit.alpha - 0.81) <= 0.02,
            "beta": abs(fit.beta - 0.82) <= 0.02,
            "single j=6": coeffs.selected() == [6],
            "theta_6": abs(coeffs.theta_hat[5] - 0.057) <= 0.01,
            "lambda_star": abs(model.deviance_path.lambda_star - 1.98) <= 0.05,
            "pi0": abs(model.pi0 - 0.971) <= 0.005,
            "discoveries": (disc.n_discoveries, disc.n_left, disc.n_right) == (17, 13, 4),
        }
        _report(
            8, "prostate replication", all(checks.values()),
            f"alpha={fit.alpha:.3f} beta={fit.beta:.3f} "
            f"selected={coeffs.selected()} lambda*={model.deviance_path.lambda_star:.2f} "
            f"pi0={model.pi0:.4f} discoveries={disc.n_discoveries} "
            f"({disc.n_left} left, {disc.n_right} right); failed: "
            f"{[k for k, v in checks.items() if not v]}",
        )

    def test_criterion_9_cli_determinism(self, tmp_path):
        rng = replicate_rng(3000, 9)
        stats = np.concatenate([rng.normal(0, 1, 1900), rng.normal(3, 1.4, 100)])
        stats_csv = tmp_path / "stats.csv"
        stats_csv.write_text(
            "stat\n" + "\n".join(repr(float(s)) for s in stats) + "\n",
            encoding="utf-8",
        )
        commands = {
            "fdr": ["fdr", "--input", str(stats_csv), "--column", "stat"],
            "pi0": ["pi0", "--input", str(stats_csv), "--column", "stat"],
            "simulate-mixnorm": [
                "simulate", "--design", "mixnorm", "--mu", "2",
                "--replicates", "2", "--seed", "11", "--n", "2000",
                "--n-null", "1800",
            ],
            "simulate-mixunif": [
                "simulate", "--design", "mixunif", "--pi0", "0.9", "--a", "0.02",
                "--replicates", "2", "--seed", "12", "--n", "2000",
            ],
        }
        all_ok = True
        for name, args in commands.items():
            digests = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}-{attempt}.json"
                curves = tmp_path / f"{name}-{attempt}.csv"
                code = main(args + ["--out", str(out), "--curves", str(curves)])
                assert code == 0
                digests.append(out.read_bytes() + curves.read_bytes())
            if digests[0] != digests[1]:
                all_ok = False
        _report(
            9, "CLI determinism", all_ok,
            f"{len(commands)} commands run twice each, byte-identical outputs",
        )

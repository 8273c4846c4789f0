"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Expected values are frozen transcriptions of the published
reference analyses; Monte Carlo criteria use fixed seeds and the
documented statistical tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from kclink.cli import main
from kclink.inflation import minimal_inflation
from kclink.linking import compute_aux, compute_kcrv, link
from kclink.model import InternalInconsistencyError, LabResult, validate_dataset
from kclink.synthetic import ScenarioLayout, SyntheticScenario, generate_scenario

from . import oracles
from .test_io import GAUGE_BLOCK_CSV


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL: {summary}")
        raise
    print(f"\nACCEPTANCE {number} PASS: {summary}")


# published reference analysis of the gauge block linking (nm, 1 decimal)
EXPECTED_GAUGE_BLOCK = {
    "y_a": -103.6, "u_y_a": 4.9, "y_b": -100.5, "u_y_b": 3.6,
    "ratio": 1.07, "passed": False,
    "doe": {
        ("METAS", "A"): (7.6, 12.1),
        ("NPL", "A"): (-36.4, 32.6),
        ("BNM-LNE", "A"): (-6.4, 15.2),
        ("KRISS", "A"): (-0.7, 20.0),
        ("NRLM", "A"): (14.2, 15.6),
        ("VNIIM", "A"): (-0.4, 14.2),
        ("CSIRO", "A"): (-10.4, 15.2),
        ("NIM", "A"): (13.6, 9.1),
        ("NIST", "A"): (-13.4, 17.2),
        ("CENAM", "A"): (-15.4, 18.1),
        ("NRC", "A"): (-22.4, 23.5),
        ("NIST", "B"): (0.5, 17.6),
        ("CENAM", "B"): (7.5, 22.7),
        ("NRC", "B"): (-23.5, 25.7),
        ("INMETRO1", "B"): (2.5, 1.7),
        ("INMETRO2", "B"): (32.5, 28.8),
        ("INTI", "B"): (-3.5, 20.7),
        ("CEM", "B"): (-47.5, 16.6),
    },
}

# the same analysis after raising the INMETRO1 uncertainty to 11.2 nm
EXPECTED_INFLATED = {
    "minimal_u": 11.2,
    "y_b": -106.7, "u_y_b": 6.8, "ratio": 1.00,
    "doe_b": {
        "NIST": (6.7, 16.6),
        "CENAM": (13.7, 22.0),
        "NRC": (-17.3, 25.1),
        "INMETRO1": (8.7, 8.9),
        "INMETRO2": (38.7, 28.2),
        "INTI": (2.7, 19.9),
        "CEM": (-41.3, 15.6),
    },
}

# published reference analysis of the 17-lab synthetic example (3 decimals)
EXPECTED_SYNTHETIC = {
    "y_a": 110.909, "u_y_a": 0.698, "y_b": 123.879, "u_y_b": 1.966,
    "ratio": 0.89, "passed": True,
    "doe": {
        ("LAB-01", "A"): (2.491, 2.815),
        ("LAB-02", "A"): (1.191, 2.712),
        ("LAB-03", "A"): (2.091, 2.401),
        ("LAB-04", "A"): (-0.309, 2.505),
        ("LAB-05", "A"): (-1.509, 2.296),
        ("LAB-06", "A"): (-3.909, 2.505),
        ("LAB-07", "A"): (-6.209, 2.712),
        ("LAB-08", "A"): (-1.909, 2.505),
        ("LAB-09", "A"): (0.091, 2.296),
        ("LAB-10", "A"): (-1.509, 2.712),
        ("LAB-11", "A"): (0.191, 2.712),
        ("LAB-12", "A"): (4.391, 2.296),
        ("LAB-09", "B"): (-3.779, 6.196),
        ("LAB-10", "B"): (-6.579, 7.030),
        ("LAB-11", "B"): (1.121, 6.091),
        ("LAB-12", "B"): (11.821, 6.405),
        ("LAB-13", "B"): (5.821, 5.775),
        ("LAB-14", "B"): (5.221, 7.238),
        ("LAB-15", "B"): (1.121, 6.822),
        ("LAB-16", "B"): (-0.279, 6.300),
        ("LAB-17", "B"): (-0.879, 6.614),
    },
}


@pytest.fixture
def gauge_block_file(tmp_path):
    path = tmp_path / "gauge_block.csv"
    path.write_text(GAUGE_BLOCK_CSV, encoding="utf-8")
    return path


def test_criterion_1_golden_real_data(gauge_block_file, tmp_path, gauge_block):
    with criterion(1, "gauge block linking reproduces the published analysis"):
        report_path = tmp_path / "report.json"
        start = time.perf_counter()
        code = main([
            "link", "--input", str(gauge_block_file),
            "--report-format", "json", "--output", str(report_path),
        ])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert code == 2  # analysis ran, conformity failed

        report = json.loads(report_path.read_text(encoding="utf-8"))
        kcrv = report["kcrv"]
        assert kcrv["y_a"] == pytest.approx(EXPECTED_GAUGE_BLOCK["y_a"], abs=0.05)
        assert kcrv["u_a"] == pytest.approx(EXPECTED_GAUGE_BLOCK["u_y_a"], abs=0.05)
        assert kcrv["y_b"] == pytest.approx(EXPECTED_GAUGE_BLOCK["y_b"], abs=0.05)
        assert kcrv["u_b"] == pytest.approx(EXPECTED_GAUGE_BLOCK["u_y_b"], abs=0.05)
        assert report["conformity"]["ratio"] == pytest.approx(
            EXPECTED_GAUGE_BLOCK["ratio"], abs=0.005
        )
        assert report["conformity"]["passed"] is False

        doe = {(d["label"], d["standard"]): d for d in report["doe"]}
        assert len(doe) == 18
        for key, (d, u_d) in EXPECTED_GAUGE_BLOCK["doe"].items():
            assert doe[key]["d"] == pytest.approx(d, abs=0.05), key
            assert doe[key]["u_d"] == pytest.approx(u_d, abs=0.05), key


def test_criterion_2_golden_inflation(gauge_block, gauge_block_file, capsys):
    with criterion(2, "minimal INMETRO1 inflation is 11.2 nm and matches "
                      "the published re-analysis"):
        start = time.perf_counter()
        found = minimal_inflation(gauge_block, "INMETRO1", "B")
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0

        assert found.minimal_u == pytest.approx(
            EXPECTED_INFLATED["minimal_u"], abs=0.05
        )
        relinked = found.relinked
        assert relinked.conformity.ratio == pytest.approx(
            EXPECTED_INFLATED["ratio"], abs=0.005
        )
        assert relinked.conformity.passed
        assert relinked.kcrv.y_hat_b == pytest.approx(
            EXPECTED_INFLATED["y_b"], abs=0.05
        )
        assert relinked.kcrv.u_b == pytest.approx(
            EXPECTED_INFLATED["u_y_b"], abs=0.05
        )

        doe = {(e.label, e.standard): e for e in relinked.does}
        for label, (d, u_d) in EXPECTED_INFLATED["doe_b"].items():
            assert doe[(label, "B")].d == pytest.approx(d, abs=0.05), label
            assert doe[(label, "B")].u_d == pytest.approx(u_d, abs=0.05), label

        # A side is untouched, bit for bit
        base = link(gauge_block)
        assert relinked.kcrv.y_hat_a == base.kcrv.y_hat_a
        assert relinked.kcrv.u_a == base.kcrv.u_a
        base_doe = {(e.label, e.standard): e for e in base.does}
        for entry in relinked.does:
            if entry.standard == "A":
                assert entry.d == base_doe[(entry.label, "A")].d
                assert entry.u_d == base_doe[(entry.label, "A")].u_d

        # the CLI surface reports the same value
        code = main(["inflate", "--input", str(gauge_block_file),
                     "--lab", "INMETRO1", "--standard", "B"])
        assert code == 0
        assert "11.2" in capsys.readouterr().out


def test_criterion_3_golden_synthetic(synthetic, tmp_path):
    with criterion(3, "synthetic 17-lab linking reproduces the published "
                      "analysis to 3 decimals"):
        # the CLI route sees bit-identical values (repr round-trips floats)
        rows = ["label,x_a,u_a,x_b,u_b,cov_ab"]
        for lab in synthetic.labs:
            cells = [lab.label] + [
                "" if v is None else repr(v)
                for v in (lab.value_a, lab.u_a, lab.value_b, lab.u_b,
                          lab.cov_ab)
            ]
            rows.append(",".join(cells))
        data_path = tmp_path / "synthetic.csv"
        data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main([
            "link", "--input", str(data_path),
            "--report-format", "json", "--output", str(report_path),
        ])
        assert code == 0  # this dataset passes conformity
        report = json.loads(report_path.read_text(encoding="utf-8"))

        result = link(synthetic)
        assert report["kcrv"]["y_a"] == result.kcrv.y_hat_a
        assert report["conformity"]["q2"] == result.conformity.q2
        assert result.kcrv.y_hat_a == pytest.approx(
            EXPECTED_SYNTHETIC["y_a"], abs=5e-4
        )
        assert result.kcrv.u_a == pytest.approx(
            EXPECTED_SYNTHETIC["u_y_a"], abs=5e-4
        )
        assert result.kcrv.y_hat_b == pytest.approx(
            EXPECTED_SYNTHETIC["y_b"], abs=5e-4
        )
        assert result.kcrv.u_b == pytest.approx(
            EXPECTED_SYNTHETIC["u_y_b"], abs=5e-4
        )
        assert result.conformity.ratio == pytest.approx(
            EXPECTED_SYNTHETIC["ratio"], abs=0.005
        )
        assert result.conformity.passed

        doe = {(e.label, e.standard): e for e in result.does}
        assert len(doe) == 21
        for key, (d, u_d) in EXPECTED_SYNTHETIC["doe"].items():
            assert doe[key].d == pytest.approx(d, abs=5e-4), key
            assert doe[key].u_d == pytest.approx(u_d, abs=5e-4), key


def test_criterion_4_oracle_equivalence():
    with criterion(4, "closed form matches grid minimiser and finite-"
                      "difference covariance on 100 random datasets"):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(100):
            dataset = oracles.random_dataset(rng)
            kcrv = compute_kcrv(compute_aux(dataset))

            y_a, y_b, cell = oracles.minimize_chi_square(dataset)
            assert abs(kcrv.y_hat_a - y_a) <= 8.0 * cell
            assert abs(kcrv.y_hat_b - y_b) <= 8.0 * cell

            closed = np.array([
                [kcrv.u_a**2, kcrv.cov_ab],
                [kcrv.cov_ab, kcrv.u_b**2],
            ])
            numerical = oracles.covariance_from_hessian(
                dataset, kcrv.y_hat_a, kcrv.y_hat_b
            )
            assert np.abs(numerical - closed).max() <= \
                1e-6 * np.abs(closed).max()
        assert time.perf_counter() - start < 60.0


def test_criterion_5a_zero_covariance_reduction():
    with criterion(5, "(a) zero covariances reduce exactly to per-group "
                      "weighted means"):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dataset = oracles.random_dataset(rng)
            # drop every covariance, keeping values and uncertainties
            stripped = validate_dataset([
                LabResult(
                    lab.label, value_a=lab.value_a, u_a=lab.u_a,
                    value_b=lab.value_b, u_b=lab.u_b,
                    cov_ab=0.0 if lab.is_linking else None,
                )
                for lab in dataset.labs
            ])
            kcrv = compute_kcrv(compute_aux(stripped))
            weight_a = math.fsum(1.0 / l.u_a**2 for l in stripped.labs if l.in_group_a)
            weight_b = math.fsum(1.0 / l.u_b**2 for l in stripped.labs if l.in_group_b)
            mean_a = math.fsum(
                l.value_a / l.u_a**2 for l in stripped.labs if l.in_group_a
            ) / weight_a
            mean_b = math.fsum(
                l.value_b / l.u_b**2 for l in stripped.labs if l.in_group_b
            ) / weight_b
            assert kcrv.y_hat_a == mean_a
            assert kcrv.y_hat_b == mean_b
            assert kcrv.u_a == 1.0 / math.sqrt(weight_a)
            assert kcrv.u_b == 1.0 / math.sqrt(weight_b)
            assert kcrv.cov_ab == 0.0


def test_criterion_5b_estimator_covariance_identities():
    with criterion(5, "(b) Monte Carlo confirms cov(estimate, datum) equals "
                      "the estimate variance (A and B sides)"):
        y_a_true, y_b_true = 10.0, -5.0
        design = [
            ("A1", "a", 2.0, None, None),
            ("A2", "a", 3.0, None, None),
            ("L1", "link", 2.5, 6.0, 0.6),
            ("L2", "link", 4.0, 5.0, -0.4),
            ("B1", "b", None, 7.0, None),
        ]
        n_rep = 10_000
        rng = np.random.default_rng(123)

        draws: dict[str, tuple[np.ndarray, np.ndarray | None]] = {}
        for label, kind, u_a, u_b, r in design:
            if kind == "a":
                draws[label] = (
                    y_a_true + u_a * rng.standard_normal(n_rep), None
                )
            elif kind == "b":
                draws[label] = (
                    None, y_b_true + u_b * rng.standard_normal(n_rep)
                )
            else:
                z_1 = rng.standard_normal(n_rep)
                z_2 = rng.standard_normal(n_rep)
                draws[label] = (
                    y_a_true + u_a * z_1,
                    y_b_true + u_b * (r * z_1 + math.sqrt(1 - r**2) * z_2),
                )

        est_a = np.empty(n_rep)
        est_b = np.empty(n_rep)
        for i in range(n_rep):
            labs = []
            for label, kind, u_a, u_b, r in design:
                x_a, x_b = draws[label]
                if kind == "a":
                    labs.append(LabResult(label, value_a=x_a[i], u_a=u_a))
                elif kind == "b":
                    labs.append(LabResult(label, value_b=x_b[i], u_b=u_b))
                else:
                    labs.append(LabResult(
                        label, value_a=x_a[i], u_a=u_a,
                        value_b=x_b[i], u_b=u_b, cov_ab=r * u_a * u_b,
                    ))
            kcrv = compute_kcrv(compute_aux(validate_dataset(labs)))
            est_a[i] = kcrv.y_hat_a
            est_b[i] = kcrv.y_hat_b

        # variances depend only on the design, not on the drawn values
        design_kcrv = compute_kcrv(compute_aux(validate_dataset([
            LabResult("A1", value_a=0.0, u_a=2.0),
            LabResult("A2", value_a=0.0, u_a=3.0),
            LabResult("L1", value_a=0.0, u_a=2.5, value_b=0.0, u_b=6.0,
                      cov_ab=0.6 * 2.5 * 6.0),
            LabResult("L2", value_a=0.0, u_a=4.0, value_b=0.0, u_b=5.0,
                      cov_ab=-0.4 * 4.0 * 5.0),
            LabResult("B1", value_b=0.0, u_b=7.0),
        ])))

        for estimates, datum, target in (
            (est_a, draws["L1"][0], design_kcrv.u_a**2),
            (est_b, draws["L1"][1], design_kcrv.u_b**2),
        ):
            products = (estimates - estimates.mean()) * (datum - datum.mean())
            sample_cov = products.sum() / (n_rep - 1)
            standard_error = products.std(ddof=1) / math.sqrt(n_rep)
            assert abs(sample_cov - target) <= 5.0 * standard_error


def test_criterion_5c_form_equivalence():
    with criterion(5, "(c) correlation-form and covariance-form sums agree "
                      "to 1e-12 relative"):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dataset = oracles.random_dataset(rng)
            aux = compute_aux(dataset)
            sums, scales = oracles.correlation_form_sums(
                dataset, with_scales=True
            )
            for got, want, scale in zip(
                (aux.a, aux.b, aux.c, aux.s1, aux.s2), sums, scales
            ):
                # relative to the sum's natural magnitude (its absolute
                # term total) so occasional cancellation stays meaningful
                assert abs(got - want) <= 1e-12 * max(
                    abs(got), abs(want), scale
                )


def test_criterion_6_statistical_sanity():
    with criterion(6, "mean chi-square at the truth is N over 500 synthetic "
                      "replications; DOE radicand never goes negative"):
        layout = ScenarioLayout(only_a=8, linking=4, only_b=5)
        n_rep = 500
        chis = np.empty(n_rep)
        for rep in range(n_rep):
            scenario = SyntheticScenario(
                y_a_true=110.0, y_b_true=120.0, sigma_a=20.0, sigma_b=50.0,
                rho=0.5, n=50, layout=layout, seed=10_000 + rep,
            )
            dataset = generate_scenario(scenario)
            try:
                result = link(dataset)
            except InternalInconsistencyError as exc:
                raise AssertionError(
                    f"DOE radicand invariant fired on replication {rep}: {exc}"
                ) from None
            assert all(entry.u_d >= 0.0 for entry in result.does)
            chis[rep] = oracles.chi_square(dataset, 110.0, 120.0)

        n_values = layout.only_a + layout.only_b + 2 * layout.linking
        standard_error = chis.std(ddof=1) / math.sqrt(n_rep)
        assert abs(chis.mean() - n_values) <= 5.0 * standard_error

"""Seeded input datasets for the benchmark, independent of kclink.synthetic.

Datasets are drawn with numpy's default generator and written as CSV with
the ``repr`` of Python floats, so the file round-trips to exactly the
values the oracle sees.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from oracle import Columns, minimal_u_b, passes_at, solve

# participation mix of the generated datasets: A-only, linking, B-only
MIX = (0.45, 0.20, 0.35)


def draw_dataset(rng: np.random.Generator, n_labs: int, u_scale: float = 1.0) -> Columns:
    """Labs measuring consistent truths, in shuffled participation order.

    Every linking lab reports a covariance with |r| <= 0.9.  Reported
    uncertainties are ``u_scale`` times the spread actually drawn with.
    """
    counts = np.round(np.array(MIX) * n_labs).astype(int)
    counts[2] = n_labs - counts[0] - counts[1]
    kinds = rng.permutation(np.repeat(np.arange(3), counts))
    has_a, has_b = kinds != 2, kinds != 0
    y_a, y_b = rng.uniform(-100.0, 100.0, size=2)
    sigma_a = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_labs))
    sigma_b = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_labs))
    r = np.where(has_a & has_b, rng.uniform(-0.9, 0.9, n_labs), 0.0)
    z_a = rng.standard_normal(n_labs)
    z_b = r * z_a + np.sqrt(1.0 - r**2) * rng.standard_normal(n_labs)
    u_a, u_b = u_scale * sigma_a, u_scale * sigma_b
    return Columns(
        labels=tuple(f"L{i:05d}" for i in range(1, n_labs + 1)),
        x_a=np.where(has_a, y_a + sigma_a * z_a, np.nan),
        u_a=np.where(has_a, u_a, np.nan),
        x_b=np.where(has_b, y_b + sigma_b * z_b, np.nan),
        u_b=np.where(has_b, u_b, np.nan),
        cov=r * u_a * u_b,
    )


def draw_link_dataset(rng: np.random.Generator, n_labs: int) -> Columns:
    """A dataset whose conformity verdict is clear of the q2 = N-2 boundary."""
    while True:
        data = draw_dataset(rng, n_labs)
        found = solve(data)
        if abs(found.q2 - found.dof) > 1e-6 * found.dof:
            return data


def draw_inflation_dataset(rng: np.random.Generator, n_labs: int) -> tuple[Columns, int]:
    """A dataset failing only because of one linking lab, and that lab.

    Other labs overstate their uncertainty by 12 %, so they alone pass with
    margin.  The outlier reports a covariance and a u_B that is 25 times
    smaller than its B deviation.  The oracle confirms that the data fail
    at the original u_B and pass once it is inflated.
    """
    while True:
        data = draw_dataset(rng, n_labs, u_scale=1.12)
        linking = np.flatnonzero(data.has_a & data.has_b)
        outlier = int(rng.choice(linking))
        x_b = data.x_b.copy()
        x_b[outlier] = solve(data).y_b + 25.0 * data.u_b[outlier]
        data = Columns(data.labels, data.x_a, data.u_a, x_b, data.u_b, data.cov)
        if passes_at(data, outlier, float(data.u_b[outlier])):
            continue
        try:
            minimal_u_b(data, outlier)
        except ValueError:
            continue
        return data, outlier


def write_csv(data: Columns, path: Path) -> None:
    def cell(value: float) -> str:
        return "" if np.isnan(value) else repr(value)

    columns = [data.x_a.tolist(), data.u_a.tolist(), data.x_b.tolist(),
               data.u_b.tolist(), data.cov.tolist()]
    linking = (data.has_a & data.has_b).tolist()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "x_a", "u_a", "x_b", "u_b", "cov_ab"])
        for i, label in enumerate(data.labels):
            x_a, u_a, x_b, u_b, cov = (column[i] for column in columns)
            writer.writerow([label, cell(x_a), cell(u_a), cell(x_b), cell(u_b),
                             repr(cov) if linking[i] else ""])


def save(data: Columns, path: Path) -> None:
    np.savez(path, labels=np.array(data.labels), x_a=data.x_a, u_a=data.u_a,
             x_b=data.x_b, u_b=data.u_b, cov=data.cov)


def load(path: Path) -> Columns:
    with np.load(path) as arrays:
        return Columns(
            labels=tuple(arrays["labels"].tolist()),
            **{k: arrays[k] for k in ("x_a", "u_a", "x_b", "u_b", "cov")},
        )

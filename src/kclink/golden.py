"""Built-in example datasets with published reference results.

Two examples ship with the package and back the ``selftest`` command:

* ``gauge_block``: the linking of two real gauge block comparisons
  (steel gauge block, nominal length 100 mm; values are deviations from
  nominal length in nm).  Eleven institutes measured standard A, seven
  measured standard B, with NIST, CENAM and NRC measuring both.  No
  covariances were reported, so all are treated as zero.  The combined
  data narrowly fail the conformity check; inflating the INMETRO1
  uncertainty from 4.0 nm to 11.2 nm is the smallest three-significant-
  digit remedy that restores conformity.

* ``synthetic``: a 17-laboratory simulated comparison (8 A-only, 4
  linking, 5 B-only labs) whose per-lab values were obtained as sample
  means, standard deviations of the mean and mean covariances of n = 50
  correlated Gaussian observations.

The expected values are frozen transcriptions of the published analyses
of these datasets, used as golden references by the selftest and the
test suite.
"""

from __future__ import annotations

from .model import ComparisonDataset, LabResult, validate_dataset

_GAUGE_BLOCK_LABS = (
    LabResult("METAS", value_a=-96.0, u_a=13.0),
    LabResult("NPL", value_a=-140.0, u_a=33.0),
    LabResult("BNM-LNE", value_a=-110.0, u_a=16.0),
    LabResult("KRISS", value_a=-104.3, u_a=20.6),
    LabResult("NRLM", value_a=-89.4, u_a=16.3),
    LabResult("VNIIM", value_a=-104.0, u_a=15.0),
    LabResult("CSIRO", value_a=-114.0, u_a=16.0),
    LabResult("NIM", value_a=-90.0, u_a=10.3),
    LabResult("NIST", value_a=-117.0, u_a=17.9, value_b=-100.0, u_b=18.0),
    LabResult("CENAM", value_a=-119.0, u_a=18.7, value_b=-93.0, u_b=23.0),
    LabResult("NRC", value_a=-126.0, u_a=24.0, value_b=-124.0, u_b=26.0),
    LabResult("INMETRO1", value_b=-98.0, u_b=4.0),
    LabResult("INMETRO2", value_b=-68.0, u_b=29.0),
    LabResult("INTI", value_b=-104.0, u_b=21.0),
    LabResult("CEM", value_b=-148.0, u_b=17.0),
)

# linking labs of the synthetic example report correlation coefficients;
# stored here as covariances r * u_a * u_b
_SYNTHETIC_LABS = (
    LabResult("LAB-01", value_a=113.4, u_a=2.9),
    LabResult("LAB-02", value_a=112.1, u_a=2.8),
    LabResult("LAB-03", value_a=113.0, u_a=2.5),
    LabResult("LAB-04", value_a=110.6, u_a=2.6),
    LabResult("LAB-05", value_a=109.4, u_a=2.4),
    LabResult("LAB-06", value_a=107.0, u_a=2.6),
    LabResult("LAB-07", value_a=104.7, u_a=2.8),
    LabResult("LAB-08", value_a=109.0, u_a=2.6),
    LabResult("LAB-09", value_a=111.0, u_a=2.4, value_b=120.1, u_b=6.5,
              cov_ab=0.8 * 2.4 * 6.5),
    LabResult("LAB-10", value_a=109.4, u_a=2.8, value_b=117.3, u_b=7.3,
              cov_ab=0.8 * 2.8 * 7.3),
    LabResult("LAB-11", value_a=111.1, u_a=2.8, value_b=125.0, u_b=6.4,
              cov_ab=0.8 * 2.8 * 6.4),
    LabResult("LAB-12", value_a=115.3, u_a=2.4, value_b=135.7, u_b=6.7,
              cov_ab=0.7 * 2.4 * 6.7),
    LabResult("LAB-13", value_b=129.7, u_b=6.1),
    LabResult("LAB-14", value_b=129.1, u_b=7.5),
    LabResult("LAB-15", value_b=125.0, u_b=7.1),
    LabResult("LAB-16", value_b=123.6, u_b=6.6),
    LabResult("LAB-17", value_b=123.0, u_b=6.9),
)


def gauge_block_dataset() -> ComparisonDataset:
    """The real two-comparison gauge block linking example (values in nm)."""
    return validate_dataset(_GAUGE_BLOCK_LABS)


def synthetic_dataset() -> ComparisonDataset:
    """The 17-laboratory synthetic linking example."""
    return validate_dataset(_SYNTHETIC_LABS)


# Published reference results for the gauge block example (1 decimal, nm).
# DOE entries map label -> (d, u_d) per standard.
GAUGE_BLOCK_EXPECTED = {
    "kcrv": {"y_a": -103.6, "u_a": 4.9, "y_b": -100.5, "u_b": 3.6},
    "ratio": 1.07,
    "passed": False,
    "doe_a": {
        "METAS": (7.6, 12.1),
        "NPL": (-36.4, 32.6),
        "BNM-LNE": (-6.4, 15.2),
        "KRISS": (-0.7, 20.0),
        "NRLM": (14.2, 15.6),
        "VNIIM": (-0.4, 14.2),
        "CSIRO": (-10.4, 15.2),
        "NIM": (13.6, 9.1),
        "NIST": (-13.4, 17.2),
        "CENAM": (-15.4, 18.1),
        "NRC": (-22.4, 23.5),
    },
    "doe_b": {
        "NIST": (0.5, 17.6),
        "CENAM": (7.5, 22.7),
        "NRC": (-23.5, 25.7),
        "INMETRO1": (2.5, 1.7),
        "INMETRO2": (32.5, 28.8),
        "INTI": (-3.5, 20.7),
        "CEM": (-47.5, 16.6),
    },
}

# Reference results after inflating INMETRO1 (standard B) to 11.2 nm.
# The A side is unchanged from GAUGE_BLOCK_EXPECTED.
GAUGE_BLOCK_INFLATED_EXPECTED = {
    "minimal_u": 11.2,
    "kcrv": {"y_a": -103.6, "u_a": 4.9, "y_b": -106.7, "u_b": 6.8},
    "ratio": 1.00,
    "passed": True,
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

# Published reference results for the synthetic example (3 decimals).
SYNTHETIC_EXPECTED = {
    "kcrv": {"y_a": 110.909, "u_a": 0.698, "y_b": 123.879, "u_b": 1.966},
    "ratio": 0.89,
    "passed": True,
    "doe_a": {
        "LAB-01": (2.491, 2.815),
        "LAB-02": (1.191, 2.712),
        "LAB-03": (2.091, 2.401),
        "LAB-04": (-0.309, 2.505),
        "LAB-05": (-1.509, 2.296),
        "LAB-06": (-3.909, 2.505),
        "LAB-07": (-6.209, 2.712),
        "LAB-08": (-1.909, 2.505),
        "LAB-09": (0.091, 2.296),
        "LAB-10": (-1.509, 2.712),
        "LAB-11": (0.191, 2.712),
        "LAB-12": (4.391, 2.296),
    },
    "doe_b": {
        "LAB-09": (-3.779, 6.196),
        "LAB-10": (-6.579, 7.030),
        "LAB-11": (1.121, 6.091),
        "LAB-12": (11.821, 6.405),
        "LAB-13": (5.821, 5.775),
        "LAB-14": (5.221, 7.238),
        "LAB-15": (1.121, 6.822),
        "LAB-16": (-0.279, 6.300),
        "LAB-17": (-0.879, 6.614),
    },
}

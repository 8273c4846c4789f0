"""Bayesian distributed linking of two interlaboratory key comparisons.

The package jointly estimates the reference values of two key comparisons
that share linking laboratories: both key comparison reference values
(KCRVs) with uncertainties and mutual covariance, per-laboratory degrees
of equivalence, and a chi-square conformity check, plus diagnostics
(minimal uncertainty inflation) and reproducible synthetic-data tooling.

The top level holds the user-facing names only; the building blocks
(``compute_aux``, ``sample_lab``, ...) stay importable from their modules.
"""

from .inflation import InflationError, InflationResult, minimal_inflation
from .io import ParseError, emit_plot_data, parse_dataset, render_report, write_dataset
from .linking import LinkingResult, link, posterior_density
from .model import (
    ComparisonDataset,
    InternalInconsistencyError,
    KclinkError,
    LabResult,
    ValidationError,
    validate_dataset,
)
from .synthetic import (
    ScenarioLayout,
    SyntheticScenario,
    generate_scenario,
    load_scenario,
)
from .version import __version__

__all__ = [
    "ComparisonDataset",
    "InflationError",
    "InflationResult",
    "InternalInconsistencyError",
    "KclinkError",
    "LabResult",
    "LinkingResult",
    "ParseError",
    "ScenarioLayout",
    "SyntheticScenario",
    "ValidationError",
    "__version__",
    "emit_plot_data",
    "generate_scenario",
    "link",
    "load_scenario",
    "minimal_inflation",
    "parse_dataset",
    "posterior_density",
    "render_report",
    "validate_dataset",
    "write_dataset",
]

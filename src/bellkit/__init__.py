"""n-qubit Bell-Klyshko toolkit.

Library layout:

* :mod:`bellkit.qstate`   dense state engine (partial trace, expectations, sampling)
* :mod:`bellkit.symstate` exact symmetric-state algebra and basis changes
* :mod:`bellkit.bellop`   classical Klyshko polynomial and Bell operator
* :mod:`bellkit.optimize` multi-start maximization routines
* :mod:`bellkit.criteria` maximal-entanglement criteria
* :mod:`bellkit.certify`  entanglement-depth certification
* :mod:`bellkit.cli`      command-line front end
"""

from .bellop import (CorrelatorPoly, Settings, bell_expectation, bell_operator,
                     bound_check, expand_correlators, ghz_optimal_settings, lhv_max)
from .certify import (CertResult, certify_depth, estimate_E, example_rho3,
                      thresholds)
from .criteria import (depolarize, distribute_check, fragility,
                       mm_partial_residual, mutual_information)
from .optimize import (OptResult, max_eigen_settings, max_violation_settings,
                       product_bound_max, search_mm_partial)
from .qstate import (DensityMatrix, MeasureResult, PureState, Spectrum,
                     measure_sample, outcome_distribution, partial_trace,
                     pauli_expect, spectrum)
from .symstate import (BellBasisState, RationalComplex, SymState, bell_basis,
                       embed, embed_vector, ghz, ghz_y_form, inner, split,
                       z_to_x)

__version__ = "0.1.0"

__all__ = [
    "BellBasisState", "CertResult", "CorrelatorPoly", "DensityMatrix",
    "MeasureResult", "OptResult", "PureState", "RationalComplex", "Settings",
    "Spectrum", "SymState", "bell_basis", "bell_expectation", "bell_operator",
    "bound_check", "certify_depth", "depolarize", "distribute_check", "embed",
    "embed_vector", "estimate_E", "example_rho3", "expand_correlators",
    "fragility", "ghz", "ghz_optimal_settings", "ghz_y_form", "inner", "lhv_max",
    "max_eigen_settings", "max_violation_settings", "measure_sample",
    "mm_partial_residual", "mutual_information", "outcome_distribution",
    "partial_trace", "pauli_expect", "product_bound_max", "search_mm_partial",
    "spectrum", "split", "thresholds", "z_to_x",
]

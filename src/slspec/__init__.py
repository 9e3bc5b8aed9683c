"""Spectral computations for -y'' + u'(x) y on [0, pi] with a Dirichlet
condition at 0 and the regularized (quasi-derivative) Neumann condition at
pi.  The derivative of u is taken distributionally, so u may jump (point
interactions) while staying square integrable.
"""

from .errors import (DomainError, IndexingError, IntegrationBlowupError,
                     InternalError, NonconvergenceError, PotentialFormatError,
                     SingularArgumentError, SpectralError)
from .potential import PI, PotentialSpec, load_potential
from .oscillatory import (CorrectionTerms, GaugeValue, SpectralDomain,
                          correction_terms, principal_sqrt, remainder_gauge)
from .asymptotics import (EigenfunctionTable, SpectralPoint, biorthogonal_asym,
                          default_grid, eigenfunction_asym, eigenvalue_asym,
                          normalization_factor, prufer_modulus_asym,
                          prufer_phase_asym)
from .oracle import (PruferTrajectory, QuasiTrajectory, SecularResult,
                     characteristic, eigenfunction_numeric,
                     integrate_quasi_system, solve_eigenvalue, solve_spectrum)
from .validation import (ComparisonReport, RemainderRecord,
                         biorthogonality_check, phase_modulus_ratio_profile,
                         remainder_sweep)

__version__ = "0.1.0"

__all__ = [
    "PI", "PotentialSpec", "load_potential",
    "CorrectionTerms", "GaugeValue", "SpectralDomain", "correction_terms",
    "principal_sqrt", "remainder_gauge",
    "EigenfunctionTable", "SpectralPoint", "biorthogonal_asym",
    "default_grid", "eigenfunction_asym", "eigenvalue_asym",
    "normalization_factor", "prufer_modulus_asym", "prufer_phase_asym",
    "PruferTrajectory", "QuasiTrajectory", "SecularResult", "characteristic",
    "eigenfunction_numeric", "integrate_quasi_system",
    "solve_eigenvalue", "solve_spectrum",
    "ComparisonReport", "RemainderRecord", "biorthogonality_check",
    "phase_modulus_ratio_profile", "remainder_sweep",
    "DomainError", "IndexingError", "IntegrationBlowupError", "InternalError",
    "NonconvergenceError", "PotentialFormatError", "SingularArgumentError",
    "SpectralError",
]

"""Eigenvalue counting for magnetic Laplacians on hyperbolic surface ends.

The package splits into geometry and field data (model), closed-form
Landau quantities (landau), a 1-d Dirichlet counting kernel (sturm1d),
the Fourier-mode reduction that sums per-mode counts into an end's
counting function (modes), the semiclassical integral and its bracket
(weyl), constant-field essential spectra plus the Morse-limit checks
(essential), and a CLI (cli).
"""

from .essential import (LimitReport, MorseOptions, MorseReport, SpectrumSet,
                        cusp_is_integral, essential_spectrum,
                        funnel_limit_potential, funnel_mode_limit_check,
                        holonomy, morse_check)
from .landau import (LandauLevelSet, ess_bottom, landau_count,
                     landau_level_set)
from .model import (BoundedFieldError, CuspEnd, DomainError, FunnelEnd,
                    GrowthReport, NonConstantFieldError, RadialField,
                    SurfaceEnds, check_growth_hypotheses, cusp_area,
                    eval_field, gauge_function, gauge_limit)
from .modes import CountResult, count_end, mode_potential
from .sturm1d import (TridiagonalOperator, count_below, discretize,
                      lowest_eigenvalues)
from .weyl import (ExponentFit, HypWReport, WeylOptions, check_hypW,
                   fit_exponent, omega, theorem1_bracket, weyl_integral)

__version__ = "0.2.0"

__all__ = [
    "BoundedFieldError",
    "CountResult",
    "CuspEnd",
    "DomainError",
    "ExponentFit",
    "FunnelEnd",
    "GrowthReport",
    "HypWReport",
    "LandauLevelSet",
    "LimitReport",
    "MorseOptions",
    "MorseReport",
    "NonConstantFieldError",
    "RadialField",
    "SpectrumSet",
    "SurfaceEnds",
    "TridiagonalOperator",
    "WeylOptions",
    "check_growth_hypotheses",
    "check_hypW",
    "count_below",
    "count_end",
    "cusp_area",
    "cusp_is_integral",
    "discretize",
    "ess_bottom",
    "essential_spectrum",
    "eval_field",
    "fit_exponent",
    "funnel_limit_potential",
    "funnel_mode_limit_check",
    "gauge_function",
    "gauge_limit",
    "holonomy",
    "landau_count",
    "landau_level_set",
    "lowest_eigenvalues",
    "mode_potential",
    "morse_check",
    "omega",
    "theorem1_bracket",
    "weyl_integral",
]

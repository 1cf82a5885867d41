"""Desk-scale lab for invariant linear equations in dense subsets of Z/pZ.

Exact solution counting (brute force and convolution), Bohr-set machinery
with an exact regularity test, almost-periodicity diagnostics, the
density-increment driver, and a Behrend-type extremal construction, all
verifiable against brute-force oracles at small moduli.
"""

from .behrend import (
    BehrendOutput,
    BehrendParams,
    BehrendVerification,
    ParamChoice,
    build_behrend,
    choose_params,
    digit_map,
    verify_behrend,
)
from .bohr import (
    BohrSet,
    RegularityReport,
    SizeBoundReport,
    dilate,
    enumerate_members,
    find_regular_dilate,
    is_regular,
    membership,
    scale,
    size_bound_check,
)
from .cyclic import (
    IntervalSet,
    PrimeCyclicGroup,
    ResidueSet,
    dilate_set,
    embed_interval,
    is_prime,
    iterated_sumset,
    next_prime_above,
    sumset,
    translate_set,
)
from .equations import (
    InvariantEquation,
    SolutionCount,
    SolutionDensityReport,
    TrivialityPredicate,
    count_solutions_bruteforce,
    count_solutions_fast,
    has_nontrivial_solution,
    is_sidon,
    solution_density_report,
)
from .errors import InvariantViolation, LemmaHypothesisError
from .fourier import (
    FourierCoefficients,
    GroupFunction,
    Spectrum,
    convolve,
    convolve_int,
    dft,
    expectation,
    indicator,
    inverse_dft,
    linear_convolve_int,
    lp_norm,
    multi_convolve,
    normalized_indicator,
    spectrum,
)
from .periodicity import (
    AlmostPeriodSet,
    DriverConfig,
    IncrementStep,
    IncrementTrace,
    IncrementWitness,
    PopularSumSet,
    TerminalReason,
    TranslateFamily,
    almost_periods,
    bohr_in_sumset_check,
    coefficient_translates,
    dense_translate,
    increment_driver,
    increment_from_periods,
    multi_almost_periods,
    popular_sums,
    shift_deviation,
    verify_bohr_periods,
)

__version__ = "0.1.0"

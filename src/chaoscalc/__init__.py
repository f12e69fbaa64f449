"""Truncated chaotic calculus over subset-indexed bases.

The package is organized bottom-up: `basis` (subsets, weight products,
series), `weights` (1D/2D summable weight tables), `functionals`
(coefficient tables with graded norms), `operators` (ladder and weighted
number operators on both the coefficient and the square-integrable side,
and the operator expressions of `apply`, each the function it applies),
`martingale` (discrete Bernoulli noise, exact and sampled Gram matrices),
`qms` (a Lindblad-type generator built from the exclusion jump operators),
and `verifier` (the identity-check engine behind the CLI).

The package depends on numpy alone: every command (`simulate`, `apply`,
`norms`, `qms`, `verify`) runs without SciPy. Only the public CSR matrices
(`materialize`, also named `materialize_apply`, and `transfer_matrix`) use
it: they import `scipy.sparse` inside `operators.table_csr` on first use,
and raise ModuleNotFoundError where it is not installed.
"""

from .basis import (
    Subset,
    basis_size,
    check_truncation,
    lam,
    lam_vector,
    lambda_series_partial,
    max_truncation,
)
from .functionals import (
    Functional,
    GrowthBound,
    GrowthCheckResult,
    check_growth,
    riesz_embed,
)
from .martingale import (
    BernoulliParams,
    chaotic_expand,
    conditional_moments,
    exact_gram,
    monte_carlo_gram,
    reconstruct,
    rng_stream,
)
from .operators import (
    annihilate,
    apply_annihilate,
    apply_create,
    create,
    gwn_apply,
    gwn_expr,
    hop_apply,
    hop_expr,
    l2_annihilate,
    l2_create,
    l2_wn_apply,
    materialize,
    number,
    number_apply,
    occupation_apply,
    parse_expr,
    wn1d_apply,
    wn1d_expr,
)
from .qms import GeneratorSpec, generator_apply, transfer_matrix
from .reports import VerificationReport, all_ok, format_line, run_to_json
from .verifier import FAMILY_NAMES, run_all
from .weights import Weight1D, Weight2D, theta_double_sum

__version__ = "0.1.0"

__all__ = [
    "BernoulliParams",
    "FAMILY_NAMES",
    "Functional",
    "GeneratorSpec",
    "GrowthBound",
    "GrowthCheckResult",
    "Subset",
    "VerificationReport",
    "Weight1D",
    "Weight2D",
    "all_ok",
    "annihilate",
    "apply_annihilate",
    "apply_create",
    "basis_size",
    "chaotic_expand",
    "check_growth",
    "check_truncation",
    "conditional_moments",
    "create",
    "exact_gram",
    "format_line",
    "generator_apply",
    "gwn_apply",
    "gwn_expr",
    "hop_apply",
    "hop_expr",
    "l2_annihilate",
    "l2_create",
    "l2_wn_apply",
    "lam",
    "lam_vector",
    "lambda_series_partial",
    "materialize",
    "max_truncation",
    "monte_carlo_gram",
    "number",
    "number_apply",
    "occupation_apply",
    "parse_expr",
    "reconstruct",
    "riesz_embed",
    "rng_stream",
    "run_all",
    "run_to_json",
    "theta_double_sum",
    "transfer_matrix",
    "wn1d_apply",
    "wn1d_expr",
]

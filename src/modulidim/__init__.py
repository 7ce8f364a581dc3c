"""Exact dimension bookkeeping for rank-2 bundle moduli on a product of curves.

The package computes, over exact integer arithmetic only:

* cohomology dimensions of line bundles on curves and on products of two
  Pic-independent curves (:mod:`modulidim.curves`, :mod:`modulidim.surface`),
* per-component deformation ledgers around split and nonfiltrable unstable
  bundles, with codimension-margin verdicts and the pairings that the
  point-supported directions kill (:mod:`modulidim.kuranishi`),
* dimension lower bounds for families consisting only of unstable bundles
  (:mod:`modulidim.unstable`),
* independent brute-force oracles validating the closed forms at desk
  scale (:mod:`modulidim.oracle`).

The ``modulidim`` command line exposes all of it as JSON or markdown
reports; see :mod:`modulidim.cli`.
"""

from .curves import canonical_degree, h0_h1
from .dims import Dim, IndeterminateDimensionError
from .kuranishi import (
    ComparisonReport,
    KuranishiReport,
    component_report,
    homology_comparison_report,
    nonfiltrable_report,
    toy_domain_dim,
    toy_unstable_codim,
)
from .oracle import (
    cech_h_p1,
    cech_h_product,
    koszul_ext,
)
from .surface import (
    Polarization,
    PreconditionError,
    ProductSurface,
    c2_of_extension,
    degree_wrt,
    intersection,
    is_destabilizing,
    kunneth_h,
    moduli_real_dimension,
)
from .unstable import select_twist, validate

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "Dim",
    "IndeterminateDimensionError",
    "KuranishiReport",
    "Polarization",
    "PreconditionError",
    "ProductSurface",
    "c2_of_extension",
    "canonical_degree",
    "cech_h_p1",
    "cech_h_product",
    "component_report",
    "degree_wrt",
    "h0_h1",
    "homology_comparison_report",
    "intersection",
    "is_destabilizing",
    "koszul_ext",
    "kunneth_h",
    "moduli_real_dimension",
    "nonfiltrable_report",
    "select_twist",
    "toy_domain_dim",
    "toy_unstable_codim",
    "validate",
]

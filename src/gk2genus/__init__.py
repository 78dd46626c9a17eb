"""Genus spectra of Galois subfields of second generalized GK function fields.

The pipeline: finite field contexts (gf), rational points of the Hermitian
curve (hermitian), the automorphism group acting on it (mlgroup), catalogs
of subgroups up to the relevant classification (catalog), closed-form
genus/orbit formulas plus the genus lifting rules (formulas), and the
spectrum/verification engine (engine) behind the CLI (cli).
"""

from .gf import FieldCtx, make_field, roots_of_unity

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "make_field",
    "roots_of_unity",
    "__version__",
]

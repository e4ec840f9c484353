"""gchodge: exact generalized-complex Hodge theory on invariant Lie-algebra
models, over the Gaussian rationals."""

from .courant import (algebroid_from_basis, b_shift, b_shift_form,
                      clifford_act, courant_axiom_suite, dorfman, pairing)
from .forms import Form, contract, mukai_pairing, sigma_involution, wedge
from .gcs import GCStruct, make_complex, make_general, make_symplectic
from .liemodel import LieAlgebroid, LieModel, validate_model
from .scalars import QI

__version__ = "0.1.0"

__all__ = [
    "Form", "GCStruct", "LieAlgebroid", "LieModel", "QI",
    "algebroid_from_basis", "b_shift", "b_shift_form", "clifford_act",
    "contract", "courant_axiom_suite", "dorfman", "make_complex",
    "make_general", "make_symplectic", "mukai_pairing", "pairing",
    "sigma_involution", "validate_model", "wedge",
]

"""Sparse complex zeon algebra: arithmetic, polynomials, zero finding.

The algebra on ``n`` commuting null-square generators is represented
sparsely by bitmask-indexed blades.  On top of the core arithmetic sit
polynomials with zeon coefficients, spectral zero finding, quadratic
and nilpotent-discriminant analysis, and extensions of analytic
functions with preimage computation.

``import zeon`` loads no submodule.  Each public name binds on first
access through the module ``__getattr__`` (PEP 562), which imports the
one submodule that defines it: ``zeon.Zeon`` loads the arithmetic,
``zeon.split`` the zero finder as well.
"""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "algebra": ("MAX_GENERATORS", "Tolerance", "Zeon", "default_tolerance",
                "tolerance", "generators", "indices_to_mask",
                "mask_to_indices", "kth_roots", "principal_kth_root"),
    "errors": ("ZeonError", "DimensionMismatch", "NotInvertible",
               "DivisorNotMonicizable", "LeadingCoefficientNotInvertible",
               "NotSpectrallySimple", "SeedMismatch", "OutsideDomain",
               "RootFindingFailed", "SqrtNotFound", "FamilyPreconditionError",
               "NonFiniteResult"),
    "poly": ("ZeonPoly", "DivisionResult", "divide", "remainder_at",
             "discriminant", "nilpotent_sqrt", "QuadraticKind",
             "QuadraticOutcome", "quadratic_solve"),
    "solve": ("ScalarRoot", "scalar_roots", "SpectralZero",
              "spectrally_simple_zero", "ZeroSetKind", "ZeroSetDescription",
              "FamilySpec", "SolveReport", "split", "classify_nilpotent_zeros",
              "is_extension_zero", "multiple_zero_family"),
    "analytic": ("AnalyticFunction", "EXP", "LOG", "SIN", "COS", "SQRT",
                 "power_function", "by_name", "ZeonExtension", "extend_eval",
                 "polynomial_form", "preimage"),
    "textio": ("format_complex", "parse_complex", "format_zeon", "parse_zeon",
               "format_poly", "parse_poly", "zeon_to_dict", "zeon_from_dict",
               "zeon_to_json", "zeon_from_json", "poly_to_dict",
               "poly_from_dict", "poly_to_json", "poly_from_json"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"
__all__ = ["__version__", "backend_name", *_MODULE_OF]


def backend_name() -> str:
    """Name of the array library behind wide elements, always ``'numpy'``,
    for environment records; asking does not import it."""
    return "numpy"


def __getattr__(name: str):
    # only reached while ``name`` is still unbound here
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

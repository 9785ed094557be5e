"""sylres: last invariant factors of bivariate Sylvester matrices over
finite fields, with elimination-ideal and certified-resultant drivers.

The quotient-algebra arithmetic runs through structured polynomial-matrix
division against the (never materialised) Sylvester matrices; the
randomized invariant-factor pipeline conditions the input with shifts and
reversals, projects powers of x through a random linear form, and reads
the answer off a Berlekamp-Massey minimal polynomial.  Dense brute-force
oracles (Smith form, resultant, multiplication-map minimal polynomial)
back every randomized result.
"""

from ._dense import SingularMatrixError
from .bipoly import BiPoly, IdealBasis, bimul, unvec_x, unvec_y, vec_x, vec_y
from .condition import ConditioningRecord, condition_for_Sx, condition_for_both, recover_last_invariant
from .field import (
    ExtField,
    FieldCtx,
    FieldError,
    PrimeField,
    build_extension,
    extend_field,
    is_probable_prime,
)
from .invariant import (
    DeterminantScaleError,
    InvariantOptions,
    InvariantReport,
    RootsAtInfinityError,
    elimination_generator,
    last_invariant_factor,
    min_poly_mult_x,
    projection_sequence,
    resultant_certified,
)
from .kucompose import FieldTooSmallError, KUParams, compose_rem, inv_kronecker, power_tower
from .normalform import (
    LinearForm,
    NormalFormProgram,
    matrix_divrem,
    mul_mod,
    normal_form,
    reduce_ydeg,
    transposed_normal_form,
)
from .oracle import dense_minpoly_mult_x, dense_resultant, dense_smith
from .sylvester import (
    NotColumnReducedError,
    SylvMat,
    build_Sx,
    build_Sy,
    build_Tx,
    dense_form,
    is_column_reduced,
    matvec,
    trunc_inv_apply,
)
from .upoly import UPoly, berlekamp_massey, common_generator, interpolate, multipoint_eval, xgcd

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "ConditioningRecord",
    "DeterminantScaleError",
    "ExtField",
    "FieldCtx",
    "FieldError",
    "FieldTooSmallError",
    "IdealBasis",
    "InvariantOptions",
    "InvariantReport",
    "KUParams",
    "LinearForm",
    "NormalFormProgram",
    "NotColumnReducedError",
    "PrimeField",
    "RootsAtInfinityError",
    "SingularMatrixError",
    "SylvMat",
    "UPoly",
    "berlekamp_massey",
    "bimul",
    "build_Sx",
    "build_Sy",
    "build_Tx",
    "build_extension",
    "common_generator",
    "compose_rem",
    "condition_for_Sx",
    "condition_for_both",
    "dense_form",
    "dense_minpoly_mult_x",
    "dense_resultant",
    "dense_smith",
    "elimination_generator",
    "extend_field",
    "interpolate",
    "inv_kronecker",
    "is_column_reduced",
    "is_probable_prime",
    "last_invariant_factor",
    "matrix_divrem",
    "matvec",
    "min_poly_mult_x",
    "mul_mod",
    "multipoint_eval",
    "normal_form",
    "power_tower",
    "projection_sequence",
    "recover_last_invariant",
    "reduce_ydeg",
    "resultant_certified",
    "transposed_normal_form",
    "trunc_inv_apply",
    "unvec_x",
    "unvec_y",
    "vec_x",
    "vec_y",
    "xgcd",
]

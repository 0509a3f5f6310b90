"""Exact local symbols, residues, and determinant cocycles on P^1.

The package computes, in exact arithmetic over Q, F_p, F_q and Artinian
local algebras:

* the unsigned local commutator and the signed tame symbol,
* the Contou-Carrère symbol over rings with nilpotents,
* residues by three independent routes (coefficient, block-operator trace,
  dual-number symbol extraction) and the Gelfand-Fuchs cocycle,
* the determinant 2-cocycle on finite-window operators,
* global verification of Weil reciprocity, the theorem of residues, the
  residue-pairing orthogonality of rational adeles, and global
  Gelfand-Fuchs vanishing on the projective line.

Every export is called by the library itself, except these entry points:

* ``KERNEL_BACKEND``, the name of the live kernel backend, for reports and
  benchmarks;
* ``unit_factorize``, the unit factorization s0 z^s prod(1 + s_i z^i) of a
  series over a field;
* ``lie_cocycle_dual`` and ``residue_from_dual_symbol``, which read the
  Lie cocycle and the residue off the determinant central extension over
  dual numbers;
* ``residue_pairing_sum``, the residue pairing of a rational adele with a
  test function, whose vanishing is adele orthogonality.

Each command is its own process, so every module-level import is paid by
every check.  No module imports ``dataclasses``, ``typing`` or ``inspect``
at module level (records are named tuples or classes with ``__slots__``),
and a standard-library module used only on an error or failure path, such
as ``traceback`` or ``shlex``, is imported there.  ``tests/test_imports.py``
holds a fresh interpreter to this.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .artinian import ArtinianAlgebra, dual_numbers
from .blockops import (
    BlockOperator,
    cocycle_commutator,
    cocycle_det,
    lie_cocycle,
    lie_cocycle_dual,
    multiplication_operator,
)
from .curve import (
    AdeleVector,
    Differential,
    Divisor,
    Place,
    RationalFunction,
    VerificationReport,
    divisor_of,
    local_expansion,
    relevant_places,
    residue_pairing_sum,
    trace_residue_at_place,
    verify_gf_global,
    verify_residue_theorem,
    verify_residues_local_data,
    verify_wrl,
    verify_wrl_local_data,
    wrl_local_factor,
)
from .errors import (
    DomainError,
    ExpressionError,
    FactorError,
    NonUnitError,
    PrecisionError,
    ReciprocityError,
    TowerError,
    WindowError,
)
from .factor import Factorization, is_irreducible, poly_factor
from .fields import QQ, AlgebraElement, BaseField, ExtensionField, PrimeField, RationalField
from .laurent import (
    DEFAULT_PRECISION,
    LaurentSeries,
    PrincipalUnitFactorization,
    UnitFactorization,
    cc_factorize,
    is_principal_unit,
    unit_factorize,
)
from .norms import algebra_norm, algebra_trace, relative_norm
from .parsing import (
    parse_factored_rational,
    parse_field_spec,
    parse_polynomial,
    parse_rational,
    parse_ring_spec,
    parse_series,
)
from .poly import Polynomial
from .symbols import (
    LoopMatrix,
    SymbolValue,
    contou_carrere_symbol,
    gelfand_fuchs_cocycle,
    local_commutator,
    residue_coefficient,
    residue_from_dual_symbol,
    tame_symbol,
    tate_residue,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""saito-forge: exact construction and verification of a family of
irreducible homogeneous free divisors in K[x, y, z]."""

from .field import (DivisionByZero, FieldMismatch, PrimeField, QQ, Rationals,
                    field_from_spec)
from .family import (DivisorInstance, ExhaustedRetries, FamilyParams,
                     InvalidParams, build_divisor, instance_from_json,
                     instance_to_json, is_irreducible, legal_pairs,
                     random_instance, validate)
from .poly import Poly, divides, is_squarefree_bivariate, parse, render
from .column_system import ColumnSystem, RouteFailure, build_column_system, solve_column_system
from .saito import SaitoMatrix, build_saito_matrix, coupling_residual, freeness_probe, verify_saito
from .oracle import (MacaulayMatrix, SyzygyBasis, expected_multiplicity,
                     jacobian_generators, point_support_check,
                     predicted_quotient_hilbert, resolution_check,
                     syzygy_kernel)

__version__ = "0.1.0"

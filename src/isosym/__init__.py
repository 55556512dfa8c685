"""isosym: defect operators and spectra of commuting matrix tuples.

Computes the symmetry/isometry/isosymmetry defect operators of commuting
tuples of complex matrices, decides class membership, builds the
structured example families, computes joint point spectra, and verifies
the governing identities by seeded randomized testing.
"""

__version__ = "0.1.0"

from .classify import (ClassVerdict, FamilyRank, MinimalOrders,
                       defect_family_rank, is_isosymmetric, is_m_isometric,
                       is_n_symmetric, minimal_orders)
from .construct import (JordanAugmentSpec, ScaledTupleSpec, identity_tuple,
                        jordan_augment, jordan_augment_parts,
                        nilpotent_tuple, random_commuting_tuple,
                        reference_pair, scaled_tuple, tensor_sum,
                        tensor_sum_parts)
from .defect import (DefectReport, DefectTable, MultiOperator, isometry_defect,
                     isosymmetry_defect, op_sum, perturbation_expansion,
                     raise_isometry_order, raise_symmetry_order,
                     symmetry_defect, zero_tolerance)
from .harness import (SuiteConfig, SuiteReport, dump_counterexample,
                      replay_counterexample, run_suite)
from .linalg import adjoint, fro_norm, kron, matrix_rank
from .multiindex import (binomial, multi_indices, multinomial_weight,
                         trinomial_coeff, verify_multinomial_recurrence)
from .spectra import (JointEigenpair, SpectralChecks, SpectralClassification,
                      check_orthogonality, check_zero_coordinate_exclusion,
                      classify_spectrum, joint_point_spectrum, spectral_checks)
from .tupleio import read_tuple, tuple_from_dict, tuple_to_dict, write_tuple

__all__ = [
    "ClassVerdict", "DefectReport", "DefectTable", "FamilyRank",
    "JointEigenpair",
    "JordanAugmentSpec", "MinimalOrders", "MultiOperator",
    "ScaledTupleSpec", "SpectralChecks", "SpectralClassification",
    "SuiteConfig", "SuiteReport", "adjoint", "binomial", "check_orthogonality",
    "check_zero_coordinate_exclusion", "classify_spectrum",
    "defect_family_rank", "dump_counterexample", "fro_norm",
    "identity_tuple", "is_isosymmetric", "is_m_isometric", "is_n_symmetric",
    "isometry_defect", "isosymmetry_defect", "joint_point_spectrum",
    "jordan_augment", "jordan_augment_parts", "kron",
    "matrix_rank", "minimal_orders", "multi_indices", "multinomial_weight",
    "nilpotent_tuple", "op_sum", "perturbation_expansion",
    "raise_isometry_order", "raise_symmetry_order",
    "random_commuting_tuple", "read_tuple", "reference_pair",
    "replay_counterexample", "run_suite", "scaled_tuple", "spectral_checks",
    "symmetry_defect", "tensor_sum", "tensor_sum_parts", "trinomial_coeff", "tuple_from_dict",
    "tuple_to_dict", "verify_multinomial_recurrence", "write_tuple",
    "zero_tolerance",
]

"""relrep: finite representations of relation algebras 52_65 and 59_65.

A numpy-backed library for building and verifying finite representations of
integral symmetric relation algebras: dense sumset arithmetic over abelian
groups, two independent representation verifiers, cyclotomic coset schemes,
Johnson-scheme probability bounds, and a seeded randomized search for the
subgroups behind the (Z/2Z)^k constructions.
"""

from .algebra import (Atom, IDENTITY, RaSpec, SpecError, builtin,
                      builtin_52_65, builtin_59_65, parse_spec)
from .comer import (CosetScheme, SchemeError, build_59_65_partition,
                    build_scheme, sweep_schemes)
from .gf2 import (BasisState, ExtensionRejected, FixtureValidation,
                  PrecheckReport, SearchConfig, SearchOutcome, default_threshold,
                  extend_basis, induced_partition, initial_state,
                  parse_bitstrings, precheck, search,
                  shipped_subgroup_bitstrings, validate_fixture)
from .groups import (ElementSet, GroupSpec, MemoryGuardError, Subgroup,
                     cyclotomic_cosets, hamming_weights, is_prime,
                     is_primitive_root, primitive_root, span, sumset,
                     sumset_reference, weight_class)
from .johnson import (BoundResult, EquitablePartition, JohnsonUniverse, McReport,
                      acc_witness_family, classify, mc_trial,
                      minimal_sufficient_n, partition_coloring, partition_count,
                      probability_bound, random_equitable_partition)
from .verify import (ColoredPartition, EdgeColoring, EquivalenceResult,
                     StructuralError, VerificationReport, Violation,
                     cayley_coloring, equivalence_classes, verify_bruteforce,
                     verify_sumsets)

__version__ = "0.1.0"

__all__ = [
    "Atom", "IDENTITY", "RaSpec", "SpecError", "builtin", "builtin_52_65",
    "builtin_59_65", "parse_spec",
    "CosetScheme", "SchemeError", "build_59_65_partition", "build_scheme",
    "sweep_schemes",
    "BasisState", "ExtensionRejected", "FixtureValidation", "PrecheckReport",
    "SearchConfig", "SearchOutcome", "default_threshold", "extend_basis",
    "induced_partition", "initial_state", "parse_bitstrings", "precheck",
    "search", "shipped_subgroup_bitstrings", "validate_fixture",
    "ElementSet", "GroupSpec", "MemoryGuardError", "Subgroup",
    "cyclotomic_cosets", "hamming_weights", "is_prime", "is_primitive_root",
    "primitive_root", "span", "sumset", "sumset_reference", "weight_class",
    "BoundResult", "EquitablePartition", "JohnsonUniverse", "McReport",
    "acc_witness_family", "classify", "mc_trial", "minimal_sufficient_n",
    "partition_coloring", "partition_count", "probability_bound",
    "random_equitable_partition",
    "ColoredPartition", "EdgeColoring", "EquivalenceResult", "StructuralError",
    "VerificationReport", "Violation", "cayley_coloring", "equivalence_classes",
    "verify_bruteforce", "verify_sumsets",
]

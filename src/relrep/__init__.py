"""relrep: finite representations of relation algebras 52_65 and 59_65.

A numpy-backed library for building and verifying finite representations of
integral symmetric relation algebras: dense sumset arithmetic over abelian
groups, two independent representation verifiers, cyclotomic coset schemes,
Johnson-scheme probability bounds, and a seeded randomized search for the
subgroups behind the (Z/2Z)^k constructions.

``import relrep`` imports no submodule: each public name is looked up in its
module when it is first read (PEP 562), so a process loads only the modules
whose names it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("Atom", "IDENTITY", "RaSpec", "SpecError", "builtin", "builtin_52_65",
                "builtin_59_65", "parse_spec"),
    "comer": ("CosetScheme", "SchemeError", "build_59_65_partition", "build_scheme",
              "sweep_schemes"),
    "gf2": ("BasisState", "ExtensionRejected", "FixtureValidation", "PrecheckReport",
            "SearchConfig", "SearchOutcome", "default_threshold", "extend_basis",
            "induced_partition", "initial_state", "parse_bitstrings", "precheck",
            "search", "shipped_subgroup_bitstrings", "validate_fixture"),
    "groups": ("ElementSet", "GroupSpec", "MemoryGuardError", "Subgroup",
               "cyclotomic_cosets", "hamming_weights", "is_prime", "is_primitive_root",
               "primitive_root", "span", "sumset", "sumset_reference", "weight_class"),
    "johnson": ("BoundResult", "EquitablePartition", "JohnsonUniverse", "McReport",
                "acc_witness_family", "classify", "mc_trial", "minimal_sufficient_n",
                "partition_coloring", "partition_count", "probability_bound",
                "random_equitable_partition"),
    "verify": ("ColoredPartition", "EdgeColoring", "EquivalenceResult", "StructuralError",
               "VerificationReport", "Violation", "cayley_coloring", "equivalence_classes",
               "verify_bruteforce", "verify_sumsets"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads are plain module attributes
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""The (Z/2Z)^10 representation of 52_65 from weight classes and a subgroup.

Splitting the nonzero bitstrings into X (weights 1..6) and C (weights 7..10)
already satisfies three sumset identities; the shipped order-64 subgroup H
inside X u {0} finishes the job with b = H\\{0}, a = X\\b, c = C.
"""

from relrep import (GroupSpec, builtin_52_65, cayley_coloring,
                    equivalence_classes, induced_partition, parse_bitstrings,
                    precheck, shipped_subgroup_bitstrings, span, sumset,
                    validate_fixture, verify_sumsets)

print("precheck of the weight split at k=10, t=6:")
report = precheck(10, 6)
for check in report.checks:
    print(f"  {check.name}: {check.holds} ({check.detail})")
print(f"  |X| = {report.low_size}, |C| = {report.high_size}, "
      f"together with 0: {report.low_size + report.high_size + 1}")

print("\nvalidating the shipped 63-element subgroup fixture:")
result = validate_fixture(shipped_subgroup_bitstrings())
payload = result.to_dict()  # adds what follows from the checks: t, the classes, the verdict
print(f"  weights in [1, {payload['t']}]: {result.weights_ok}")
print(f"  closed under addition with 0: {result.closure_ok} "
      f"(order {result.subgroup_order})")
print(f"  52_65 sumset verification: {result.verification.verdict}")
print(f"  b-clique structure: {payload['class_count']} classes of "
      f"size {payload['class_size']}")

# the b-classes are exactly the cosets of H
group = GroupSpec.power(2, 10)
elements = parse_bitstrings(shipped_subgroup_bitstrings(), 10)
subgroup = span(group, elements)
partition = induced_partition(group, subgroup.elements)
classes = equivalence_classes(cayley_coloring(partition), "b").classes
print(f"\nfirst class, as cosets go: {sorted(classes[0])[:5]}... "
      f"({len(classes)} classes)")

# and dropping any single element destroys closure
broken = sumset(subgroup.elements, subgroup.elements)
print("H + H = H:", broken == subgroup.elements)
print("verify once more, straight from the span:",
      verify_sumsets(builtin_52_65(), partition).verdict)

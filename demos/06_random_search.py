"""Randomized restart search for subgroups completing the 52_65 recipe.

Greedy basis growth keeps the whole span inside the low-weight shell; seeding
with the shipped fixture reproduces the known order-64 subgroup at k = 10,
while unseeded runs at k = 7 probe an open configuration (only soundness and
determinism are guaranteed, not success).
"""

from relrep import (SearchConfig, parse_bitstrings, search,
                    shipped_subgroup_bitstrings)

fixture = tuple(parse_bitstrings(shipped_subgroup_bitstrings(), 10))
seeded = search(SearchConfig(k=10, target_order=64, seed=0, restarts=1,
                             initial_elements=fixture))
print(f"k=10 seeded with the fixture: |H| = {seeded.order}, "
      f"verdict {seeded.report.verdict} (reached the target: {seeded.reached_target})")

fresh = search(SearchConfig(k=10, target_order=64, seed=3, restarts=8))
print(f"k=10 from scratch, 8 restarts: |H| = {fresh.order}, "
      f"verdict {fresh.report.verdict}, passed: {fresh.passed}")
print("  restart orders:", list(fresh.orders))

open_case = search(SearchConfig(k=7, seed=11, restarts=16, backtrack=2))
print(f"k=7 (t defaults to 4), 16 restarts with backtracking: "
      f"|H| = {open_case.order}, verdict {open_case.report.verdict}")
print("  the k=7 question is open; a reject here decides nothing")

rerun = search(SearchConfig(k=7, seed=11, restarts=16, backtrack=2))
print("identical seed reproduces the outcome:",
      rerun.to_dict() == open_case.to_dict())

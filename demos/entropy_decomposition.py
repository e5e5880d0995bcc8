"""Walkthrough: how between-group information scores a grouping.

A tiny 3x2 count matrix is grouped two ways; the decomposition shows why
putting the two look-alike rows together is the better call.
"""

from infodiv import Grouping, build_matrix, decompose, probability_model

matrix = build_matrix(
    row_labels=["alice", "bob", "carol"],
    col_labels=["topic_x", "topic_y"],
    values=[[3, 1], [1, 3], [3, 1]],
)
model = probability_model(matrix)

print("column marginal:", model.joint.sum(axis=0))

for name, assignment in [
    ("alice+carol vs bob", (0, 1, 0)),
    ("alice+bob vs carol", (0, 0, 1)),
    ("everyone together ", (0, 0, 0)),
]:
    rep = decompose(model, Grouping(assignment))
    print(f"{name}: H0 = {rep.h0:.4f} bits "
          f"(H(n) = {rep.h_n:.4f}, within-group = {rep.h_cond:.4f})")

# The identity H(n) = H0 + sum_g Pg * Hg holds to machine precision:
rep = decompose(model, Grouping((0, 1, 0)))
within = sum(p * h for p, h in rep.groups)
print(f"\nidentity check: {rep.h_n:.12f} = {rep.h0:.12f} + {within:.12f}")

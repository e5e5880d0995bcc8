"""Walkthrough: why shared zeros move Pearson's r but not the cosine,
and what a log transform does about it."""

import numpy as np

from infodiv import build_matrix, cosine, log_transform, pearson, \
    similarity_matrix

x, y = [1, 2], [2, 1]
print("two vectors:", x, y)
print("  pearson:", pearson(x, y))
print("  cosine :", cosine(x, y))

x0, y0 = [1, 2, 0], [2, 1, 0]
print("same vectors with a shared zero appended:", x0, y0)
print("  pearson:", pearson(x0, y0), " <- moved")
print("  cosine :", cosine(x0, y0), " <- unchanged")

# On a square cocitation-style matrix, both measures plus the log
# transform and the two diagonal conventions are one call each:
labels = ["braun", "callon", "cronin", "moed"]
counts = [
    [10, 3, 16, 12],
    [3, 10, 15, 8],
    [16, 15, 0, 9],
    [12, 8, 9, 10],
]
m = build_matrix(labels, labels, counts)

for measure in ("pearson", "cosine"):
    for name, matrix in (("counts", m), ("log2(1+x)", log_transform(m))):
        sim = similarity_matrix(matrix, measure=measure)
        off = sim.values[np.triu_indices(4, k=1)]
        print(f"{measure:8s} {name:9s} off-diagonal: {np.round(off, 3)}")

sim = similarity_matrix(m, measure="pearson", diagonal_mode="missing")
print("pearson with diagonal-as-missing:",
      np.round(sim.values[np.triu_indices(4, k=1)], 3))

"""Walkthrough: divisive clustering of a block matrix, with the exact
dendrogram and the divisive cut line."""

from infodiv import (
    ClusterOptions,
    build_matrix,
    divisive_cluster,
    export_dendrogram,
    extract_clusters,
    probability_model,
    render_dendrogram,
    verify_greedy,
)

matrix = build_matrix(
    row_labels=["ann", "ben", "cid", "dee", "eve", "fay"],
    col_labels=["j1", "j2", "j3", "j4"],
    values=[
        [5, 4, 0, 0],
        [4, 5, 1, 0],
        [5, 5, 0, 1],
        [0, 1, 5, 4],
        [0, 0, 4, 5],
        [2, 2, 2, 2],  # an in-between case
    ],
)

dend = divisive_cluster(matrix, ClusterOptions(stop_rule="full"))
print(render_dendrogram(dend, "text"))

clusters = extract_clusters(dend)
print("clusters at the divisive cut:")
for c in clusters:
    print("  ", sorted(matrix.row_labels[i] for i in c))

# The greedy result can be checked against exhaustive search:
report = verify_greedy(probability_model(matrix))
print(f"\nroot split: greedy H0 = {report.greedy_h0:.6f} bits, "
      f"exhaustive H0 = {report.best_h0:.6f} bits, gap = {report.gap:.2e}")

print("\nNewick export:")
print(export_dendrogram(dend, "newick"))

"""Information-theoretic divisive clustering of labeled count matrices.

Cluster the rows of a nonnegative labeled matrix (for instance an author
cocitation matrix) by maximizing the between-group information H0, compare
Pearson and cosine similarity on the same data, and export exact
dendrograms whose heights are additive in bits.
"""

from .cluster import (
    ClusterOptions,
    Dendrogram,
    DendrogramNode,
    SplitEvaluation,
    divisive_cluster,
    evaluate_bipartition,
    extract_clusters,
    greedy_bisect,
)
from .entropy import (
    EntropyReport,
    Grouping,
    decompose,
    shannon_entropy,
    transmission,
)
from .errors import (
    DuplicateLabelError,
    EmptyMatrixError,
    InfodivError,
    NegativeValueError,
    NonFiniteValueError,
    ParseError,
    SizeLimitError,
    UndefinedCorrelation,
    UndefinedCosine,
    ZeroRowError,
)
from .io import (
    export_dendrogram,
    dendrogram_from_json,
    format_number,
    parse_csv,
    similarity_csv,
    write_csv,
)
from .matrix import (
    LabeledMatrix,
    ProbabilityModel,
    build_matrix,
    build_matrix_report,
    pooled_profile,
    probability_model,
)
from .oracle import (
    OracleReport,
    exhaustive_bisect,
    exhaustive_partition,
    restricted_growth_strings,
    verify_greedy,
)
from .render import divisive_cut_height, render_dendrogram
from .similarity import (
    SimilarityMatrix,
    cosine,
    log_transform,
    pearson,
    similarity_matrix,
)

__version__ = "0.1.0"

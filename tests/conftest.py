"""Shared helpers: seeded random and cocitation matrices, pure-Python
brute-force entropy computations kept independent of the library's numpy
code paths, the group sums of the raw values a gather of rows at a time,
bipartition scoring through the public validated functions and the ranking
kernel's masked entropy formula, reference exhaustive and greedy searches
that score every candidate separately, the exhaustive tree built from
them node by node, the recursive restricted growth string generator, the
similarity matrix computed one pair at a time with sums in Python ints,
the CSV reader that converts one cell at a time, and the
canonical number formatter through `decimal` alone with the CSV writer
built on it.

Registers the hypothesis profile "thorough" (`--hypothesis-profile
thorough`), under which the properties that size their runs with
`examples` draw 3000 examples each."""

import csv
import decimal
import fractions
import functools
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from infodiv import (
    Dendrogram,
    DendrogramNode,
    Grouping,
    InvalidInputError,
    NonFiniteValueError,
    ParseError,
    SplitEvaluation,
    UndefinedCorrelation,
    UndefinedCosine,
    build_matrix,
    decompose,
    evaluate_bipartition,
    pooled_profile,
    probability_model,
    shannon_entropy,
)
from infodiv.cluster import STRICT_TOL
from infodiv.matrix import check_subset
from infodiv.oracle import OracleReport
from infodiv.similarity import _UNDEFINED

settings.register_profile("thorough", max_examples=3000)

# Counts whose probabilities round, so that a sum of those depends on its
# order, while every sum of the counts themselves is exact.
ROUNDING_COUNTS = (0, 0, 1, 2, 5, 97, 65537, 2 ** 40 + 3)


def examples(n):
    """max_examples for a property: n, or the loaded profile's count if
    that is larger (3000 under "thorough")."""
    return max(n, settings.default.max_examples)


def entropy_bits(probs):
    """Plain-Python -sum p log2 p with 0 log 0 = 0."""
    return sum(-p * math.log2(p) for p in probs if p > 0)


def reference_group_sums(values, assignment, m, step):
    """The (group, column) sums of `values`: each group's rows, in row
    order, gathered `step` rows at a time, each gather summed along axis 0,
    the first sum taken as it is and each later one added to it."""
    sums = []
    for g in range(m):
        rows = [i for i, a in enumerate(assignment) if a == g]
        blocks = [values[rows[first:first + step]].sum(axis=0)
                  for first in range(0, len(rows), step)]
        sums.append(functools.reduce(np.add, blocks))
    return np.array(sums)


def brute_decompose(values, assignment):
    """Entropy decomposition from first principles, loops and math.log2 only.

    Returns (h_n, h_m, h_joint, h0, within) for a grid of counts and a
    row -> group assignment list.
    """
    total = sum(sum(row) for row in values)
    n_cols = len(values[0])
    m = max(assignment) + 1

    col = [sum(values[i][j] for i in range(len(values))) / total
           for j in range(n_cols)]
    agg = [[0.0] * n_cols for _ in range(m)]
    for i, g in enumerate(assignment):
        for j in range(n_cols):
            agg[g][j] += values[i][j] / total
    weights = [sum(row) for row in agg]

    h_n = entropy_bits(col)
    h_m = entropy_bits(weights)
    h_joint = entropy_bits([p for row in agg for p in row])
    h0 = h_n + h_m - h_joint
    within = sum(w * entropy_bits([p / w for p in row])
                 for w, row in zip(weights, agg))
    return h_n, h_m, h_joint, h0, within


def brute_local_h0(values, subtree, left):
    """Transmission of a bipartition within a subtree, renormalized there."""
    sub_vals = [values[i] for i in subtree]
    assignment = [0 if i in set(left) else 1 for i in subtree]
    return brute_decompose(sub_vals, assignment)[3]


def random_matrix(rng, max_rows=10, max_cols=8, min_rows=2, min_cols=2):
    """Random integer count matrix with no zero rows, labels r00, r01, ..."""
    n = int(rng.integers(min_rows, max_rows + 1))
    k = int(rng.integers(min_cols, max_cols + 1))
    vals = rng.integers(0, 10, size=(n, k)).astype(float)
    for i in range(n):
        if vals[i].sum() == 0:
            vals[i, int(rng.integers(0, k))] = 1 + int(rng.integers(0, 9))
    rows = [f"r{i:02d}" for i in range(n)]
    cols = [f"c{j:02d}" for j in range(k)]
    return build_matrix(rows, cols, vals)


def cocitation_matrix(rng, n):
    """Symmetric Poisson counts in four author groups, positive diagonal."""
    member = rng.integers(0, 4, size=n)
    rate = np.where(member[:, None] == member[None, :], 6.0, 1.5)
    upper = np.triu(rng.poisson(rate), 1)
    counts = (upper + upper.T).astype(float)
    counts[np.arange(n), np.arange(n)] = counts.max(axis=1) + 1
    labels = [f"au{i:02d}" for i in range(n)]
    return build_matrix(labels, labels, counts)


def random_grouping(rng, n_rows):
    m = int(rng.integers(1, n_rows + 1))
    assignment = [int(g) for g in rng.integers(0, m, size=n_rows)]
    # Pin one row per group id so every id occurs.
    for g, i in enumerate(rng.permutation(n_rows)[:m]):
        assignment[int(i)] = g
    return assignment


def reference_evaluate_bipartition(model, subtree, left):
    """evaluate_bipartition with each group's raw rows pooled by
    pooled_profile, its weight (pooled total over the grand sum) and
    profile taken from there and its entropy by shannon_entropy, every
    call validating again."""
    subtree = check_subset(model, subtree)
    left = check_subset(model, left)
    if not set(left) < set(subtree):
        raise ValueError("left must be a proper subset of subtree")
    right = tuple(i for i in subtree if i not in set(left))
    (w_sub, h_agg), (w_l, h_l), (w_r, h_r) = (
        (w, shannon_entropy(prof)) for w, prof in
        (pooled_profile(model, g) for g in (subtree, left, right)))
    local_h0 = max(h_agg - (w_l * h_l + w_r * h_r) / w_sub, 0.0)
    return SplitEvaluation(
        left=left, right=right, h_aggregate=h_agg, h_left=h_l, h_right=h_r,
        local_h0=local_h0, global_delta=w_sub * local_h0,
        divisive=h_l < h_agg - STRICT_TOL and h_r < h_agg - STRICT_TOL)


def reference_entropies(sums):
    """The ranking kernel's entropies with both divide and log masked to
    the positive cells, as they were first written."""
    weights = sums.sum(axis=-1)
    p = np.divide(sums, weights[..., None], out=np.zeros_like(sums),
                  where=sums > 0)
    plogp = np.log2(p, out=np.zeros_like(p), where=p > 0) * p
    return np.maximum(-plogp.sum(axis=-1), 0.0), weights


def reference_split_scores(total, left_sums, grand):
    """local_h0 and divisive flags of bipartitions of one group, with the
    group and each half scored by its own reference_entropies call, each
    weight divided by the grand sum `grand`."""
    h_agg, w_sub = reference_entropies(total)
    h_l, w_l = reference_entropies(left_sums)
    h_r, w_r = reference_entropies(np.maximum(total - left_sums, 0.0))
    w_sub, w_l, w_r = w_sub / grand, w_l / grand, w_r / grand
    local_h0 = np.maximum(h_agg - (w_l * h_l + w_r * h_r) / w_sub, 0.0)
    divisive = (h_l < h_agg - STRICT_TOL) & (h_r < h_agg - STRICT_TOL)
    return local_h0, divisive


def reference_greedy_bisect(model, subtree, stop_rule="divisive"):
    """Seed-and-grow search with one evaluate_bipartition call per
    candidate and the sequential tie rule written out."""
    candidates = [evaluate_bipartition(model, subtree, (i,)) for i in subtree]
    if stop_rule == "divisive":
        candidates = [c for c in candidates if c.divisive]
    if not candidates:
        return None
    best = candidates[0]
    for c in candidates[1:]:
        if c.local_h0 > best.local_h0 + STRICT_TOL:
            best = c
    while len(best.right) > 1:
        move_best = None
        for i in best.right:
            cand = evaluate_bipartition(model, subtree, best.left + (i,))
            if cand.local_h0 > best.local_h0 + STRICT_TOL:
                if move_best is None or \
                        cand.local_h0 > move_best.local_h0 + STRICT_TOL:
                    move_best = cand
        if move_best is None:
            break
        best = move_best
    if stop_rule == "divisive" and not best.divisive:
        return None
    return best


def reference_exhaustive_bisect(model, subtree):
    """Every bipartition, as the subset holding the first row, in
    lexicographic order of that subset; ties to the first one."""
    subtree = tuple(sorted(subtree))
    first, rest = subtree[0], subtree[1:]
    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(rest, r) for r in range(len(rest))))
    best = None
    for sub in subsets:
        ev = evaluate_bipartition(model, subtree, (first,) + sub)
        if best is None or ev.local_h0 > best.local_h0 + STRICT_TOL:
            best = ev
    return best


def reference_exhaustive_tree(matrix, stop_rule):
    """The divisive tree of `matrix` built node by node by recursion, each
    group split by reference_exhaustive_bisect, kept if it is divisive or
    the stop rule is "full"."""
    model = probability_model(matrix)

    def node(members, height):
        split = reference_exhaustive_bisect(model, members) \
            if len(members) >= 2 else None
        if split is None or not (split.divisive or stop_rule == "full"):
            return DendrogramNode(members=members, height=height)
        child_h = height + split.global_delta
        return DendrogramNode(members=members, height=height, split=split,
                              children=(node(split.left, child_h),
                                        node(split.right, child_h)))

    return Dendrogram(root=node(tuple(range(matrix.n_rows)), 0.0),
                      row_labels=matrix.row_labels)


def reference_exhaustive_partition(model, max_groups):
    """One validated Grouping and decompose per restricted growth string;
    ties to fewer groups, then to the first string."""
    n = model.n_rows
    best_grouping = None
    best_h0 = -1.0
    best_m = n + 1
    count = 0
    for rgs in reference_restricted_growth_strings(n, max_groups):
        count += 1
        m = max(rgs) + 1
        grouping = Grouping(rgs)
        h0 = decompose(model, grouping).h0
        if h0 > best_h0 + STRICT_TOL or \
                (abs(h0 - best_h0) <= STRICT_TOL and m < best_m):
            best_grouping, best_h0, best_m = grouping, h0, m
    return OracleReport(best_grouping=best_grouping, best_h0=best_h0,
                        candidates_examined=count)


def reference_restricted_growth_strings(n, max_groups):
    """Restricted growth strings of length n with values below max_groups,
    in lexicographic order, by recursion on the next position."""
    if n == 0:
        return
    a = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(a)
            return
        for v in range(min(top + 1, max_groups - 1) + 1):
            a[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def reference_pair(measure, x, y):
    """pearson or cosine of the finite vectors x and y:
    `reference_integer_pair` of their dyadic integers."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    min_width = 2 if measure == "pearson" else 1
    if x.shape != y.shape or x.ndim != 1 or len(x) < min_width:
        raise InvalidInputError(f"{measure} needs two equal-length "
                                f"vectors, length >= {min_width}")
    return reference_integer_pair(measure, reference_dyadic(x),
                                  reference_dyadic(y))


def reference_dyadic(x):
    """The coordinates of the finite vector x times 2^k, k >= 0 the least
    that makes each an integer, as Python ints."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    k = max(d.bit_length() - 1 for _, d in ratios)
    return [n << (k - d.bit_length() + 1) for n, d in ratios]


def reference_integer_pair(measure, x, y):
    """pearson or cosine of the integral vectors x and y from their sums in
    Python ints, each numerator and radicand converted to float once, and
    +0.0 for a result that rounds to zero. Where a form passes the float
    range, each radicand r is first divided by 4^e, e = (bit length - 1)
    // 2, and the numerator by 2^(ex + ey); where the two radicands round
    to the same float, ry is taken to be rx, and the divisor is rx / 4^ex
    (two unequal radicands can reach the same value over their powers of
    four)."""
    num, rx, ry = reference_integer_forms(measure, x, y)
    if rx == 0 or ry == 0:
        error, what = _UNDEFINED[measure]
        raise error(what)
    try:
        r = float(num) / reference_divisor(float(rx), float(ry))
    except OverflowError:
        if reference_rounded(rx) == reference_rounded(ry):
            ry = rx
        ex, ey = (rx.bit_length() - 1) // 2, (ry.bit_length() - 1) // 2
        qx, qy = rx / 4 ** ex, ry / 4 ** ey
        r = num / 2 ** (ex + ey) / (
            qx if rx == ry else math.sqrt(qx) * math.sqrt(qy))
    return min(1.0, max(-1.0, r)) + 0.0


def reference_rounded(n):
    """The positive int n rounded to 53 significant bits, ties to even."""
    shift = max(0, n.bit_length() - 53)
    return round(fractions.Fraction(n, 2 ** shift)) * 2 ** shift


def reference_divisor(rx, ry):
    """sqrt(rx) * sqrt(ry) for the float radicands rx and ry, or rx itself
    where they are equal."""
    return rx if rx == ry else math.sqrt(rx) * math.sqrt(ry)


def reference_integer_forms(measure, x, y):
    """The numerator and the two radicands of `measure` for the integral
    vectors x and y, as Python ints: sum(xy), sum(x^2), sum(y^2) for
    cosine; w*sum(xy) - sum(x)*sum(y), w*sum(x^2) - sum(x)^2 and
    w*sum(y^2) - sum(y)^2 for Pearson."""
    x, y = [int(v) for v in x], [int(v) for v in y]
    sxy = sum(a * b for a, b in zip(x, y))
    sxx, syy = sum(a * a for a in x), sum(b * b for b in y)
    if measure == "cosine":
        return sxy, sxx, syy
    w, sx, sy = len(x), sum(x), sum(y)
    return w * sxy - sx * sy, w * sxx - sx * sx, w * syy - sy * sy


def reference_similarity_matrix(matrix, measure="pearson",
                                diagonal_mode="include"):
    """The values of similarity_matrix, one reference_pair call per pair
    of rows; an undefined pair raises naming that pair."""
    n = matrix.n_rows
    vals = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            x, y = matrix.values[i], matrix.values[j]
            if diagonal_mode == "missing":
                keep = np.ones(n, dtype=bool)
                keep[[i, j]] = False
                x, y = x[keep], y[keep]
            try:
                vals[i, j] = vals[j, i] = reference_pair(measure, x, y)
            except (UndefinedCorrelation, UndefinedCosine) as exc:
                raise type(exc)(
                    f"{exc} (pair {matrix.row_labels[i]!r}, "
                    f"{matrix.row_labels[j]!r})") from exc
    return vals


_HALF_EVEN_12 = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)


def reference_format_number(x):
    """format_number through `decimal` alone: the exact value of the
    double, Decimal(float(x)), rounded half to even to 12 significant
    digits, in fixed point, with ".0" on a result that is an integer below
    1e15."""
    if not math.isfinite(x):
        raise NonFiniteValueError(f"cannot write the non-finite number "
                                  f"{float(x)!r}")
    d = _HALF_EVEN_12.plus(decimal.Decimal(float(x)))
    d = d.normalize(_HALF_EVEN_12)
    if d == int(d) and abs(d) < 10 ** 15:
        return f"{int(d)}.0"
    return format(d, "f")


def reference_write_csv(row_labels, col_labels, values):
    """write_csv's text, each row by csv.writer and each cell by
    reference_format_number."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["", *col_labels])
    for label, row in zip(row_labels, np.asarray(values).tolist()):
        w.writerow([label, *map(reference_format_number, row)])
    return out.getvalue()


def reference_parse_csv(text_or_path):
    """parse_csv with a float() call, in a try, for each cell in turn."""
    if hasattr(text_or_path, "read"):
        handle = text_or_path
        rows = list(csv.reader(handle))
    else:
        with open(text_or_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise ParseError("empty CSV input")
    header = rows[0]
    if len(header) < 2:
        raise ParseError("header must contain at least one column label")
    col_labels = [c.strip() for c in header[1:]]

    row_labels: list[str] = []
    values: list[list[float]] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"line {lineno}: expected {len(header)} cells, got {len(row)}")
        row_labels.append(row[0].strip())
        parsed = []
        for colno, cell in enumerate(row[1:], start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"line {lineno}, column {col_labels[colno - 1]!r}: "
                    f"malformed number {cell!r}") from None
            parsed.append(v)
        values.append(parsed)
    if not values:
        raise ParseError("CSV contains no data rows")

    r_order = sorted(range(len(row_labels)), key=lambda i: row_labels[i])
    c_order = sorted(range(len(col_labels)), key=lambda j: col_labels[j])
    return build_matrix([row_labels[i] for i in r_order],
                        [col_labels[j] for j in c_order],
                        np.asarray(values)[np.ix_(r_order, c_order)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)

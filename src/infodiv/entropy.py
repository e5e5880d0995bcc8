"""Shannon entropy and its between/within-group decomposition.

For a grouping of the rows, the aggregate entropy splits as

    H = H0 + sum_g Pg * Hg

where H0 is the between-group part: the mutual information (transmission)
between the grouping variable and the column variable. Equivalent identities

    H(n|m) = H(n,m) - H(m)
    H0     = H(n) + H(m) - H(n,m)

are computed, and the first identity and the bounds on H0 are checked on
every decomposition. All entropies are in bits (base-2 logarithms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .matrix import ProbabilityModel, as_indices

IDENTITY_TOL = 1e-9  # bits


@dataclass(frozen=True)
class Grouping:
    """Assignment of each row to a group; the m distinct ids are 0..m-1."""

    assignment: tuple[int, ...]
    m: int = field(init=False)  # the number of groups

    def __post_init__(self):
        used = set(as_indices(self.assignment, "group id"))
        object.__setattr__(self, "m", len(used))
        if used != set(range(self.m)):
            raise InvalidInputError(
                f"group ids must cover 0..{self.m - 1}, got {sorted(used)}")

    @classmethod
    def from_sets(cls, groups, n_rows: int) -> "Grouping":
        """Build a Grouping from disjoint nonempty row-index sets."""
        assignment = [-1] * n_rows
        for g, members in enumerate(groups):
            members = as_indices(members, "row index")
            if not members:
                raise InvalidInputError(f"group {g} is empty")
            for i in members:
                if not 0 <= i < n_rows:
                    raise InvalidInputError(f"row {i} outside 0..{n_rows - 1}")
                if assignment[i] != -1:
                    raise InvalidInputError(f"row {i} assigned twice")
                assignment[i] = g
        if -1 in assignment:
            raise InvalidInputError("grouping does not cover all rows")
        return cls(tuple(assignment))

    def members(self, g: int) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.assignment) if a == g)


@dataclass(frozen=True)
class EntropyReport:
    """All entropies of one (model, grouping) pair, in bits."""

    h_n: float       # entropy of the column marginal
    h_m: float       # entropy of the group weights
    h_joint: float   # entropy of the (group, column) joint
    h_cond: float    # within-group expectation, H(n|m)
    h0: float        # between-group part / transmission
    groups: tuple[tuple[float, float], ...]  # per group: (p_g, h_g)
    h0_ratio: float  # auxiliary: h0 / h_n (0 when h_n == 0)


def shannon_entropy(dist) -> float:
    """Entropy -sum p*log2(p) of a probability vector, with 0*log2(0) = 0.
    An array of any shape is taken as one distribution."""
    p = np.asarray(dist, dtype=float).ravel()
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise InvalidInputError("probabilities must be finite and nonnegative")
    total = p.sum()
    if abs(total - 1.0) > IDENTITY_TOL:
        raise InvalidInputError(f"probabilities sum to {total}, expected 1")
    return float(_entropy_bits(p))


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """Bits of each distribution along the last axis of `p`, unvalidated.
    Adding 1 where p is 0 gives 0 log2 0 = 0 without a warning and leaves
    every other p log2 p as it is."""
    plogp = p + (p == 0)
    np.log2(plogp, out=plogp)
    plogp *= p
    return np.maximum(-plogp.sum(axis=-1), 0.0)


def _entropies(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits of each row of `sums` (nonnegative) once normalized,
    and its total. A row of total 0 has entropy 0: only then is the divide
    masked, which gives every other row the bits of the plain divide."""
    weights = sums.sum(axis=-1)
    if weights.all():
        p = sums / weights[..., None]
    else:
        p = np.divide(sums, weights[..., None], out=np.zeros_like(sums),
                      where=weights[..., None] > 0)
    return _entropy_bits(p), weights


def decompose(model: ProbabilityModel, grouping: Grouping) -> EntropyReport:
    """Entropy decomposition of the column variable under a row grouping.

    Hg comes from one `_entropies` call on the aggregated joint; H(n), of
    the joint's column sums, and H(m) and H(n,m) from `shannon_entropy`.
    H(n) = H0 + sum_g Pg Hg and 0 <= H0 <= min(H(n), H(m)) are checked to
    within 1e-9 bits. A violation indicates a bug, not bad data, so it
    raises AssertionError, also under `python -O`.
    """
    if len(grouping.assignment) != model.n_rows:
        raise InvalidInputError(
            f"grouping covers {len(grouping.assignment)} rows, "
            f"model has {model.n_rows}")

    assign = np.asarray(grouping.assignment)
    # Aggregated joint over (group, column).
    agg = np.zeros((grouping.m, model.n_cols))
    np.add.at(agg, assign, model.joint)

    h_groups, weights = _entropies(agg)
    h_m = shannon_entropy(weights)
    h_n = shannon_entropy(model.joint.sum(axis=0))
    h_joint = shannon_entropy(agg)
    h_cond = h_joint - h_m
    h0 = h_n + h_m - h_joint
    groups = tuple(zip(weights.tolist(), h_groups.tolist()))

    # H(n|m) = sum_g Pg Hg is this identity once h0 is substituted, and
    # h0 = H(n) + H(m) - H(n,m) holds by its definition above.
    within = sum(p_g * h_g for p_g, h_g in groups)
    if abs(h_n - (h0 + within)) > IDENTITY_TOL:
        raise AssertionError(f"H(n) = {h_n} != H0 + within = {h0 + within}")
    if not -IDENTITY_TOL <= h0 <= min(h_n, h_m) + IDENTITY_TOL:
        raise AssertionError(f"H0 = {h0} outside [0, min({h_n}, {h_m})]")

    ratio = h0 / h_n if h_n > 0 else 0.0
    return EntropyReport(h_n=h_n, h_m=h_m, h_joint=h_joint, h_cond=h_cond,
                         h0=h0, groups=groups, h0_ratio=ratio)


def transmission(model: ProbabilityModel, grouping: Grouping) -> float:
    """Mutual information between the grouping and the column variable."""
    return decompose(model, grouping).h0

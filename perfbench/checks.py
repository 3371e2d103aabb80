"""Correctness checks of the benchmark, computed apart from the program.

Every check takes plain arrays, parsed CSV rows or the JSON the CLI wrote and
returns a list of error strings; an empty list means the check passed.  No
check imports poissonize: each one recomputes its reference with numpy and
scipy, or tests a property the method must have, so a fault in the program
cannot hide inside its own check.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import poisson

# Points per evaluation block of the L1 grids; keeps the checks' memory far
# below the program's so peak_rss_mb measures the program.
_BLOCK = 1 << 14


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------


def check_learn_records(rows, *, trials, seed, samples, m, delta, with_weights):
    """Rows of one `learn` records.csv against the config that produced it.

    Recomputes the certified truncation with scipy.stats.poisson: tau > e*lam,
    the tail above tau is below delta / (2N), and tv_gap = N * sf(tau, lam).
    Accuracy is judged over a whole run, by check_accuracy.
    """
    errors = []
    if len(rows) != trials:
        return [f"expected {trials} rows, found {len(rows)}"]
    lam = float(m)
    for index, row in enumerate(rows):
        where = f"trial {index}"
        if row["failed"] != "false" or row["reason"]:
            errors.append(f"{where}: failed={row['failed']} reason={row['reason']!r}")
            continue
        if int(row["trial"]) != index or int(row["seed"]) != seed + index:
            errors.append(f"{where}: trial/seed columns {row['trial']}/{row['seed']}")
        if int(row["samples_used"]) != samples:
            errors.append(f"{where}: samples_used {row['samples_used']} != {samples}")
        if float(row["lam"]) != lam:
            errors.append(f"{where}: lam {row['lam']} != m = {m}")
        tau = float(row["tau"])
        tail = float(poisson.sf(tau, lam))
        if tau != math.floor(tau) or not tau > math.e * lam:
            errors.append(f"{where}: tau {tau} is not an integer above e*lam")
        if not tail < delta / (2.0 * samples):
            errors.append(f"{where}: tail {tail:.3e} above delta/(2N) at tau {tau}")
        gap = float(row["tv_gap"])
        if not math.isclose(gap, samples * tail, rel_tol=1e-6, abs_tol=1e-300):
            errors.append(f"{where}: tv_gap {gap:.6e} != N*sf(tau) {samples * tail:.6e}")
        if bool(row["weight_sum"]) != with_weights:
            errors.append(f"{where}: weight_sum {row['weight_sum']!r} with with_weights={with_weights}")
        elif with_weights and not math.isfinite(float(row["weight_sum"])):
            errors.append(f"{where}: weight_sum {row['weight_sum']}")
        if not math.isfinite(float(row["aligned_error"] or "nan")):
            errors.append(f"{where}: aligned_error {row['aligned_error']!r}")
    return errors


def origin_score(means):
    """The aligned error of a learner that puts every mean at the origin: the
    mean norm of the true means (columns)."""
    return float(np.linalg.norm(np.asarray(means, dtype=float), axis=0).mean())


def check_accuracy(rows, origin, median_bound, weight_tol=None):
    """Accuracy over all trials of a run, with aligned_error in units of the
    all-origin score ``origin``, which a learner returning zeros scores
    exactly.

    The median ratio must be below median_bound, the best trial must beat
    the all-origin learner (ratio below 1), and the median |weight_sum - 1|
    must be at most weight_tol.  Medians and the best trial, because at a
    fixed N a single trial's error has a heavy tail: the unlift divides by a
    recovered coordinate that is now and then close to zero (README,
    "Accuracy bounds").
    """
    errors = []
    ratios = [float(r["aligned_error"]) / origin for r in rows]
    if not ratios:
        return ["no trials to judge"]
    median = float(np.median(ratios))
    if not median < median_bound:
        errors.append(f"median aligned_error / origin score {median:.4g} of {len(ratios)} "
                      f"trials is not below {median_bound}")
    if not min(ratios) < 1.0:
        errors.append(f"no trial of {len(ratios)} beats the all-origin learner "
                      f"(best ratio {min(ratios):.4g})")
    if weight_tol is not None:
        deviation = float(np.median([abs(float(r["weight_sum"]) - 1.0) for r in rows]))
        if not deviation <= weight_tol:
            errors.append(f"median |weight_sum - 1| {deviation:.4g} above {weight_tol}")
    return errors


def match_columns(estimate, truth, signed=False):
    """Best one-to-one matching of estimated to true columns.

    Returns (perm, errors): estimate column perm[j] is matched to true column
    j at distance errors[j].  With ``signed`` each pair may also match up to
    a sign flip.
    """
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ValueError(f"shapes differ: {est.shape} vs {tru.shape}")
    cost = np.linalg.norm(est[:, :, None] - tru[:, None, :], axis=0)
    if signed:
        cost = np.minimum(cost, np.linalg.norm(est[:, :, None] + tru[:, None, :], axis=0))
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(tru.shape[1], dtype=int)
    perm[cols] = rows
    return perm, cost[perm, np.arange(tru.shape[1])]


def check_aligned_error(estimated_means, true_means, reported):
    """The mean matched distance recomputed here equals the reported one."""
    _, errors = match_columns(estimated_means, true_means)
    mine = float(errors.mean())
    if not math.isclose(mine, float(reported), rel_tol=1e-9, abs_tol=1e-12):
        return [f"aligned_error {reported} but own matching gives {mine}"]
    return []


def lifted_ica(means, weights, lam):
    """Exact ICA view of the Poissonized mixture: unit columns a_i of the
    lifted means (mu_i, 1), their norms s_i and the rates w_i * lam."""
    means = np.asarray(means, dtype=float)
    lifted = np.vstack([means, np.ones((1, means.shape[1]))])
    scales = np.linalg.norm(lifted, axis=0)
    return lifted / scales, scales, np.asarray(weights, dtype=float) * lam


def _power(column, k):
    out = np.ones(1)
    for _ in range(k):
        out = np.multiply.outer(out, column).ravel()
    return out


def exact_cumulant_pair(means, weights, lam, d):
    """Flattened order-d cumulant in matrix view and the order-(d+1) tensor,
    as sums of outer products: source i is s_i * Poisson(w_i lam), whose
    order-l cumulant is s_i^l w_i lam."""
    columns, scales, rates = lifted_ica(means, weights, lam)
    half = [_power(a, d // 2) for a in columns.T]
    m0 = sum(s**d * r * np.outer(h, h) for h, s, r in zip(half, scales, rates))
    k_next = sum(s ** (d + 1) * r * _power(a, d + 1)
                 for a, s, r in zip(columns.T, scales, rates))
    return m0, k_next


def check_oracle_recovery(columns, truth_columns, tol=1e-8):
    """Columns recovered from exact tensors match the truth up to sign and
    permutation."""
    _, errors = match_columns(columns, truth_columns, signed=True)
    worst = float(errors.max())
    if not worst < tol:
        return [f"oracle recovery error {worst:.3e} >= {tol:.0e}"]
    return []


def check_sampler_law(rows, means, weights, covariance, lam, tau, z=6.0):
    """Lifted Poissonized rows against their exact law.

    X = sum_{j<=R} (Z_j, 1) + eta(tau - R) equals a compound Poisson of the
    lifted means plus N(0, tau Sigma'), so the last coordinate is an integer
    <= tau, E X = lam sum w_i mu'_i, the covariance is
    lam sum w_i mu'_i mu'_i^T + tau Sigma' and the third cumulant is
    lam sum w_i mu'_i^(x3).  Each estimate must lie within z standard errors,
    estimated from the rows themselves.
    """
    rows = np.asarray(rows, dtype=float)
    count, dim = rows.shape
    errors = []
    last = rows[:, -1]
    if np.any(last != np.round(last)) or last.max() > tau or last.min() < 0:
        errors.append("last lifted coordinate is not an integer in [0, tau]")
    lifted = np.vstack([np.asarray(means, dtype=float), np.ones((1, len(weights)))])
    w = np.asarray(weights, dtype=float)
    cov = np.zeros((dim, dim))
    cov[:-1, :-1] = covariance
    mean = lam * lifted @ w
    second = lam * (lifted * w) @ lifted.T + tau * cov
    centered = rows - rows.mean(axis=0)

    def within(name, samples, expected):
        estimate = float(samples.mean())
        se = float(samples.std()) / math.sqrt(count)
        if not abs(estimate - expected) <= z * se + 1e-12 * max(1.0, abs(expected)):
            errors.append(f"{name}: {estimate:.6g} vs exact {expected:.6g} (se {se:.2g})")

    for i in range(dim):
        within(f"mean[{i}]", rows[:, i], mean[i])
        for j in range(i, dim):
            pair = centered[:, i] * centered[:, j]
            within(f"k2[{i},{j}]", pair, second[i, j])
            for k in range(j, dim):
                within(f"k3[{i},{j},{k}]", pair * centered[:, k],
                       lam * float(np.sum(w * lifted[i] * lifted[j] * lifted[k])))
    return errors


def scalar_cumulant(y, order):
    """Plug-in cumulant of scalar samples: moments about the sample mean,
    then c_r = m_r - sum_{j<r} C(r-1, j-1) c_j m_{r-j}."""
    z = np.asarray(y, dtype=float) - float(np.mean(y))
    moments = [float(np.mean(z**r)) for r in range(1, order + 1)]
    cums = []
    for r in range(1, order + 1):
        value = moments[r - 1]
        for j in range(1, r):
            value -= math.comb(r - 1, j - 1) * cums[j - 1] * moments[r - j - 1]
        cums.append(value)
    return cums[-1]


def contract(flat, dim, u):
    """Full contraction of a flattened order-l tensor with u^(x l)."""
    value = np.asarray(flat, dtype=float)
    while value.size > 1:
        value = value.reshape(-1, dim) @ u
    return float(value[0])


def check_projection(flat, dim, order, rows, u, rel_tol=1e-11):
    """Projection identity: <kappa_l, u^(x l)> is the plug-in cumulant of the
    projected rows.  It holds exactly at any N, so it checks every entry an
    order-l assembly touches; the tolerance is relative to the l-th absolute
    central moment of the projection, which bounds each rounding term."""
    y = np.asarray(rows, dtype=float) @ u
    mine = scalar_cumulant(y, order)
    theirs = contract(flat, dim, u)
    scale = float(np.mean(np.abs(y - y.mean()) ** order))
    if not abs(theirs - mine) <= rel_tol * scale:
        return [f"order {order}: contraction {theirs:.12g} != projected cumulant "
                f"{mine:.12g} (scale {scale:.3g})"]
    return []


# ---------------------------------------------------------------------------
# hardness
# ---------------------------------------------------------------------------


def _mixture_density(points, centers, weights):
    """Density of a unit-covariance Gaussian mixture at the given points."""
    dim = centers.shape[1]
    sq = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * sq) @ weights / (2.0 * math.pi) ** (0.5 * dim)


def l1_on_grid(pair, spacing, margin=12.0):
    """(∫|p - q|, ∫ 2 (p - q)^2 / (p + q)) by the midpoint rule on a 1-D or
    2-D grid reaching ``margin`` standard deviations past every center.  The
    second integral is the second moment of the Monte Carlo ratio
    |p - q| / ((p + q) / 2) under (p + q) / 2, which gives the standard error
    of the CLI's estimate."""
    cp = np.asarray(pair["centers_p"], dtype=float)
    cq = np.asarray(pair["centers_q"], dtype=float)
    wp = np.asarray(pair["weights_p"], dtype=float)
    wq = np.asarray(pair["weights_q"], dtype=float)
    centers = np.vstack([cp, cq])
    axes = [np.arange(lo - margin, hi + margin, spacing) + 0.5 * spacing
            for lo, hi in zip(centers.min(axis=0), centers.max(axis=0))]
    if len(axes) > 2:
        raise ValueError("grid integration is for dimension 1 or 2")
    cell = spacing ** len(axes)
    lead = axes[0]
    rest = axes[1][:, None] if len(axes) == 2 else np.zeros((1, 0))
    l1 = second = 0.0
    per_block = max(1, _BLOCK // max(len(rest), 1))
    for start in range(0, lead.size, per_block):
        block = lead[start:start + per_block]
        pts = np.column_stack([np.repeat(block, len(rest)), np.tile(rest, (block.size, 1))])
        p = _mixture_density(pts, cp, wp)
        q = _mixture_density(pts, cq, wq)
        l1 += float(np.abs(p - q).sum()) * cell
        total = p + q
        safe = np.where(total > 0, total, 1.0)
        second += float(np.sum(np.where(total > 0, 2.0 * (p - q) ** 2 / safe, 0.0))) * cell
    return l1, second


def check_pair(pair, dimension, l1_samples=200_000, z=6.0):
    """A written mixture pair: equal dimension, positive weights summing to 1,
    and an L1 distance that agrees with a grid integration of |p - q| (to
    rounding in 1-D, within z Monte Carlo standard errors in 2-D)."""
    errors = []
    for side in ("p", "q"):
        centers = np.asarray(pair[f"centers_{side}"], dtype=float)
        weights = np.asarray(pair[f"weights_{side}"], dtype=float)
        if centers.ndim != 2 or centers.shape[1] != dimension:
            errors.append(f"centers_{side} are not points in dimension {dimension}")
            return errors
        if weights.shape != (centers.shape[0],) or np.any(weights <= 0):
            errors.append(f"weights_{side} are not positive, one per center")
        if not abs(float(weights.sum()) - 1.0) <= 1e-12:
            errors.append(f"weights_{side} sum to {weights.sum()!r}")
    if errors:
        return errors
    reported = float(pair["l1_distance"])
    if dimension == 1:
        mine, _ = l1_on_grid(pair, 1e-3)
        tol = 1e-6 * mine + 1e-13
    else:
        mine, second = l1_on_grid(pair, 0.02)
        se = math.sqrt(max(second - mine * mine, 0.0) / l1_samples)
        tol = z * se + 1e-4 * mine
    if not abs(reported - mine) <= tol:
        errors.append(f"l1_distance {reported:.6e} vs grid {mine:.6e} (tolerance {tol:.2e})")
    return errors


def cross_min_distance(pair):
    cp = np.asarray(pair["centers_p"], dtype=float)
    cq = np.asarray(pair["centers_q"], dtype=float)
    return float(np.sqrt(((cp[:, None, :] - cq[None, :, :]) ** 2).sum(axis=2).min()))


def check_decay(h_values, pairs, rows):
    """Decay mode: centers at least h/2 apart and every halving of h shrinks
    the L1 gap at least tenfold."""
    errors = []
    gaps = []
    for h, pair, row in zip(h_values, pairs, rows):
        gap = cross_min_distance(pair)
        if not gap >= h / 2.0:
            errors.append(f"h={h}: centers {gap:.4g} apart, below h/2")
        if float(row["l1_distance"]) != float(pair["l1_distance"]):
            errors.append(f"h={h}: records.csv and pair file disagree on l1_distance")
        gaps.append(float(pair["l1_distance"]))
    for (h0, g0), (h1, g1) in zip(zip(h_values, gaps), zip(h_values[1:], gaps[1:])):
        if h1 != h0 / 2.0 or not g1 <= g0 / 10.0:
            errors.append(f"L1 gap {g0:.3e} at h={h0} -> {g1:.3e} at h={h1}: not a tenfold drop")
    return errors


def check_pigeonhole(rows, pairs, instances):
    """Every instance built, with equal component counts on both sides."""
    errors = []
    if len(rows) != instances or len(pairs) != instances:
        return [f"{len(rows)} rows and {len(pairs)} pair files for {instances} instances"]
    for row, pair in zip(rows, pairs):
        if row["built"] != "true" or row["equal_counts"] != "true":
            errors.append(f"instance {row['instance']}: built={row['built']} equal={row['equal_counts']}")
        if len(pair["centers_p"]) != len(pair["centers_q"]):
            errors.append(f"instance {row['instance']}: unequal component counts")
    return errors


# ---------------------------------------------------------------------------
# smoothed
# ---------------------------------------------------------------------------

# Criterion 8 of the acceptance battery: at least 49 of 50 trials per family.
SMOOTHED_PASS_RATE = 49 / 50


def check_smoothed(rows, summary, families, trials, n, sigma):
    """`smoothed` output: odot_dominates, pass flags that match sigma^2/n^7,
    and a pass count per family of at least criterion 8's rate."""
    errors = []
    if not summary.get("odot_dominates"):
        errors.append("odot_dominates is not true")
    bound = sigma * sigma / float(n) ** 7
    passed = {family: 0 for family in families}
    if len(rows) != trials * len(families):
        errors.append(f"{len(rows)} rows for {trials} trials x {len(families)} families")
    for row in rows:
        kr2 = float(row["sigma_min_kr2"])
        if not math.isclose(float(row["bound"]), bound, rel_tol=1e-12):
            errors.append(f"bound {row['bound']} != sigma^2/n^7 = {bound!r}")
        if (row["passed"] == "true") != (kr2 > bound):
            errors.append(f"passed={row['passed']} contradicts sigma_min_kr2 {kr2:.3e}")
        if float(row["sigma_min_kr_odot2"]) < kr2:
            errors.append("the full square fell below the multilinear one")
        passed[row["family"]] += row["passed"] == "true"
    for family, count in passed.items():
        if count < math.ceil(SMOOTHED_PASS_RATE * trials):
            errors.append(f"{family}: {count}/{trials} passed, below criterion 8's rate")
    return errors

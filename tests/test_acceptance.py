"""Acceptance battery: one desk-scale check per advertised guarantee.

Each criterion prints a single [PASS]/[FAIL] verdict line (bypassing pytest
capture so the line always lands in the run log) and enforces its runtime
budget.  All randomness is seeded; the Monte Carlo tolerances were picked
with at least a 2x margin against measured values.
"""

import csv
import json
import time

import numpy as np
import scipy.stats

from poissonize import (
    FAMILIES,
    SeededRng,
    align_columns,
    analytic_ica_cumulant,
    build_close_pair,
    derive_bounds,
    embed_as_ica,
    empirical_cumulant,
    empirical_poisson_tv,
    equispaced_interleaved,
    khatri_rao_power,
    learn_means,
    pigeonhole_pair,
    poisson_split,
    random_points,
    recover_from_cumulants,
    recover_weights,
    run_smoothed,
    rv_check,
    sample_approx_ica_batch,
    sigma_min,
    truncated_poisson_tv,
)
from poissonize.cli import main as cli_main
from poissonize.cumulants import MomentAccumulator, assemble_flat_cumulant


def _verdict(capsys, num, budget, started, ok, detail):
    elapsed = time.monotonic() - started
    ok = bool(ok) and elapsed < budget
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_poisson_splitting(capsys):
    started = time.monotonic()
    lam, probs, total = 5.0, np.array([0.2, 0.3, 0.5]), 100_000
    split = poisson_split(lam, probs, SeededRng(1), total)
    tvs = [empirical_poisson_tv(split[:, i], p * lam) for i, p in enumerate(probs)]
    corr = np.corrcoef(split, rowvar=False)
    rhos = [abs(corr[i, j]) for i in range(3) for j in range(i + 1, 3)]
    _verdict(
        capsys,
        1, 5.0, started,
        max(tvs) < 0.02 and max(rhos) < 0.02,
        f"split marginals max TV {max(tvs):.4f} < 0.02, max |rho| {max(rhos):.4f} < 0.02",
    )


def test_criterion_02_cumulant_correctness(capsys):
    started = time.monotonic()
    rng = SeededRng(2)
    pois = rng.poisson(2.0, size=1_000_000).astype(float)
    rel3 = abs(empirical_cumulant(pois, 3) - 2.0) / 2.0
    rel4 = abs(empirical_cumulant(pois, 4) - 2.0) / 2.0
    gauss4 = abs(empirical_cumulant(rng.standard_normal(1_000_000), 4))
    _verdict(
        capsys,
        2, 10.0, started,
        rel3 < 0.1 and rel4 < 0.1 and gauss4 < 0.05,
        f"Poisson(2) cum3/cum4 rel err {rel3:.3f}/{rel4:.3f} < 0.1, "
        f"Gaussian cum4 {gauss4:.4f} < 0.05",
    )


def test_criterion_03_analytic_cumulant_oracle(capsys):
    started = time.monotonic()
    rng = SeededRng(3)
    worst = 0.0
    for n, m in ((2, 3), (3, 5), (4, 6)):
        mixing = rng.standard_normal((n, m))
        cums = rng.uniform(0.5, 2.0, size=m)
        for ell in (3, 4):
            brute = np.zeros((n,) * ell)
            for j in range(m):
                term = np.array(cums[j])
                for _ in range(ell):
                    term = np.multiply.outer(term, mixing[:, j])
                brute += term
            flat = analytic_ica_cumulant(mixing, cums, ell).data
            worst = max(worst, float(np.abs(flat - brute.ravel()).max()))
    _verdict(
        capsys,
        3, 1.0, started,
        worst < 1e-12,
        f"analytic vs brute-force tensors, max abs gap {worst:.2e} < 1e-12",
    )


def test_criterion_04_exact_cumulant_ica(capsys):
    started = time.monotonic()
    rng = SeededRng(4)
    worst = 0.0
    done = 0
    while done < 20:
        a = rng.standard_normal((4, 6))
        a /= np.linalg.norm(a, axis=0)
        if sigma_min(khatri_rao_power(a, 2)) <= 1e-3:
            continue
        rates = rng.uniform(1.0, 3.0, size=6)
        m0 = analytic_ica_cumulant(a, rates, 4).as_matrix()
        k5 = analytic_ica_cumulant(a, rates, 5).data
        est = recover_from_cumulants(m0, k5, 6, 4, rng)
        _, _, err = align_columns(est.columns, a)
        worst = max(worst, err)
        done += 1
    _verdict(
        capsys,
        4, 10.0, started,
        worst < 1e-6,
        f"20 oracle recoveries (n=4, m=6, d=4), worst aligned error {worst:.2e} < 1e-6",
    )


def test_criterion_05_end_to_end_learning(tmp_path, capsys):
    started = time.monotonic()
    config = {
        "generator": {},
        "d": 4,
        "delta": 0.1,
        "eps": 0.25,
        "samples": 10_000_000,
        "tau": "certified",
        "trials": 10,
        "seed": 0,
        "with_weights": False,
    }
    cfg = tmp_path / "learn.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    status = cli_main(["learn", "--config", str(cfg), "--out", str(out)])
    with open(out / "records.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    gaps = [float(r["tv_gap"]) for r in rows]
    errors = [float(r["aligned_error"]) for r in rows if r["aligned_error"]]
    good = sum(1 for e in errors if e < 0.3)
    _verdict(
        capsys,
        5, 600.0, started,
        status == 0 and max(gaps) < 0.05 and good >= 8,
        f"10 runs at N=1e7 (n=m=6), tv gap certified (max {max(gaps):.1e} < delta/2), "
        f"{good}/10 runs with aligned mean error < 0.3 "
        f"(errors {', '.join(f'{e:.3f}' for e in sorted(errors))})",
    )


def test_criterion_06_weight_recovery(capsys):
    started = time.monotonic()
    rng = SeededRng(6)
    a = rng.standard_normal((3, 3))
    w = np.array([0.2, 0.5, 0.3])
    exact = recover_weights(a, 4.0, analytic_ica_cumulant(a, 4.0 * w, 3))
    exact_err = float(np.abs(exact - w).max())

    a_emp = rng.standard_normal((3, 3))
    a_emp /= np.linalg.norm(a_emp, axis=0)
    lam, total = 3.0, 1_000_000
    s = np.column_stack([rng.poisson(lam * wi, size=total) for wi in w]).astype(float)
    x = s @ a_emp.T + 0.3 * rng.standard_normal((total, 3))
    acc = MomentAccumulator(3, 3, shift=x[:100_000].mean(axis=0))
    for lo in range(0, total, 1 << 17):
        acc.update(x[lo : lo + (1 << 17)])
    emp = recover_weights(a_emp, lam, assemble_flat_cumulant(acc, 3))
    emp_err = float(np.abs(emp - w).max())
    _verdict(
        capsys,
        6, 60.0, started,
        exact_err < 1e-8 and emp_err < 0.05,
        f"exact path err {exact_err:.2e} < 1e-8, "
        f"empirical path (n=m=3, N=1e6) err {emp_err:.4f} < 0.05",
    )


def test_criterion_07_truncation_formula(capsys):
    started = time.monotonic()
    worst = 0.0
    for lam in range(1, 9):
        ks = np.arange(int(lam * 20 + 400))
        pmf = scipy.stats.poisson.pmf(ks, lam)
        beyond = float(scipy.stats.poisson.sf(ks[-1], lam))
        for tau in range(0, 21):
            kept = np.zeros_like(pmf)
            kept[: tau + 1] = pmf[: tau + 1] / pmf[: tau + 1].sum()
            brute = 0.5 * (float(np.abs(kept - pmf).sum()) + beyond)
            worst = max(worst, abs(truncated_poisson_tv(float(lam), tau) - brute))
    _verdict(
        capsys,
        7, 1.0, started,
        worst < 1e-12,
        f"truncation TV identity on (lam, tau) in 1..8 x 0..20, max gap {worst:.2e} < 1e-12",
    )


def test_criterion_08_smoothed_conditioning(capsys):
    started = time.monotonic()
    results = run_smoothed(FAMILIES, 10, 0.1, 50, SeededRng(7))
    passed = {
        family: sum(1 for r in results if r.family == family and r.passed)
        for family in FAMILIES
    }
    _verdict(
        capsys,
        8, 120.0, started,
        all(count >= 49 for count in passed.values()),
        "sigma_min((M+N)^(-:2)) > 1e-9 in "
        + ", ".join(f"{passed[f]}/50 ({f})" for f in FAMILIES),
    )


def test_criterion_09_rudelson_vershynin(capsys):
    started = time.monotonic()
    rng = SeededRng(9)
    holds = [rv_check(rng.standard_normal((6, 10)))["holds"] for _ in range(100)]
    _verdict(
        capsys,
        9, 5.0, started,
        all(holds),
        f"leave-one-out bound held on {sum(holds)}/100 random 6x10 matrices",
    )


def test_criterion_10_hardness_decay_and_pigeonhole(capsys):
    started = time.monotonic()
    gaps, center_ok = [], True
    for h in (0.1, 0.05, 0.025):
        pair = build_close_pair(*equispaced_interleaved(h))
        gaps.append(pair.l1_distance)
        center_ok = center_ok and pair.min_center_distance >= h / 2.0
    floor = 1e-12
    decay_ok = all(
        after < before / 10.0 or before < floor
        for before, after in zip(gaps, gaps[1:])
    )
    root = SeededRng(10)
    equal_counts = 0
    for index in range(10):
        rng = root.derive(index)
        pair = pigeonhole_pair(random_points(100, 1, rng), rng)
        equal_counts += pair.p.m == pair.q.m
    _verdict(
        capsys,
        10, 120.0, started,
        decay_ok and center_ok and equal_counts == 10,
        f"L1 gaps {', '.join(f'{g:.2e}' for g in gaps)} (>=10x per halving), "
        f"centers >= h/2, pigeonhole equal counts {equal_counts}/10 (k=5)",
    )


def test_criterion_11_ica_embedding(capsys):
    started = time.monotonic()
    rng = SeededRng(11)
    pair = pigeonhole_pair(random_points(16, 1, rng), rng)
    d_p, d_q = embed_as_ica(pair)
    counts_match = d_p.rates.size == d_q.rates.size
    sums_ok = (
        abs(d_p.rates.sum() - d_p.lam) < 1e-9
        and abs(d_q.rates.sum() - d_q.lam) < 1e-9
        and d_p.lam == float(pair.p.m)
    )
    min_rate = min(float(d_p.rates.min()), float(d_q.rates.min()))
    draws = 0
    for desc in (d_p, d_q):
        tail = truncated_poisson_tv(desc.lam, desc.tau)
        assert tail < 1e-9
        sample = sample_approx_ica_batch(
            desc.to_gmm(), desc.lam, desc.tau, rng, 50_000
        )
        draws += sample.shape[0]
    _verdict(
        capsys,
        11, 60.0, started,
        counts_match and sums_ok and min_rate > 0.0 and draws == 100_000,
        f"descriptors match ({d_p.rates.size} sources each), rates sum to lam="
        f"{d_p.lam:.0f}, min rate {min_rate:.3f} > 0, 2x50k draws at certified tau "
        f"({d_p.tau}) without failure",
    )

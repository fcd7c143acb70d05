"""Acceptance suite: one test per contract criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The Monte Carlo populations are seeded, so every run checks the exact
same realizations.
"""

import math
import time

import numpy as np
import pytest

from oia.channel import draw_trials
from oia.cli import cli_main
from oia.errors import RedrawError
from oia.experiments import REPLACEMENT_BASE, ExperimentGrid, run_grid
from oia.kernels import herm
from oia.primary import design_primary
from oia.secondary import SecondaryDesign, design_secondary
from oia.waterfill import waterfill

from oracles import (
    allocation_rate,
    complex_gaussian,
    derive_stream,
    grid_search_rate,
    interference_covariance,
    residual_interference,
    secondary_split_oracle,
)

MASTER_SEED = 20260811


def report(criterion: str, problems: list):
    status = "PASS" if not problems else "FAIL"
    print(f"[acceptance] {criterion}: {status}")
    assert not problems, f"{criterion}: " + "; ".join(str(p) for p in problems[:10])


def full_design(nt, grid_index, trial_index, p_max, master_seed=MASTER_SEED):
    """Both links of one seeded square trial, redrawing on rank rejections.

    ``v2_raw`` is the optimal scheme's precoder, which is the unscaled one,
    ``active`` its nonzero columns, and ``q`` the interference covariance
    the secondary receiver whitens.
    """
    for attempt in range(100):
        idx = trial_index if attempt == 0 else trial_index + attempt * REPLACEMENT_BASE
        stream = derive_stream(master_seed, grid_index, idx)
        h11, h12, h21, h22 = (complex_gaussian(nt, nt, stream) for _ in range(4))
        try:
            primary = design_primary(h11, p_max)
            uni, opt = design_secondary(primary, h12, h21, h22, p_max)
        except RedrawError:
            continue
        return dict(nt=nt, p_max=p_max, h12=h12, h22=h22, primary=primary,
                    v2_raw=opt.v2, active=primary.p1_bar > 0.0,
                    q=interference_covariance(h21, primary.svd.v, primary.p1.powers),
                    uni=uni, opt=opt)
    raise RuntimeError("trial rejected repeatedly")


def cell_designs(nt, grid_index, trials, p_max):
    """``full_design`` of trials 0..trials-1 of a square cell, drawn and designed as stacks.

    Rejected trials are redrawn at the same replacement indices, and every
    stacked stage gives a trial the numbers it gets on its own, so each
    record holds the per-trial path's numbers. A record keeps the primary's
    ``u1``, ``lam`` and ``p1`` (its powers) and the schemes' designs.
    """
    indices = np.arange(trials)
    redraws = np.zeros(trials, dtype=np.int64)
    chans = draw_trials(nt, nt, MASTER_SEED, grid_index, indices)
    while True:
        h11, h12, h21, h22 = np.moveaxis(chans, 1, 0)
        try:
            primary = design_primary(h11, p_max)
            designs = design_secondary(primary, h12, h21, h22, p_max)
            break
        except RedrawError as exc:
            redo = np.flatnonzero(exc.rejected)
            redraws[redo] += 1
            if redraws.max() == 100:
                raise RuntimeError("trial rejected repeatedly") from None
            chans[redo] = draw_trials(nt, nt, MASTER_SEED, grid_index,
                                      indices[redo] + redraws[redo] * REPLACEMENT_BASE)
    return [dict(p_max=p_max, h12=h12[k], u1=primary.svd.u[k], lam=primary.svd.sigma[k],
                 p1=primary.p1.powers[k], unused_count=primary.unused_count[k],
                 **{name: SecondaryDesign(design.v2[k], design.p2[k], design.rate[k])
                    for name, design in zip(("uni", "opt"), designs)})
            for k in range(trials)]


@pytest.fixture(scope="module")
def design_pool():
    """10^4 seeded square trials: nt in 2..6 crossed with four SNR points, one stack per cell."""
    start = time.perf_counter()
    records = []
    cell = 0
    for nt in (2, 3, 4, 5, 6):
        for snr_db in (-10.0, 0.0, 10.0, 20.0):
            records += cell_designs(nt, cell, 500, 10.0 ** (snr_db / 10.0))
            cell += 1
    return {"records": records, "build_seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def fig_rate_rows():
    """nt = nr = 3 sweep over -20..40 dB (step 2), 1000 trials per cell."""
    grid = ExperimentGrid(nt=3, nr=3, snr_db_list=tuple(range(-20, 41, 2)),
                          trials=1000, master_seed=MASTER_SEED)
    return run_grid([grid])


def test_c01_zero_interference_guarantee(design_pool):
    problems = []
    start = time.perf_counter()
    for k, rec in enumerate(design_pool["records"]):
        bound = 1e-9 * math.sqrt(rec["p_max"])
        for scheme in ("uni", "opt"):
            design = rec[scheme]
            metric = residual_interference(rec["u1"], rec["h12"],
                                           design.v2, design.p2, rec["p1"] > 0.0)
            if metric > bound:
                problems.append(f"trial {k} {scheme}: residual {metric:.3e} > {bound:.3e}")
    elapsed = design_pool["build_seconds"] + (time.perf_counter() - start)
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s target")
    print(f"[acceptance] criterion 1 checked 10^4 trials in {elapsed:.1f}s")
    report("criterion 1 (zero interference on both schemes)", problems)


def test_c02_waterfill_kkt_suite():
    rng = np.random.default_rng(424242)
    problems = []
    for k in range(1000):
        n = int(rng.integers(1, 5))
        inverse_gains = np.exp(rng.normal(0.0, 1.2, n))
        budget = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        alloc = waterfill(inverse_gains, budget)
        if abs(alloc.powers.sum() - budget) > 1e-9 * budget:
            problems.append(f"set {k}: budget violated")
        level = alloc.water_level
        for power, gain in zip(alloc.powers, inverse_gains):
            if power > 0 and abs(power - (level - gain)) > 1e-9 * level:
                problems.append(f"set {k}: active-mode slackness violated")
            if power == 0 and gain < level - 1e-9 * level:
                problems.append(f"set {k}: inactive mode below the water level")
        fast = allocation_rate(alloc.powers, inverse_gains)
        reference = grid_search_rate(inverse_gains, budget)
        if abs(fast - reference) > 1e-4:
            problems.append(f"set {k}: rate {fast:.6f} vs oracle {reference:.6f}")
    report("criterion 2 (water-filling KKT suite, 10^3 gain sets)", problems)


def test_c03_analytic_walkthrough():
    problems = []
    eye = np.eye(2, dtype=complex)
    primary = design_primary(np.diag([2.0, 1.0]), p_max=0.5)
    if not np.array_equal(primary.p1.powers, [0.5, 0.0]):
        problems.append(f"primary powers {primary.p1.powers}")
    if primary.p1.water_level != 0.75:
        problems.append(f"water level {primary.p1.water_level}")
    if not np.array_equal(primary.p1_bar, [0.0, 0.25]):
        problems.append(f"complement {primary.p1_bar}")
    if primary.unused_count != 1:
        problems.append(f"unused count {primary.unused_count}")
    uni, opt = design_secondary(primary, eye, eye, eye, 0.5)
    expected = math.log2(1.5)
    if abs(uni.rate - expected) > 1e-9:
        problems.append(f"uniform rate {uni.rate}")
    if abs(opt.rate - expected) > 1e-9:
        problems.append(f"optimal rate {opt.rate}")
    report("criterion 3 (analytic walkthrough chain)", problems)


def test_c04_optimal_dominates_uniform(design_pool):
    problems = []
    for k, rec in enumerate(design_pool["records"]):
        gap = rec["opt"].rate - rec["uni"].rate
        if gap < -1e-9:
            problems.append(f"trial {k}: optimal below uniform by {-gap:.3e}")
        if rec["unused_count"] == 1 and abs(gap) > 1e-6:
            problems.append(f"trial {k}: single-mode gap {gap:.3e}")
    report("criterion 4 (optimal >= uniform on 10^4 trials)", problems)


def test_c05_transformed_domain_oracle():
    problems = []
    found = 0
    trial = 0
    p_max = 1.5
    while found < 200 and trial < 5000:
        rec = full_design(4, 900, trial, p_max)
        trial += 1
        if rec["primary"].unused_count != 2:
            continue
        found += 1
        reference = secondary_split_oracle(rec["v2_raw"], rec["active"], rec["q"],
                                           rec["h22"], p_max, steps=1000)
        if abs(rec["opt"].rate - reference) > 1e-3:
            problems.append(
                f"trial {trial}: closed {rec['opt'].rate:.6f} vs oracle {reference:.6f}")
    if found < 200:
        problems.append(f"only found {found} two-mode trials")
    report("criterion 5 (two-mode rate vs grid-search oracle, 200 trials)", problems)


def test_c06_unused_mode_trend():
    snr_grid = (-20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
    grid = ExperimentGrid(nt=4, nr=4, snr_db_list=snr_grid, trials=2000,
                          master_seed=MASTER_SEED)
    rows = run_grid([grid], grid_offset=600)
    problems = []
    for a, b in zip(rows, rows[1:]):
        pooled = math.hypot(a.stderr_unused_modes, b.stderr_unused_modes)
        if b.avg_unused_modes > a.avg_unused_modes + 2.0 * pooled:
            problems.append(
                f"unused modes rose {a.avg_unused_modes:.3f} -> {b.avg_unused_modes:.3f} "
                f"between {a.snr_db} and {b.snr_db} dB")
    if rows[0].avg_unused_modes < 2.5:
        problems.append(f"at -20 dB only {rows[0].avg_unused_modes:.3f} unused modes")
    if rows[-1].avg_unused_modes > 0.5:
        problems.append(f"at 40 dB still {rows[-1].avg_unused_modes:.3f} unused modes")
    # per-realization: unused count never grows with the budget
    rng = np.random.default_rng(MASTER_SEED)
    budgets = np.logspace(-2, 4, 13)
    for k in range(100):
        h11 = complex_gaussian(4, 4, rng)
        for _ in range(3):  # h12, h21, h22 of the same draw
            complex_gaussian(4, 4, rng)
        counts = [design_primary(h11, b).unused_count for b in budgets]
        if any(x < y for x, y in zip(counts, counts[1:])):
            problems.append(f"channel {k}: unused count increased with budget")
    report("criterion 6 (unused-mode trend and exact monotonicity)", problems)


def test_c07_secondary_rate_trend(fig_rate_rows):
    rows = fig_rate_rows
    problems = []
    rates = [row.avg_rate_secondary_optimal for row in rows]
    peak = max(rates)
    if not (rates[0] < peak and rates[-1] < peak):
        problems.append(f"endpoints {rates[0]:.4f}, {rates[-1]:.4f} not below peak {peak:.4f}")
    peak_snr = rows[int(np.argmax(rates))].snr_db
    by_antennas = {}
    for index, nt in enumerate((2, 4, 6)):
        grid = ExperimentGrid(nt=nt, nr=nt, snr_db_list=(peak_snr,), trials=1000,
                              master_seed=MASTER_SEED)
        by_antennas[nt] = run_grid([grid], grid_offset=700 + index)[0].avg_rate_secondary_optimal
    if not (by_antennas[2] < by_antennas[4] < by_antennas[6]):
        problems.append(f"rates not increasing with antennas: {by_antennas}")
    report("criterion 7 (secondary rate peaks at mid SNR, grows with antennas)", problems)


def test_c08_uniform_vs_optimal_gap(fig_rate_rows):
    snr_grid = tuple(range(-20, 41, 2))
    grid20 = ExperimentGrid(nt=20, nr=20, snr_db_list=snr_grid, trials=1000,
                            master_seed=MASTER_SEED)
    rows20 = run_grid([grid20], grid_offset=800)
    rows3 = fig_rate_rows
    problems = []
    for rows, label in ((rows3, "nt=3"), (rows20, "nt=20")):
        top = rows[-1]
        gap = abs(top.avg_rate_secondary_optimal - top.avg_rate_secondary_uniform)
        pooled = math.hypot(top.stderr_rate_secondary_optimal,
                            top.stderr_rate_secondary_uniform)
        if gap > 3.0 * pooled:
            problems.append(f"{label}: high-SNR gap {gap:.4f} > 3x pooled stderr {pooled:.4f}")
    mid = len(rows3) // 2
    gap3 = rows3[mid].avg_rate_secondary_optimal - rows3[mid].avg_rate_secondary_uniform
    gap20 = rows20[mid].avg_rate_secondary_optimal - rows20[mid].avg_rate_secondary_uniform
    if not gap20 > gap3:
        problems.append(f"mid-SNR gap {gap20:.4f} (nt=20) not above {gap3:.4f} (nt=3)")
    report("criterion 8 (schemes converge at high SNR, gap widens with antennas)", problems)


def test_c09_cli_determinism_across_workers(tmp_path):
    outputs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "8")):
        out = tmp_path / name
        code = cli_main(["fig-compare", "--trials", "200", "--seed", "1",
                         "--out", str(out), "--workers", workers])
        assert code == 0
        outputs.append(out.read_bytes())
    problems = []
    if outputs[0] != outputs[1]:
        problems.append("repeat run differs")
    if outputs[0] != outputs[2]:
        problems.append("8-worker run differs from single-worker run")
    report("criterion 9 (byte-identical CSV across runs and worker counts)", problems)


def test_c10_primary_rate_invariance(design_pool):
    problems = []
    for k, rec in enumerate(design_pool["records"][:1000]):
        lam, p1 = rec["lam"], rec["p1"]
        for scheme in ("uni", "opt"):
            design = rec[scheme]
            filtered = herm(rec["u1"]) @ rec["h12"] @ design.v2
            extra = (filtered @ design.p2 @ herm(filtered)).real
            for mode in np.flatnonzero(p1 > 0.0):
                silent = lam[mode] ** 2 * p1[mode]
                loaded = lam[mode] ** 2 * p1[mode] / (
                    1.0 + max(extra[mode, mode], 0.0))
                if abs(silent - loaded) > 1e-9 * silent:
                    problems.append(f"trial {k} {scheme} mode {mode}")
    report("criterion 10 (per-mode primary SINR unchanged by the secondary)", problems)

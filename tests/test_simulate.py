"""Tests for the Monte-Carlo exit-time engine.

Ground truths come from the closed forms: (L^2-x^2)/(sigma^2 d) for the
driftless case and the exact quadrature value elsewhere.  Every stochastic
assertion runs at a fixed seed, so outcomes are deterministic; tolerances
combine the standard error with the known discrete-monitoring bias margin.
"""

import hashlib
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ouexit import (
    DomainError,
    EstimationError,
    ExitProblem,
    McConfig,
    OupParams,
    Scheme,
    estimate_mfet,
    mfet_bm,
    mfet_bounds,
    mfet_exact,
    record_path,
)
from ouexit import simulate
from ouexit.schemes import FULL_DIMENSIONAL
from ouexit.simulate import _run_paths

SEED = 123456789


def _problem(d, theta, big_l, x=0.0, sigma=1.0):
    return ExitProblem(OupParams(theta=theta, sigma=sigma, d=d), L=big_l, x=x)


class TestDeterminism:
    def test_estimates_are_bitwise_reproducible(self):
        p = _problem(4, 0.5, 2.0)
        cfg = McConfig(n_paths=64, dt=1e-3, seed=SEED)
        assert estimate_mfet(p, cfg) == estimate_mfet(p, cfg)

    def test_single_path_matches_batch_member(self):
        # per-path streams are keyed by path index, so one path simulated
        # alone must reproduce the same path inside a batch exactly
        p = _problem(8, 0.0, 2.0)
        cfg = McConfig(n_paths=40, dt=1e-3, seed=SEED)
        batch = _run_paths(p, cfg, list(range(40)))
        for i in (0, 7, 39):
            assert _run_paths(p, cfg, [i])[0] == batch[i]

    def test_regrouping_with_different_buffer_sizes(self):
        # a large full-dimensional batch buffers its streams in much smaller
        # blocks than a lone path does; exit times must not notice
        p = _problem(16, 0.3, 2.0)
        cfg = McConfig(n_paths=800, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EULER)
        batch = _run_paths(p, cfg, list(range(800)))
        for i in (0, 123, 799):
            assert _run_paths(p, cfg, [i])[0] == batch[i]

    def test_seed_changes_the_answer(self):
        p = _problem(4, 0.5, 2.0)
        a = estimate_mfet(p, McConfig(n_paths=64, dt=1e-3, seed=1))
        b = estimate_mfet(p, McConfig(n_paths=64, dt=1e-3, seed=2))
        assert a.mean != b.mean

    def test_full_schemes_in_one_dimension_keep_paths_apart(self):
        # at d = 1 a path's state is still a row of one coordinate; a batch
        # must not mix its paths, so each member matches its lone run and the
        # mean hits the Brownian truth 1.0
        p = _problem(1, 0.0, 1.0)
        for scheme in (Scheme.FULL_EULER, Scheme.FULL_EXACT):
            cfg = McConfig(n_paths=400, dt=1e-3, seed=7, scheme=scheme)
            batch = _run_paths(p, cfg, list(range(400)))
            for i in (0, 5, 399):
                assert _run_paths(p, cfg, [i])[0] == batch[i]
            est = estimate_mfet(p, cfg)
            assert abs(est.mean - 1.0) <= 3.0 * est.std_err + 0.05

    def test_exact_scheme_equals_euler_at_zero_drift(self):
        # with theta = 0 both full schemes reduce to the same Brownian
        # update, bitwise
        p = _problem(6, 0.0, 2.0)
        a = estimate_mfet(p, McConfig(n_paths=50, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EULER))
        b = estimate_mfet(p, McConfig(n_paths=50, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EXACT))
        assert a.mean == b.mean


class TestBoundaryAndValidation:
    def test_boundary_start_exits_immediately(self):
        p = _problem(3, 0.4, 1.5, x=1.5)
        for scheme in Scheme:
            cfg = McConfig(n_paths=4, dt=1e-2, seed=SEED, scheme=scheme)
            assert _run_paths(p, cfg, [0])[0] == 0.0

    def test_single_boundary_path_estimate(self):
        p = _problem(3, 0.4, 1.5, x=1.5)
        est = estimate_mfet(p, McConfig(n_paths=1, dt=1e-2, seed=SEED))
        assert (est.mean, est.std_err) == (0.0, 0.0)
        assert est.n_exited == 1 and est.n_censored == 0

    def test_path_index_range_checked(self):
        p = _problem(3, 0.4, 1.5)
        cfg = McConfig(n_paths=4, dt=1e-2, seed=SEED)
        with pytest.raises(DomainError):
            record_path(p, cfg, 4)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0, dt=1e-3)
        with pytest.raises(DomainError):
            McConfig(n_paths=1, dt=-1e-3)
        with pytest.raises(DomainError):
            McConfig(n_paths=1, dt=1e-3, scheme="nonsense")
        with pytest.raises(DomainError):
            McConfig(n_paths=1, dt=1e-3, t_max=1e-4)
        with pytest.raises(DomainError):
            McConfig(n_paths=1, dt=1e-3, seed=-1)

    def test_horizon_capped_at_2_53_steps(self):
        with pytest.raises(DomainError, match="1.8e\\+16 steps"):
            McConfig(n_paths=1, dt=1.0, t_max=2.0**54)
        assert McConfig(n_paths=1, dt=1.0, t_max=2.0**53).t_max == 2.0**53

    def test_default_horizon_is_million_steps(self):
        cfg = McConfig(n_paths=1, dt=1e-3)
        assert cfg.t_max == pytest.approx(1e3)


class TestAgainstClosedForms:
    def test_brownian_d8_upward_monitoring_bias(self):
        # truth 4/8 = 0.5; discrete monitoring can only delay detected exits
        p = _problem(8, 0.0, 2.0)
        cfg = McConfig(n_paths=2000, dt=1e-4, seed=SEED, scheme=Scheme.FULL_EXACT)
        est = estimate_mfet(p, cfg)
        assert est.n_censored == 0
        assert 0.5 <= est.mean <= 0.525
        assert est.mean >= 0.5 - 3.0 * est.std_err

    def test_brownian_high_dimension(self):
        # truth 2.5^2/1000 = 0.00625
        p = _problem(1000, 0.0, 2.5)
        est = estimate_mfet(p, McConfig(n_paths=500, dt=1e-5, seed=SEED))
        truth = mfet_bm(p)
        assert abs(est.mean - truth) <= 3.0 * est.std_err + 0.05 * truth

    def test_scheme_agreement_and_bound_bracket(self):
        # all three d-capable schemes agree with each other and with the
        # exact value at (sigma, theta, d, L) = (1, 0.5, 4, 4)
        p = _problem(4, 0.5, 4.0)
        exact = mfet_exact(p)
        b = mfet_bounds(p)
        estimates = {}
        for scheme in (Scheme.SQUARED_RADIAL_EULER, Scheme.FULL_EULER, Scheme.FULL_EXACT):
            est = estimate_mfet(p, McConfig(
                n_paths=1000, dt=1e-3, seed=SEED, scheme=scheme, t_max=5000.0,
            ))
            assert b.lower_bm <= est.mean <= b.upper_exp
            assert abs(est.mean - exact) <= 3.0 * est.std_err + 0.05 * exact
            estimates[scheme] = est
        pairs = list(estimates.values())
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                combined = math.hypot(pairs[i].std_err, pairs[j].std_err)
                assert abs(pairs[i].mean - pairs[j].mean) <= 3.0 * combined + 0.02 * exact

    def test_radial_scheme_with_bootstrap_matches_truth(self):
        # start at the drift singularity: one squared-radial bootstrap step
        p = _problem(6, 0.3, 2.0)
        exact = mfet_exact(p)
        est = estimate_mfet(p, McConfig(n_paths=600, dt=5e-4, seed=SEED, scheme=Scheme.RADIAL_EULER))
        assert abs(est.mean - exact) <= 3.0 * est.std_err + 0.05 * exact

    def test_reverting_slower_than_brownian_small_d(self):
        # matched seeds couple the comparison; at d=2 the drift effect is large
        cfg = McConfig(n_paths=200, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EULER, t_max=2000.0)
        oup = estimate_mfet(_problem(2, 0.7, 2.5), cfg)
        bm = estimate_mfet(_problem(2, 0.0, 2.5), cfg)
        assert oup.mean > bm.mean


class TestCensoring:
    def test_censored_paths_reported_not_dropped_silently(self):
        # horizon well below the mean exit time (truth 1.0)
        p = _problem(4, 0.0, 2.0)
        est = estimate_mfet(p, McConfig(n_paths=200, dt=1e-3, seed=SEED, t_max=0.25))
        assert est.n_censored > 0
        assert est.n_exited + est.n_censored == 200
        assert est.mean < 0.25  # mean over exited paths only

    def test_all_censored_is_an_error(self):
        p = _problem(2, 0.0, 50.0)  # truth 1250; horizon 2 steps
        with pytest.raises(EstimationError) as exc:
            estimate_mfet(p, McConfig(n_paths=8, dt=1e-3, seed=SEED, t_max=2e-3))
        assert exc.value.n_censored == 8


class TestEstimateShape:
    def test_confidence_interval_brackets_mean(self):
        p = _problem(4, 0.5, 2.0)
        est = estimate_mfet(p, McConfig(n_paths=100, dt=1e-3, seed=SEED))
        assert est.ci95_low <= est.mean <= est.ci95_high
        assert est.std_err >= 0.0
        assert est.dt == 1e-3
        assert est.scheme is Scheme.SQUARED_RADIAL_EULER


class TestRecords:
    def test_recording_takes_one_path(self):
        p = _problem(3, 0.4, 1.5)
        cfg = McConfig(n_paths=2, dt=1e-2, seed=SEED)
        with pytest.raises(DomainError, match="single-path"):
            _run_paths(p, cfg, [0, 1], record=[])

    def test_boundary_start_record(self):
        p = _problem(3, 0.4, 1.5, x=1.5)
        rec = record_path(p, McConfig(n_paths=1, dt=1e-2, seed=SEED), 0)
        assert rec.exited_at == 0.0
        assert list(rec.times) == [0.0]
        assert list(rec.radii) == [1.5]

    def test_trace_contract(self):
        p = _problem(2, 0.7, 2.0)
        cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EULER)
        rec = record_path(p, cfg, 0)
        assert rec.radii[0] == 0.0
        assert np.all(np.diff(rec.times) > 0)
        assert rec.exited_at is not None
        # every radius before the crossing stays inside the ball
        assert np.all(rec.radii[:-1] < 2.0)
        assert rec.radii[-1] >= 2.0
        assert rec.times[-1] == rec.exited_at

    def test_censored_record_has_no_exit(self):
        p = _problem(2, 0.0, 10.0)
        cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, t_max=0.05)
        rec = record_path(p, cfg, 0)
        assert rec.exited_at is None
        assert np.all(rec.radii < 10.0)
        # the start sample plus one per step up to the horizon, none past it
        assert len(rec.times) == 51 and rec.times[-1] == 50 * cfg.dt

    def test_squared_radial_trace_never_negative(self):
        p = _problem(3, 0.9, 1.2)
        cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, scheme=Scheme.SQUARED_RADIAL_EULER)
        rec = record_path(p, cfg, 0)
        assert np.all(rec.radii >= 0.0)
        assert np.all(np.isfinite(rec.radii))

    @pytest.mark.parametrize("t_max", [None, 0.05])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_times_are_the_step_grid(self, scheme, t_max):
        # one sample per step, exited or censored: times are k * dt exactly
        cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, scheme=scheme, t_max=t_max)
        rec = record_path(_problem(3, 0.5, 1.0), cfg, 0)
        n = len(rec.times)
        assert len(rec.radii) == n
        assert rec.times.tobytes() == (np.arange(n) * cfg.dt).tobytes()
        assert rec.times.tobytes() == np.array([k * cfg.dt for k in range(n)]).tobytes()
        assert rec.times[-1] == (cfg.t_max if rec.exited_at is None else rec.exited_at)


@pytest.mark.parametrize("d", [1, 4, 9, 16])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_scalar_hand_off_matches_batch_step(monkeypatch, scheme, d):
    # the numpy batch step run to the end is the reference for the scalar
    # loop that finishes stragglers: exit times and every-step traces agree
    # bitwise, a horizon that censors part of the batch included
    p = _problem(d, 0.5, 1.5)
    cfg = McConfig(n_paths=24, dt=1e-3, seed=SEED, scheme=scheme, t_max=1.5)
    handed_off = _run_paths(p, cfg, list(range(24)))
    rec = record_path(p, cfg, 5)
    monkeypatch.setattr(simulate, "_SCALAR_LOAD", 0)
    assert _run_paths(p, cfg, list(range(24))).tobytes() == handed_off.tobytes()
    ref = record_path(p, cfg, 5)
    assert ref.times.tobytes() == rec.times.tobytes()
    assert ref.radii.tobytes() == rec.radii.tobytes()
    assert ref.exited_at == rec.exited_at

@pytest.fixture
def chunk_hits(monkeypatch):
    """Per batch kernel call after the first, the (paths, c) crossing mask."""
    hits = []
    kernel = simulate._scheme_kernel

    def spied(problem, cfg):
        k = kernel(problem, cfg)

        def spied_step(state, zs, steps):
            state, monitored = k.step(state, zs, steps)
            hits.append(monitored >= k.threshold)
            return state, monitored

        return k._replace(step=spied_step)

    monkeypatch.setattr(simulate, "_scheme_kernel", spied)
    return hits


@pytest.mark.parametrize("theta", [0.5, -0.5])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_chunks_keep_the_bits(monkeypatch, chunk_hits, scheme, theta):
    # one-step chunks are the reference for batches that advance a chunk of
    # steps per kernel call: exit times and every-step records agree
    # bitwise, with exits inside chunks and a horizon that cuts one short
    p = _problem(9, theta, 2.4)
    cfg = McConfig(n_paths=64, dt=1e-3, seed=SEED, scheme=scheme, t_max=0.437)
    chunked = _run_paths(p, cfg, list(range(64)))
    assert any(h.shape[1] > 1 and h[:, :-1].any() for h in chunk_hits)
    widths = [h.shape[1] for h in chunk_hits]
    assert np.isnan(chunked).any() and 1 + sum(widths) == 437
    k, load = 437 - widths[-1], len(chunk_hits[-1]) * (9 if "full" in scheme else 1)
    assert widths[-1] < min(k // 8, simulate._CHUNK // load)
    # full schemes at d = 64 record in batch chunks; some paths exit
    rec_p = _problem(64, theta, 4.6 if theta > 0 else 6.0)
    recs = [record_path(rec_p, cfg, i) for i in range(4)]
    assert {r.exited_at is None for r in recs} == {True, False}
    monkeypatch.setattr(simulate, "_CHUNK", 1)
    chunk_hits.clear()
    assert _run_paths(p, cfg, list(range(64))).tobytes() == chunked.tobytes()
    assert {h.shape[1] for h in chunk_hits} == {1}
    for i, rec in enumerate(recs):
        ref = record_path(rec_p, cfg, i)
        assert ref.exited_at == rec.exited_at
        assert ref.radii.tobytes() == rec.radii.tobytes()


class _Width(int):
    """A _CHUNK that caps each batch chunk at its own value, whatever the live load."""

    def __floordiv__(self, load):
        return int(self)


@pytest.mark.parametrize("scheme", [Scheme.FULL_EULER, Scheme.FULL_EXACT])
def test_chunks_keep_the_bits_across_periods(monkeypatch, chunk_hits, scheme):
    # theta dt = 0.299 gives the running sum periods of 180 (full-euler)
    # and 214 (full-exact) steps: batch chunks straddle a period boundary
    # and start on one, lone-path runs cross them, and every exit time and
    # record keeps the bits of one-step chunks.  Chunks of at most 9 steps,
    # however many paths are live, fix the chunk starts apart from the
    # exits: 72 + 9j after the ramp reaches 180, and 320 + 9j after the
    # block boundary at 320 reaches 428 = 2 * 214
    monkeypatch.setattr(simulate, "_CHUNK", _Width(9))
    theta, dt = 299.0, 1e-3
    a = 1.0 - theta * dt if scheme is Scheme.FULL_EULER else math.exp(-theta * dt)
    period = int(simulate._SPAN / abs(math.log(a)))
    assert period == (180 if scheme is Scheme.FULL_EULER else 214)
    p = _problem(8, theta, 0.21)
    cfg = McConfig(n_paths=64, dt=dt, seed=0, scheme=scheme, t_max=0.437)
    chunked = _run_paths(p, cfg, list(range(64)))
    assert np.isnan(chunked).any() and not np.isnan(chunked).all()
    assert any(h.shape[1] > 1 and h[:, :-1].any() for h in chunk_hits)
    widths = np.array([h.shape[1] for h in chunk_hits])
    starts = 1 + np.cumsum(widths) - widths
    assert 1 + widths.sum() == 437
    assert (starts % period == 0).any() and (starts % period + widths > period).any()
    # a censored d = 64 record takes all 437 steps in batch chunks
    rec_p = _problem(64, theta, 0.6)
    rec = record_path(rec_p, cfg, 0)
    assert rec.exited_at is None
    monkeypatch.setattr(simulate, "_CHUNK", 1)
    chunk_hits.clear()
    assert _run_paths(p, cfg, list(range(64))).tobytes() == chunked.tobytes()
    assert {h.shape[1] for h in chunk_hits} == {1}
    assert record_path(rec_p, cfg, 0).radii.tobytes() == rec.radii.tobytes()
    # every path finished alone after its first step, in runs of whole blocks
    monkeypatch.setattr(simulate, "_SCALAR_LOAD", 10**9)
    chunk_hits.clear()
    assert _run_paths(p, cfg, list(range(64))).tobytes() == chunked.tobytes()
    assert chunk_hits == []


@pytest.mark.parametrize("big_l", [1e-150, 1e150])
@pytest.mark.parametrize("theta", [0.5, -0.5, 900.0])
@pytest.mark.parametrize("scheme", [Scheme.FULL_EULER, Scheme.FULL_EXACT])
def test_running_sum_tracks_the_plain_recurrence(scheme, theta, big_l):
    # |x|^2 from the rescaled running sum against x <- a x + w in float64,
    # over 20,000 steps in chunks of up to 3,000 that cross periods (2048
    # steps, or 27 and 71 at theta dt = 0.9).  sigma = L keeps the path at
    # the scale of L, so both ends of the double range are exercised;
    # theta < 0 gets sigma = L / 1000, as its path grows e**10-fold
    d, steps, dt = 4, 20_000, 1e-3
    sigma = big_l if theta > 0 else 1e-3 * big_l
    kernel = simulate._scheme_kernel(_problem(d, theta, big_l, x=0.1 * big_l, sigma=sigma),
                                     McConfig(n_paths=1, dt=dt, scheme=scheme))
    rng = np.random.default_rng(5)
    zs = rng.standard_normal((1, steps, d))
    u, k, r2 = kernel.start[None], 0, []
    while k < steps:
        c = min(steps - k, int(rng.integers(1, 3000)))
        u, monitored = kernel.step(u, zs[:, k:k + c], k)
        r2.append(monitored[0])
        k += c
    if scheme is Scheme.FULL_EULER:
        a, scale = 1.0 - theta * dt, sigma * math.sqrt(dt)
    else:
        a = math.exp(-theta * dt)
        scale = sigma * math.sqrt(-math.expm1(-2.0 * theta * dt) / (2.0 * theta))
    x, ref = kernel.start.copy(), np.empty(steps)
    for t in range(steps):
        x = a * x + scale * zs[0, t]
        ref[t] = x @ x
    assert np.all(np.isfinite(ref)) and ref.min() > 1e-306
    np.testing.assert_allclose(np.concatenate(r2), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(16, 200, 4), (7, 9, 100), (3, 40, 1024), (1, 500, 2048)])
def test_running_sum_forms_give_the_same_bits(shape):
    # np.add.accumulate for rows under 1024 lanes, an np.add per column
    # from there: both add strictly in step order, on either side of the switch
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(shape) * np.logspace(-8, 8, shape[-2])[:, None]
    cols = xs.copy()
    for j in range(1, shape[-2]):
        cols[..., j, :] += cols[..., j - 1, :]
    got = xs.copy()
    simulate._running_sum(got)
    assert got.tobytes() == np.add.accumulate(xs, axis=-2).tobytes() == cols.tobytes()


# Exit steps of paths 0-7 and the SHA-256 of path 3's radius trace at every
# 7th step plus the crossing, per scheme.  They pin the output bits across
# code changes, which the run-twice determinism tests cannot; x = 0 covers
# the radial-euler bootstrap.  The frozen tables hold the bits of numpy's
# standard_normal on the per-path SFC64 streams (captured at numpy 2.4.6),
# which NEP 19 lets a numpy release change.
FROZEN = [
    ("full-euler", 0.0, [887, 162, 360, 339, 221, 197, 321, 501],
     "e29afaafa0759f36297f7c3c271ef4e3e13f2f0e4c6ce1df401d417bbba04294"),
    ("full-euler", 0.5, [752, 108, 350, 306, 243, 189, 246, 193],
     "ff2ac020a3f59c241cf89ab9542382f597186dbdfb3562914c0e503d97621d02"),
    ("full-exact", 0.0, [887, 162, 360, 339, 221, 197, 321, 501],
     "ba88b93a724dec7c157b84618b24d60cea97c03b6fadc6ee985dd2873bbc3782"),
    ("full-exact", 0.5, [752, 108, 350, 306, 243, 189, 246, 193],
     "4b12160851bdae034ebecafb326593788937d2e9f4e6b6c4597a4b422c85df83"),
    ("radial-euler", 0.0, [346, 601, 324, 149, 122, 134, 220, 309],
     "1d7fcc2b2e55fac13881de31a140cac457954dacdae13739e162c1a35b21dc48"),
    ("radial-euler", 0.5, [98, 364, 324, 152, 69, 55, 188, 280],
     "aa419240a4c08da059414259a330a9ab1abf6f9f4d9a8650b68ef39a08482691"),
    ("squared-radial-euler", 0.0, [342, 602, 324, 411, 122, 136, 223, 309],
     "b6c667be47bf840cf06fb4100b1b1b3f29347b410941dcb1ac63ff111352d595"),
    ("squared-radial-euler", 0.5, [97, 364, 324, 152, 70, 55, 189, 280],
     "d5621011727672b3c2b695908a30e4768da893d69cdf10f84f65a4bbd8c2f21f"),
]


@pytest.mark.parametrize("scheme,x,steps,trace_sha", FROZEN,
                         ids=[f"{scheme}-x{x}" for scheme, x, *_ in FROZEN])
def test_frozen_bits(scheme, x, steps, trace_sha):
    p = _problem(3, 0.5, 1.0, x=x)
    cfg = McConfig(n_paths=8, dt=1e-3, seed=20240611, scheme=scheme)
    times = _run_paths(p, cfg, list(range(8)))
    assert [round(t / cfg.dt) for t in times] == steps
    radii = record_path(p, cfg, 3).radii
    keep = np.arange(len(radii)) % 7 == 0
    keep[-1] = True  # path 3 exits in every row
    assert hashlib.sha256(radii[keep].tobytes()).hexdigest() == trace_sha


# Batches that cross the hand-off from the numpy batch step to the per-path
# scalar loop: full schemes at d = 1, 9 and 16 (from d = 8 numpy sums |x|^2
# pairwise), 64-path radial batches, theta = 0 and theta < 0, and horizons
# that censor paths part-way through a normals block.  Then the benchmark's
# metastable cell (d = 4, 16 paths, exits after 900-8080 steps), and two of
# its high-dimensional cells, whose blocks hit the 16-piece cap.  Columns:
# scheme, d, theta, L, x, n_paths, t_max, censored paths, SHA-256 of the
# exit-time array.
FROZEN_BATCHES = [
    ("full-euler", 1, 0.5, 1.0, 0.0, 16, None, 0,
     "85d1addbdfde39bda6136d226b799e3fd59ebd56f12efabcd1c647b2328a89fa"),
    ("full-exact", 1, 0.5, 1.0, 0.0, 16, None, 0,
     "85d1addbdfde39bda6136d226b799e3fd59ebd56f12efabcd1c647b2328a89fa"),
    ("full-euler", 9, 0.5, 2.0, 0.0, 16, None, 0,
     "bd56aff7c3b04163b36176751cabcb7c0d97fca7c861cc83de605ae948b0ca16"),
    ("full-exact", 9, 0.5, 2.0, 0.0, 16, None, 0,
     "d08f1aa39ccb9a7cab998f48ffc7c3f03b2c5cad8857247088408eaadba54a06"),
    ("full-euler", 16, 0.5, 2.0, 0.0, 16, None, 0,
     "55aa14e919465aca38d57005ef7d85905c5bc756d3156882c28f6bef3a25cba8"),
    ("full-exact", 16, 0.5, 2.0, 0.0, 16, None, 0,
     "55aa14e919465aca38d57005ef7d85905c5bc756d3156882c28f6bef3a25cba8"),
    ("radial-euler", 3, 0.5, 1.5, 0.0, 64, None, 0,
     "fc0f941c8d834fead19ab56673bfe047d6aa329a77586f2db108b6991c7f333d"),
    ("squared-radial-euler", 3, 0.5, 1.5, 0.0, 64, None, 0,
     "73899f4bb299e86b440e327cda71b6ebd39ae157ae7a64eafe0c73c6a8d94fa3"),
    ("full-euler", 3, 0.0, 1.0, 0.3, 8, None, 0,
     "48c2a229d641a1bb8459c17094e6400cfb1d99043f6737abbf4f7cfc1b7337ba"),
    ("full-exact", 3, 0.0, 1.0, 0.3, 8, None, 0,
     "48c2a229d641a1bb8459c17094e6400cfb1d99043f6737abbf4f7cfc1b7337ba"),
    ("radial-euler", 3, 0.0, 1.0, 0.3, 8, None, 0,
     "1a7249ec562efb2a7c4d513b680b580dc25a022b3e52468ad31546d4fb912e44"),
    ("squared-radial-euler", 3, 0.0, 1.0, 0.3, 8, None, 0,
     "d3929d8e21fae2a4fd6b658e4870fdcae5291f98462d486af6fd7d1d07ac78ac"),
    ("full-euler", 3, -0.5, 1.0, 0.0, 8, None, 0,
     "b2b3a93bd1aed5d5775453d2252e066086286bccf2057cda014fad7215d1c252"),
    ("full-exact", 3, -0.5, 1.0, 0.0, 8, None, 0,
     "b2b3a93bd1aed5d5775453d2252e066086286bccf2057cda014fad7215d1c252"),
    ("radial-euler", 3, -0.5, 1.0, 0.0, 8, None, 0,
     "16cf09a8017881118f7ca1dbd19a5274093315ba4c92ee30c29acf0bca4af214"),
    ("squared-radial-euler", 3, -0.5, 1.0, 0.0, 8, None, 0,
     "b546e97abf854e741c91eb03991bc0dcc3939e3de8fde8ea770a30492410bd45"),
    ("full-euler", 4, 0.0, 2.0, 0.0, 40, 0.7, 31,
     "b46b73dcee97f2f5e104230f5af7ba6c816dcb2dffab028f9c68173baa6deb76"),
    ("full-exact", 4, 0.0, 2.0, 0.0, 40, 0.7, 31,
     "b46b73dcee97f2f5e104230f5af7ba6c816dcb2dffab028f9c68173baa6deb76"),
    ("radial-euler", 4, 0.0, 2.0, 0.0, 40, 0.7, 23,
     "23c86fc6ad7e1d01f9d07e68d2ab685a6277464888f981f5844a7528e82a8f25"),
    ("squared-radial-euler", 4, 0.0, 2.0, 0.0, 40, 0.7, 23,
     "f87c19c70374feaff05f6cf3feb54eb97594eb7d313d4df92d6bf1e37d708158"),
    ("full-euler", 2, 0.5, 2.0, 0.0, 12, 2.5, 4,
     "c5b18ff670038063ed9f6c8dcbea9b6182b79018a19443577144f8faad7a50d6"),
    ("squared-radial-euler", 2, 0.5, 2.0, 0.0, 12, 2.5, 6,
     "8a2d09b72c185a9928ba6e6dd93cd5f8dc55aa3706465886fac5bf3453e1ab08"),
    ("full-euler", 4, 0.5, 2.5, 0.0, 16, None, 0,
     "b40cf84aee6a94f083a36e02d89f02735de5d370597048313dc8c6423039c4c0"),
    ("full-exact", 4, 0.5, 2.5, 0.0, 16, None, 0,
     "b40cf84aee6a94f083a36e02d89f02735de5d370597048313dc8c6423039c4c0"),
    ("full-euler", 256, 0.5, 4.0, 0.0, 100, None, 0,
     "8464bb9fbb4c2b05971f204e29327dd6436f3f8c5ab28ec2e7419c4cd26051de"),
    ("full-exact", 256, 0.5, 4.0, 0.0, 100, None, 0,
     "66872fef2acbeccc21ac98da9bc4b0cb377cae480144a0f3196b5dee9092fa85"),
    ("full-euler", 1024, 0.5, 24.0, 0.0, 8, None, 0,
     "9810633ba1389c4436a936cdc2be824d90b97041efc4a1998547619052e1a409"),
    ("full-exact", 1024, 0.5, 24.0, 0.0, 8, None, 0,
     "9ebc342e170c51c0e0f433319c222c7029ec2b7cddbe22249ec1934753334403"),
]
FROZEN_BATCH_IDS = [
    "full-euler-1-0.5-1.0-0.0-16-None-0-f0017f875773c1c1a2c7f1db88553a834a2829c872ebbf98582dde0fabb9c9e2",
    "full-exact-1-0.5-1.0-0.0-16-None-0-f0017f875773c1c1a2c7f1db88553a834a2829c872ebbf98582dde0fabb9c9e2",
    "full-euler-9-0.5-2.0-0.0-16-None-0-44a7e937e4b8ef16d395d7939baed9e1c642cd95e24a0f78110c469932d5b071",
    "full-exact-9-0.5-2.0-0.0-16-None-0-44a7e937e4b8ef16d395d7939baed9e1c642cd95e24a0f78110c469932d5b071",
    "full-euler-16-0.5-2.0-0.0-16-None-0-90235b8b230043cd0288de69d89742efb25cebecf263023bd41df76e605bd355",
    "full-exact-16-0.5-2.0-0.0-16-None-0-90235b8b230043cd0288de69d89742efb25cebecf263023bd41df76e605bd355",
    "radial-euler-3-0.5-1.5-0.0-64-None-0-726c152506bfe732fc3209dc1e11d69f635d36250c99c859bfbe55009546ddbb",
    "squared-radial-euler-3-0.5-1.5-0.0-64-None-0-fbfd76e6574bbd6525d02e9de853a85e0c50371b04b9b5b4e86ea9fe4e10a994",
    "full-euler-3-0.0-1.0-0.3-8-None-0-1c1e5703b3ecbaf0b1bfc614b3190dcf647efe2b0add8ef86ff1dbd30ab62c5c",
    "full-exact-3-0.0-1.0-0.3-8-None-0-1c1e5703b3ecbaf0b1bfc614b3190dcf647efe2b0add8ef86ff1dbd30ab62c5c",
    "radial-euler-3-0.0-1.0-0.3-8-None-0-4a5eb0f91a3d4554cc615ba9bde1bf5371f653b4101a360a6f4d5f291fc8dc88",
    "squared-radial-euler-3-0.0-1.0-0.3-8-None-0-cc427923cbf0ce21cb9d9849f2dbb98bbcad71220a5d51b89145e429942ea1c5",
    "full-euler-3--0.5-1.0-0.0-8-None-0-409e9f439d4d0c02d0d02f8e5e0471be164659a06389f4478a1478c7f5cb754f",
    "full-exact-3--0.5-1.0-0.0-8-None-0-409e9f439d4d0c02d0d02f8e5e0471be164659a06389f4478a1478c7f5cb754f",
    "radial-euler-3--0.5-1.0-0.0-8-None-0-fefd7c96c5d6ae99736b2ab1f8de983069ecf9622823387cf4a2e97b76e8df63",
    "squared-radial-euler-3--0.5-1.0-0.0-8-None-0-5ca2549131c363a45b581233441df801b647fdd7ae3b9848f5405232a8b26672",
    "full-euler-4-0.0-2.0-0.0-40-0.7-24-022ecfa6d544eb171785f5688ac1d474314c4edeb57105e604e48c9983317482",
    "full-exact-4-0.0-2.0-0.0-40-0.7-24-022ecfa6d544eb171785f5688ac1d474314c4edeb57105e604e48c9983317482",
    "radial-euler-4-0.0-2.0-0.0-40-0.7-30-265f309953dd2466f2ad32b4d8d25e84af97ed3e2478c6f7cdb914d792d3ccf8",
    "squared-radial-euler-4-0.0-2.0-0.0-40-0.7-30-add076e94f378edbdf5b6d06146b2d6a4410de3a4a997ec8fd95d89243a9bb2a",
    "full-euler-2-0.5-2.0-0.0-12-2.5-8-1323ff0f8de8190324de9796065a52579e175d8a9e92588faa280eb9f35f59fb",
    "squared-radial-euler-2-0.5-2.0-0.0-12-2.5-7-34a31939cfe3ce21315301bcf25730650b550c93c411d46ddef591cee4fb3af0",
    "full-euler-4-0.5-2.5-0.0-16-None-0-a3c0f18773093e2322a17830089fa89614af47606e737d606d84b9665525a344",
    "full-exact-4-0.5-2.5-0.0-16-None-0-a3c0f18773093e2322a17830089fa89614af47606e737d606d84b9665525a344",
    "full-euler-256-0.5-4.0-0.0-100-None-0-af1284ae7658c2bf15ced8965861706e2d644aa4cdd0330fc87e6807457d4f09",
    "full-exact-256-0.5-4.0-0.0-100-None-0-f48711db81e84dc94eeac403c8e8791045e830a37280a724402dd8b2ad5862c4",
    "full-euler-1024-0.5-24.0-0.0-8-None-0-ab16cbde11995079768c91ee3e6512ea6a61c6ad6571d480163161516b602c11",
    "full-exact-1024-0.5-24.0-0.0-8-None-0-ab16cbde11995079768c91ee3e6512ea6a61c6ad6571d480163161516b602c11",
]


@pytest.mark.parametrize("scheme,d,theta,big_l,x,n,t_max,censored,sha", FROZEN_BATCHES,
                         ids=FROZEN_BATCH_IDS)
def test_frozen_batch_bits(scheme, d, theta, big_l, x, n, t_max, censored, sha):
    p = _problem(d, theta, big_l, x=x)
    cfg = McConfig(n_paths=n, dt=1e-3, seed=20240611, scheme=scheme, t_max=t_max)
    times = _run_paths(p, cfg, list(range(n)))
    assert int(np.count_nonzero(np.isnan(times))) == censored
    assert hashlib.sha256(times.tobytes()).hexdigest() == sha


# The trajectories command's cells at its defaults (full Euler, L = 2.5,
# path 0 of seed 123456789), recorded every step: exit time and SHA-256 of
# the times followed by the radii.  A lone d = 1000 path stays in numpy
# batch chunks, as its load exceeds _SCALAR_LOAD.
FROZEN_RECORDS = [
    (2, 0.7, 39.873, "3142727905b992b802a6d3bca49dfd8d6ae165ec20d6d9ee1f92dd09f1fc8f3a"),
    (2, 0.0, 13.084, "c1626ca5ca1cb1f346b7a27eb8f793bf18291085ef9a5d2c149d34a1202fb8d5"),
    (10, 0.7, 0.675, "28f71419cdd17d63d6ad99698a7105be1e0a97c06182969a0a737f4bbe4e2679"),
    (10, 0.0, 0.40800000000000003, "59d560fa937f6e3320163825c530ddeccf5e764aae45186b6eb8410166310b96"),
    (1000, 0.7, 0.007, "e9d6f4a2912767c299019926801093db6c628dbf6657f196d0d774de45e4506b"),
    (1000, 0.0, 0.007, "f2a14f4ba71692ed647539eb76283084feb5b98fa530a9af88f26983091e4679"),
]
FROZEN_RECORD_IDS = [
    "2-0.7-62.996-8d654417f9ef241e39fcd49e85e04ab71ad3116ade3fbbd58d25109accfca531",
    "2-0.0-4.065-2edfae014f58003663bc7a2afdae27f009b60af862fc871a341e6e1d3edf7233",
    "10-0.7-0.961-2a0e80dcc6fdd438e7c16357c0d34b9662dd80292da7064fa6366321a05a68f1",
    "10-0.0-0.774-71dddc85b17249e411baa9586b6965701f968462fe211ae611b682b6c529a2c2",
    "1000-0.7-0.007-2782f3fb71d3427eddb012b54912821cea0dad0acaf9a3453c2d89b22216d3d0",
    "1000-0.0-0.007-cd7621d10e8e6b6782f9b0253b02fbba5d72e64c4d5a69d922b25c2a54a6871d",
]


@pytest.mark.parametrize("d,theta,exited_at,sha", FROZEN_RECORDS, ids=FROZEN_RECORD_IDS)
def test_frozen_record_bits(d, theta, exited_at, sha):
    cfg = McConfig(n_paths=1, dt=1e-3, seed=123456789, scheme=Scheme.FULL_EULER)
    rec = record_path(_problem(d, theta, 2.5), cfg, 0)
    assert rec.exited_at == exited_at
    assert hashlib.sha256(rec.times.tobytes() + rec.radii.tobytes()).hexdigest() == sha


# The scalar radius maps each kernel applied to one monitored value at a time
# before records mapped a whole array in one call.
SCALAR_RADIUS = {
    Scheme.FULL_EULER: math.sqrt,
    Scheme.FULL_EXACT: math.sqrt,
    Scheme.RADIAL_EULER: float,
    Scheme.SQUARED_RADIAL_EULER: lambda y: math.sqrt(max(y, 0.0)),
}


@pytest.mark.parametrize("scheme", list(Scheme))
def test_vector_radius_matches_the_scalar_map(scheme):
    rng = np.random.default_rng(7)
    values = np.concatenate(([-0.0, 0.0, 5e-324, 1e-300, 6.25, math.nextafter(6.25, 0.0)],
                             rng.random(200) * 10.0, rng.random(20) * 1e-300))
    if scheme not in FULL_DIMENSIONAL:  # |x|^2 is never below zero; the radial values may be
        values = np.concatenate(([-1e-300, -5e-324, -2.5], values))
    cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, scheme=scheme)
    radius = simulate._scheme_kernel(_problem(3, 0.5, 2.5), cfg)[-1]
    expected = np.array([SCALAR_RADIUS[scheme](v) for v in values.tolist()])
    assert radius(values).tobytes() == expected.tobytes()
    if scheme is Scheme.SQUARED_RADIAL_EULER:
        # max(-0.0, 0.0) is -0.0, and so is its square root; np.maximum would give +0.0
        assert math.copysign(1.0, radius(np.array([-0.0]))[0]) == -1.0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_layout_fact_matches_the_kernel(scheme):
    # cli's MC cost check reads FULL_DIMENSIONAL for the normals a path draws per step
    d = 3
    cfg = McConfig(n_paths=1, dt=1e-3, seed=SEED, scheme=scheme)
    start = simulate._scheme_kernel(_problem(d, 0.5, 2.5), cfg).start
    assert np.size(start) == (d if scheme in FULL_DIMENSIONAL else 1)


def test_early_exit_draws_few_normals(monkeypatch):
    # the d = 1000 trajectories record exits after 7 steps; its first
    # normals block covers at most _RUN_STEPS steps, not 2000
    drawn = []
    normals = simulate._normals

    def counted(streams, steps, shape):
        block = normals(streams, steps, shape)
        drawn.append(block.size)
        return block

    monkeypatch.setattr(simulate, "_normals", counted)
    cfg = McConfig(n_paths=1, dt=1e-3, seed=123456789, scheme=Scheme.FULL_EULER)
    assert record_path(_problem(1000, 0.7, 2.5), cfg, 0).exited_at == 0.007
    assert sum(drawn) <= 256_000


class _FirstBlock(Exception):
    pass


# The ids keep the names these cases had while a block could hold 2,000,000
# normals: they end in the full schemes' first block of then (78, 19, 256
# and 244 steps where one piece now gives 2, 1, 8 and 4).
@pytest.mark.parametrize(
    "d,big_l,n,full_steps",
    [(4, 2.5, 16, 256), (256, 4.0, 100, 2), (1024, 4.0, 100, 1), (256, 12.0, 16, 8),
     (1024, 24.0, 8, 4)],
    ids=["4-2.5-16-256", "256-4.0-100-78", "1024-4.0-100-19", "256-12.0-16-256",
         "1024-24.0-8-244"],
)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_first_block_of_a_batch(monkeypatch, scheme, d, big_l, n, full_steps):
    # the benchmark's MC cells: the first block holds at most one piece of
    # 2**15 normals over the batch, in whole steps, and at most 256 steps
    seen = []

    def first(streams, steps, shape):
        seen.append((len(streams), steps, shape))
        raise _FirstBlock

    monkeypatch.setattr(simulate, "_normals", first)
    cfg = McConfig(n_paths=n, dt=1e-3, seed=SEED, scheme=scheme)
    with pytest.raises(_FirstBlock):
        _run_paths(_problem(d, 0.5, big_l), cfg, list(range(n)))
    full = scheme in (Scheme.FULL_EULER, Scheme.FULL_EXACT)
    assert seen == [(n, full_steps if full else 256, (d,) if full else ())]


@pytest.mark.parametrize("n,d,big_l", [(100, 256, 4.0), (100, 1024, 4.0), (16, 4096, 24.0)])
def test_one_block_of_at_most_16_pieces_is_live(monkeypatch, use_workers, n, d, big_l):
    # past one step a block holds at most 16 pieces, and a batch
    # drops its spent block before the next is drawn.  One worker: a pool
    # thread lets go of its part of a block just after handing back its result
    use_workers(1)
    normals = simulate._normals
    owners = []

    def watched(streams, steps, shape):
        assert all(owner() is None for owner in owners)
        block = normals(streams, steps, shape)
        assert steps == 1 or block.size <= 16 * simulate._PIECE
        owners.append(weakref.ref(block if block.base is None else block.base))
        return block

    monkeypatch.setattr(simulate, "_normals", watched)
    cfg = McConfig(n_paths=n, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EXACT)
    assert not np.isnan(_run_paths(_problem(d, 0.5, big_l), cfg, list(range(n)))).any()
    assert len(owners) >= 3


@pytest.mark.parametrize("theta", [0.7, 0.0])
def test_lone_high_dimensional_path_draws_one_piece(monkeypatch, theta):
    # the trajectories preset's d = 1000 traces exit after 7 steps, inside
    # the first block: one piece of 2**15 normals, 33 steps, not 256
    drawn = []
    normals = simulate._normals

    def counted(streams, steps, shape):
        drawn.append(steps)
        return normals(streams, steps, shape)

    monkeypatch.setattr(simulate, "_normals", counted)
    cfg = McConfig(n_paths=1, dt=1e-3, seed=123456789, scheme=Scheme.FULL_EULER)
    assert record_path(_problem(1000, theta, 2.5), cfg, 0).exited_at == 0.007
    assert drawn == [33]  # 33k normals


def _one_shot_normals(streams, steps, shape):
    # the reference: each stream's normals for the whole block in one call
    z = np.stack([s.standard_normal(steps * math.prod(shape)) for s in streams])
    return z.reshape((len(streams), steps) + shape)


def _streams(n, seed=SEED):
    return [simulate._stream(seed, i) for i in range(n)]


def _contract_stream(seed, i):
    # the determinism contract's stream for path i, built independently
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(i, 0))))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_paths_read_their_contract_streams(monkeypatch, seed):
    # at both ends of McConfig's seed range, a batch's first block holds each
    # path's first normals, and a lone path's blocks are its stream in order
    blocks = []
    normals = simulate._normals

    def kept(streams, steps, shape):
        blocks.append(normals(streams, steps, shape).reshape(len(streams), -1))
        return blocks[-1].reshape((len(streams), steps) + shape)

    monkeypatch.setattr(simulate, "_normals", kept)
    p = _problem(3, 0.5, 1.0)
    cfg = McConfig(n_paths=8, dt=1e-3, seed=seed, scheme=Scheme.FULL_EULER)
    indices = [0, 1, 7]
    _run_paths(p, cfg, indices)
    for row, i in zip(blocks[0], indices):
        assert row.tobytes() == _contract_stream(seed, i).standard_normal(row.size).tobytes()
    blocks.clear()
    _run_paths(p, cfg, [5])
    assert len(blocks) >= 2
    drawn = np.concatenate([b[0] for b in blocks])
    assert drawn.tobytes() == _contract_stream(seed, 5).standard_normal(drawn.size).tobytes()


def test_distinct_seeds_and_paths_draw_distinct_normals():
    firsts = {simulate._normals([simulate._stream(seed, i)], 64, ()).tobytes()
              for seed in (0, 1, 2**64 - 1) for i in (0, 1, 2**32)}
    assert len(firsts) == 9


@pytest.fixture
def use_workers(monkeypatch):
    # split blocks as if the affinity mask held ``workers`` CPUs
    pools = []

    def use(workers):
        pools.append(ThreadPoolExecutor(workers, thread_name_prefix="test-normals"))
        monkeypatch.setattr(simulate, "_WORKERS", workers)
        monkeypatch.setattr(simulate, "_pool", pools[-1])

    yield use
    for pool in pools:
        pool.shutdown()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n,steps,shape", [
    (16, 256, (4,)),                        # mc-metastable's first block: one part
    (7, 19, (1024,)),                       # 4 pieces; 7 rows split unevenly
    (1, 3 * simulate._PIECE + 5, ()),        # one row of 3 whole pieces: one part
    (3, 2 * simulate._PIECE + 1, ()),
    (1000, 256, ()),                        # 7 pieces of short rows: one part
])
def test_normals_match_one_shot_transform(use_workers, workers, n, steps, shape):
    use_workers(workers)
    got = simulate._normals(_streams(n), steps, shape)
    assert got.shape == (n, steps) + shape
    assert got.tobytes() == _one_shot_normals(_streams(n), steps, shape).tobytes()
    # the streams stay in order across calls
    streams, ref = _streams(n), _streams(n)
    _one_shot_normals(ref, steps, shape)
    simulate._normals(streams, steps, shape)
    assert (simulate._normals(streams, 2, shape).tobytes()
            == _one_shot_normals(ref, 2, shape).tobytes())


def test_short_rows_are_filled_without_the_pool(use_workers, monkeypatch):
    # split over the pool, rows under _SPLIT_ROW normals took longer than
    # one direct fill, so such a block makes no submit however many pieces
    use_workers(2)
    submits = []
    submit = simulate._pool.submit
    monkeypatch.setattr(simulate._pool, "submit", lambda *args: submits.append(args) or submit(*args))
    simulate._normals(_streams(1000), 256, ())
    assert submits == []
    simulate._normals(_streams(128), simulate._SPLIT_ROW, ())  # 2 pieces
    assert len(submits) == 2


def _highdim_estimate():
    p = _problem(1024, 0.5, 4.0)
    return estimate_mfet(p, McConfig(n_paths=100, dt=1e-3, seed=SEED, scheme=Scheme.FULL_EXACT))


@pytest.mark.parametrize("workers", [1, 3])
def test_estimate_does_not_depend_on_worker_count(use_workers, workers):
    # 3 workers is more than the 2 cores the suite is timed on; the short
    # switch interval interleaves the threads as finely as it can
    default = _highdim_estimate()
    use_workers(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _highdim_estimate()
    finally:
        sys.setswitchinterval(interval)
    assert got == default


def _estimate_into(results):
    results.put(_highdim_estimate())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_gets_its_own_pool(use_workers):
    # the child inherits the parent's pool object but none of its threads;
    # without the at-fork reset its first parallel block waits forever
    use_workers(2)
    parent = _highdim_estimate()
    assert any(t.name.startswith("test-normals") for t in threading.enumerate())
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_estimate_into, args=(results,))
    child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        pytest.fail("the forked child produced no estimate within 60 s")
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert not child.is_alive()
    assert got == parent


def test_mc_route_runs_without_scipy():
    # the MC route needs numpy alone: with scipy unimportable, every scheme
    # and the trajectories command run, and no scipy module is loaded
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ouexit import ExitProblem, McConfig, OupParams, Scheme, cli, estimate_mfet\n"
        "p = ExitProblem(OupParams(theta=0.5, sigma=1.0, d=3), L=1.0, x=0.0)\n"
        "for s in Scheme:\n"
        "    estimate_mfet(p, McConfig(n_paths=40, dt=1e-3, seed=1, scheme=s))\n"
        "assert cli.main(['trajectories']) == 0\n"
        "print([m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

"""Monte-Carlo exit times for the d-dimensional OUP and its radial reductions.

Four per-step schemes, all monitored on the time grid (an exit is recorded
at the first grid time whose radius reaches L; nothing is interpolated, so
detected exits are biased late and the bias shrinks with dt):

* full-euler           Euler-Maruyama on the d-dimensional SDE
                       dX = -theta X dt + sigma dB.
* full-exact           exact OU transition per step: per component,
                       mean decay exp(-theta dt) and variance
                       sigma^2 (1 - exp(-2 theta dt)) / (2 theta);
                       theta = 0 degenerates to Brownian increments.
* radial-euler         Euler on the radial SDE
                       d rho = [(d-1) sigma^2 / (2 rho) - theta rho] dt + sigma dB;
                       the drift is singular at 0, so a start at x = 0 takes
                       the deterministic first step below and then
                       switches.  A nonpositive Euler excursion is reflected.
* squared-radial-euler full-truncation Euler on the squared-radial SDE
                       dy = (sigma^2 d - 2 theta y) dt + 2 sigma sqrt(y) dB,
                       i.e. y <- y + (sigma^2 d - 2 theta max(y,0)) dt
                                 + 2 sigma sqrt(max(y,0)) dW,
                       exit when y >= L^2.  Per-step cost independent of d.

From x = 0 both radial schemes take a deterministic first step: the noise
term is 2 sigma sqrt(dt) sqrt(0) z, a signed zero whatever z is, so every
path lands on y = sigma^2 d dt, radius sqrt(sigma^2 d dt) (correctly
rounded by math.sqrt and np.sqrt alike).  The step still uses up its normal.

Determinism contract: the stream of Gaussians for path i is a pure function
of (seed, i, draw position) for a given numpy version.  Path i owns one
stream, numpy's ``Generator`` on an SFC64 generator seeded by
``SeedSequence(seed, spawn_key=(i, 0))``, and reads it in step order, so its
k-th normal depends on nothing else, although the ziggurat sampler consumes
a data-dependent number of raw draws.  The key's 0 names the normals, so a
later kind of draw can take (i, 1) without moving them.  This is the
per-substream seeding NEP 19 recommends for parallel streams; SeedSequence
hashes distinct (seed, i) to unrelated states.  NEP 19 keeps SeedSequence's
and SFC64's raw bits across numpy versions but not the ``Generator``'s
distributions, so the bits are those of one numpy version.  SFC64 fills a
row about a quarter faster than the Philox streams it replaced: 19-21
against 26-28 ns per normal at the benchmark's block shapes (2-core VM,
numpy 2.4.6).
Normals are drawn in blocks of twice the steps already taken, from
_RUN_STEPS up to 2048 steps, so a path that exits early draws few it never
uses.  A block holds at most 16 pieces (_BLOCK_FLOATS = 2**19 normals,
4 MB) unless one step alone needs more, and a batch drops its spent block
before the next is allocated, so one block is live at a time, plus the
shorter copy that dropping exited paths makes.  The first block holds at
most one piece (_PIECE normals over all paths, in whole steps), so a lone
path at large d, which exits in a few steps, does not draw 256 steps of d
normals.  Streams are read in order, so block sizes move no normal's step.
Every aggregate is reduced in path-index order with pairwise summation, so
estimates are identical however the paths are batched or parallelized.

Filling a block: ``_normals`` allocates it once, and each row's stream
writes its normals straight into the row, with no transform and no
temporaries.  A block's rows are split over a thread pool with one worker
per CPU in the process's affinity mask (``taskset`` limits it; a forked
child gets a new pool), into min(workers, rows, whole pieces) parts,
whatever the row length.  Each row's Python call holds the GIL between
fills (the sampler releases it), so short rows leave little to overlap:
on 2 cores, split rows of 256-320 normals took 1.3-1.8 times a direct
fill, a few ms per block.  Only a batch with one normal per step and over
128 paths draws rows under 512 normals in blocks of two pieces or more,
in its second block.  Each row is one stream's draws written to its own
row, so the bits depend neither on the split nor on the pool size.

Chunks and the straggler hand-off: exit times are heavy-tailed (about
exp(lambda L^2) at small d), so most time steps of a batch have only a few
paths still running, and every numpy call costs about a microsecond of
overhead however few paths it carries.  ``_run_paths`` therefore advances
the live paths a chunk of steps per kernel call, finds each path's first
crossing in the chunk with one argmax and drops exited paths once per chunk.
One rule sets every chunk's width: the first step alone (radial-euler's
deterministic step from x = 0 is one column, after which a small radial
batch hands off, so ``run`` never starts at 0), then at most _CHUNK normals
over the live paths, at least one step, so its temporaries stay under
glibc's 128 KB mmap threshold, ending at the end of the normals block and at
the horizon.  An exited path's steps past its exit cost a few ns per normal,
far less than the calls of the extra chunks a narrower width would need.  A
full batch steps in numpy to its last path.  A radial batch, one normal per
step, does so only while its live paths exceed ``_SCALAR_LOAD``; after that
each remaining path is finished alone by the kernel's ``run``, a Python loop
over floats that costs less per step than a numpy call, over the rest of its
pre-drawn normals, drawing further blocks from the path's own stream.
Neither regrouping moves a bit: the normals are the same (they depend only
on seed, path and position), and each scheme's state after step k depends
only on its normals up to k.  The radial schemes run their recurrence over
the chunk's columns of normals, and their ``run`` evaluates the same
expressions in the same order (the radial clamp ``y if y > 0.0 else 0.0``
equals ``np.maximum(y, 0.0)`` on -0.0 too).

The full schemes' running sum: both are x <- a x + w with w = scale z
(a = 1 - theta dt for full-euler, exp(-theta dt) for full-exact), a linear
recurrence that a rescaled frame turns into a prefix sum (Blelloch 1990,
CMU-CS-90-190), so a chunk is a fixed number of numpy calls.  A path's
steps fall in periods of K steps anchored at multiples of K of its step
count k, never at a chunk or block boundary.  At a period's start the
state u becomes a**K u; its j-th step adds (scale a**(K-j)) z to u, and
x = u / a**(K-j), so x = u at j = K.  The powers come from repeated
multiplication, never pow.  The sums are strictly sequential
(``_running_sum``), so x after step k depends on k and the normals alone;
at theta = 0 every factor is 1.0 and the sum is x + w itself.  |x|^2 is one
numpy sum over C-contiguous rows of d, taken on x, never on u, so its order
is numpy's at every d.  K is _PERIOD (2048) unless |ln|a|| K would exceed
_SPAN (64), and then the largest K within it, at least 1.  Every factor
thus lies within e**+-64: |x| stays below about L, whose square
``ExitProblem`` keeps a normal double (L < e**355), so |u| < e**419 and the
scaled sums stay inside the double range.

Records: a recorded path maps its monitored values (|x|^2, rho or y) to
radii as the chunks and runs produce them, with the kernel's elementwise
array ``radius`` (sqrt, identity, or sqrt of y clamped at 0 with -0.0
kept), so the radii have the bits of a value-by-value map.
"""

import math
import os
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, EstimationError
from .schemes import FULL_DIMENSIONAL, Scheme

_U64_MAX = 2**64 - 1
_SCALAR_LOAD = 32  # live paths at which a radial batch's paths finish alone
_RUN_STEPS = 256  # steps per normals block until twice the steps taken is more
_CHUNK = 2**13  # path-normals per batch chunk: 64 KB per temporary
_PERIOD = 2048  # steps per period of the full schemes' running sum, at most
_SPAN = 64.0  # |ln|a|| times the steps of a period, at most: factors within e**+-64
_PIECE = 2**15  # normals per piece, the unit of block sizes and pool parts
_BLOCK_FLOATS = 16 * _PIECE  # normals per block past one step: 4 MB
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # no affinity masks (macOS, Windows)
    _WORKERS = os.cpu_count() or 1


def _new_pool():
    # threads start on the first submit, so making the pool costs nothing;
    # a forked child has none of the parent's threads, and a pool it
    # inherited would queue work that never runs, so it makes its own
    global _pool
    _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="ouexit-normals")


_new_pool()
if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_new_pool)


@dataclass(frozen=True)
class McConfig:
    """Path count, step size, stream seed, scheme, and safety horizon."""

    n_paths: int
    dt: float
    seed: int = 0
    scheme: Scheme = Scheme.SQUARED_RADIAL_EULER
    t_max: Optional[float] = None  # default resolves to 1e6 * dt

    def __post_init__(self):
        if not (isinstance(self.n_paths, int) and self.n_paths >= 1):
            raise DomainError(f"n_paths must be an integer >= 1, got {self.n_paths!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DomainError(f"dt must be a positive finite real, got {self.dt!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed <= _U64_MAX):
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        try:
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        except ValueError:
            raise DomainError(f"unknown scheme {self.scheme!r}") from None
        if self.t_max is None:
            object.__setattr__(self, "t_max", 1e6 * self.dt)
        if not (math.isfinite(self.t_max) and self.t_max >= self.dt):
            raise DomainError(f"t_max must be finite and >= dt, got {self.t_max!r}")
        if self.t_max / self.dt > 2**53:
            # past 2**53 the step index k is no longer exact in k * dt
            raise DomainError(f"horizon of t_max/dt = {self.t_max / self.dt:.3g} steps "
                              "exceeds 2**53")


@dataclass(frozen=True)
class McEstimate:
    """Mean exit time over the exited paths, with its sampling uncertainty."""

    mean: float
    std_err: float
    ci95_low: float
    ci95_high: float
    n_exited: int
    n_censored: int
    dt: float
    scheme: Scheme


@dataclass(frozen=True)
class PathRecord:
    """(time, radius) trace of one path at every step, the start included."""

    times: np.ndarray
    radii: np.ndarray
    exited_at: Optional[float]


_Kernel = namedtuple("_Kernel", "start step run threshold radius")


def _scheme_kernel(problem, cfg):
    """The configured scheme's _Kernel(start, step, run, threshold, radius).

    ``start`` is one path's state, a row of d coordinates or a scalar, with
    one normal per entry drawn each step.  ``step`` advances a batch by c
    steps, mapping (states, zs, k), zs shaped (paths, c) + shape with each
    path's next normals in step order and k the steps the paths have taken,
    to (states after the chunk, monitored values shaped (paths, c)).  A path
    exits once monitored reaches ``threshold``; ``radius`` maps monitored
    values to radii.  Only the radial kernels have a ``run``, the full
    ones None: it is ``step`` for one path as a Python loop over floats,
    mapping (state, zs, k) to (state, monitored values of the steps it
    took), stopping at the exit or after ``len(zs)`` steps, with the bits
    of ``step``; radial-euler's cannot start at 0.  The full schemes' state
    is the running sum u of the module docstring.  A radial-euler start at
    0 whose first step would land on 0 again is a DomainError.
    """
    p, x, dt = problem.params, problem.x, cfg.dt
    sqrt_dt = math.sqrt(dt)
    sig_sqdt = p.sigma * sqrt_dt
    big_l2 = problem.L * problem.L

    def chunk(recur):
        # ``recur`` over the chunk's columns of normals, stacked
        def step(state, zs, k):
            xs = recur(state, zs.swapaxes(0, 1), k)
            return xs[-1], np.stack(xs, axis=1)
        return step

    if cfg.scheme in FULL_DIMENSIONAL:
        # x <- a x + w with w = scale z, as a running sum; see the module docstring
        if cfg.scheme is Scheme.FULL_EULER:
            a, scale = 1.0 - p.theta * dt, sig_sqdt
        else:
            a = math.exp(-p.theta * dt)
            if p.theta == 0.0:
                scale = sig_sqdt
            else:
                scale = p.sigma * math.sqrt(-math.expm1(-2.0 * p.theta * dt) / (2.0 * p.theta))
        ln_a = abs(math.log(abs(a))) if a else math.inf
        period = _PERIOD if ln_a * _PERIOD <= _SPAN else max(1, int(_SPAN / ln_a))
        # a**0 .. a**K by repeated multiplication (accumulate is sequential);
        # by a step's position i = 0 .. K-1 in its period, scale a**(K-1-i)
        # weighs its noise term and 1 / a**(K-1-i) maps the sum to its state
        powers = np.multiply.accumulate(np.concatenate(([1.0], np.full(period, a))))
        weights = (scale * powers[-2::-1])[:, None]
        factors = (1.0 / powers[-2::-1])[:, None]
        a_period = powers[-1]

        def advance(u, zs, k):
            # the sums u after ``zs``, (..., c, d) of the next normals from
            # step k, and |x|^2 after each step, (..., c), taken on x, not u
            xs = np.empty(zs.shape)
            t, c = 0, zs.shape[-2]
            while t < c:
                i = (k + t) % period
                n = min(c - t, period - i)
                seg = xs[..., t:t + n, :]
                np.multiply(zs[..., t:t + n, :], weights[i:i + n], out=seg)
                if i == 0:
                    u = a_period * u
                seg[..., 0, :] += u
                _running_sum(seg)
                u = seg[..., -1, :].copy()
                seg *= factors[i:i + n]
                t += n
            return u, np.add.reduce(xs * xs, axis=-1)

        start = np.concatenate(([x], np.zeros(p.d - 1)))
        return _Kernel(start, advance, None, big_l2, np.sqrt)

    s2d = p.sigma * p.sigma * p.d
    if cfg.scheme is Scheme.SQUARED_RADIAL_EULER:
        two_theta, two_sig_sqdt = 2.0 * p.theta, 2.0 * p.sigma * sqrt_dt

        def squared_radial(y, zs, k):
            return [y := y + (s2d - two_theta * (yp := np.maximum(y, 0.0))) * dt
                    + two_sig_sqdt * np.sqrt(yp) * z for z in zs]

        def run(y, zs, k):
            y, ys, sqrt = float(y), [], math.sqrt
            for z in zs.tolist():
                yp = y if y > 0.0 else 0.0  # np.maximum's bits, -0.0 included
                y = y + (s2d - two_theta * yp) * dt + two_sig_sqdt * sqrt(yp) * z
                ys.append(y)
                if y >= big_l2:
                    break
            return y, ys

        def radius(y):
            # not np.maximum, which turns -0.0 into +0.0: the clamp keeps it
            return np.sqrt(np.where(y < 0.0, 0.0, y))

        return _Kernel(x * x, chunk(squared_radial), run, big_l2, radius)

    # radial-euler; the drift is singular at 0, so a start there takes the
    # deterministic first step of the module docstring, which must leave 0
    if x == 0.0 and s2d * dt == 0.0:
        raise DomainError(f"radial-euler from x = 0 lands on radius 0, where its drift divides "
                          f"by zero: sigma**2 * d * dt underflows at dt={dt!r}, "
                          f"sigma={p.sigma!r}, d={p.d!r}")
    half_dm1_s2 = 0.5 * (p.d - 1) * p.sigma * p.sigma
    theta, big_l = p.theta, problem.L

    def radial(rho, zs, k):
        if k == 0 and x == 0.0:  # the driver's first chunk is one step
            return [np.full(len(rho), math.sqrt(s2d * dt))]
        return [rho := np.abs(rho + (half_dm1_s2 / rho - theta * rho) * dt + sig_sqdt * z)
                for z in zs]

    def run(rho, zs, k):
        rho, rhos = float(rho), []
        for z in zs.tolist():
            rho = abs(rho + (half_dm1_s2 / rho - theta * rho) * dt + sig_sqdt * z)
            rhos.append(rho)
            if rho >= big_l:
                break
        return rho, rhos

    return _Kernel(x, chunk(radial), run, big_l, np.asarray)


def _running_sum(xs):
    """Sum ``xs``, shaped (..., steps, entries), in place along its steps.

    Both forms add strictly in step order, so they give the same bits.
    ``np.add.accumulate`` takes 4-13 ns per element, a column-by-column
    ``np.add`` about 1.5 ns plus a call's 1-2 us per column: measured on a
    2-core VM, the two broke even at 1024 lanes (entries per step over all
    paths).
    """
    if xs[..., 0, :].size < 1024:
        np.add.accumulate(xs, axis=-2, out=xs)
    else:
        for j in range(1, xs.shape[-2]):
            np.add(xs[..., j - 1, :], xs[..., j, :], out=xs[..., j, :])


def _fill(flat, streams, lo, hi):
    """Fill rows lo..hi-1 of ``flat``, each with its stream's next normals."""
    for r in range(lo, hi):
        streams[r].standard_normal(out=flat[r])


def _normals(streams, steps, shape):
    """The next ``steps`` normals of each stream, shaped (paths, steps) + shape."""
    n = len(streams)
    row = steps * math.prod(shape)
    flat = np.empty((n, row))
    parts = min(_WORKERS, n, flat.size // _PIECE)  # at least one piece per part
    if parts < 2:
        _fill(flat, streams, 0, n)
    else:
        cuts = [n * i // parts for i in range(parts + 1)]
        for f in [_pool.submit(_fill, flat, streams, lo, hi) for lo, hi in zip(cuts, cuts[1:])]:
            f.result()
    return flat.reshape((n, steps) + shape)


def _block_steps(floats_per_step, taken):
    """Steps per normals block after ``taken`` steps; see the module docstring.

    Twice ``taken``, from _RUN_STEPS up to 2048 steps, and at most
    _BLOCK_FLOATS (16 pieces) over the block's paths, or one step where a
    single step needs more; the first (``taken`` 0) at most one piece.  A
    batch sizes its refills for the paths it started with: the live count
    keeps the bits too, but ran about 6% slower at d = 256 and 1024 (2 cores).
    """
    cap = _BLOCK_FLOATS // floats_per_step if taken else -(-_PIECE // floats_per_step)
    return max(1, min(2048, cap, max(_RUN_STEPS, 2 * taken)))


def _stream(seed, index):
    """Path ``index``'s stream of normals; see the module docstring."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index, 0))))


def _run_paths(problem, cfg, indices, record=None):
    """Advance the given paths to exit or the horizon; return grid exit times.

    Returns an array aligned with ``indices`` holding the exit grid time, or
    NaN for paths censored at the horizon.  When ``record`` is a list it
    collects the radius after every step, as the kernel's ``radius`` of each
    chunk slice and run output (single-path runs only).  Live paths advance
    together in numpy, a chunk of steps per kernel call (the first step
    alone, then up to ``_CHUNK`` normals, to the block's end and the
    horizon); a kernel with a ``run`` (the radial ones) has it finish each
    path alone once their load is at most ``_SCALAR_LOAD``.  Every kernel
    call is given the steps taken.  See the module docstring for why the
    bits do not change.
    """
    n = len(indices)
    dt = cfg.dt
    max_steps = max(1, int(math.floor(cfg.t_max / dt + 1e-9)))

    out = np.full(n, math.nan)
    if record is not None and n != 1:
        raise DomainError("recording is a single-path operation")
    if problem.x >= problem.L:
        # starts on the boundary: no step is taken, so nothing is recorded
        out[:] = 0.0
        return out

    start, step, run, threshold, radius = _scheme_kernel(problem, cfg)
    shape = np.shape(start)
    m = np.size(start)
    state = np.full((n,) + shape, start)
    streams = [_stream(cfg.seed, i) for i in indices]
    pos_map = np.arange(n)  # row -> position in ``out``
    block = _normals(streams, _block_steps(n * m, 0), shape)
    pos = k = 0  # next column of ``block``; steps taken

    while k < max_steps and (k == 0 or run is None or len(streams) * m > _SCALAR_LOAD):
        if pos == block.shape[1]:
            del block  # so the spent block is freed before the next is allocated
            block = _normals(streams, _block_steps(n * m, k), shape)
            pos = 0
        # the first step alone, then _CHUNK normals, to the block's end and the horizon
        c = min(block.shape[1] - pos, max_steps - k,
                max(1, _CHUNK // (len(streams) * m)) if k else 1)
        state, monitored = step(state, block[:, pos:pos + c], k)
        hit = monitored >= threshold
        exited = hit.any(axis=1)
        if record is not None:
            upto = hit[0].argmax() + 1 if exited[0] else c
            record.append(radius(monitored[0, :upto]))
        k += c
        pos += c
        if exited.any():
            # each exited row's first crossing, counted from the chunk's start
            out[pos_map[exited]] = (k - c + 1 + hit[exited].argmax(axis=1)) * dt
            keep = ~exited
            if not keep.any():
                return out
            pos_map = pos_map[keep]
            state = state[keep]
            block, pos = block[keep, pos:], 0
            streams = [s for s, kept in zip(streams, keep) if kept]

    for row, stream in enumerate(streams):
        s, zs, j = state[row], block[row, pos:], k
        while j < max_steps:
            if not len(zs):
                zs = _normals([stream], _block_steps(m, j), shape)[0]
            s, monitored = run(s, zs[:max_steps - j], j)
            if record is not None:
                record.append(radius(np.asarray(monitored)))
            j += len(monitored)
            if monitored[-1] >= threshold:
                out[pos_map[row]] = j * dt
                break
            zs = zs[len(monitored):]
    return out


def estimate_mfet(problem, cfg):
    """Mean exit time over n_paths independent paths.

    Censored paths (those that reach t_max without exiting) are excluded
    from the mean but reported in ``n_censored``; if every path is censored
    the horizon was too short and an EstimationError is raised.
    """
    times = _run_paths(problem, cfg, list(range(cfg.n_paths)))
    exited = ~np.isnan(times)
    n_exited = int(np.count_nonzero(exited))
    n_censored = cfg.n_paths - n_exited
    if n_exited == 0:
        raise EstimationError(
            f"horizon too short: all {n_censored} paths censored at t_max={cfg.t_max!r}",
            n_censored,
        )
    sample = times[exited]
    mean = float(np.sum(sample) / n_exited)
    if n_exited > 1:
        var = float(np.sum((sample - mean) ** 2) / (n_exited - 1))
        std_err = math.sqrt(var / n_exited)
    else:
        std_err = 0.0
    half = 1.959963984540054 * std_err
    return McEstimate(
        mean=mean,
        std_err=std_err,
        ci95_low=mean - half,
        ci95_high=mean + half,
        n_exited=n_exited,
        n_censored=n_censored,
        dt=cfg.dt,
        scheme=cfg.scheme,
    )


def record_path(problem, cfg, path_index):
    """Run one path; keep its radius at the start and after every step."""
    if not (isinstance(path_index, int) and 0 <= path_index < cfg.n_paths):
        raise DomainError(f"path_index must lie in [0, n_paths), got {path_index!r}")
    slices = []
    t = _run_paths(problem, cfg, [path_index], record=slices)[0]
    radii = np.concatenate(([problem.x], *slices))
    return PathRecord(times=np.arange(len(radii)) * cfg.dt, radii=radii,
                      exited_at=None if math.isnan(t) else float(t))

#!/usr/bin/env python3
"""One-command benchmark for ouexit, end to end and layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``ouexit`` from ``src/`` and
drives it only through public functions (``mfet_exact``, ``mfet_bounds``,
``estimate_mfet``, ``record_path`` and ``cli.main``).  It is a closed loop:
one caller in one process and one thread, each call issued when the last
one returned.

Every input comes from ``--seed``.  The work of a run is fixed by the seed
and ``--seconds`` alone, never by the clock: ``--seconds`` sets a work budget
(problems, path-steps or CSV rows, calibrated so that ouexit 0.1.0 takes about
that long on a 2-core x86 VM), and the MC and CLI workloads stop at
the first call that meets it, counting work from the outputs.  A run of
the same seed therefore does the same calls and gives the same bits.

Every reported time is host-normalised.  The host this was built on shares
its cores: its speed drifts by up to 1.8x for seconds to minutes at a time,
in CPU time as much as in wall time, so raw seconds of the same code differ
by that much between runs.  A fixed probe of about 2 ms (``probe_s``) runs
between operations, at least every ``PROBE_EVERY_S``, and each operation's
seconds are scaled by ``REF_PROBE_S`` over the median of the probes around
it: the time the operation would take on a host where the probe takes
``REF_PROBE_S``.  The probe does not call ouexit, so a change to ouexit
moves the normalised time as much as the raw one.  Different code slows by
different amounts on this host, so the probe mixes the kinds of work ouexit
does; the import time in ``setup_s`` is scaled by numpy's import instead
(``import_seconds``).  The raw seconds and the probe's median are printed on
the info line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run is made twice, untraced and then with wrappers around
the module attributes of each layer, and the last line holds the per-layer
metrics.  The lines before it give the environment, the work counts and a
SHA-256 digest of every output.

Every output is checked.  Known program defects (``ConvergenceError`` of the
incomplete gamma at large shape, the ``upper_mixed`` overflow) count as
failed operations; any other wrong output makes ``correct`` false and the
exit code 1.  The exit code is 2 when ``ouexit`` cannot be found.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import hashlib
import itertools
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(SRC))

import numpy as np  # noqa: E402
from tracing import Tracer  # noqa: E402

# Work per --second, calibrated on ouexit 0.1.0 (2-core x86 VM).
EXACT_PROBLEMS_PER_S = 575
METASTABLE_PATH_STEPS_PER_S = 340_000
HIGHDIM_PATH_STEPS_PER_S = 58_000
CLI_ROWS_PER_S = 30_000

SETUP_REPEATS = 5
PROBE_EVERY_S = 0.1
REF_PROBE_S = 2e-3
REF_NUMPY_IMPORT_S = 0.1
# MC gate: a pooled estimate may sit Z_BOUND standard errors plus a bias
# budget of BIAS_BUDGET * exact away from mfet_exact.  Exits are only seen
# on the time grid, so estimates run late by O(sqrt(dt)); at dt = 1e-3 the
# short-exit cells (16-65 steps) show it at up to 12 standard errors with
# 100 paths, but below 3% of the exact value.
Z_BOUND = 4.0
BIAS_BUDGET = 0.05
MC_DT = 1e-3
SCHEMES = ("full-euler", "full-exact", "radial-euler", "squared-radial-euler")
FULL_SCHEMES = ("full-euler", "full-exact")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_frac": "frac",
}
PER_LAYER = {
    "special.ln_lower_gamma.calls": "count",
    "special.ln_lower_gamma.series.ns_per_call": "ns",
    "special.ln_lower_gamma.contfrac.ns_per_call": "ns",
    "special.ln_lower_gamma.failed": "count",
    "quadrature.integrate_log.calls": "count",
    "quadrature.integrate_log.panels": "count",
    "quadrature.integrate_log.us_per_panel": "us",
    "quadrature.integrate_log.self_ms": "ms",
    "mfet.mfet_exact.self_ms": "ms",
    "mfet.exact_p50_ms": "ms",
    "mfet.exact_p99_ms": "ms",
    "mfet.mfet_bounds.us_per_call": "us",
    **{f"simulate.{s}.path_steps": "count" for s in SCHEMES},
    **{f"simulate.{s}.ns_per_path_step": "ns" for s in SCHEMES},
    "simulate.normals_per_s": "1/s",
    "simulate.s_to_1pct": "s",
    "simulate.record_path.us_per_step": "us",
    "cli.self_ms": "ms",
    "cli.us_per_row": "us",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "frac",
}


_PROBE_VEC = np.linspace(0.5, 1.5, 64)
_PROBE_BLOCK = np.linspace(0.5, 1.5, 1 << 16)
_PROBE_BITS = np.random.Philox(key=0)


def probe_s():
    """Raw seconds of fixed work that does not call ouexit.

    About half is interpreter, libm and tiny-array numpy calls (the cost of
    the quadrature and of MC steps over few paths), half numpy passes over
    512 KB arrays and raw Philox draws (the cost of MC steps in high d).
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1, 500):
        acc += math.log(k) * math.exp(-1e-3 * k)
    vec = _PROBE_VEC
    for _ in range(120):
        w = vec * 0.999 + 0.001
        acc += float(np.sum(np.sqrt(w * w)))
    for _ in range(2):
        w = _PROBE_BLOCK * 0.999 + 0.001
        acc += float(np.sum(np.sqrt(w * w)))
    acc += float(_PROBE_BITS.random_raw(1 << 14)[0] >> 63)
    if acc <= 0.0:
        raise AssertionError("probe arithmetic")
    return time.perf_counter() - t0


class HostSpeed:
    """Probes run between operations, to rescale their times to REF_PROBE_S."""

    def __init__(self):
        self.probes = []
        self._due = 0.0

    def probe(self, force=False):
        """Run the probe if it is due (or ``force``); the index of the latest probe."""
        if force or time.perf_counter() >= self._due:
            self.probes.append(probe_s())
            self._due = time.perf_counter() + PROBE_EVERY_S
        return len(self.probes) - 1

    def scale(self, j):
        """Factor for a time taken between probe j and probe j + 1."""
        return REF_PROBE_S / statistics.median(self.probes[max(0, j - 1): j + 3])

    def timed(self, fn):
        """Host-normalised seconds of ``fn()``, and its result."""
        j = self.probe(force=True)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.probe(force=True)
        return seconds * self.scale(j), result


class Outcome:
    """What a pass over a workload's inputs produced."""

    def __init__(self):
        self.host = HostSpeed()
        self.host.probe(force=True)
        self.raw_s = []  # per operation: raw seconds
        self.probe_idx = []  # per operation: index of the latest probe before it
        self.work = 0
        self.failures = collections.Counter()  # kind -> failed operations
        self.violations = []
        self.digest = hashlib.sha256()
        self.extra = {}

    def _time(self, seconds):
        self.raw_s.append(seconds)
        self.probe_idx.append(len(self.host.probes) - 1)
        self.host.probe()

    def add(self, seconds, work):
        self._time(seconds)
        self.work += work

    def fail(self, seconds, kind):
        self._time(seconds)
        self.failures[kind] += 1
        self.record(kind + "\n")

    @property
    def attempted(self):
        return len(self.raw_s)

    @property
    def failed(self):
        return sum(self.failures.values())

    def record(self, text):
        self.digest.update(text.encode() if isinstance(text, str) else text)

    @property
    def op_s(self):
        """Each operation's host-normalised seconds."""
        scale = self.host.scale
        return [t * scale(j) for t, j in zip(self.raw_s, self.probe_idx)]

    @property
    def wall_s(self):
        return math.fsum(self.op_s)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _seed_stream(seed):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(64)


# ---------------------------------------------------------------------------
# exact-grid: distinct quadrature/bound problems, no simulation


def exact_problems(seed, n):
    """n distinct exit problems: 60% lam>0, 30% lam<=0, 10% large balls."""
    from ouexit import ExitProblem, OupParams

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.9:
            d = round(_log_uniform(rng, 1, 65536))
            big_l = rng.uniform(1.0, 5.0)
            if u < 0.6:
                lam = _log_uniform(rng, 0.05, 2.0)
            else:
                lam = 0.0 if rng.random() < 0.3 else -_log_uniform(rng, 0.05, 2.0)
        else:
            d = round(_log_uniform(rng, 1024, 65536))
            lam = _log_uniform(rng, 0.05, 2.0)
            big_l = math.sqrt(d / lam) * rng.uniform(0.5, 1.5)
        sigma = _log_uniform(rng, 0.5, 2.0)
        x = 0.0 if rng.random() < 0.25 else big_l * rng.uniform(0.0, 0.95)
        params = OupParams(theta=lam * sigma * sigma, sigma=sigma, d=d)
        out.append(ExitProblem(params=params, L=big_l, x=x))
    return out


# mfet_bounds computes upper_mixed through diff/lam, which overflows for
# lam < 1 when exp(lam L^2) is still finite (lam L^2 just below 709.78): it
# returns inf although upper_exp, the looser bound, is finite.  Like the
# ConvergenceError of ln_lower_gamma at large shape, this known defect counts
# as a failed operation; every other break of the chain fails the run.
BOUND_OVERFLOW = "BoundOverflow"


def check_exact(problem, exact, bounds):
    """None if the result passes its regime's check, BOUND_OVERFLOW, or a description."""
    from ouexit import mfet_bm

    lam = problem.params.lam
    slack = 1e-8 * exact
    if lam > 0:
        b = bounds
        lower_ok = b.lower_bm <= b.lower_exp * (1 + 1e-13) and b.lower_exp <= exact + slack
        if lower_ok and b.upper_mixed == math.inf and math.isfinite(b.upper_exp):
            return BOUND_OVERFLOW
        ok = (
            lower_ok
            and exact <= b.upper_mixed + slack
            and b.upper_mixed <= b.upper_exp * (1 + 1e-13)
        )
    elif lam == 0:
        bm = mfet_bm(problem)
        ok = abs(exact - bm) <= 1e-8 * bm
    else:
        ok = 0 < exact <= mfet_bm(problem) + slack
    return None if ok else f"{problem!r}: exact={exact!r} bounds={bounds!r}"


def prepare_exact_grid(seed, seconds):
    return exact_problems(seed, max(1, round(EXACT_PROBLEMS_PER_S * seconds)))


def execute_exact_grid(problems):
    from ouexit import ConvergenceError, EvaluationError, QuadratureError, mfet

    expected = (ConvergenceError, EvaluationError, QuadratureError)
    out = Outcome()
    clock = time.perf_counter
    for prob in problems:
        t0 = clock()
        try:
            exact = mfet.mfet_exact(prob)
            bounds = mfet.mfet_bounds(prob) if prob.params.lam > 0 else None
        except expected as exc:
            out.fail(clock() - t0, type(exc).__name__)
            continue
        seconds = clock() - t0
        problem_error = check_exact(prob, exact, bounds)
        if problem_error == BOUND_OVERFLOW:
            out.fail(seconds, BOUND_OVERFLOW)
            continue
        out.add(seconds, 1)
        out.record(f"{exact!r} {bounds!r}\n")
        if problem_error:
            out.violations.append(problem_error)
    return out


# ---------------------------------------------------------------------------
# MC workloads: estimate_mfet over fixed cells, every scheme per round


class McInputs:
    def __init__(self, seed, budget, cells):
        from ouexit import ExitProblem, OupParams, mfet_exact

        self.seed = seed
        self.budget = budget
        # (problem, n_paths) per cell, with its exact reference value
        self.cells = []
        for d, big_l, n_paths in cells:
            prob = ExitProblem(OupParams(theta=0.5, sigma=1.0, d=d), L=big_l, x=0.0)
            self.cells.append((prob, n_paths, mfet_exact(prob)))


def path_steps(est, cfg):
    """Path-steps an estimate took, from its outputs alone."""
    max_steps = max(1, int(math.floor(cfg.t_max / cfg.dt + 1e-9)))
    return round(est.mean * est.n_exited / est.dt) + est.n_censored * max_steps


def _pooled(ests):
    """Mean and standard error of the union of several estimates' samples."""
    n = sum(e.n_exited for e in ests)
    mean = math.fsum(e.n_exited * e.mean for e in ests) / n
    ss = math.fsum(
        e.std_err ** 2 * e.n_exited * (e.n_exited - 1) + e.n_exited * (e.mean - mean) ** 2
        for e in ests
    )
    return mean, math.sqrt(ss / (n - 1) / n)


def execute_mc(inputs):
    from ouexit import McConfig, simulate

    out = Outcome()
    seeds = _seed_stream(inputs.seed)
    clock = time.perf_counter
    groups = collections.defaultdict(list)  # (cell index, scheme) -> [(estimate, op index)]
    # every scheme on every cell in turn: all of them once, then up to the
    # first call that meets the budget
    cycle = [(ci, scheme) for ci in range(len(inputs.cells)) for scheme in SCHEMES]
    calls = itertools.cycle(cycle)
    while out.work < inputs.budget or out.attempted < len(cycle):
        ci, scheme = next(calls)
        prob, n_paths, _ = inputs.cells[ci]
        cfg = McConfig(n_paths=n_paths, dt=MC_DT, seed=next(seeds), scheme=scheme)
        t0 = clock()
        est = simulate.estimate_mfet(prob, cfg)
        out.add(clock() - t0, path_steps(est, cfg))
        out.record(repr(est) + "\n")
        if est.n_censored:
            out.violations.append(f"{prob!r} {scheme}: {est.n_censored} paths censored")
        groups[(ci, scheme)].append((est, out.attempted - 1))
    op_s = out.op_s
    s_to_1pct = 0.0
    for (ci, scheme), calls in groups.items():
        prob, _, exact = inputs.cells[ci]
        mean, se = _pooled([est for est, _ in calls])
        if abs(mean - exact) > Z_BOUND * se + BIAS_BUDGET * exact:
            out.violations.append(
                f"{prob!r} {scheme}: pooled mean {mean!r} +- {se!r} vs exact {exact!r}"
            )
        s_to_1pct += math.fsum(op_s[k] for _, k in calls) * (se / mean / 0.01) ** 2
    out.extra["s_to_1pct"] = s_to_1pct
    return out


def prepare_mc_metastable(seed, seconds):
    # The scaling preset's d=4, lam=0.5 cell at L=2.5: exits are rare events
    # with near-exponential times (mean 3.13, about 3100 steps), so the last
    # of 16 paths runs about 3.4 times as long as the mean one; a run holds
    # over a hundred 16-path batches, so the straggler tail averages out.
    budget = max(1, round(METASTABLE_PATH_STEPS_PER_S * seconds))
    return McInputs(seed, budget, [(4, 2.5, 16)])


def prepare_mc_highdim(seed, seconds):
    # The preset's own L=4 cells (exit within 16-65 steps) plus long-exit
    # cells with mfet_exact near 0.82 (about 800 steps of d normals each).
    budget = max(1, round(HIGHDIM_PATH_STEPS_PER_S * seconds))
    return McInputs(seed, budget, [(256, 4.0, 100), (1024, 4.0, 100), (256, 12.0, 16), (1024, 24.0, 8)])


# ---------------------------------------------------------------------------
# cli-trajectories: the CLI's single recorded path per (d, theta) and CSV


class CliInputs:
    def __init__(self, seed, budget):
        self.seed = seed
        self.budget = budget


def prepare_cli(seed, seconds):
    return CliInputs(seed, max(1, round(CLI_ROWS_PER_S * seconds)))


def check_traces(csv_text):
    """None if every (d, theta) trace ends on an exit row, else a description."""
    lines = csv_text.splitlines()[1:]
    last = {}
    for line in lines:
        d, theta, _, _, exited = line.split(",")
        last[(d, theta)] = exited
    bad = [key for key, exited in last.items() if exited != "1"]
    if not lines or bad:
        return f"traces without an exit row: {bad or 'no rows'}"
    return None


def execute_cli(inputs):
    from ouexit import cli

    out = Outcome()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"traces-{os.getpid()}.csv"
    manifest = Path(str(path) + ".manifest.json")
    seeds = _seed_stream(inputs.seed)
    clock = time.perf_counter
    bytes_written = 0

    def remove_outputs():
        for p in (path, manifest):
            if p.exists():
                p.unlink()

    try:
        while out.work < inputs.budget:
            remove_outputs()
            seed = next(seeds) >> 1  # the CLI takes a signed 64-bit --seed
            t0 = clock()
            rc = cli.main(["trajectories", "--seed", str(seed), "--output", str(path)])
            seconds = clock() - t0
            data = path.read_bytes() if path.exists() else b""
            out.record(data)
            out.add(seconds, max(data.count(b"\n") - 1, 0))
            bytes_written += len(data)
            problem = None if rc == 0 else f"exit code {rc}"
            problem = problem or check_traces(data.decode())
            if not manifest.is_file():
                problem = problem or "no manifest written"
            if problem:
                out.violations.append(f"seed {seed}: {problem}")
                out.failures["cli"] += 1
                break
    finally:
        remove_outputs()
    out.extra["bytes_written"] = bytes_written
    return out


# name -> (prepare(seed, seconds) -> inputs, execute(inputs) -> Outcome)
WORKLOADS = {
    "exact-grid": (prepare_exact_grid, execute_exact_grid),
    "mc-metastable": (prepare_mc_metastable, execute_mc),
    "mc-highdim": (prepare_mc_highdim, execute_mc),
    "cli-trajectories": (prepare_cli, execute_cli),
}


# ---------------------------------------------------------------------------
# tracing


def install_wrappers(tracer):
    """Wrap each layer's module attributes; the benchmark calls go through them."""
    import ouexit.cli
    import ouexit.mfet
    import ouexit.simulate
    import ouexit.special

    def gamma_branch(args):
        a, x = args
        return "special.ln_lower_gamma." + ("series" if x < a + 1.0 else "contfrac")

    def count_panels(tr, span, args, res):
        tr.count("quadrature.integrate_log.panels", res.panels_used)

    def count_path_steps(tr, span, args, est):
        prob, cfg = args
        steps = path_steps(est, cfg)
        tr.count(span + ".path_steps", steps)
        if cfg.scheme.value in FULL_SCHEMES:
            tr.count("simulate.normals", steps * prob.params.d)

    def count_record_steps(tr, span, args, rec):
        tr.count("simulate.record_path.steps", len(rec.times) - 1)

    tracer.wrap(ouexit.special, "ln_lower_gamma", gamma_branch)
    tracer.wrap(ouexit.mfet, "integrate_log", "quadrature.integrate_log", count_panels)
    tracer.wrap(ouexit.mfet, "mfet_exact", "mfet.mfet_exact")
    tracer.wrap(ouexit.mfet, "mfet_bounds", "mfet.mfet_bounds")
    tracer.wrap(ouexit.simulate, "estimate_mfet",
                lambda args: "simulate." + args[1].scheme.value, count_path_steps)
    tracer.wrap(ouexit.cli, "record_path", "simulate.record_path", count_record_steps)
    tracer.wrap(ouexit.cli, "main", "cli.main")


def layer_metrics(tracer, traced, untraced):
    s = tracer.summary()
    c = tracer.counters

    def total(name):
        return s.get(name, {}).get("total_ns", 0.0)

    def own(name):
        return s.get(name, {}).get("self_ns", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def per(num, den):
        return num / den if den else 0.0

    series, contfrac = "special.ln_lower_gamma.series", "special.ln_lower_gamma.contfrac"
    quad = "quadrature.integrate_log"
    panels = c.get(quad + ".panels", 0)
    rows = traced.work if calls("cli.main") else 0
    # latency of whole exact-grid problems, taken from the untraced pass
    exact = calls("mfet.mfet_exact") > 0
    m = {
        "special.ln_lower_gamma.calls": calls(series) + calls(contfrac),
        "special.ln_lower_gamma.series.ns_per_call": per(total(series), calls(series)),
        "special.ln_lower_gamma.contfrac.ns_per_call": per(total(contfrac), calls(contfrac)),
        "special.ln_lower_gamma.failed": c.get(series + ".failed", 0) + c.get(contfrac + ".failed", 0),
        "quadrature.integrate_log.calls": calls(quad),
        "quadrature.integrate_log.panels": panels,
        "quadrature.integrate_log.us_per_panel": per(own(quad), panels) / 1e3,
        "quadrature.integrate_log.self_ms": own(quad) / 1e6,
        "mfet.mfet_exact.self_ms": own("mfet.mfet_exact") / 1e6,
        "mfet.exact_p50_ms": _quantile(untraced.op_s, 0.5) * 1e3 if exact else 0.0,
        "mfet.exact_p99_ms": _quantile(untraced.op_s, 0.99) * 1e3 if exact else 0.0,
        "mfet.mfet_bounds.us_per_call": per(total("mfet.mfet_bounds"), calls("mfet.mfet_bounds")) / 1e3,
        "simulate.normals_per_s": per(c.get("simulate.normals", 0),
                                      sum(total("simulate." + f) for f in FULL_SCHEMES) / 1e9),
        "simulate.s_to_1pct": traced.extra.get("s_to_1pct", 0.0),
        "simulate.record_path.us_per_step": per(total("simulate.record_path"),
                                                c.get("simulate.record_path.steps", 0)) / 1e3,
        "cli.self_ms": own("cli.main") / 1e6,
        "cli.us_per_row": per(own("cli.main"), rows) / 1e3,
        "cli.bytes_written": traced.extra.get("bytes_written", 0),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
    for scheme in SCHEMES:
        steps = c.get(f"simulate.{scheme}.path_steps", 0)
        m[f"simulate.{scheme}.path_steps"] = steps
        m[f"simulate.{scheme}.ns_per_path_step"] = per(total("simulate." + scheme), steps)
    return m


# ---------------------------------------------------------------------------
# command line


def import_seconds():
    """Median host-normalised time of ``import ouexit`` in a fresh interpreter.

    The interpreter imports numpy, which ouexit needs, before ouexit, and the
    whole import time is scaled by REF_NUMPY_IMPORT_S over numpy's share:
    loading modules slows with the host as loading numpy does, which the
    probe does not track.
    """
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import ouexit; print(t1 - t0, time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        numpy_s, total_s = map(float, done.stdout.split())
        times.append(total_s * REF_NUMPY_IMPORT_S / numpy_s)
    return statistics.median(times)


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args):
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "untraced",
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end_metrics(outcome, setup_s):
    attempted = outcome.attempted
    return {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "work_per_s": outcome.work / outcome.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": (attempted - outcome.failed) / attempted,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="work budget, in seconds of ouexit 0.1.0 on a 2-core VM")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ouexit" / "__init__.py").is_file():
        print(f"error: no ouexit package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import_s = import_seconds()
    host = HostSpeed()
    import ouexit  # noqa: F401

    prepare, execute = WORKLOADS[args.workload]
    prep_s = []
    for _ in range(SETUP_REPEATS):
        seconds, inputs = host.timed(lambda: prepare(args.seed, args.seconds))
        prep_s.append(seconds)
    setup_s = import_s + statistics.median(prep_s)

    outcome = execute(inputs)
    violations = list(outcome.violations)
    if args.trace:
        with Tracer() as tracer:
            install_wrappers(tracer)
            traced = execute(inputs)
        if traced.digest.digest() != outcome.digest.digest():
            violations.append("traced outputs differ from untraced outputs")
        violations += traced.violations
        metrics = layer_metrics(tracer, traced, outcome)
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        metrics = end_to_end_metrics(outcome, setup_s)
        units = END_TO_END

    attempted = outcome.attempted
    info = {
        "workload": args.workload,
        "environment": environment(args),
        "digest": outcome.digest.hexdigest(),
        "work": outcome.work,
        "attempted": attempted,
        "failed": dict(outcome.failures),
        "wall_s": outcome.wall_s,
        "raw_wall_s": math.fsum(outcome.raw_s),
        "probe_median_s": statistics.median(outcome.host.probes),
        "violations": violations[:20],
    }
    print(json.dumps(info))
    for v in violations[:20]:
        print(f"violation: {v}", file=sys.stderr)
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())

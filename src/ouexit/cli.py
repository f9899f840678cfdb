"""Command-line front end: exact values, bounds, and reproducible experiments.

Subcommands
-----------
mfet          exact mean exit time, Brownian closed form, their ratio, and
              (for theta > 0) the four closed-form bounds, as CSV or JSON.
scaling       table of exact value, bounds and a Monte-Carlo estimate over a
              doubling grid of dimensions (the bound-scaling experiment).
trajectories  coupled radius-vs-time traces of the mean-reverting process
              and the matching driftless one, per dimension.
drift-ratio   drift of the squared radial process relative to its driftless
              counterpart on a radius grid.
selftest      built-in invariant suite; exit code 1 on the first violation.

Every run that writes to a file also writes ``<file>.manifest.json`` with
the command, all parameter values, the seed and the tool version, so the
output can be regenerated exactly.  Every input, and the size of each MC
cell, is checked before the output is opened, so a usage error (exit 2)
or a cell too large to run (exit 3) writes nothing.  Exit codes: 0 success,
1 selftest failure, 2 usage error, 3 numerical failure, 141 closed stdout.

Every CSV table goes through one writer, a group of rows at a time.  A
group holds one entry per column: a list of that column's cells (the lists
share one length), or one value that repeats down the group; a group of
single values alone is one row.  Each list column is formatted in one pass,
and the rows are joined and written ``_BLOCK_ROWS`` at a time, one write a
block, so a long trace costs a few C-level passes, not a call per cell.
``trajectories`` formats its time column once per run: every trace's times
are k * dt, so each trace takes a prefix of the longest one's strings.

Only ``scaling``, ``trajectories`` and ``selftest`` simulate, so only they
import numpy; ``mfet`` and ``drift-ratio`` run on the standard library
alone.  The manifest of a simulating command records numpy's version, as
the normals' bits are those of numpy's sampler.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .errors import DomainError, OuexitError
from .mfet import ExitProblem, OupParams, drift_ratio, mfet_bm, mfet_bounds, mfet_exact
from .schemes import FULL_DIMENSIONAL, Scheme

DEFAULT_SEED = 123456789

_MFET_COLUMNS = (
    "d", "L", "x", "sigma", "theta", "lambda", "regime",
    "mfet_exact", "mfet_bm", "ratio",
    "lower_bm", "lower_exp", "upper_mixed", "upper_exp",
)
_SCALING_COLUMNS = (
    "d", "mfet_exact", "lower_bm", "lower_exp", "upper_mixed", "upper_exp",
    "mc_mean", "mc_stderr", "n_censored",
)
_TRAJ_COLUMNS = ("d", "theta", "t", "radius", "exited")
_DRIFT_COLUMNS = ("d", "rho", "ratio")


def _simulate(*names):
    """The named ``simulate`` attributes as this module binds them.

    Imports ``simulate`` (and with it numpy) on first use; a missing numpy
    is a usage error.  A binding already in place, such as a wrapper set on
    this module, wins.
    """
    try:
        from . import simulate
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise DomainError(f"this command simulates, which needs numpy: {exc}") from None

    return [globals().setdefault(name, getattr(simulate, name)) for name in names]


def __getattr__(name):
    if name in ("McConfig", "estimate_mfet", "record_path"):
        return _simulate(name)[0]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _now():
    return datetime.now(timezone.utc).isoformat()


def _fmt(v):
    """Shortest round-trip serialization; 0/1 for flags, empty cell for missing values."""
    t = type(v)  # floats first: most cells are
    if t is float:
        return repr(v)
    if t is bool:
        return "1" if v else "0"
    if v is None:
        return ""
    return str(v)


_BLOCK_ROWS = 4096  # rows joined into one string a write


def _cells(entry):
    """One column of a group as strings, with ``_fmt``'s bytes."""
    if type(entry) is not list:
        return itertools.repeat(_fmt(entry))
    kinds = set(map(type, entry))
    if kinds == {float}:
        return map(float.__repr__, entry)
    if kinds == {str}:  # formatted already
        return entry
    return map(_fmt, entry)


def _write_group(out, group):
    """Write one column group (see the module docstring), ``_BLOCK_ROWS`` rows a write."""
    if not any(type(entry) is list for entry in group):
        group = [[entry] for entry in group]
    rows = map(",".join, zip(*map(_cells, group)))
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        out.write("\n".join(block) + "\n")


@contextlib.contextmanager
def _out_stream(path):
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="\n")
    except OSError as exc:
        raise DomainError(f"cannot open --output {path!r}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_manifest(args, started):
    """Write everything needed to regenerate ``args.output`` bit-for-bit."""
    if not args.output:
        return
    manifest = {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),  # None for commands that draw no random numbers
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
    }
    if manifest["seed"] is not None:
        # a command that simulates: its normals' bits are those of this
        # numpy's sampler on SFC64 streams
        manifest["numpy_version"] = sys.modules["numpy"].__version__
        manifest["bit_generator"] = "SFC64"
    with open(args.output + ".manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_table(args, started, columns, row_groups):
    """Write a CSV table, flushing after each group of rows, then its manifest.

    A group has one entry per column (see ``_write_group``), and its rows go
    out a block at a time.  Callers check every input before calling, so a
    usage error never leaves a partial file; groups may be lazy, so each
    group's rows appear as soon as it is computed.
    """
    with _out_stream(args.output) as out:
        _write_group(out, columns)
        for group in row_groups:
            _write_group(out, group)
            out.flush()
    _write_manifest(args, started)
    return 0


def _parse_int_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")
    return values


def _check_mc_cost(d, cfg, exact=0.0):
    """Exit 3 for an MC cell past 2**27 normals a step (paths x d in the full schemes,
    paths in the radial ones: 1 GiB an array) or 2**40 over its exact / dt steps."""
    per_path = d if cfg.scheme in FULL_DIMENSIONAL else 1
    if cfg.n_paths * per_path > 2**27:
        raise OuexitError(f"cell d={d}: one step holds {cfg.n_paths * per_path} normals, past 2**27")
    steps = cfg.n_paths * exact / cfg.dt
    if steps * per_path > 2**40:
        raise OuexitError(f"cell d={d}: about {steps:.3g} path-steps (paths x mfet_exact / dt) "
                          f"of {per_path} normals each exceed the limit of 2**40 normals")


# ---------------------------------------------------------------------------
# mfet

_BOUND_FIELDS = ("lower_bm", "lower_exp", "upper_mixed", "upper_exp")


def _exact_fields(prob):
    """(mfet_exact, mfet_bm, {bound field: value, or None unless theta > 0}).

    An exact value that overflows the double range is a numerical failure,
    so no command writes inf for it.
    """
    p = prob.params
    exact = mfet_exact(prob)
    if not math.isfinite(exact):
        raise OuexitError(f"cell d={p.d}, L={prob.L!r}, lambda={p.lam!r}: "
                          f"mfet_exact={exact!r} overflows the double range")
    b = mfet_bounds(prob) if p.theta > 0 else None
    return exact, mfet_bm(prob), {k: getattr(b, k, None) for k in _BOUND_FIELDS}


def cmd_mfet(args):
    started = _now()
    params = OupParams(theta=args.theta, sigma=args.sigma, d=args.d)
    prob = ExitProblem(params=params, L=args.L, x=args.x)
    exact, bm, bounds = _exact_fields(prob)
    if args.theta > 0:
        regime = "recurrent"
    elif args.theta == 0:
        regime = "brownian"
    else:
        regime = "transient"
    rec = {
        "d": args.d, "L": args.L, "x": args.x,
        "sigma": args.sigma, "theta": args.theta, "lambda": params.lam,
        "regime": regime,
        "mfet_exact": exact, "mfet_bm": bm,
        "ratio": exact / bm if args.x < args.L else None,
        **bounds,
    }
    if args.format == "csv":
        return _write_table(args, started, _MFET_COLUMNS, [[rec[c] for c in _MFET_COLUMNS]])
    with _out_stream(args.output) as out:
        out.write(json.dumps(rec, indent=2) + "\n")
    _write_manifest(args, started)
    return 0


# ---------------------------------------------------------------------------
# scaling

def _power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def cmd_scaling(args):
    if not (_power_of_two(args.d_min) and _power_of_two(args.d_max)):
        raise DomainError("--d-min and --d-max must be powers of two")
    if args.d_min > args.d_max:
        raise DomainError("--d-min must not exceed --d-max")
    McConfig, estimate_mfet = _simulate("McConfig", "estimate_mfet")
    started = _now()
    cells = []  # (problem, MC config, exact-value columns) for every d before any output
    d = args.d_min
    while d <= args.d_max:
        params = OupParams(theta=args.lam * args.sigma * args.sigma, sigma=args.sigma, d=d)
        prob = ExitProblem(params=params, L=args.L, x=args.x)
        exact, bm, bounds = _exact_fields(prob)
        # Safety horizon well past the analytic mean so censoring is a
        # pathology report, not a routine truncation of the estimate.
        cfg = McConfig(n_paths=args.paths, dt=args.dt, seed=args.seed, scheme=args.scheme,
                       t_max=max(50.0 * exact, 1e6 * args.dt))
        row = [d, exact, bm, bounds["lower_exp"], bounds["upper_mixed"], bounds["upper_exp"]]
        cells.append((prob, cfg, row))
        d *= 2
    for _, cfg, (d, exact, *_) in cells:  # after every usage check
        _check_mc_cost(d, cfg, exact)

    def groups():
        for prob, cfg, row in cells:
            est = estimate_mfet(prob, cfg)
            yield row + [est.mean, est.std_err, est.n_censored]

    return _write_table(args, started, _SCALING_COLUMNS, groups())


# ---------------------------------------------------------------------------
# trajectories

def cmd_trajectories(args):
    McConfig, record_path = _simulate("McConfig", "record_path")
    started = _now()
    cfg = McConfig(n_paths=1, dt=args.dt, seed=args.seed, scheme=Scheme.FULL_EULER)
    problems = []  # the coupled (theta, 0) pair per dimension
    for d in _parse_int_list(args.d):
        for theta in (args.theta, 0.0):
            params = OupParams(theta=theta, sigma=args.sigma, d=d)
            problems.append(ExitProblem(params=params, L=args.L, x=0.0))
    for prob in problems[::2]:  # after every usage check
        _check_mc_cost(prob.params.d, cfg)

    def groups():
        times = []  # the run's formatted times: every trace's are k * dt
        for prob in problems:
            p = prob.params
            rec = record_path(prob, cfg, 0)
            n = len(rec.times)
            times += map(float.__repr__, rec.times[len(times):].tolist())
            # flag the engine's crossing, where record_path stops: sqrt(|x|^2)
            # can reach L a step early
            exited = ["0"] * (n - 1) + ["0" if rec.exited_at is None else "1"]
            yield [p.d, p.theta, times[:n], rec.radii.tolist(), exited]

    return _write_table(args, started, _TRAJ_COLUMNS, groups())


# ---------------------------------------------------------------------------
# drift-ratio

def cmd_drift_ratio(args):
    if not (math.isfinite(args.rho_max) and args.rho_max > 0):
        raise DomainError(f"--rho-max must be a positive finite real, got {args.rho_max!r}")
    started = _now()
    rhos = [args.rho_max * k / 100 for k in range(101)]
    dims = _parse_int_list(args.d_list)
    params = [OupParams(theta=args.theta, sigma=args.sigma, d=d) for d in dims]
    # closed-form rows, cheap enough to compute (and so check) in full up front
    groups = [[p.d, rhos, [drift_ratio(p, rho) for rho in rhos]] for p in params]
    return _write_table(args, started, _DRIFT_COLUMNS, groups)


# ---------------------------------------------------------------------------
# selftest

def cmd_selftest(args):
    from .selftest import run_selftest

    ok, first_failure = run_selftest()
    if not ok:
        print(f"FAILED: {first_failure}")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ouexit",
        description="Mean first-exit times of d-dimensional Ornstein-Uhlenbeck processes",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--output": dict(help="output path (default stdout)"),
        "--seed": dict(type=int, default=DEFAULT_SEED),
    }

    def add_common(sp, *flags):  # only the flags the subcommand reads
        for flag in flags:
            sp.add_argument(flag, **common[flag])

    sp = sub.add_parser("mfet", help="exact value, Brownian form, ratio, bounds")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--L", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--theta", type=float, required=True)
    add_common(sp, "--format", "--output")
    sp.set_defaults(func=cmd_mfet)

    sp = sub.add_parser("scaling", help="bounds and MC estimates over doubling dimensions")
    sp.add_argument("--d-min", type=int, default=2)
    sp.add_argument("--d-max", type=int, default=256)
    sp.add_argument("--L", type=float, default=4.0)
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--paths", type=int, default=100)
    sp.add_argument("--dt", type=float, default=0.001)
    sp.add_argument("--scheme", choices=[s.value for s in Scheme],
                    default=Scheme.SQUARED_RADIAL_EULER.value)
    add_common(sp, "--output", "--seed")
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("trajectories", help="coupled OUP/BM radius traces")
    sp.add_argument("--d", default="2,10,1000", help="comma-separated dimensions")
    sp.add_argument("--L", type=float, default=2.5)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--theta", type=float, default=0.7)
    sp.add_argument("--dt", type=float, default=0.001)
    add_common(sp, "--output", "--seed")
    sp.set_defaults(func=cmd_trajectories)

    sp = sub.add_parser("drift-ratio", help="squared-radial drift relative to the driftless case")
    sp.add_argument("--theta", type=float, default=0.7)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--rho-max", type=float, default=3.0)
    sp.add_argument("--d-list", default="2,4,8,16,32,64,128")
    add_common(sp, "--output")
    sp.set_defaults(func=cmd_drift_ratio)

    sp = sub.add_parser("selftest", help="run the built-in invariant suite")
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    """Run one command; return its exit code (141 as ``ouexit`` on a closed stdout)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # rows still buffered meet a closed pipe here, not at exit
        return code
    except BrokenPipeError:
        if argv is not None:  # in-process callers see it
            raise
        # stdout closed (``| head``): 128 + SIGPIPE, and the exit flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OuexitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

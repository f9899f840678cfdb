"""Tests for the command-line front end: flags, formats, exit codes, manifests."""

import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import ouexit.cli
import ouexit.mfet
from ouexit import selftest
from ouexit.cli import main
from ouexit.errors import QuadratureError
from ouexit.quadrature import QuadResult
from ouexit.simulate import PathRecord, _stream


def run_cli(*argv):
    return main(list(argv))


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestMfetCommand:
    def test_brownian_closed_form_field(self, capsys):
        code = run_cli("mfet", "--d", "4", "--L", "2", "--x", "0",
                       "--sigma", "1", "--theta", "0", "--format", "json")
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["mfet_bm"] == 1.0
        assert rec["regime"] == "brownian"
        assert rec["lower_bm"] is None

    def test_bounds_fields_match_closed_forms(self, capsys):
        code = run_cli("mfet", "--d", "4", "--L", "4", "--x", "0",
                       "--sigma", "1", "--theta", "0.5", "--format", "json")
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        e8 = math.exp(8.0)
        assert rec["lower_bm"] == pytest.approx(4.0, rel=1e-12)
        assert rec["lower_exp"] == pytest.approx(1.5 * (math.exp(16.0 / 6.0) - 1.0), rel=1e-12)
        assert rec["upper_mixed"] == pytest.approx((2.0 * (e8 - 1.0) + 32.0) / 12.0, rel=1e-12)
        assert rec["upper_exp"] == pytest.approx((e8 - 1.0) / 2.0, rel=1e-12)
        assert rec["lower_exp"] < rec["mfet_exact"] < rec["upper_mixed"]

    def test_transient_regime_flagged_and_bounds_omitted(self, capsys):
        code = run_cli("mfet", "--d", "4", "--L", "4", "--x", "0",
                       "--sigma", "1", "--theta", "-0.5", "--format", "json")
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["regime"] == "transient"
        assert rec["upper_exp"] is None
        csv_code = run_cli("mfet", "--d", "4", "--L", "4", "--x", "0",
                           "--sigma", "1", "--theta", "-0.5")
        assert csv_code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["upper_exp"] == ""

    def test_smallest_normal_theta_still_computes(self, capsys):
        # just above the smallest normal double the drift is negligible
        code = run_cli("mfet", "--d", "4", "--L", "4", "--x", "0",
                       "--sigma", "1", "--theta", "2.3e-308", "--format", "json")
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["mfet_exact"] == pytest.approx(4.0, rel=1e-12)
        assert rec["lower_exp"] == pytest.approx(4.0, rel=1e-12)

    def test_json_round_trips_idempotently(self, capsys):
        run_cli("mfet", "--d", "3", "--L", "2.5", "--x", "0.5",
                "--sigma", "1.2", "--theta", "0.3", "--format", "json")
        text = capsys.readouterr().out
        assert json.dumps(json.loads(text), indent=2) + "\n" == text

    def test_usage_error_is_exit_2(self, capsys):
        assert run_cli("mfet", "--d", "4", "--L", "2") == 2  # missing flags
        capsys.readouterr()
        assert run_cli("mfet", "--d", "4", "--L", "2", "--x", "3",
                       "--sigma", "1", "--theta", "0") == 2  # x > L
        capsys.readouterr()

    def test_quadrature_failure_is_exit_3(self, monkeypatch, capsys):
        def starved(log_f, a, b):
            raise QuadratureError("quadrature did not converge", QuadResult(0.0, 1.0, 1))

        # theta < 0 past the Poisson series' mu L^2 = 150: only there is a
        # quadrature left
        monkeypatch.setattr(ouexit.mfet, "integrate_log", starved)
        code = run_cli("mfet", "--d", "1", "--L", "10", "--x", "0",
                       "--sigma", "1", "--theta", "-2")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("big_l,theta", [("1e154", "-0.5"), ("1e150", "-1e10")])
    def test_huge_transient_ball_is_a_finite_value(self, big_l, theta):
        # |lam| L^2 = 5e307 and 1e310, the second past the double range: a
        # value within 5 s, inside the bounds
        # ln(1 + |lam| L^2 / 2) <= 2 |theta| E tau <= ln(1 + |lam| L^2)
        proc = subprocess.run(
            [sys.executable, "-m", "ouexit", "mfet", "--d", "4", "--L", big_l, "--x", "0",
             "--sigma", "1", f"--theta={theta}", "--format", "json"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 0
        scaled = -2.0 * float(theta) * json.loads(proc.stdout)["mfet_exact"]
        ln_lam_l2 = math.log(-float(theta)) + 2.0 * math.log(float(big_l))
        assert ln_lam_l2 - math.log(2.0) <= scaled <= ln_lam_l2 * (1.0 + 1e-12)

    @pytest.mark.parametrize("command", ["mfet", "mfet --format json"])
    def test_overflowing_exact_value_is_numerical_failure(self, command, tmp_path, capsys):
        # lambda L^2 = 45000: mfet_exact is inf, so neither value nor bounds are written
        out = tmp_path / "t.csv"
        code = run_cli(*command.split(), "--d", "65536", "--L", "300", "--x", "0", "--sigma", "1",
                       "--theta", "0.5", "--output", str(out))
        assert code == 3
        assert "mfet_exact=inf overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflow_decided_without_quadrature_is_numerical_failure(self, capsys):
        # lambda L^2 = 1e8: the quadrature gave up after seconds; the series'
        # peak term decides the overflow at once
        started = time.perf_counter()
        code = run_cli("mfet", "--d", "4", "--L", "10000", "--x", "0", "--sigma", "1",
                       "--theta", "1")
        assert code == 3
        assert "overflows the double range" in capsys.readouterr().err
        assert time.perf_counter() - started < 1.0

    def test_peak_index_at_its_cap_is_numerical_failure(self):
        # lambda L^2 = 1e32: the peak index stops at 2**52, where
        # (b + n - y)/y rounds to -1; exit 3, not a math domain error
        proc = subprocess.run(
            [sys.executable, "-m", "ouexit", "mfet", "--d", "4", "--L", "1e16", "--x", "0",
             "--sigma", "1", "--theta", "1"],
            capture_output=True, text=True, timeout=5,
        )
        assert proc.returncode == 3
        assert "overflows the double range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_square_at_huge_dimension_is_finite(self, capsys):
        # L^2 = 1e400 and d = 1e308: E tau = L^2/d = 1e92, and 2 lam/(d+2)
        # underflows to 0, which made lower_exp 0 inf = NaN
        code = run_cli("mfet", "--d", str(10**308), "--L", "1e200", "--x", "0", "--sigma", "1",
                       "--theta", "1e-300", "--format", "json")
        assert code == 0
        out = capsys.readouterr().out
        assert "NaN" not in out
        rec = json.loads(out)
        assert rec["mfet_exact"] == rec["mfet_bm"] == rec["lower_exp"] == 1e92
        assert rec["ratio"] == 1.0

    def test_huge_dimension_needs_no_flag(self, capsys):
        code = run_cli("mfet", "--d", str(2**21), "--L", "2", "--x", "0",
                       "--sigma", "1", "--theta", "0", "--format", "json")
        assert code == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["mfet_exact"] == rec["mfet_bm"] == 4.0 / 2**21


class TestScalingCommand:
    def test_small_grid_contract(self, capsys):
        code = run_cli("scaling", "--d-min", "2", "--d-max", "8",
                       "--L", "2", "--paths", "20", "--dt", "0.001")
        assert code == 0
        out = capsys.readouterr().out
        rows = parse_csv(out)
        assert out.splitlines()[0] == "d,mfet_exact,lower_bm,lower_exp,upper_mixed,upper_exp,mc_mean,mc_stderr,n_censored"
        assert [r["d"] for r in rows] == ["2", "4", "8"]
        for r in rows:
            d = int(r["d"])
            assert float(r["lower_bm"]) == pytest.approx(4.0 / d, rel=1e-12, abs=0.0)
            assert float(r["lower_exp"]) <= float(r["mfet_exact"]) <= float(r["upper_mixed"])

    def test_brownian_rows_leave_bound_columns_empty(self, capsys):
        code = run_cli("scaling", "--d-min", "4", "--d-max", "4", "--L", "2",
                       "--lambda", "0", "--paths", "10", "--dt", "0.001")
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0]["lower_exp"] == ""
        assert rows[0]["lower_bm"] != ""

    def test_overflowing_cell_is_numerical_failure(self, tmp_path, capsys):
        # lambda L^2 = 800: mfet_exact overflows to inf, so the cell has no
        # finite MC horizon; nothing is written
        out = tmp_path / "t.csv"
        code = run_cli("scaling", "--L", "40", "--d-min", "2", "--d-max", "2",
                       "--output", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cell d=2, L=40.0, lambda=0.5:")
        assert not out.exists()

    def test_cell_past_the_cost_limit_is_refused(self, tmp_path, capsys):
        # the horizon passes the 2**53-step cap, but 100 paths x mfet_exact
        # (1.86e9) / dt is 1.9e14 path-steps: refused before any output
        out = tmp_path / "t.csv"
        start = time.monotonic()
        code = run_cli("scaling", "--L", "7", "--d-min", "2", "--d-max", "2",
                       "--output", str(out))
        assert time.monotonic() - start < 1.0
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cell d=2: about 1.86e+14 path-steps")
        assert list(tmp_path.iterdir()) == []

    def test_largest_cell_the_old_dimension_cap_admitted_still_runs(self, monkeypatch, capsys):
        # 100 paths x 2**20 normals a step is within 2**27; the estimate is
        # stubbed, as the real run needs several GB
        est = type("Est", (), {"mean": 1.0, "std_err": 0.0, "n_censored": 0})
        monkeypatch.setattr(ouexit.cli, "estimate_mfet", lambda prob, cfg: est, raising=False)
        code = run_cli("scaling", "--scheme", "full-exact", "--d-min", str(2**20),
                       "--d-max", str(2**20))
        assert code == 0
        assert parse_csv(capsys.readouterr().out)[0]["d"] == str(2**20)

    def test_non_power_of_two_rejected(self, capsys):
        assert run_cli("scaling", "--d-min", "3", "--d-max", "8") == 2
        capsys.readouterr()

    def test_manifest_written_next_to_output(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli("scaling", "--d-min", "2", "--d-max", "2", "--L", "1",
                       "--paths", "5", "--dt", "0.001", "--output", str(out)) == 0
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "scaling"
        assert manifest["parameters"]["paths"] == 5
        assert manifest["parameters"]["dt"] == 0.001
        assert manifest["seed"] == 123456789
        assert manifest["tool_version"]
        assert manifest["started"] <= manifest["finished"]

    def test_csv_uses_lf_line_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("scaling", "--d-min", "2", "--d-max", "2", "--L", "1",
                "--paths", "5", "--dt", "0.001", "--output", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestTrajectoriesCommand:
    def test_small_run_contract(self, capsys):
        code = run_cli("trajectories", "--d", "4", "--L", "1.5", "--dt", "0.001")
        assert code == 0
        out = capsys.readouterr().out
        rows = parse_csv(out)
        assert out.splitlines()[0] == "d,theta,t,radius,exited"
        assert rows[0]["radius"] == "0.0"  # starts at the origin
        thetas = {r["theta"] for r in rows}
        assert thetas == {"0.7", "0.0"}
        exited_rows = [r for r in rows if r["exited"] == "1"]
        assert exited_rows
        for r in exited_rows:
            assert float(r["radius"]) >= 1.5

    def test_exit_row_is_the_engines_crossing(self, monkeypatch, capsys):
        # an interior radius of exactly L (|x|^2 one ulp below L^2 rounds to
        # it under sqrt) is no exit; only the recorded crossing is flagged
        assert math.sqrt(math.nextafter(6.25, 0.0)) == 2.5
        rec = PathRecord(times=np.array([0.0, 0.001, 0.002]),
                         radii=np.array([0.0, 2.5, 2.6]), exited_at=0.002)
        monkeypatch.setattr(ouexit.cli, "record_path", lambda *a, **k: rec)
        assert run_cli("trajectories", "--d", "2", "--L", "2.5") == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [(r["theta"], r["t"]) for r in rows if r["exited"] == "1"] == [
            ("0.7", "0.002"), ("0.0", "0.002")]
        assert all(r["exited"] == "0" for r in rows if r["t"] != "0.002")

    def test_a_censored_trace_flags_no_row(self, monkeypatch, capsys):
        # a path the horizon stops has no exit time, so its last row is no exit
        rec = PathRecord(times=np.array([0.0, 0.001]), radii=np.array([0.0, 1.0]), exited_at=None)
        monkeypatch.setattr(ouexit.cli, "record_path", lambda *a, **k: rec)
        assert run_cli("trajectories", "--d", "2", "--L", "2.5") == 0
        assert {r["exited"] for r in parse_csv(capsys.readouterr().out)} == {"0"}

    @pytest.mark.parametrize("lengths", [
        [1, 4095, 4097, 9000],
        [3, 5000, 2, 8193],  # a shorter trace between longer ones takes a prefix
    ], ids=["growing", "with-a-dip"])
    def test_time_column_is_every_traces_own(self, lengths, monkeypatch, capsys):
        # the run formats its times once and extends them for a longer trace
        dt = 0.0007
        sizes = iter(lengths)

        def record(prob, cfg, i):
            times = np.arange(next(sizes)) * cfg.dt
            return PathRecord(times=times, radii=times + 1.0, exited_at=float(times[-1]))

        monkeypatch.setattr(ouexit.cli, "record_path", record)
        assert run_cli("trajectories", "--d", "2,3", "--dt", str(dt)) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == sum(lengths)
        start = 0
        for n in lengths:
            trace = rows[start:start + n]
            start += n
            assert [r["t"] for r in trace] == [repr(t) for t in (np.arange(n) * dt).tolist()]
            assert [r["exited"] for r in trace] == ["0"] * (n - 1) + ["1"]


class TestMcCellTooLarge:
    @pytest.mark.parametrize("argv,first", [
        (f"trajectories --d 2,{2**40}", f"cell d={2**40}: one step holds {2**40} normals"),
        (f"scaling --scheme full-exact --d-min {2**21} --d-max {2**21}",
         f"cell d={2**21}: one step holds {100 * 2**21} normals"),
        (f"scaling --d-min 1 --d-max 1 --paths {2**27 + 1}",
         f"cell d=1: one step holds {2**27 + 1} normals"),
        # 2**40 counts normals: 1.5e6 path-steps, but of 2**20 normals each
        (f"scaling --scheme full-euler --d-min {2**20} --d-max {2**20} --paths 1 --dt 1e-11",
         f"cell d={2**20}: about 1.53e+06 path-steps (paths x mfet_exact / dt) of {2**20}"),
    ], ids=["trajectories", "scaling-full", "scaling-radial", "scaling-normals"])
    def test_is_refused_at_once_and_writes_nothing(self, argv, first, tmp_path, capsys):
        # a step past 2**27 normals (1 GiB an array), or a run past 2**40:
        # refused before any output or array exists
        out = tmp_path / "t.csv"
        start = time.monotonic()
        assert run_cli(*argv.split(), "--output", str(out)) == 3
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().err.startswith(f"numerical failure: {first}")
        assert list(tmp_path.iterdir()) == []

    def test_trajectories_past_the_old_dimension_cap_runs(self, capsys):
        # one path at d = 2**21: a step holds 2**21 normals, 16 MB
        assert run_cli("trajectories", "--d", str(2**21), "--L", "0.01") == 0
        rows = parse_csv(capsys.readouterr().out)
        assert {r["d"] for r in rows} == {str(2**21)}
        assert [r["theta"] for r in rows if r["exited"] == "1"] == ["0.7", "0.0"]


class TestTrajectoriesPreset:
    def test_high_dimension_exits_nearly_coincide(self, capsys):
        # at d=1000 the mean-reverting and driftless paths exit at almost
        # the same time (coupled by the shared seed)
        code = run_cli("trajectories", "--d", "1000")
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        exits = {}
        for r in rows:
            if r["exited"] == "1":
                exits[r["theta"]] = float(r["t"])
        assert set(exits) == {"0.7", "0.0"}
        lo, hi = sorted(exits.values())
        assert hi <= 1.5 * lo


class TestScalingRightPanel:
    def test_alternate_panel_parameters_same_contract(self, capsys):
        code = run_cli("scaling", "--L", "3", "--lambda", "0.7", "--dt", "0.0001",
                       "--d-min", "8", "--d-max", "16", "--paths", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "d,mfet_exact,lower_bm,lower_exp,upper_mixed,upper_exp,mc_mean,mc_stderr,n_censored"
        for r in parse_csv(out):
            assert float(r["lower_bm"]) <= float(r["mfet_exact"]) <= float(r["upper_exp"])
            assert float(r["lower_bm"]) == pytest.approx(9.0 / int(r["d"]), rel=1e-12, abs=0.0)


class TestDriftRatioCommand:
    def test_brownian_row_is_identity(self, capsys):
        code = run_cli("drift-ratio", "--theta", "0", "--d-list", "2")
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert all(float(r["ratio"]) == 1.0 for r in rows)

    def test_fig_parameters_spot_value(self, capsys):
        code = run_cli("drift-ratio", "--theta", "0.7", "--sigma", "1",
                       "--rho-max", "3", "--d-list", "2")
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        last = rows[-1]
        assert float(last["rho"]) == 3.0
        assert float(last["ratio"]) == pytest.approx(-5.3, rel=1e-12)

    def test_ratio_increases_toward_one_with_dimension(self, capsys):
        code = run_cli("drift-ratio", "--theta", "0.7", "--d-list", "2,4,8,16,32,64,128")
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        at_rho = [float(r["ratio"]) for r in rows if float(r["rho"]) == 3.0]
        assert at_rho == sorted(at_rho)
        assert all(v < 1.0 for v in at_rho)


class TestOutputBytes:
    # SHA-256 of each CSV as written to stdout; the trajectories and
    # drift-ratio hashes are the README experiment hashes CI checks
    @pytest.mark.parametrize("argv,sha", [
        (["trajectories"],
         "e79e01541e1cea8d740decfcd2420af3e4ea0608153a8f6db2ea9d7c5e7f04b5"),
        # the longest trace last: the shared time column grows three times
        (["trajectories", "--d", "1000,10,2", "--dt", "0.0007"],
         "ac605a2f61f168ad6a632a05c1331ed36891837bf908851e4dc37b53077aadfc"),
        (["drift-ratio", "--rho-max", "3"],
         "6bd532818ed87c47fffa502b5d25199757466e77df0f8a8e461db5722846820f"),
        (["mfet", "--d", "4", "--L", "4", "--x", "0", "--sigma", "1", "--theta", "0.5"],
         "9cd25157da1adef9a6f0680636e39d4ec32d267832fb176f3ef478b5a4e85882"),
        # transient: the four bound cells are empty
        (["mfet", "--d", "4", "--L", "4", "--x", "0", "--sigma", "1", "--theta", "-0.5"],
         "6f5cfcfddb5e3d9616800ca593e94a6058b85064ab8e04ac12b47c035e256d2a"),
    ], ids=["trajectories", "trajectories-longest-last", "drift-ratio-inside",
            "mfet-recurrent", "mfet-transient"])
    def test_csv_keeps_its_bytes(self, argv, sha, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


def _row_form(group_rows):
    """The per-row writer the column form replaced, as the reference."""
    def fmt(v):
        t = type(v)
        if t is float:
            return repr(v)
        if t is bool:
            return "1" if v else "0"
        if v is None:
            return ""
        return str(v)

    return "".join(",".join(map(fmt, row)) + "\n" for row in group_rows)


def _rows(group):
    """A column group's rows: lists run down, single values repeat."""
    lists = [entry for entry in group if type(entry) is list]
    if not lists:
        return [list(group)]
    return [[entry[i] if type(entry) is list else entry for entry in group]
            for i in range(len(lists[0]))]


class TestColumnWriter:
    @pytest.mark.parametrize("group", [
        [3, [1, 2, 3], [-0.0, math.inf, math.nan], [1e-05, 1e+16, -math.inf]],
        [np.float64(0.1), [np.float64(2.5), 0.5, 7], [0.25, 1e300, 5e-324]],
        [[True, False, True], [None, 1.5, None], None, [False, False, False]],
        [[0.001, 0.002], 2, 0.7, "recurrent", [True, False]],
        [4, 4.0, None, "transient", np.float64(-0.0), -0.0, True],
        [2, 0.7, [], [], []],  # no rows
        [[1, True], [1.0, 0]],
        [[True], [np.True_]],
    ], ids=["ints-and-special-floats", "numpy-float64", "bools-and-none",
            "list-beside-repeats", "one-row-of-singles", "empty-lists", "int-and-bool",
            "numpy-bool"])
    def test_equals_the_row_form(self, group):
        out = io.StringIO()
        ouexit.cli._write_group(out, group)
        assert out.getvalue() == _row_form(_rows(group))


class TestWriteGroup:
    # groups around and past the writer's block of rows
    @pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
    def test_blocks_equal_the_row_form(self, n):
        group = [
            7, [i / 7 for i in range(n)], 0.5,
            [i % 3 == 0 for i in range(n)], None,
            [None if i % 5 else -0.0 for i in range(n)], "transient",
            [f"s{i}" for i in range(n)], True,
        ]
        out = io.StringIO()
        ouexit.cli._write_group(out, group)
        assert out.getvalue() == _row_form(_rows(group))
        assert out.getvalue().count("\n") == n

    def test_writes_a_block_at_a_time(self):
        writes = []

        class Sink:
            write = writes.append

        ouexit.cli._write_group(Sink, [2, [0.5] * 8193])
        assert [w.count("\n") for w in writes] == [4096, 4096, 1]

    def test_str_column_has_the_bytes_of_fmt(self):
        # a column formatted already passes through as the cells _fmt gives
        values = [0.1, 5e-324, -0.0, math.inf, True, None, 3, "x"]
        as_str = [ouexit.cli._fmt(v) for v in values]
        plain, formatted = io.StringIO(), io.StringIO()
        ouexit.cli._write_group(plain, [1, values])
        ouexit.cli._write_group(formatted, [1, as_str])
        assert formatted.getvalue() == plain.getvalue() == _row_form(_rows([1, values]))


class TestSelftestCommand:
    def test_fast_suite_passes_within_budget(self, capsys):
        start = time.monotonic()
        code = run_cli("selftest")
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert elapsed < 60.0
        assert "all checks passed" in out

    def test_corrupted_transient_integrand_names_the_reference_check(self, capsys, monkeypatch):
        # a lam < 0 log-integrand off by 1e-11 moves E tau by 1e-11: past
        # the 1e-12 that every mfet_exact row of the table is held to
        honest = ouexit.mfet._transient_log_integrand

        def corrupted(problem):
            log_f, upper, ln_scale = honest(problem)
            return (lambda xi: log_f(xi) + 1e-11), upper, ln_scale

        monkeypatch.setattr(ouexit.mfet, "_transient_log_integrand", corrupted)
        code = run_cli("selftest")
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == "FAILED: reference-values"

    def test_corrupted_transient_series_names_the_reference_check(self, capsys, monkeypatch):
        # the lam < 0 Poisson series off by 1e-11: past the 1e-12 that every
        # mfet_exact row of the table is held to
        honest = ouexit.mfet._transient_series
        monkeypatch.setattr(ouexit.mfet, "_transient_series",
                            lambda problem: honest(problem) * (1.0 + 1e-11))
        code = run_cli("selftest")
        out = capsys.readouterr().out
        assert code == 1
        assert out.splitlines()[-1] == "FAILED: reference-values"

    def test_a_check_that_raises_is_named(self, capsys, monkeypatch):
        # a theta < 0 row of reference-values past the Poisson series' mu L^2
        # = 150 runs out of panels and raises; the suite reports it as that
        # check's failure and runs the rest, and bound-chain, which reads the
        # table's references and never the quadrature, still passes
        monkeypatch.setattr(ouexit.quadrature, "_MAX_PANELS", 2)
        code = run_cli("selftest")
        out, err = capsys.readouterr()
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
        assert code == 1
        assert out.splitlines()[-1] == "FAILED: reference-values"
        assert rows == {"reference-values": "FAIL", "bound-chain": "pass",
                        "mc-determinism": "pass"}
        assert "raised QuadratureError: " in out and "within 2 panels" in out
        assert err == ""

    @pytest.mark.parametrize("shift", [1e-10, 0.05],
                             ids=["1e-10-reference-values", "0.05-reference-values"])
    def test_corrupted_series_fails_its_check(self, capsys, monkeypatch, shift):
        # a series off by a factor e^1e-10 or e^0.05 fails the reference
        # values alone: the bound chain brackets the table's references, not
        # mfet_exact
        honest = ouexit.mfet._sum_from_peak
        monkeypatch.setattr(ouexit.mfet, "_sum_from_peak",
                            lambda *args: honest(*args) * math.exp(shift))
        code = run_cli("selftest")
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
        assert code == 1
        assert out.splitlines()[-1] == "FAILED: reference-values"
        assert rows == {"reference-values": "FAIL", "bound-chain": "pass",
                        "mc-determinism": "pass"}

    def test_corrupted_bounds_fail_their_check(self, capsys, monkeypatch):
        # an upper_mixed halved drops below E tau wherever the bound is
        # within a factor 2 of it, as on the near-Brownian rows
        honest = selftest.mfet_bounds

        def halved(problem):
            b = honest(problem)
            return dataclasses.replace(b, upper_mixed=b.upper_mixed / 2)

        monkeypatch.setattr(selftest, "mfet_bounds", halved)
        code = run_cli("selftest")
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
        assert code == 1
        assert out.splitlines()[-1] == "FAILED: bound-chain"
        assert rows == {"reference-values": "pass", "bound-chain": "FAIL",
                        "mc-determinism": "pass"}
        assert "chain broken at ExitProblem(" in out

    def test_a_table_with_no_theta_positive_row_fails_the_bound_chain(self, capsys, monkeypatch,
                                                                      tmp_path):
        # one valid theta < 0 row: its value checks, but bound-chain finds
        # nothing to bracket and fails by name instead of passing empty
        table = tmp_path / "reference_values.csv"
        table.write_text("arguments,reference\n-0x1.0000000000000p-1 0x1.0000000000000p+0 3 "
                         "0x1.0000000000000p+1 0x0.0p+0,0.95105464217466377005\n")
        monkeypatch.setattr(selftest, "_TABLE", table)
        code = run_cli("selftest")
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
        assert code == 1
        assert rows == {"reference-values": "pass", "bound-chain": "FAIL",
                        "mc-determinism": "pass"}
        assert "holds no theta > 0 row" in out

    @pytest.mark.parametrize("content,detail", [
        (None, "not read"),
        ("arguments,reference\n0x1p-1 0x1p+0 four 0x1p+2 0x0p+0,66.2\n", "line 2 is malformed"),
        ("arguments,reference\n0x1p-1 0x1p+0 4 0x1p+2 0x0p+0\n", "line 2 is malformed"),
        ("arguments,reference\n0x1p-1 0x1p+0 4 0x1p+1 0x1p+2,1.0\n", "line 2 is malformed"),
        ("arguments,reference\n0x1p-1 0x1p+0 4 0x1p+2 0x0p+0,inf\n", "line 2 is malformed"),
        ("arguments,reference\n0x1p-1 0x1p+0 4 0x1p+2,66.2\n", "line 2 is malformed"),
        ("args,ref\n", "line 1 is not the header"),
        ("arguments,reference\n", "holds no row to check"),
    ], ids=["missing", "bad-integer", "short-row", "x-past-L", "infinite-reference",
            "four-arguments", "header", "header-only"])
    def test_unreadable_table_is_a_named_failure(self, capsys, monkeypatch, tmp_path,
                                                 content, detail):
        table = tmp_path / "reference_values.csv"
        if content is not None:
            table.write_text(content)
        monkeypatch.setattr(selftest, "_TABLE", table)
        code = run_cli("selftest")
        out, err = capsys.readouterr()
        row = next(line for line in out.splitlines() if line.startswith("reference-values"))
        assert code == 1 and err == ""
        assert row.split()[1] == "FAIL" and detail in row
        assert out.splitlines()[-1] == "FAILED: reference-values"


_VALID_ARGV = {
    "mfet": ["mfet", "--d", "4", "--L", "2", "--x", "0", "--sigma", "1", "--theta", "0.5"],
    "selftest": ["selftest"],
}


class TestCommonFlags:
    @pytest.mark.parametrize("command,flag", [
        ("scaling", "--format json"),
        ("trajectories", "--format json"),
        ("drift-ratio", "--format json"),
        ("selftest", "--format json"),
        ("mfet", "--seed 1"),
        ("drift-ratio", "--seed 1"),
        ("selftest", "--seed 1"),
        ("scaling", "--threads 2"),
        ("mfet", "--threads 2"),
        ("trajectories", "--threads 2"),
        ("drift-ratio", "--threads 2"),
        ("selftest", "--threads 2"),
        ("mfet", "--allow-huge-d"),
        ("scaling", "--allow-huge-d"),
        ("trajectories", "--allow-huge-d"),
        ("drift-ratio", "--allow-huge-d"),
        ("selftest", "--allow-huge-d"),
        ("selftest", "--output out.txt"),
        ("selftest", "--fast"),
        ("mfet", "--rel-tol 1e-8"),
        ("mfet", "--max-panels 2"),
        ("drift-ratio", "--L 3"),
        ("trajectories", "--stride 2"),
        ("drift-ratio", "--rho-points 5"),
    ])
    def test_flag_a_command_ignores_is_a_usage_error(self, command, flag, capsys):
        # each command takes only the flags it reads
        argv = _VALID_ARGV.get(command, [command]) + flag.split()
        assert run_cli(*argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_manifest_seed_is_null_without_randomness(self, tmp_path):
        out = tmp_path / "ratio.csv"
        assert run_cli("drift-ratio", "--d-list", "2", "--output", str(out)) == 0
        manifest = json.loads((tmp_path / "ratio.csv.manifest.json").read_text())
        assert manifest["seed"] is None
        assert "seed" not in manifest["parameters"]
        assert "numpy_version" not in manifest and "bit_generator" not in manifest

    def test_simulating_manifest_records_numpy_version(self, tmp_path):
        # the normals come from numpy's sampler, whose bits may change with
        # numpy, on the streams' bit generator
        out = tmp_path / "traces.csv"
        assert run_cli("trajectories", "--d", "2", "--output", str(out)) == 0
        manifest = json.loads((tmp_path / "traces.csv.manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        bits = type(_stream(0, 0).bit_generator).__name__
        assert manifest["bit_generator"] == bits == "SFC64"


# argvs whose parameters leave the double range once squared or divided,
# and the parameter their error must name
_OUT_OF_RANGE = {
    "mfet --d 4 --L 1 --x 0 --sigma 1e-170 --theta 0.5": "sigma",
    "mfet --d 4 --L 1 --x 0 --sigma 1e200 --theta 0": "sigma",
    "scaling --d-min 2 --d-max 2 --sigma 1e-170 --paths 2": "sigma",
    "drift-ratio --sigma 1e-170 --d-list 2": "sigma",
    "drift-ratio --rho-max 1e200 --d-list 2": "rho",
    "mfet --d 1 --L 1e-300 --x 0 --sigma 1 --theta 0.5": "ball radius L",
    "mfet --sigma 1e200 --theta 1 --d 4 --L 1 --x 0": "sigma",
    "mfet --d 4 --L 1 --x 0 --sigma 1e-100 --theta 1e250": "theta/sigma**2",
    "mfet --sigma 1e154 --d 1000 --L 1 --x 0 --theta 0": "sigma**2 * d",
    "drift-ratio --sigma 1e154 --d-list 1000": "sigma**2 * d",
    "scaling --d-min 1024 --d-max 1024 --sigma 1e154 --paths 2": "sigma**2 * d",
    # subnormal inputs: too few digits for the exact route or the bounds
    "mfet --theta 5e-324 --d 4 --L 4 --x 0 --sigma 1": "theta leaves the double range",
    "mfet --theta 1e-320 --d 4 --L 4 --x 0 --sigma 1": "theta leaves the double range",
    "mfet --theta=-1e-310 --d 4 --L 4 --x 0 --sigma 1": "theta leaves the double range",
    "mfet --theta 1e-312 --sigma 1e-5 --d 4 --L 4 --x 0": "theta leaves the double range",
    "mfet --sigma 1e-160 --theta 0.5 --d 4 --L 4 --x 0": "sigma**2 leaves the double range",
    "mfet --L 1e-160 --d 4 --x 0 --sigma 1 --theta 0.5": "L**2 leaves the double range",
    # L**2 overflows where E tau is finite
    "mfet --d 4 --L 1e200 --x 0 --sigma 1 --theta=-0.5": "L**2 leaves the double range",
    "mfet --d 4 --L 1.5e-154 --x 0 --sigma 1 --theta 0.5": "L**2 / (sigma**2 * d) leaves the double range",
    "mfet --sigma 1e10 --theta 1e-300 --d 4 --L 4 --x 0": "theta/sigma**2",
    "scaling --d-min 2 --d-max 2 --lambda 1e-310 --paths 2": "theta leaves the double range",
    "trajectories --theta 1e-310": "theta leaves the double range",
    "drift-ratio --theta 5e-324 --d-list 2": "theta leaves the double range",
    # a dimension past the largest double, which raised OverflowError
    f"drift-ratio --d-list 2,{10**309}": "dimension d leaves the double range",
    f"mfet --d {10**309} --L 1 --x 0 --sigma 1 --theta 0.5": "dimension d leaves the double range",
    f"scaling --d-min {2**1024} --d-max {2**1024}": "dimension d leaves the double range",
    f"trajectories --d 2,{10**309}": "dimension d leaves the double range",
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        "scaling --d-max 4 --dt -1",
        "scaling --d-max 4 --paths 0",
        "scaling --d-max 4 --seed -5",
        "trajectories --dt -1",
        "trajectories --L -2",
        "trajectories --d 2,0",
        "drift-ratio --d-list 2,0",
        "drift-ratio --rho-max inf",
        "mfet --d 4 --L 2 --x 3 --sigma 1 --theta 0",
        "scaling --d-min 8 --d-max 4",
        "trajectories --d 2,x",
        "trajectories --d ,",
        "drift-ratio --d-list ,",
        "scaling --L 12 --d-min 2 --d-max 2 --paths 1",
        "mfet --d 4 --L 2 --x 0 --sigma 1 --theta nan",
        *_OUT_OF_RANGE,
    ])
    def test_usage_error_writes_nothing(self, argv, tmp_path, capsys):
        # every input is checked before the output file is opened
        out = tmp_path / "t.csv"
        assert run_cli(*argv.split(), "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert _OUT_OF_RANGE.get(argv, "") in err
        assert not out.exists()
        assert not (tmp_path / "t.csv.manifest.json").exists()


class TestUnopenableOutput:
    @pytest.mark.parametrize("argv,target", [
        ("mfet --d 4 --L 4 --x 0 --sigma 1 --theta 0.5", "missing/x.csv"),
        ("trajectories --d 2", "."),
    ], ids=["missing-directory", "directory"])
    def test_is_a_usage_error_that_writes_nothing(self, argv, target, tmp_path, capsys):
        out = tmp_path / target
        assert run_cli(*argv.split(), "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot open --output {str(out)!r}")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestEntryPoints:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ouexit", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ouexit" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ouexit"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_closed_stdout_ends_the_run_quietly(self):
        # a reader that stops after two lines, as ``| head -n 2`` does; the
        # 2.4 MB trace fills the pipe long before the run ends
        proc = subprocess.Popen([sys.executable, "-m", "ouexit", "trajectories"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        lines = [proc.stdout.readline(), proc.stdout.readline()]
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 141
        assert lines == [b"d,theta,t,radius,exited\n", b"2,0.7,0.0,0.0,0\n"]
        assert err == b""

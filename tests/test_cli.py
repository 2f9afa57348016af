import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from waterweights import cli
from waterweights.cli import main
from waterweights.consensus import ConsensusSnapshot, serialize_native
from waterweights.errors import ConfigMismatchError, NotApplicableError, WaterweightsError
from waterweights.metrics import JointDistribution, joint_to_csv
from waterweights.pathsim import CompromiseRecord
from waterweights.stats import CostReport, compare_runs, report_adversary_cost

from conftest import make_relay, make_snapshot

import numpy as np

V3_DOC = """\
valid-after 2015-05-25 10:00:00
r alpha AAAA dig 2015-05-25 08:00:00 1.2.3.4 9001 0
s Fast Guard Running Valid
w Bandwidth=500
r beta BBBB dig 2015-05-25 08:00:00 5.6.7.8 9001 0
s Exit Fast Running Valid
p accept 80,443
"""


@pytest.fixture
def runner():
    return CliRunner()


def run_fresh(script: str) -> str:
    """The standard output of ``script`` run by a fresh interpreter that
    imports this package's sources."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def demo_snapshot_text():
    snap = make_snapshot(
        [
            ("G1", 500, "g"), ("G2", 300, "g"), ("G3", 200, "g"),
            ("M1", 400, "m"), ("E1", 200, "e"), ("D1", 50, "d"),
        ]
    )
    return serialize_native(snap)


class TestReportAdversaryCost:
    def test_published_scenario_needs_35_nodes(self):
        cost = report_adversary_cost(8710, 480310, 0.622)
        assert cost.node_equivalents == 35
        assert cost.effective_guard_weight == pytest.approx(298752.8, abs=0.1)
        assert cost.bandwidth_ratio == pytest.approx(0.622)

    def test_target_at_level_is_one_node(self):
        assert report_adversary_cost(8710, 8710, 1).node_equivalents == 1

    def test_double_level_half_share_is_one_node(self):
        assert report_adversary_cost(8710, 2 * 8710, 0.5).node_equivalents == 1

    def test_zero_level_not_applicable(self):
        with pytest.raises(NotApplicableError):
            report_adversary_cost(0, 100, 0.5)

    def test_returns_cost_report(self):
        assert isinstance(report_adversary_cost(100, 100, 1), CostReport)

    @pytest.mark.parametrize("target,entry", [(-1000, 0.5), (100, -0.5), (100, 1.5)])
    def test_out_of_range_inputs_rejected(self, target, entry):
        with pytest.raises(WaterweightsError, match="must"):
            report_adversary_cost(8710, target, entry)

    @pytest.mark.parametrize("level,entry,name", [
        (8710, math.nan, "entry weight"), (math.nan, 0.5, "water level"),
        (math.inf, 0.5, "water level"), (8710, -math.inf, "entry weight"),
    ])
    def test_non_finite_inputs_rejected(self, level, entry, name):
        with pytest.raises(WaterweightsError, match=f"{name} must be finite") as err:
            report_adversary_cost(level, 100, entry)
        assert err.value.exit_code == 2


class TestCompareRuns:
    def rec(self, cid, t):
        return CompromiseRecord(cid, t, 10, 1 if t is not None else 0)

    def test_identical_runs_zero_delta(self):
        records = [self.rec(i, 100 * i) for i in range(10)]
        result = compare_runs(records, list(records), horizon=1000, resolution=100)
        assert result.terminal_delta == 0.0
        assert result.events_a == result.events_b == 10
        assert result.expected_a == 10.0
        assert result.z == 0.0 and result.p_value == 1.0
        assert result.verdict == "indistinguishable"
        low, high = result.delta_ci95
        assert low < 0.0 < high and low == -high

    def test_total_separation(self):
        a = [self.rec(i, 0) for i in range(10)]
        b = [self.rec(i, None) for i in range(10)]
        result = compare_runs(a, b, horizon=1000, resolution=100)
        assert result.terminal_delta == 1.0
        assert result.verdict == "a_above"
        # one tied event time: E_A = 5, V = 10 * 1/4 * 10/19
        assert result.expected_a == 5.0
        assert result.variance == pytest.approx(25 / 19)
        assert result.z == pytest.approx(5 / math.sqrt(25 / 19))
        assert result.p_value < 0.01
        low, high = result.delta_ci95
        assert 0.5 < low < 1.0 and high == 1.0
        swapped = compare_runs(b, a, horizon=1000, resolution=100)
        assert swapped.verdict == "b_above"
        assert swapped.z == -result.z
        assert swapped.delta_ci95 == (-high, -low)

    def test_one_early_compromise_is_not_a_separation(self):
        # one of 200 clients in A compromised at t = 5, none in B: every grid
        # point after t = 5 has A above, but one event is no evidence
        a = [self.rec(i, 5 if i == 0 else None) for i in range(200)]
        b = [self.rec(i, None) for i in range(200)]
        result = compare_runs(a, b, horizon=1000)
        assert result.verdict == "indistinguishable"
        assert result.z == pytest.approx(1.0)
        assert result.p_value == pytest.approx(math.erfc(1 / math.sqrt(2)))
        low, high = result.delta_ci95
        assert low < 0.0 < result.terminal_delta == 0.005 < high

    def test_compromise_after_the_horizon_is_censored(self):
        a = [self.rec(i, 2000) for i in range(10)]
        b = [self.rec(i, None) for i in range(10)]
        result = compare_runs(a, b, horizon=1000)
        assert result.events_a == 0
        assert result.variance == 0.0 and result.z == 0.0
        assert result.verdict == "indistinguishable"

    def test_logrank_matches_hand_computation(self):
        # A: events at 10, 20, 20; B: events at 20, 30; five clients each
        a = [self.rec(0, 10), self.rec(1, 20), self.rec(2, 20), self.rec(3, None), self.rec(4, 5000)]
        b = [self.rec(0, 20), self.rec(1, 30), self.rec(2, None), self.rec(3, None), self.rec(4, None)]
        result = compare_runs(a, b, horizon=1000)
        # (deaths, at risk in A, at risk in B) at t = 10, 20, 30
        table = [(1, 5, 5), (3, 4, 5), (1, 2, 4)]
        expected = sum(d * na / (na + nb) for d, na, nb in table)
        variance = sum(
            d * na * nb * (na + nb - d) / ((na + nb) ** 2 * (na + nb - 1)) for d, na, nb in table
        )
        assert result.expected_a == pytest.approx(expected)
        assert result.variance == pytest.approx(variance)
        assert result.z == pytest.approx((3 - expected) / math.sqrt(variance))

    def test_mismatched_sizes_rejected(self):
        a = [self.rec(0, None)]
        with pytest.raises(ConfigMismatchError):
            compare_runs(a, a * 2, horizon=10)

    def test_different_clients_rejected(self):
        a = [self.rec(0, None), self.rec(1, 100)]
        b = [self.rec(7, None), self.rec(9, 100)]
        with pytest.raises(ConfigMismatchError, match="different clients"):
            compare_runs(a, b, horizon=1000)

    @pytest.mark.parametrize("swap", [False, True])
    def test_repeated_client_rejected(self, swap):
        a = [self.rec(1, None), self.rec(1, 100)]
        b = [self.rec(1, None), self.rec(2, 100)]
        arm = "A"
        if swap:
            a, b, arm = b, a, "B"
        with pytest.raises(ConfigMismatchError, match=f"record set {arm} repeats client 1"):
            compare_runs(a, b, horizon=1000)

    @pytest.mark.parametrize("horizon,resolution", [(-5, None), (-1, 10), (1000, 0), (1000, -3)])
    def test_bad_range_rejected(self, horizon, resolution):
        records = [self.rec(0, None), self.rec(1, 100)]
        with pytest.raises(WaterweightsError) as err:
            compare_runs(records, records, horizon=horizon, resolution=resolution)
        assert err.value.exit_code == 2


class TestParseCommand:
    def test_native_roundtrip(self, runner, tmp_path):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 0
        parsed = json.loads(result.stdout)
        assert parsed["totals"] == {"G": 1000, "M": 400, "E": 200, "D": 50, "T": 1650}

    def test_v3_warning_on_stderr(self, runner, tmp_path):
        doc = tmp_path / "status.txt"
        doc.write_text(V3_DOC + "r gamma CCCC dig 2015-05-25 08:00:00 9.9.9.9 9001 0\n")
        result = runner.invoke(main, ["parse", "--format", "v3", str(doc)])
        assert result.exit_code == 0
        assert "CCCC" in result.stderr
        assert json.loads(result.stdout)["relays"][2]["consensus_weight"] == 0

    def test_quiet_suppresses_warning(self, runner, tmp_path):
        doc = tmp_path / "status.txt"
        doc.write_text(V3_DOC + "r gamma CCCC dig 2015-05-25 08:00:00 9.9.9.9 9001 0\n")
        result = runner.invoke(main, ["--quiet", "parse", "--format", "v3", str(doc)])
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_wrong_typed_json_field_exits_2(self, runner, tmp_path):
        native = tmp_path / "net.snapshot"
        native.write_text(demo_snapshot_text())
        doc = json.loads(runner.invoke(main, ["parse", str(native)]).stdout)
        doc["relays"][0]["consensus_weight"] = 1.7
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(json.dumps(doc))
        result = runner.invoke(main, ["weights", str(snapshot)])
        assert result.exit_code == 2
        assert "relays[0].consensus_weight" in result.stderr

    def test_parse_error_exits_2(self, runner, tmp_path):
        doc = tmp_path / "bad.snapshot"
        doc.write_text("snapshot 1\nrelay broken\n")
        result = runner.invoke(main, ["parse", str(doc)])
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    def test_out_file(self, runner, tmp_path):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        out = tmp_path / "snap.json"
        result = runner.invoke(main, ["parse", str(doc), "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["valid_after"] == 1432548000


class TestWeightsCommand:
    def test_case_and_scaled_weights(self, runner, tmp_path):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        result = runner.invoke(main, ["weights", str(doc)])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["case"] == "3aE=SG>M"
        assert payload["Wgg"] == 0.7
        assert payload["scaled_10000"]["Wgg"] == 7000
        assert payload["residuals"]["entry_middle"] == 0.0
        assert payload["residuals"]["entry_exit"] > 0

    def test_infeasible_exits_3(self, runner, tmp_path):
        snap = make_snapshot(
            [("G1", 100, "g"), ("M1", 250, "m"), ("E1", 350, "e"), ("D1", 200, "d")]
        )
        doc = tmp_path / "net.snapshot"
        doc.write_text(serialize_native(snap))
        result = runner.invoke(main, ["weights", str(doc)])
        assert result.exit_code == 3

    def test_invariant_breach_exits_4(self, runner, tmp_path, monkeypatch):
        from waterweights import cli as cli_module
        from waterweights.errors import InvariantError

        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())

        def broken(*args, **kwargs):
            raise InvariantError("synthetic postcondition failure")

        monkeypatch.setattr(cli_module, "compute_weights", broken)
        result = runner.invoke(main, ["weights", str(doc)])
        assert result.exit_code == 4


class TestWaterfillCommand:
    def test_wfbw_lines_follow_json(self, runner, tmp_path):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        result = runner.invoke(main, ["waterfill", str(doc), "--pools", "guards"])
        assert result.exit_code == 0
        assert "wfbw Wgg=" in result.output
        head = result.stdout[: result.stdout.index("\n", result.stdout.rindex("}"))]
        payload = json.loads(head)
        assert payload["pools"]["guards"]["pivot_index"] >= 1

    def test_json_flag_suppresses_text(self, runner, tmp_path):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        result = runner.invoke(main, ["--json", "waterfill", str(doc)])
        payload = json.loads(result.stdout)
        assert payload["pools"]["guards"]["water_level"] == 250.0

    def test_no_applicable_pool_exits_3(self, runner, tmp_path):
        snap = make_snapshot([("G1", 100, "g"), ("M1", 100, "m"), ("E1", 100, "e")])
        doc = tmp_path / "net.snapshot"
        doc.write_text(serialize_native(snap))
        result = runner.invoke(main, ["waterfill", str(doc), "--pools", "guards,dset"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("pools,message", [
        ("guards,guards", "named twice: guards"),
        ("dset, guards ,dset", "named twice: dset"),
        ("", "no pool named"),
        (",", "no pool named"),
        (" , ", "no pool named"),
    ])
    def test_empty_or_repeated_pool_list_rejected(self, runner, tmp_path, pools, message):
        doc = tmp_path / "net.snapshot"
        doc.write_text(demo_snapshot_text())
        result = runner.invoke(main, ["waterfill", str(doc), "--pools", pools])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert message in result.stderr


class TestMetricsCommand:
    def test_metrics_from_joint_csv(self, runner, tmp_path):
        jd = JointDistribution(
            ("G1", "G2"), ("E1", "E2"), np.array([[0.4, 0.1], [0.1, 0.4]])
        )
        path = tmp_path / "joint.csv"
        path.write_text(joint_to_csv(jd))
        result = runner.invoke(main, ["metrics", "--joint", str(path)])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert 0 < payload["uniformity_degree"] < 1
        assert payload["guessing_entropy"] > 2
        assert payload["trace"]["q"][0] == 0.0
        assert payload["seed"] is None  # only simulate takes a seed

    def test_group_tables_with_snapshot(self, runner, tmp_path):
        snap_doc = tmp_path / "net.snapshot"
        snap = make_snapshot([("G1", 10, "g"), ("G2", 10, "g"), ("E1", 10, "e"), ("E2", 10, "e")])
        snap_doc.write_text(serialize_native(snap))
        jd = JointDistribution(("G1", "G2"), ("E1", "E2"), np.full((2, 2), 0.25))
        joint = tmp_path / "joint.csv"
        joint.write_text(joint_to_csv(jd))
        result = runner.invoke(
            main, ["metrics", "--joint", str(joint), "--snapshot", str(snap_doc)]
        )
        payload = json.loads(result.stdout)
        assert payload["group_tables"]["country"][0]["group"] is None  # no relay has a country
        assert payload["group_tables"]["country"][0]["probability"] == pytest.approx(1.0)

    def test_guard_absent_from_snapshot_is_a_mismatch(self, runner, tmp_path):
        snap_doc = tmp_path / "one.snapshot"
        snap_doc.write_text(serialize_native(make_snapshot([("G1", 10, "g")])))
        jd = JointDistribution(("ZZZ",), ("E1", "E2"), np.array([[0.5, 0.5]]))
        joint = tmp_path / "joint.csv"
        joint.write_text(joint_to_csv(jd))
        result = runner.invoke(
            main, ["metrics", "--joint", str(joint), "--snapshot", str(snap_doc)]
        )
        assert result.exit_code == 2
        assert "first ZZZ" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-0.25"])
    def test_non_finite_or_negative_cell_rejected(self, runner, tmp_path, cell):
        joint = tmp_path / "joint.csv"
        joint.write_text(f"guard,E1,E2\nG1,0.25,0.25\nG2,0.25,{cell}\n")
        result = runner.invoke(main, ["metrics", "--joint", str(joint)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "'G2', column 'E2'" in result.stderr
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("text,side", [
        ("guard,E1,E2\nG1,0.25,0.25\nG1,0.25,0.25\n", "guard row for 'G1'"),
        ("guard,E1,E1\nG1,0.25,0.25\nG2,0.25,0.25\n", "exit column for 'E1'"),
    ], ids=["guard", "exit"])
    def test_repeated_fingerprint_rejected(self, runner, tmp_path, text, side):
        joint = tmp_path / "joint.csv"
        joint.write_text(text)
        result = runner.invoke(main, ["metrics", "--joint", str(joint)])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert side in result.stderr

    def test_overflowing_total_rejected(self, runner, tmp_path):
        joint = tmp_path / "joint.csv"
        joint.write_text("guard,E1,E2\nG1,1e308,1e308\nG2,1e308,1e308\n")
        result = runner.invoke(main, ["metrics", "--joint", str(joint)])
        assert result.exit_code == 3
        assert "sum to inf" in result.stderr


class TestOneSnapshotLoader:
    """Every command reads a snapshot file through ``_parse_file``, so its
    parse errors name the file."""

    @pytest.mark.parametrize("command", ["weights", "waterfill", "metrics", "simulate"])
    def test_a_parse_error_names_the_file(self, runner, tmp_path, command):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        bad = snaps / "bad.snapshot"
        bad.write_text("snapshot 5\nrelay G1 nick xx\n")
        joint = tmp_path / "joint.csv"
        joint.write_text(joint_to_csv(JointDistribution(("G1",), ("E1", "E2"), np.full((1, 2), 0.5))))
        adv = tmp_path / "adv.json"
        adv.write_text('{"relays": []}')
        args = {
            "weights": ["weights", str(bad)],
            "waterfill": ["waterfill", str(bad)],
            "metrics": ["metrics", "--joint", str(joint), "--snapshot", str(bad)],
            "simulate": ["simulate", "--snapshots", str(snaps), "--adversary", str(adv),
                         "--algo", "abwrs", "--clients", "3", "--seed", "1",
                         "--out", str(tmp_path / "r.csv")],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr == f"error: {bad}: line 2: bad consensus weight 'xx'\n"

    def test_a_json_error_names_the_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "waterweights-snapshot-v1", "valid_after": "5", "relays": []}')
        result = runner.invoke(main, ["weights", str(bad)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {bad}: valid_after must be an integer")


class TestReadAheadTime:
    """The cheap ``valid_after`` read that orders simulate's files."""

    @pytest.mark.parametrize("valid_after", [0, -3600, 1_432_548_000])
    def test_written_files_are_placed(self, tmp_path, valid_after):
        from waterweights.consensus import snapshot_to_json

        snap = make_snapshot(
            [("G1", 500, "g"), ("M1", 400, "m"), ("E1", 200, "e")], valid_after=valid_after
        )
        (tmp_path / "a.json").write_text(snapshot_to_json(snap))
        (tmp_path / "b.snapshot").write_text("# a comment\n\n  \n" + serialize_native(snap))
        for name in ("a.json", "b.snapshot"):
            assert cli._read_ahead_time(tmp_path / name) == valid_after
            assert cli._parse_file(tmp_path / name).valid_after == valid_after

    @pytest.mark.parametrize("name,text", [
        ("a.json", '{"valid_after": 5, "relays": []}'),
        ("a.json", '{"relays": [], "valid_after": 5.0}'),
        ("a.json", '{"relays": [], "valid_after": 5} []'),
        ("a.json", ""),
        ("a.snapshot", "relay G1 nick 5\nsnapshot 5\n"),
        ("a.snapshot", "snapshot five\n"),
        ("a.snapshot", "snapshot 5 6\n"),
        ("a.snapshot", "# only a comment\n"),
        ("a.snapshot", ""),
    ])
    def test_files_it_cannot_place(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert cli._read_ahead_time(path) is None


class TestSimulateAndCompare:
    def write_inputs(self, tmp_path):
        tmp_path.mkdir(parents=True, exist_ok=True)
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "one.snapshot").write_text(demo_snapshot_text())
        adv = tmp_path / "adv.json"
        adv.write_text(json.dumps({"relays": [
            {"role": "guard", "consensus_weight": 400},
            {"role": "exit", "consensus_weight": 150},
        ]}))
        return snaps, adv

    def simulate(self, runner, tmp_path, out, extra=()):
        snaps, adv = self.write_inputs(tmp_path)
        args = [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "30", "--seed", "77",
            "--out", str(out), "--duration", "12000", *extra,
        ]
        return runner.invoke(main, args)

    def test_deterministic_csv(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res1 = self.simulate(runner, tmp_path / "r1", out1)
        res2 = self.simulate(runner, tmp_path / "r2", out2)
        assert res1.exit_code == 0 and res2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = json.loads(res1.output)
        assert summary["seed"] == 77
        assert summary["version"]

    T0 = 1_432_548_000  # demo_snapshot_text's valid_after

    def write_hours(self, directory, hours, name=lambda i: f"{i}.snapshot"):
        """The demo network at each hour in ``hours``, G1's weight changing
        with the hour; the adversary joins at hour 4."""
        snaps = directory / "snaps"
        snaps.mkdir(parents=True)
        for i in hours:
            snap = make_snapshot([
                ("G1", 500 + i, "g"), ("G2", 300, "g"), ("G3", 200, "g"),
                ("M1", 400, "m"), ("E1", 200, "e"), ("D1", 50, "d"),
            ], valid_after=self.T0 + 3600 * i)
            (snaps / name(i)).write_text(serialize_native(snap))
        adv = directory / "adv.json"
        adv.write_text(json.dumps({"relays": [
            {"role": "guard", "consensus_weight": 400, "join_time": self.T0 + 4 * 3600},
            {"role": "exit", "consensus_weight": 150, "join_time": self.T0 + 4 * 3600},
        ]}))
        return snaps, adv

    def run_hours(self, runner, snaps, adv, out, *extra):
        return runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "wf", "--clients", "12", "--seed", "9", "--out", str(out), *extra,
        ])

    def test_a_serial_run_holds_one_live_period(self, runner, tmp_path, monkeypatch):
        # at each parse, each state preparation and each circuit batch, at
        # most two parsed snapshots and two prepared states are alive.  The
        # files are named against time order; hour 3 republishes hour 2's
        # list; the states before hour 4 hold their parse, the later ones an
        # injected copy; one JSON file's time is not its last key, so the
        # ordering read cannot place it and it is parsed twice
        from waterweights import pathsim
        from waterweights.consensus import parse_native, snapshot_to_json

        snaps, adv = self.write_hours(tmp_path, range(7), name=lambda i: f"{9 - i}.snapshot")
        republished = parse_native((snaps / "7.snapshot").read_text())
        (snaps / "6.snapshot").write_text(serialize_native(
            ConsensusSnapshot(self.T0 + 3 * 3600, republished.table, republished.totals)
        ))
        doc = json.loads(snapshot_to_json(parse_native((snaps / "4.snapshot").read_text())))
        (snaps / "4.snapshot").unlink()
        (snaps / "4.json").write_text(json.dumps({"valid_after": doc.pop("valid_after"), **doc}))
        (snaps / "3.json").write_text(
            snapshot_to_json(parse_native((snaps / "3.snapshot").read_text()))
        )
        (snaps / "3.snapshot").unlink()

        parsed, states, alive = [], [], []
        load, build = cli._parse_file, pathsim._build_circuits
        prepare = pathsim.NetworkState.__init__

        def census(where):
            alive.append((
                where,
                sum(ref() is not None for ref in parsed),
                sum(ref() is not None for ref in states),
            ))

        def spy_load(path, at=None):
            snapshot = load(path, at)
            parsed.append(weakref.ref(snapshot))
            census("parse")
            return snapshot

        def spy_prepare(self, *args, **kwargs):
            prepare(self, *args, **kwargs)
            states.append(weakref.ref(self))
            census("prepare")

        def spy_build(*args, **kwargs):
            census("build")
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "_parse_file", spy_load)
        monkeypatch.setattr(pathsim.NetworkState, "__init__", spy_prepare)
        monkeypatch.setattr(pathsim, "_build_circuits", spy_build)
        result = self.run_hours(runner, snaps, adv, tmp_path / "r.csv")
        assert result.exit_code == 0, result.output
        assert max(n for _, n, _ in alive) <= 2 and max(n for _, _, n in alive) <= 2, alive
        assert {where for where, _, _ in alive} == {"parse", "prepare", "build"}
        assert len(parsed) == 7 + 1 and len(states) == 6
        periods = json.loads(result.stdout)["periods"]
        assert [p["valid_after"] for p in periods] == [
            self.T0 + 3600 * i for i in (0, 1, 2, 4, 5, 6)
        ]

    def test_workers_write_what_one_process_writes(self, runner, tmp_path, monkeypatch):
        import concurrent.futures

        pools = []
        pool = concurrent.futures.ProcessPoolExecutor

        def counted(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
        snaps, adv = self.write_hours(tmp_path, range(6))
        runs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            result = self.run_hours(runner, snaps, adv, out, "--workers", str(workers))
            assert result.exit_code == 0, result.output
            summary = json.loads(result.stdout)
            assert summary.pop("records") == str(out)
            runs.append((out.read_bytes(), summary))
        assert pools == [2]
        assert runs[0] == runs[1]
        assert len(runs[0][1]["periods"]) == 6

    def test_negative_seed_exits_2_before_any_read(self, runner, tmp_path, monkeypatch):
        def no_read(path, at=None):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "_parse_file", no_read)
        snaps, adv = self.write_inputs(tmp_path)
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--out", str(out), "--seed", "-1",
        ])
        assert result.exit_code == 2
        assert "--seed" in result.stderr
        assert not out.exists()

    def test_argument_errors_come_before_any_parse(self, runner, tmp_path):
        snaps, adv = self.write_inputs(tmp_path)
        (snaps / "broken.snapshot").write_text("not a snapshot\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "0", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "need at least one client" in result.stderr
        assert "broken" not in result.stderr
        assert not out.exists()

    def test_the_first_malformed_file_in_time_order_is_reported(self, runner, tmp_path):
        # both lie past --duration, and are parsed all the same
        snaps, adv = self.write_inputs(tmp_path)
        (snaps / "a.snapshot").write_text(f"snapshot {self.T0 + 7200}\nrelay broken\n")
        (snaps / "b.snapshot").write_text(f"snapshot {self.T0 + 3600}\nrelay broken\n")
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--seed", "1", "--out", str(out),
            "--duration", "600",
        ])
        assert result.exit_code == 2
        assert f"{snaps / 'b.snapshot'}: line 2:" in result.stderr
        assert "a.snapshot" not in result.stderr
        assert not out.exists()

    def test_a_parse_that_disagrees_with_its_ordering_read_exits_2(
        self, runner, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "_read_ahead_time", lambda path: 5)
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out)
        assert result.exit_code == 2
        assert (
            f"{tmp_path / 'snaps' / 'one.snapshot'}: valid_after is {self.T0},"
            " but it was ordered at 5"
        ) in result.stderr
        assert not out.exists()

    def test_seed_required(self, runner, tmp_path):
        snaps, adv = self.write_inputs(tmp_path)
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "5", "--out", str(tmp_path / "r.csv"),
        ])
        assert result.exit_code == 2
        assert "Missing option '--seed'" in result.stderr

    def test_the_group_takes_no_seed(self, runner, tmp_path):
        snaps, adv = self.write_inputs(tmp_path)
        result = runner.invoke(main, [
            "--seed", "5", "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "wf", "--clients", "5", "--out", str(tmp_path / "r.csv"), "--seed", "5",
        ])
        assert result.exit_code == 2
        # click words this "No such option: --seed" or "No such option '--seed'"
        assert "no such option" in result.stderr.lower() and "--seed" in result.stderr

    def test_circuit_counts_in_summary(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out)
        assert result.exit_code == 0
        summary = json.loads(result.stdout)
        assert summary["circuits_scheduled"] == 30 * 20  # 12000 s at one circuit per 600 s
        assert summary["circuits_unbuilt"] == 0
        for key in ("circuits_failed_guard", "circuits_failed_middle",
                    "guard_replacements", "guard_rotations"):
            assert summary[key] == 0
        assert result.stderr == ""

    def test_workers_below_one_exits_2(self, runner, tmp_path):
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out, extra=("--workers", "0"))
        assert result.exit_code == 2
        assert "--workers" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("option,value", [
        ("--num-guards", "0"), ("--interval", "0"), ("--port", "0"), ("--port", "65536"),
    ])
    def test_out_of_range_options_exit_2(self, runner, tmp_path, option, value):
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out, extra=(option, value))
        assert result.exit_code == 2
        assert option in result.stderr
        assert not out.exists()

    def test_an_interval_past_64_bits_exits_2(self, runner, tmp_path):
        # it used to end in an OverflowError, exit 1
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out, extra=("--interval", str(10**20)))
        assert result.exit_code == 2
        assert result.stderr == f"error: circuit interval {10**20} does not fit in 64 bits\n"
        assert not out.exists()

    def test_a_snapshot_time_past_64_bits_exits_2(self, runner, tmp_path):
        from waterweights.consensus import snapshot_to_json

        snaps, adv = self.write_inputs(tmp_path)
        (snaps / "one.snapshot").unlink()
        snap = make_snapshot([("G1", 500, "g"), ("M1", 400, "m"), ("E1", 200, "e")],
                             valid_after=2**63 + 5)
        (snaps / "late.json").write_text(snapshot_to_json(snap))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert result.stderr == f"error: stream time {2**63 + 5} does not fit in 64 bits\n"
        assert not out.exists()

    def test_stream_times_that_would_wrap_exit_2(self, runner, tmp_path):
        # the last of the hour's six stream times lies past 2**63 - 1: it
        # used to wrap to a negative time
        from waterweights.consensus import snapshot_to_json

        snaps, adv = self.write_inputs(tmp_path)
        (snaps / "one.snapshot").unlink()
        snap = make_snapshot([("G1", 500, "g"), ("M1", 400, "m"), ("E1", 200, "e")],
                             valid_after=2**63 - 1000)
        (snaps / "late.json").write_text(snapshot_to_json(snap))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        last = 2**63 - 1000 + 5 * 600
        assert result.stderr == f"error: stream time {last} does not fit in 64 bits\n"
        assert not out.exists()

    def test_an_interval_past_sixty_days_exits_2_before_any_read(
        self, runner, tmp_path, monkeypatch
    ):
        # a longer interval could leave a replacement guard's deadline
        # behind the stream time; two snapshots 2**62 s apart at 2**61 s
        # used to rotate for ever
        def no_read(path, at=None):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli, "_parse_file", no_read)
        out = tmp_path / "r.csv"
        result = self.simulate(runner, tmp_path, out, extra=("--interval", str(60 * 86_400 + 1)))
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: circuit interval {60 * 86_400 + 1} s is longer than the shortest guard"
            f" lifetime ({60 * 86_400} s, 60 days)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("doc,field", [
        ([{"role": "guard", "consensus_weight": 400}], "object"),
        ({"relay": [{"role": "guard", "consensus_weight": 400}]}, "'relays'"),
        ({"relays": [], "budget": 5}, "'budget'"),
        ({"relays": [{"role": "guard", "consensus_weight": 400, "counts": 3}]}, "'counts'"),
        ({"relays": [{"role": "guard", "consensus_weight": 400, "count": -3}]}, "count"),
        ({"relays": [{"role": "guard", "consensus_weight": 400, "count": 0}]}, "count"),
        ({"relays": [{"role": "exit", "consensus_weight": -1}]}, "consensus_weight"),
        ({"relays": [{"role": "exit", "consensus_weight": 2**63}]}, "consensus_weight"),
        ({"relays": [{"role": "exit", "consensus_weight": 1.7}]}, "relays[0].consensus_weight"),
        ({"relays": [{"role": "exit", "consensus_weight": "12"}]}, "relays[0].consensus_weight"),
        ({"relays": [{"role": "exit", "consensus_weight": True}]}, "relays[0].consensus_weight"),
        ({"relays": [{"role": "exit", "consensus_weight": 9, "count": 2.9}]}, "relays[0].count"),
        ({"relays": [{"role": "exit", "consensus_weight": 9, "join_time": "5"}]},
         "relays[0].join_time"),
        ({"relays": [{"role": "middle", "consensus_weight": 9}]}, "relays[0].role"),
        ({"relays": [{"role": ["guard"], "consensus_weight": 9}]}, "relays[0].role"),
    ])
    def test_malformed_adversary_exits_2(self, runner, tmp_path, doc, field):
        snaps, adv = self.write_inputs(tmp_path)
        adv.write_text(json.dumps(doc))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "bad adversary file" in result.stderr
        assert field in result.stderr
        assert not out.exists()

    def test_adversary_with_a_repeated_key_exits_2(self, runner, tmp_path):
        # json.loads alone keeps the last value: this file used to load as weight 900
        snaps, adv = self.write_inputs(tmp_path)
        adv.write_text(
            '{"relays":[{"role":"guard","consensus_weight":5,"consensus_weight":900}]}'
        )
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "3", "--seed", "1", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert f"bad adversary file {adv}: relays[0]: repeated key 'consensus_weight'" in (
            result.stderr
        )
        assert not out.exists()

    def test_failure_split_mismatch_exits_4(self, runner, tmp_path, monkeypatch):
        from waterweights import cli

        original = cli.simulate_prepared

        def miscounting(*args, **kwargs):
            trace = original(*args, **kwargs)
            trace.circuits_failed_guard += 1
            return trace

        monkeypatch.setattr(cli, "simulate_prepared", miscounting)
        result = self.simulate(runner, tmp_path, tmp_path / "r.csv")
        assert result.exit_code == 4
        assert "1 on the guard" in result.stderr

    @pytest.mark.parametrize("quiet", [False, True])
    def test_port_no_exit_accepts_is_reported(self, runner, tmp_path, quiet):
        from waterweights.consensus import parse_policy

        web_only = parse_policy("accept:80;reject:*")
        snap = ConsensusSnapshot.from_relays(0, [
            make_relay("G1", 500, "g", subnet="10.1"),
            make_relay("G2", 300, "g", subnet="10.2"),
            make_relay("M1", 400, "m", subnet="10.3"),
            make_relay("E1", 200, "e", policy=web_only, subnet="10.4"),
            make_relay("D1", 50, "d", policy=web_only, subnet="10.5"),
        ])
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "one.snapshot").write_text(serialize_native(snap))
        adv = tmp_path / "adv.json"
        adv.write_text(json.dumps({"relays": [{"role": "guard", "consensus_weight": 400}]}))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            *(["--quiet"] if quiet else []),
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "abwrs", "--clients", "4", "--seed", "3", "--out", str(out),
            "--duration", "3000", "--port", "443",
        ])
        assert result.exit_code == 0
        summary = json.loads(result.stdout)
        assert summary["circuits_scheduled"] == 4 * 5
        assert summary["circuits_unbuilt"] == 4 * 5
        assert summary["circuits_skipped"] == 4 * 5
        assert summary["circuits_failed"] == 0
        if quiet:
            assert result.stderr == ""
        else:
            assert "20 of 20 scheduled circuits were not built" in result.stderr
            assert "20 found no exit accepting port 443" in result.stderr
            assert "relay constraints" not in result.stderr

    def test_constraint_failures_are_reported(self, runner, tmp_path):
        # the only exit shares a /16 with every guard, so no guard may join it
        snap = ConsensusSnapshot.from_relays(0, [
            make_relay("G1", 500, "g", subnet="10.1"),
            make_relay("G2", 300, "g", subnet="10.1"),
            make_relay("M1", 400, "m", subnet="10.3"),
            make_relay("E1", 200, "e", subnet="10.1"),
        ])
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "one.snapshot").write_text(serialize_native(snap))
        adv = tmp_path / "adv.json"
        adv.write_text(json.dumps({"relays": []}))
        out = tmp_path / "r.csv"
        result = runner.invoke(main, [
            "simulate", "--snapshots", str(snaps), "--adversary", str(adv),
            "--algo", "wf", "--clients", "4", "--seed", "3", "--out", str(out),
            "--duration", "3000",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.stdout)
        assert summary["circuits_scheduled"] == 4 * 5
        assert summary["circuits_unbuilt"] == 4 * 5
        assert summary["circuits_skipped"] == 0
        assert summary["circuits_failed"] == 4 * 5
        assert summary["circuits_failed_guard"] == 4 * 5
        assert summary["circuits_failed_middle"] == 0
        assert (
            "20 could not meet the relay constraints in 64 draws"
            " (20 found no list guard compatible with the exit)"
        ) in result.stderr
        assert "middle" not in result.stderr
        assert "port" not in result.stderr

    def test_simulate_prepares_each_state_once(self, runner, tmp_path, monkeypatch):
        from waterweights import pathsim

        prepared = []
        original = pathsim.NetworkState.__init__

        def counting(self, snapshot, *args, **kwargs):
            prepared.append(snapshot.valid_after)
            original(self, snapshot, *args, **kwargs)

        monkeypatch.setattr(pathsim.NetworkState, "__init__", counting)
        result = self.simulate(runner, tmp_path, tmp_path / "r.csv")
        assert result.exit_code == 0, result.output
        assert len(prepared) == len(json.loads(result.stdout)["periods"]) == 1

    def test_waterweights_never_imports_numpy_ma(self, tmp_path):
        # numpy.ma costs each process about 1.5 MB of RSS and 10-12 ms; under
        # numpy 2 a plain np.unique(x) imports it, numpy 1 imports it with numpy
        snaps, adv = self.write_inputs(tmp_path)
        families = ConsensusSnapshot.from_relays(1_432_548_000, [
            make_relay("G1", 500, "g", subnet="10.1", family=frozenset({"M1", "GONE"})),
            make_relay("G2", 300, "g", subnet="10.2"),
            make_relay("M1", 400, "m", subnet="10.3", family=frozenset({"G1"})),
            make_relay("E1", 200, "e", subnet="10.4"),
            make_relay("D1", 50, "d", subnet="10.5"),
        ])
        # "GONE" names no relay: G1's family keeps it, and only G1-M1 (rows 0
        # and 2 of 5) resolves, both ways
        assert "GONE" in families.relays[0].family
        assert families.table.family_keys.tolist() == [0 * 5 + 2, 2 * 5 + 0]
        (snaps / "one.snapshot").write_text(serialize_native(families))
        out = tmp_path / "r.csv"
        script = f"""
import sys
import numpy
before = "numpy.ma" in sys.modules
from waterweights.cli import main
for args in (
    ["simulate", "--snapshots", {str(snaps)!r}, "--adversary", {str(adv)!r}, "--algo",
     "wf", "--clients", "30", "--seed", "77", "--out", {str(out)!r},
     "--duration", "12000"],
    ["compare", {str(out)!r}, {str(out)!r}, "--horizon", "12000"],
):
    try:
        main(args)
    except SystemExit as done:
        assert not done.code, args
print(before, "numpy.ma" in sys.modules)
"""
        before, after = run_fresh(script).split()[-2:]
        assert after == before, "waterweights imported numpy.ma"
        assert "," in out.read_text()

    def test_imports_follow_use(self, tmp_path):
        # the package imports no submodule, and simulate calls neither
        # metrics nor stats, so a simulate run loads neither
        snaps, adv = self.write_inputs(tmp_path)
        out = tmp_path / "r.csv"
        script = f"""
import json
import sys
import waterweights
package = sorted(m for m in sys.modules if m.startswith("waterweights."))
from waterweights.cli import main
try:
    main(["simulate", "--snapshots", {str(snaps)!r}, "--adversary", {str(adv)!r}, "--algo",
          "wf", "--clients", "30", "--seed", "77", "--out", {str(out)!r}, "--duration", "12000"])
except SystemExit as done:
    assert not done.code, done.code
print(json.dumps([package, sorted(m for m in sys.modules if m.startswith("waterweights."))]))
"""
        package, simulate = json.loads(run_fresh(script).splitlines()[-1])
        assert package == [], "import waterweights loaded submodules"
        assert {"waterweights.metrics", "waterweights.stats"}.isdisjoint(simulate), simulate
        assert "waterweights.pathsim" in simulate

    def test_compare_identical_records(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        assert self.simulate(runner, tmp_path, out).exit_code == 0
        result = runner.invoke(main, [
            "compare", str(out), str(out), "--horizon", "12000", "--resolution", "3000",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["terminal_delta"] == 0.0
        assert payload["logrank"]["verdict"] == "indistinguishable"
        assert payload["logrank"]["z"] == 0.0
        low, high = payload["terminal_delta_ci95"]
        assert low <= 0.0 <= high

    @pytest.mark.parametrize("row,problem", [
        ("0,,5,0", "client_id 0 repeats"),
        ("1,-600,5,1", "negative"),
        ("1,600,2,3", "3 circuits compromised of 2 built"),
        ("1,600,5,0", "first_compromise_time"),
    ])
    def test_compare_rejects_impossible_rows(self, runner, tmp_path, row, problem):
        from waterweights.pathsim import RECORDS_HEADER

        bad = tmp_path / "bad.csv"
        bad.write_text(f"{RECORDS_HEADER}\n0,,5,0\n{row}\n")
        good = tmp_path / "good.csv"
        good.write_text(f"{RECORDS_HEADER}\n0,,5,0\n1,,5,0\n")
        result = runner.invoke(main, ["compare", str(good), str(bad), "--horizon", "600"])
        assert result.exit_code == 2
        assert "line 3" in result.stderr
        assert problem in result.stderr

    @pytest.mark.parametrize("args", [
        ["--horizon", "-5"],
        ["--horizon", "600", "--resolution", "0"],
        ["--horizon", str(2**63)],
        ["--horizon", str(10**20)],
    ])
    def test_compare_rejects_bad_ranges(self, runner, tmp_path, args):
        from waterweights.pathsim import RECORDS_HEADER

        records = tmp_path / "a.csv"
        records.write_text(f"{RECORDS_HEADER}\n0,,5,0\n1,600,5,1\n")
        result = runner.invoke(main, ["compare", str(records), str(records), *args])
        assert result.exit_code == 2
        assert "Traceback" not in result.output

    def test_compare_rejects_different_clients(self, runner, tmp_path):
        from waterweights.pathsim import RECORDS_HEADER

        a = tmp_path / "a.csv"
        a.write_text(f"{RECORDS_HEADER}\n0,,5,0\n1,600,5,1\n")
        b = tmp_path / "b.csv"
        b.write_text(f"{RECORDS_HEADER}\n7,,5,0\n9,600,5,1\n")
        result = runner.invoke(main, ["compare", str(a), str(b), "--horizon", "600"])
        assert result.exit_code == 2
        assert "different clients" in result.stderr

    def test_report_command(self, runner, tmp_path):
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps({
            "pools": {"guards": {"water_level": 8710.0, "source_Wgg": 0.622}}
        }))
        result = runner.invoke(main, [
            "report", "--waterfill", str(wf), "--target-weight", "480310",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["node_equivalents"] == 35
        assert payload["entry_weight"] == 0.622
        assert payload["version"]

    @pytest.mark.parametrize("args", [
        ["--target-weight", "-1000"],
        ["--target-weight", "480310", "--entry-weight", "-0.5"],
        ["--target-weight", "480310", "--entry-weight", "1.5"],
        ["--target-weight", "10", "--entry-weight", "nan"],
    ])
    def test_report_rejects_out_of_range_options(self, runner, tmp_path, args):
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps({"pools": {"guards": {"water_level": 8710.0, "source_Wgg": 0.6}}}))
        result = runner.invoke(main, ["report", "--waterfill", str(wf), *args])
        assert result.exit_code == 2
        assert args[-2] in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("doc,problem", [
        ({"pools": {"guards": {"water_level": "high", "source_Wgg": 0.6}}}, "water_level"),
        ({"pools": {"guards": {"water_level": 8710.0}}}, "source_Wgg"),
        ({"pools": {"guards": {"water_level": 8710.0, "source_Wgg": None}}}, "source_Wgg"),
        ({"pools": ["guards"]}, "no solved guard pool"),
        ([1, 2], "no solved guard pool"),
    ])
    def test_report_rejects_a_bad_waterfill_file(self, runner, tmp_path, doc, problem):
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps(doc))
        result = runner.invoke(main, ["report", "--waterfill", str(wf), "--target-weight", "9"])
        assert result.exit_code == 2
        assert problem in result.stderr
        assert "Traceback" not in result.output

    def test_report_rejects_a_target_past_int64(self, runner, tmp_path):
        wf = tmp_path / "wf.json"
        wf.write_text(json.dumps({"pools": {"guards": {"water_level": 8710.0, "source_Wgg": 0.5}}}))
        result = runner.invoke(main, ["report", "--waterfill", str(wf), "--target-weight", "1" + "0" * 400])
        assert result.exit_code == 2
        assert "target weight must be at most 2**63 - 1" in result.stderr
        assert result.stdout == ""

    def test_report_rejects_a_repeated_key(self, runner, tmp_path):
        wf = tmp_path / "wf.json"
        wf.write_text(
            '{"pools": {"guards": {"water_level": 1.0, "source_Wgg": 0.6, "water_level": 8710.0}}}'
        )
        result = runner.invoke(main, ["report", "--waterfill", str(wf), "--target-weight", "9"])
        assert result.exit_code == 2
        assert f"bad waterfill file {wf}: pools.guards: repeated key 'water_level'" in (
            result.stderr
        )
        assert result.stdout == ""

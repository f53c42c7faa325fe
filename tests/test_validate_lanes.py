"""The validation-lane registry behind ``repro validate --lane``: the
CLI selects lanes by name only, runs exactly the selected checks, and
turns their failure strings into the exit status."""

import pytest

from repro.cli import build_parser, main
from repro.validate.lanes import LANES, Lane, LaneContext

DEFAULT_LANES = ["golden", "perturb", "differential", "prediction"]


@pytest.fixture
def spies(monkeypatch):
    """Replace every lane's check with a recorder; returns
    ``(calls, failures)``: the (lane, ctx) calls in order, and a dict
    of failure strings each lane should report."""
    calls, failures = [], {}
    for name, lane in list(LANES.items()):
        def check(ctx, name=name):
            calls.append((name, ctx))
            return failures.get(name, [])

        monkeypatch.setitem(LANES, name, Lane(lane.default, check))
    return calls, failures


def _lane_action():
    validate = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices["validate"]
    return next(a for a in validate._actions if a.dest == "lanes")


def test_lane_choices_are_the_registry_names():
    assert list(_lane_action().choices) == list(LANES)
    assert list(LANES) == DEFAULT_LANES + ["serving", "scenarios"]


@pytest.mark.parametrize("name", list(LANES))
def test_lane_runs_only_that_check(spies, capsys, name):
    calls, _ = spies
    assert main(["validate", "--lane", name]) == 0
    assert [lane for lane, _ in calls] == [name]
    assert "all validations passed" in capsys.readouterr().out


def test_no_lane_runs_exactly_the_default_lanes(spies):
    calls, _ = spies
    assert main(["validate"]) == 0
    assert [lane for lane, _ in calls] == DEFAULT_LANES
    assert [n for n, lane in LANES.items() if lane.default] == DEFAULT_LANES


def test_repeated_lanes_run_once_in_registry_order(spies):
    calls, _ = spies
    argv = ["validate", "--lane", "scenarios", "--lane", "golden",
            "--lane", "scenarios"]
    assert main(argv) == 0
    assert [lane for lane, _ in calls] == ["golden", "scenarios"]


def test_failing_lane_exits_1_and_prints_every_failure(spies, capsys):
    calls, failures = spies
    failures["perturb"] = ["lbm on ClusterA: divergence", "soma: diverged"]
    assert main(["validate", "--lane", "perturb", "--lane", "golden"]) == 1
    out = capsys.readouterr().out
    assert "2 failure(s)" in out
    for f in failures["perturb"]:
        assert f"perturb: {f}" in out
    assert [lane for lane, _ in calls] == ["golden", "perturb"]


def test_unknown_lane_exits_2(spies, capsys):
    calls, _ = spies
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--lane", "bogus"])
    assert exc.value.code == 2
    assert calls == []
    assert "invalid choice" in capsys.readouterr().err


def test_options_reach_the_lane_context(spies):
    calls, _ = spies
    assert main(["validate", "--lane", "serving", "-b", "lbm,tealeaf",
                 "-c", "A", "-n", "8", "--shuffles", "3", "--scales", "1",
                 "--golden-dir", "corpus"]) == 0
    (_, ctx), = calls
    assert ctx == LaneContext(
        benchmarks=("lbm", "tealeaf"), clusters=("A",), nprocs=8,
        shuffles=3, scales=(1,), golden_dir="corpus",
    )
    assert list(ctx.jobs()) == [("lbm", "A", 8), ("tealeaf", "A", 8)]


def test_default_context_is_one_full_node_per_cluster(spies):
    calls, _ = spies
    assert main(["validate", "--lane", "perturb", "-b", "soma"]) == 0
    (_, ctx), = calls
    assert ctx.scales == (1, 4) and ctx.shuffles == 20
    assert list(ctx.jobs()) == [("soma", "A", 72), ("soma", "B", 104)]


def test_golden_lane_reports_a_missing_fingerprint(tmp_path, capsys):
    argv = ["validate", "--lane", "golden", "-b", "lbm", "-c", "A",
            "--scales", "1", "--golden-dir", str(tmp_path)]
    assert main(argv) == 1
    assert "no checked-in fingerprint" in capsys.readouterr().out


def test_every_lane_passes_on_a_small_selection(capsys):
    argv = ["validate", "-b", "lbm", "-c", "A", "-n", "4", "--shuffles",
            "2", "--scales", "1"]
    for name in LANES:
        argv += ["--lane", name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "all validations passed" in out
    for name in LANES:
        assert f"{name} |     ok |        0" in out

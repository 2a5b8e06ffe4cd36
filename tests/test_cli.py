import json

import pytest

from charvol.cli import main, report_bytes_without_timings
from charvol.fixtures import fixture_text


def run(args):
    return main(args)


def test_h1z2_command(tmp_path):
    code = run(["h1z2", "--spec", "fig8", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_h1z2.json").read_text())
    assert doc["report"]["h1_dim"] == 1
    assert doc["report"]["degree_bound"] == 1


def test_complete_command(tmp_path):
    code = run(["complete", "--spec", "fig8", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_complete.json").read_text())
    assert doc["report"]["status"] == "ok"
    assert doc["report"]["eta_max"] < 1e-9
    assert "seed" not in doc["config"]


def test_complete_nonhyperbolic_exits_nonzero(tmp_path):
    code = run(["complete", "--spec", "nonhyp", "--out", str(tmp_path)])
    assert code == 1
    doc = json.loads((tmp_path / "nonhyp_complete.json").read_text())
    assert doc["report"]["status"] == "failed"


def test_missing_spec_file_errors(tmp_path):
    code = run(["complete", "--spec", str(tmp_path / "nope.spec"),
                "--out", str(tmp_path)])
    assert code == 1


def test_complete_rejects_meridian_without_slot(tmp_path, capsys):
    doc = json.loads(fixture_text("fig8"))
    doc["cusps"] = [{"meridian": [1, 2], "longitude": [1, 2, 1, 2]}]
    spec = tmp_path / "noslot.spec"
    spec.write_text(json.dumps(doc))
    code = run(["complete", "--spec", str(spec), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cusp 1 meridian [1, 2]" in err


def test_fill_and_volume_commands(tmp_path):
    code = run(["fill", "--spec", "fig8", "--kappa", "1,5",
                "--out", str(tmp_path), "--csv"])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_fill.json").read_text())
    assert abs(doc["report"]["volume"]["value"] - 1.8190770) < 1e-5
    csv = (tmp_path / "fig8_fill.csv").read_text().splitlines()
    assert csv[0].startswith("t,re_u1")
    assert len(csv) > 100

    code = run(["fill", "--spec", "fig8", "--kappa", "1,7", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_fill.json").read_text())
    assert doc["report"]["volume"]["value"] < doc["report"]["reference"]


def test_apoly_command_fig8(tmp_path):
    code = run(["apoly", "--spec", "fig8", "--kappa", "1,5", "--kappa", "1,7",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_apoly.json").read_text())
    assert doc["report"]["status"] == "ok"
    el = doc["report"]["eliminants"]
    assert el["validated"]
    assert len(el["polynomials"]) == 1
    # each filling gives its endpoint and two path samples
    assert doc["report"]["filled_slopes"] == ["1,5", "1,7"]
    assert doc["report"]["samples"] == 6


@pytest.fixture
def filled_slopes(monkeypatch):
    """The slopes that `apoly` fills, read off its `sample_dense_set` call."""
    import charvol.cli as cli
    labels = []
    original = cli.sample_dense_set

    def recording(problem, complete, kappas):
        out = original(problem, complete, kappas)
        labels.extend(f.kappa.label() for f in out)
        return out

    monkeypatch.setattr(cli, "sample_dense_set", recording)
    return labels


def test_apoly_fills_exactly_the_given_slope(tmp_path, filled_slopes):
    code = run(["apoly", "--spec", "fig8", "--kappa", "2,5", "--out", str(tmp_path)])
    assert code == 0
    assert filled_slopes == ["2,5"]
    doc = json.loads((tmp_path / "fig8_apoly.json").read_text())
    assert doc["report"]["eliminants"]["validated"]


def test_apoly_two_cusp_kappa_with_unfilled_cusp(tmp_path, filled_slopes, capsys):
    """The slope is filled as given; every sample then has m2 = 1, where both
    branches of cusp 2's slot meet, and the elimination says so."""
    code = run(["apoly", "--spec", "wlink", "--kappa", "1,5;inf", "--out", str(tmp_path)])
    assert code == 1
    assert filled_slopes == ["1,5;inf"]
    err = capsys.readouterr().err
    assert err.startswith("error:") and "both branches of the slot p meet" in err
    report = json.loads((tmp_path / "wlink_apoly.json").read_text())["report"]
    assert report["status"] == "failed" and "both branches" in report["message"]
    assert report["filled_slopes"] == ["1,5;inf"] and report["samples"] == 3


def test_apoly_empty_variety_fails_with_report(tmp_path, capsys):
    """nonhyp's extended system contains the constant 1: no eliminant."""
    code = run(["apoly", "--spec", "nonhyp", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: empty variety")
    report = json.loads((tmp_path / "nonhyp_apoly.json").read_text())["report"]
    assert report["status"] == "failed" and "empty variety" in report["message"]
    assert "eliminants" not in report
    assert report["filled_slopes"] == [] and report["samples"] == 0


def test_apoly_fails_when_every_filling_fails(tmp_path, monkeypatch, capsys):
    """The complete structure is found but no slope fills: no sample lies on
    X0, so there is no eliminant, and the report gives each filling's error."""
    import charvol.cli as cli
    from charvol.continuation import FilledCharacter
    monkeypatch.setattr(cli, "sample_dense_set", lambda problem, complete, kappas: [
        FilledCharacter(k, None, None, error=f"kappa={k.label()}: tracking failed")
        for k in kappas])
    code = run(["apoly", "--spec", "fig8", "--kappa", "1,5", "--kappa", "1,7",
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: no samples on X0")
    report = json.loads((tmp_path / "fig8_apoly.json").read_text())["report"]
    assert report["status"] == "failed" and "eliminants" not in report
    assert report["filling_errors"] == {"1,5": "kappa=1,5: tracking failed",
                                        "1,7": "kappa=1,7: tracking failed"}
    assert report["filled_slopes"] == [] and report["samples"] == 0


def _cheap_loops(monkeypatch, outcomes):
    """Replace loop tracking and integration in `cli` by a scripted run:
    each tracked level takes the next outcome, a TrackingError to raise or
    the Richardson estimate to report with the value 1e-12.  Returns the
    list that collects the step of every tracked level."""
    import charvol.cli as cli
    from types import SimpleNamespace
    from charvol.continuation import TrackedPath, TrackingError
    steps = []
    outcomes = iter(outcomes)
    estimate = {}

    def cheap_loop(problem, base, family, first_step, **opts):
        steps.append(first_step)
        outcome = next(outcomes)
        if outcome is TrackingError:
            raise TrackingError("scripted failure")
        estimate["last"] = outcome
        return TrackedPath(points=[base], taus=[0.0])
    monkeypatch.setattr(cli, "track_closed_loop", cheap_loop)
    monkeypatch.setattr(cli, "loop_integral", lambda loop, sign: SimpleNamespace(
        value=1e-12, error_estimate=estimate["last"]))
    return steps


LADDER = [1 / 64, 0.004, 0.004 / 3, 0.004 / 9, 0.004 / 27]


def test_unresolved_exactness_loop_is_dropped(fig8_spec, fig8_problem, fig8_complete,
                                              monkeypatch):
    """A loop whose quadrature estimate stays above LOOP_TOL/20 after the last
    refinement is not counted; the next loop is drawn instead."""
    import charvol.cli as cli
    # the first loop never resolves; the next two do at the first level
    steps = _cheap_loops(monkeypatch, [1.0] * 5 + [0.0] * 2)
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_spec, fig8_problem, fig8_complete, count=2, seed=0)
    assert integrals == [1e-12, 1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 1, "tracking_failed": 0}
    assert levels == {64: 2, 250: 0, 750: 0, 2250: 0, 6750: 0}
    assert steps == pytest.approx(LADDER + [1 / 64, 1 / 64])


def test_exactness_loop_that_fails_to_track_goes_to_the_next_level(
        fig8_spec, fig8_problem, fig8_complete, monkeypatch):
    """A tracking failure at 64 samples per winding hands the loop to the
    0.004 step, which keeps it; nothing is dropped."""
    import charvol.cli as cli
    from charvol.continuation import TrackingError
    steps = _cheap_loops(monkeypatch, [TrackingError, 0.0])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_spec, fig8_problem, fig8_complete, count=1, seed=0)
    assert integrals == [1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 0, "tracking_failed": 0}
    assert levels == {64: 0, 250: 1, 750: 0, 2250: 0, 6750: 0}
    assert steps == pytest.approx(LADDER[:2])


def test_exactness_loop_failing_to_track_at_the_last_level_is_dropped(
        fig8_spec, fig8_problem, fig8_complete, monkeypatch):
    """An unresolved estimate at the first four levels and a tracking
    failure at the last drop the loop as tracking_failed."""
    import charvol.cli as cli
    from charvol.continuation import TrackingError
    steps = _cheap_loops(monkeypatch, [1.0] * 4 + [TrackingError, 0.0])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_spec, fig8_problem, fig8_complete, count=1, seed=0)
    assert integrals == [1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 0, "tracking_failed": 1}
    assert levels == {64: 1, 250: 0, 750: 0, 2250: 0, 6750: 0}
    assert steps == pytest.approx(LADDER + [1 / 64])


def test_apoly_command_abelian(tmp_path):
    code = run(["apoly", "--spec", "abelian", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "abelian_apoly.json").read_text())
    texts = doc["report"]["eliminants"]["text"]
    assert texts == ["-1 + 1*l1^2"]
    # no complete structure, so nothing is filled or sampled
    assert doc["report"]["filled_slopes"] == [] and doc["report"]["samples"] == 0


def test_fiber_command(tmp_path):
    code = run(["fiber", "--spec", "fig8", "--kappa", "1,5", "--budget", "24",
                "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_fiber.json").read_text())
    assert doc["report"]["fiber"]["psl2_count"] == 1


def test_track_command(tmp_path):
    code = run(["track", "--spec", "fig8", "--seed", "4", "--out", str(tmp_path),
                "--csv"])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_track.json").read_text())
    assert doc["report"]["endpoint_mismatch"] < 1e-8


def test_loops_command_small(tmp_path):
    code = run(["loops", "--spec", "fig8", "--loops", "2", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_loops.json").read_text())
    assert len(doc["report"]["loop_integrals"]) == 2
    assert all(abs(v) < 1e-6 for v in doc["report"]["loop_integrals"])


def test_reports_byte_identical_for_same_seed(tmp_path):
    args = ["fiber", "--spec", "fig8", "--kappa", "1,5", "--seed", "9",
            "--budget", "16", "--out", str(tmp_path)]
    assert run(args) == 0
    first = report_bytes_without_timings(tmp_path / "fig8_fiber.json")
    assert run(args) == 0
    second = report_bytes_without_timings(tmp_path / "fig8_fiber.json")
    assert first == second


def test_different_seed_changes_search(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["fiber", "--spec", "fig8", "--kappa", "1,5", "--seed", "1",
         "--budget", "16", "--out", str(a)])
    run(["fiber", "--spec", "fig8", "--kappa", "1,5", "--seed", "2",
         "--budget", "16", "--out", str(b)])
    da = json.loads((a / "fig8_fiber.json").read_text())
    db = json.loads((b / "fig8_fiber.json").read_text())
    # the answer agrees even though the search differs
    assert da["report"]["fiber"]["psl2_count"] == db["report"]["fiber"]["psl2_count"] == 1


# a valid command line for each command; the usage tests add one bad option
VALID = {
    "complete": ["complete", "--spec", "nonhyp"],
    "apoly": ["apoly", "--spec", "abelian"],
    "fill": ["fill", "--spec", "fig8", "--kappa", "1,5"],
    "track": ["track", "--spec", "fig8"],
    "loops": ["loops", "--spec", "fig8", "--loops", "1"],
    "fiber": ["fiber", "--spec", "fig8", "--kappa", "1,5", "--budget", "4"],
    "h1z2": ["h1z2", "--spec", "fig8"],
    "certify": ["certify", "--spec", "nonhyp"],
}


@pytest.mark.parametrize("argv", [
    VALID["h1z2"] + ["--budget", "5"],
    VALID["complete"] + ["--tol-dedup", "1e-3"],
    VALID["certify"] + ["--csv"],
    VALID["certify"] + ["--bogus"],
    VALID["fill"] + ["--kappa", "1,7"],
    VALID["fiber"] + ["--kappa", "1,7"],
    VALID["certify"] + ["--tol-volume-equality", "1e-3"],
    ["fiber", "--spec", "fig8", "--kappa", "1,5", "--budget", "-5"],
    VALID["certify"] + ["--budget", "0"],
    ["loops", "--spec", "fig8", "--loops", "-3"],
    VALID["certify"] + ["--loops", "-1"],
    VALID["complete"] + ["--seed", "1"],
    VALID["h1z2"] + ["--seed", "1"],
    VALID["fill"] + ["--seed", "1"],
    *(VALID[c] + [flag, "1e-3"] for c in VALID
      for flag in ("--tol-residual", "--tol-parabolic-trace")),
    # the four thresholds are constants; no command takes them as options
    VALID["apoly"] + ["--tol-eliminant-residual", "1e-3"],
    VALID["loops"] + ["--tol-loop-exactness", "1e-3"],
    VALID["fiber"] + ["--tol-dedup", "1e-3"],
    *(VALID["certify"] + [flag, "1e-3"]
      for flag in ("--tol-dedup", "--tol-loop-exactness", "--tol-quadrature")),
], ids=" ".join)
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    """An option the command does not read, or a count out of range, is a
    usage error: an `error:` line and exit code 1 (2 means inconclusive)."""
    assert run(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert any(line.startswith("error: ") for line in err)
    assert not list(tmp_path.iterdir())


def test_settable_values_per_command():
    """Counted from the parser, besides --spec: 23 values over the eight
    commands, none of them a threshold (those are module constants)."""
    import argparse
    from charvol.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: [a.option_strings[0] for a in parser._actions
                    if a.option_strings and a.dest not in ("help", "spec")]
             for name, parser in sub.choices.items()}
    assert {name: len(f) for name, f in flags.items()} == {
        "complete": 1, "apoly": 3, "fill": 3, "track": 3, "loops": 3, "fiber": 4,
        "h1z2": 1, "certify": 5}
    assert not [f for fs in flags.values() for f in fs if f.startswith("--tol")]


def test_report_config_records_exactly_the_command_options(tmp_path):
    assert run(["certify", "--spec", "nonhyp", "--out", str(tmp_path)]) == 1
    config = json.loads((tmp_path / "nonhyp_certify.json").read_text())["config"]
    assert config == {"command": "certify", "spec": "nonhyp", "seed": 0,
                      "out": str(tmp_path), "kappas": [], "budget": 64, "loops": 10}
    assert run(["h1z2", "--spec", "fig8", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "fig8_h1z2.json").read_text())["config"]
    assert config == {"command": "h1z2", "spec": "fig8", "out": str(tmp_path)}


def test_certify_small_fig8(tmp_path):
    code = run(["certify", "--spec", "fig8", "--kappa", "1,5", "--kappa", "1,7",
                "--loops", "2", "--budget", "20", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_certify.json").read_text())
    assert doc["report"]["overall"] == "pass"
    names = {c["name"]: c["status"] for c in doc["report"]["checks"]}
    assert names["reference_volume_oracle"] == "pass"
    assert names["eta_critical_at_complete"] == "pass"
    assert names["fiber_degree_one_1,5"] == "pass"
    assert names["quadrature_richardson_estimate"] == "pass"
    # (1,5), (1,7) is a one-cusp series
    assert names["filled_volumes_increase_toward_reference"] == "pass"


def test_certify_writes_only_checks_that_can_fail(tmp_path):
    """A fiber holds one character, so comparing volumes across it compares
    one value; 2^k >= 1 always; and outside a one-cusp series the increase
    check would copy `filled_volumes_below_reference`.  None is written."""
    run(["certify", "--spec", "fig8", "--kappa", "1,7", "--kappa", "1,5",
         "--loops", "0", "--budget", "8", "--out", str(tmp_path)])
    body = json.loads((tmp_path / "fig8_certify.json").read_text())["report"]
    names = [c["name"] for c in body["checks"]]
    assert not [n for n in names if n.startswith("fiber_volume_equality_")]
    assert "z2_degree_bound_data" not in names
    assert "filled_volumes_increase_toward_reference" not in names
    assert "filled_volumes_below_reference" in names
    assert body["h1z2"] == {"h1_dim": 1, "k": 0, "bound": 1}


@pytest.mark.parametrize("argv", [
    *(["certify", "--spec", "fig8", "--kappa", text]
      for text in ("1", "1,5,7", "x,5", "1,5;1,5", "oo")),
    *([command, "--spec", "fig8", "--kappa", "1"] for command in ("apoly", "fill", "fiber")),
], ids=" ".join)
def test_malformed_kappa_is_an_error_before_any_solve(argv, tmp_path, capsys, monkeypatch):
    import charvol.cli as cli

    def no_solve(*args):
        raise AssertionError("find_complete ran before the slopes were parsed")
    monkeypatch.setattr(cli, "find_complete", no_solve)
    assert run(argv + ["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert any(line.startswith("error: ") and repr(argv[-1]) in line
               for line in err.splitlines())
    assert "[PASS]" not in out
    assert not list(tmp_path.iterdir())


def test_certify_loops_zero_marks_skipped(tmp_path):
    code = run(["certify", "--spec", "fig8", "--kappa", "1,5",
                "--loops", "0", "--budget", "12", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "fig8_certify.json").read_text())
    skipped = [c for c in doc["report"]["checks"] if c["status"] == "skipped"]
    assert any(c["name"] == "loop_exactness" for c in skipped)

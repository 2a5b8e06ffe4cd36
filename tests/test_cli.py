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


def test_complete_failure_names_every_lift_sign(tmp_path, capsys):
    """The failure of `complete --spec nonhyp` summarizes the attempts of
    each lift sign, eps=[1] and eps=[-1], in the report and on stdout."""
    assert run(["complete", "--spec", "nonhyp", "--out", str(tmp_path)]) == 1
    error = json.loads((tmp_path / "nonhyp_complete.json").read_text())["report"]["error"]
    for eps in ("[1]", "[-1]"):
        assert f"eps={eps}: 40 attempts, 0 converged but reducible, 40 diverged" in error
    assert error in capsys.readouterr().out


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
    # fill integrates a volume, so it tracks at the quadrature step: the
    # complete structure, then tau = 0.01, 0.011, ..., 1
    assert len(csv) == 1 + 992
    # the grid's solver statistics, outside the timings
    stats = doc["report"]["filling_stats"]
    assert sorted(stats) == ["fourth_difference_max", "newton_iterations_max",
                             "skeleton_rejected", "skeleton_samples"]
    assert stats["skeleton_samples"] < 100 and stats["fourth_difference_max"] < 1e-6

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
def fillings(monkeypatch):
    """The filled characters that `apoly` gets from its `sample_dense_set`
    call."""
    import charvol.cli as cli
    out = []
    original = cli.sample_dense_set

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        out.extend(result)
        return result

    monkeypatch.setattr(cli, "sample_dense_set", recording)
    return out


def test_apoly_fills_exactly_the_given_slope(tmp_path, fillings):
    code = run(["apoly", "--spec", "fig8", "--kappa", "2,5", "--out", str(tmp_path)])
    assert code == 0
    assert [f.kappa.label() for f in fillings] == ["2,5"]
    doc = json.loads((tmp_path / "fig8_apoly.json").read_text())
    assert doc["report"]["eliminants"]["validated"]


def test_apoly_tracks_fillings_at_adaptive_steps(tmp_path, fillings):
    """`apoly` reads each filled point and two samples of its path and
    integrates no volume, so it tracks at `track`'s own steps, not at the
    992-sample quadrature step, and the eliminant still validates."""
    code = run(["apoly", "--spec", "fig8", "--out", str(tmp_path)])
    assert code == 0
    assert [f.kappa.label() for f in fillings] == ["1,5", "1,7", "1,11"]
    assert all(len(f.path) < 100 for f in fillings)
    el = json.loads((tmp_path / "fig8_apoly.json").read_text())["report"]["eliminants"]
    assert el["validated"] and len(el["polynomials"]) == 1


def test_apoly_two_cusp_kappa_with_unfilled_cusp(tmp_path, fillings, capsys):
    """The slope is filled as given; every sample then has m2 = 1, where both
    branches of cusp 2's slot meet, and the elimination says so."""
    code = run(["apoly", "--spec", "wlink", "--kappa", "1,5;inf", "--out", str(tmp_path)])
    assert code == 1
    assert [f.kappa.label() for f in fillings] == ["1,5;inf"]
    err = capsys.readouterr().err
    assert err.startswith("error:") and "both branches of the slot p meet" in err
    report = json.loads((tmp_path / "wlink_apoly.json").read_text())["report"]
    assert report["status"] == "failed" and "both branches" in report["message"]
    assert report["filled_slopes"] == ["1,5;inf"] and report["samples"] == 3


def test_apoly_empty_variety_fails_with_report(tmp_path, capsys):
    """nonhyp has no complete structure, so nothing on X0 to eliminate at:
    `apoly` fails with `find_complete`'s message."""
    code = run(["apoly", "--spec", "nonhyp", "--out", str(tmp_path)])
    assert code == 1
    message = "nonhyp: no irreducible boundary-parabolic solution found (80 attempts)"
    assert capsys.readouterr().err.startswith(f"error: {message}")
    report = json.loads((tmp_path / "nonhyp_apoly.json").read_text())["report"]
    assert report["status"] == "failed" and report["message"].startswith(message)
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
    draw d takes the outcomes outcomes[d] in turn, one per tracked level, a
    TrackingError to return or the Richardson estimate to report with the
    value 1e-12.  Returns the record of the run: per `track_closed_loops`
    call, its step and the draws it holds."""
    import charvol.cli as cli
    from charvol.continuation import TrackedPath, TrackingError
    from types import SimpleNamespace
    seen, outcomes, calls = [], [iter(o) for o in outcomes], []

    def draw(family):
        """The draw index of a family, in the order the tracker first sees them."""
        for d, f in enumerate(seen):
            if f is family:
                return d
        seen.append(family)
        return len(seen) - 1

    def level(base, d):
        outcome = next(outcomes[d])
        if outcome is TrackingError:
            return TrackingError("scripted failure")
        return TrackedPath(points=[base], taus=[0.0], stats={"estimate": outcome})

    def cheap_loops(problem, base, families, first_step, max_step):
        assert first_step == max_step
        draws = [draw(family) for family in families]
        calls.append((first_step, draws))
        return [level(base, d) for d in draws]
    monkeypatch.setattr(cli, "track_closed_loops", cheap_loops)
    monkeypatch.setattr(cli, "loop_integral", lambda loop, sign: SimpleNamespace(
        value=1e-12, error_estimate=loop.stats["estimate"]))
    return calls


LADDER = [1 / 64, 0.004, 0.004 / 3, 0.004 / 9, 0.004 / 27]


def test_unresolved_exactness_loop_is_dropped(fig8_problem, fig8_complete, monkeypatch):
    """A loop whose quadrature estimate stays above LOOP_TOL/20 after the last
    refinement is not counted; the next loop is drawn instead, in a second
    round."""
    import charvol.cli as cli
    # the first loop never resolves; the next two do at the first level
    calls = _cheap_loops(monkeypatch, [[1.0] * 5, [0.0], [0.0]])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_problem, fig8_complete, count=2, seed=0)
    assert integrals == [1e-12, 1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 1, "tracking_failed": 0}
    assert levels == {64: 2, 250: 0, 750: 0, 2250: 0, 6750: 0}
    assert calls == [(LADDER[0], [0, 1])] + [(step, [0]) for step in LADDER[1:]] + \
        [(LADDER[0], [2])]


def test_exactness_loop_that_fails_to_track_goes_to_the_next_level(
        fig8_problem, fig8_complete, monkeypatch):
    """A tracking failure at 64 samples per winding hands the loop to the
    0.004 step, which keeps it; nothing is dropped."""
    import charvol.cli as cli
    from charvol.continuation import TrackingError
    calls = _cheap_loops(monkeypatch, [[TrackingError, 0.0]])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_problem, fig8_complete, count=1, seed=0)
    assert integrals == [1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 0, "tracking_failed": 0}
    assert levels == {64: 0, 250: 1, 750: 0, 2250: 0, 6750: 0}
    assert calls == [(LADDER[0], [0]), (LADDER[1], [0])]


def test_exactness_loop_failing_to_track_at_the_last_level_is_dropped(
        fig8_problem, fig8_complete, monkeypatch):
    """An unresolved estimate at the first four levels and a tracking
    failure at the last drop the loop as tracking_failed."""
    import charvol.cli as cli
    from charvol.continuation import TrackingError
    calls = _cheap_loops(monkeypatch, [[1.0] * 4 + [TrackingError], [0.0]])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_problem, fig8_complete, count=1, seed=0)
    assert integrals == [1e-12] and failures == []
    assert dropped == {"near_U": 0, "unresolved": 0, "tracking_failed": 1}
    assert levels == {64: 1, 250: 0, 750: 0, 2250: 0, 6750: 0}
    assert calls == [(step, [0]) for step in LADDER] + [(LADDER[0], [1])]


def test_each_level_tracks_its_pending_draws_in_one_call(fig8_problem, fig8_complete,
                                                         monkeypatch):
    """Four of five draws are left unresolved or untracked at 1/64, and all
    four reach 0.004 in one call, which keeps two of them; the finer levels
    take the rest in turn.  Draw 4 never resolves and is dropped, and its
    replacement is drawn in a second round."""
    import charvol.cli as cli
    from charvol.continuation import TrackingError
    calls = _cheap_loops(monkeypatch, [
        [1.0, 0.0], [TrackingError, 0.0], [0.0], [1.0, 1.0, 0.0],
        [1.0, TrackingError, 1.0, 1.0, 1.0], [0.0]])
    integrals, failures, dropped, levels = cli.run_exactness_loops(
        fig8_problem, fig8_complete, count=5, seed=0)
    assert integrals == [1e-12] * 5 and failures == []
    assert dropped == {"near_U": 0, "unresolved": 1, "tracking_failed": 0}
    assert levels == {64: 2, 250: 2, 750: 1, 2250: 0, 6750: 0}
    assert calls == [(LADDER[0], [0, 1, 2, 3, 4]), (LADDER[1], [0, 1, 3, 4]),
                     (LADDER[2], [3, 4]), (LADDER[3], [4]), (LADDER[4], [4]),
                     (LADDER[0], [5])]


@pytest.mark.parametrize("name, seed, dropped, levels, failed", [
    ("fig8", 1, {"near_U": 0, "unresolved": 0, "tracking_failed": 0}, [8, 1, 0, 0, 1], []),
    ("wlink", 7919, {"near_U": 0, "unresolved": 1, "tracking_failed": 0}, [8, 1, 1, 0, 0], []),
    ("wlink", 201005, {"near_U": 0, "unresolved": 0, "tracking_failed": 0}, [9, 1, 0, 0, 0],
     [8]),
])
def test_exactness_loop_outcomes_are_pinned(name, seed, dropped, levels, failed, request):
    """Ten loops at three seeds, each settled in draw order after its round
    has walked the ladder one level at a time: fig8 seed 1 keeps
    one loop only at 6750 samples per winding, wlink seed 7919 drops one
    unresolved loop and wlink seed 201005 fails loop 8 (an exact loop read
    at 64 samples; ROADMAP item 4)."""
    import charvol.cli as cli
    problem, complete = (request.getfixturevalue(f"{name}_{k}")
                         for k in ("problem", "complete"))
    integrals, failures, got_dropped, got_levels = cli.run_exactness_loops(
        problem, complete, 10, seed)
    assert len(integrals) == 10
    assert got_dropped == dropped and list(got_levels.values()) == levels
    assert [f["loop"] for f in failures] == failed
    assert all(abs(v) < cli.LOOP_TOL for k, v in enumerate(integrals) if k not in failed)


def test_apoly_command_abelian(tmp_path):
    """Every boundary-parabolic solution of abelian is reducible: with no
    complete structure there is no X0, and `apoly` fails rather than print
    an eliminant of the gauge slice."""
    code = run(["apoly", "--spec", "abelian", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "abelian_apoly.json").read_text())["report"]
    assert report["status"] == "failed"
    assert report["message"].startswith(
        "abelian: no irreducible boundary-parabolic solution found (80 attempts)")
    assert "eliminants" not in report
    # nothing is filled or sampled
    assert report["filled_slopes"] == [] and report["samples"] == 0


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


@pytest.mark.parametrize("command", VALID)
def test_every_command_writes_one_report_and_names_it_last(command, tmp_path, capsys):
    """`main` writes each command's one report, with `total_s` among its
    timings, and names it on the last line of standard output, whether the
    command passes (h1z2 fig8) or fails (complete and certify on nonhyp)."""
    run(VALID[command] + ["--out", str(tmp_path)])
    path = tmp_path / f"{VALID[command][2]}_{command}.json"
    assert list(tmp_path.glob("*.json")) == [path]
    assert "total_s" in json.loads(path.read_text())["timings"]
    assert capsys.readouterr().out.splitlines()[-1].endswith(f" -> {path}")


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


@pytest.mark.parametrize("case", ["spec-is-a-directory", "out-is-a-file"])
def test_os_errors_exit_1_with_one_error_line(case, tmp_path, capsys):
    """A spec path that is a directory, or an --out that is a file, is an
    `error:` line and exit code 1, with no traceback and no report."""
    if case == "spec-is-a-directory":
        (tmp_path / "spec").mkdir()
        argv = ["complete", "--spec", str(tmp_path / "spec"), "--out", str(tmp_path / "out")]
    else:
        (tmp_path / "out").write_text("")
        argv = ["h1z2", "--spec", "fig8", "--out", str(tmp_path / "out")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").is_dir()


def test_missing_complete_structure_is_an_error_line(tmp_path, capsys):
    """NoCompleteStructureError is a ValueError, so `fill` on nonhyp prints
    it under `error:`, not `solver failure:`, and writes no report."""
    assert run(["fill", "--spec", "nonhyp", "--kappa", "1,5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: nonhyp: no irreducible")
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


def test_same_outputs_tool_on_one_command_line():
    """tools/same_outputs.py runs a command line on two trees in fresh
    processes and compares their outputs; this tree against itself agrees."""
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, str(root / "tools" / "same_outputs.py"),
                          str(root), str(root), "h1z2 --spec fig8"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines() == ["same  h1z2 --spec fig8",
                                       "0 of 1 command lines differ"]


def test_same_outputs_names_the_differing_key_paths():
    """`differing_paths` of tools/same_outputs.py yields each differing leaf
    of two JSON documents with both values, in key and index order, and
    marks a key or list entry that one side lacks; equal documents yield
    nothing."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    a = {"report": {"checks": [{"value": 7.47e-13, "status": "pass"}, {"value": 1}],
                    "overall": "pass", "dropped": {"near_U": 0}}, "config": {"seed": 0}}
    b = {"report": {"checks": [{"value": 7.51e-13, "status": "pass"}, {"value": 1.0}, {}],
                    "overall": "fail", "dropped": {}}, "config": {"seed": 0}}
    assert list(tool.differing_paths(a, a)) == []
    assert list(tool.differing_paths(a, b)) == [
        ("report.checks[0].value", 7.47e-13, 7.51e-13),
        ("report.checks[1].value", 1, 1.0),
        ("report.checks[2]", tool._MISSING, {}),
        ("report.dropped.near_U", 0, tool._MISSING),
        ("report.overall", "pass", "fail")]


def test_layer_timing_tool_on_one_round():
    """tools/layer_timing.py times each sequential and stacked layer of
    the Newton kernel on two trees in fresh processes; one round of this
    tree against itself prints every layer on both specs."""
    import re
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, str(root / "tools" / "layer_timing.py"),
                          str(root), str(root), "--rounds", "1"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("1 rounds")
    rows = [line.split()[:2] for line in lines[1:]]
    assert rows == [[spec, layer] for spec in ("fig8", "wlink")
                    for layer in ("values_and_jacobian", "rows_F", "correct", "track_step",
                                  "multistart", "grid", "loops_64")]
    for line in lines[1:]:
        parent, change = map(float, re.findall(r" (?:parent|change) +([\d.]+) \[", line))
        assert parent > 0 and change > 0

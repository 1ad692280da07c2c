"""End-to-end command-line tests (in-process via ``dispatch``, and the
``python -m`` entry points in a subprocess)."""

import json
import os
import subprocess
import sys

import pytest

from pegplan.cli import dispatch

from conftest import BENCHMARKS, ROOT

FIXTURE = str(BENCHMARKS / "amy_monica.model")
ROVER_DOMAIN = str(BENCHMARKS / "rover" / "domain.pddl")
ROVER_P01 = str(BENCHMARKS / "rover" / "p01.pddl")

UNSOLVABLE_FIXTURE = """\
model only

action wish 1
  pre: miracle
  eff+: done

init:
goal: done
"""


class TestPlan:
    def test_text_output_and_diagnostics(self, capsys):
        assert dispatch(["plan", "--fixture", FIXTURE]) == 0
        captured = capsys.readouterr()
        assert captured.out == "(visit-park-cheap)\n; cost = 9\n"
        assert "expansions = " in captured.err

    def test_json_output(self, capsys):
        assert dispatch(["plan", "--fixture", FIXTURE, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["actions"] == ["visit-park-cheap"]
        assert payload["cost"] == 9
        assert payload["expansions"] >= 1

    def test_pddl_inputs(self, capsys):
        rc = dispatch([
            "plan", "--robot-domain", ROVER_DOMAIN, "--robot-problem", ROVER_P01,
            "--format", "json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["cost"] == 11

    def test_missing_inputs_is_a_domain_error(self, capsys):
        assert dispatch(["plan"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_fixture_without_robot_model_is_a_domain_error(self, tmp_path, capsys):
        fixture = tmp_path / "pair.model"
        solo = UNSOLVABLE_FIXTURE.replace("model only\n", "")
        fixture.write_text(f"model b\n{solo}\nmodel a\n{solo}")
        assert dispatch(["plan", "--fixture", str(fixture)]) == 1
        assert capsys.readouterr().err == (
            f"error: fixture {fixture} defines no 'robot' model (found: a, b)\n"
        )

    def test_unsolvable_model(self, tmp_path, capsys):
        fixture = tmp_path / "stuck.model"
        fixture.write_text(UNSOLVABLE_FIXTURE)
        assert dispatch(["plan", "--fixture", str(fixture)]) == 1
        assert "unsolvable" in capsys.readouterr().err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["plan", "--fixture", FIXTURE, "--bogus"])
        assert exc.value.code == 2

    def test_deeply_nested_domain_is_a_one_line_error(self, tmp_path, capsys):
        domain = tmp_path / "deep.pddl"
        domain.write_text("(" * 5000 + ")" * 5000)
        rc = dispatch(["plan", "--robot-domain", str(domain), "--robot-problem", ROVER_P01])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_out_writes_a_file(self, tmp_path, capsys):
        out = tmp_path / "plan.txt"
        assert dispatch(["plan", "--fixture", FIXTURE, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == "(visit-park-cheap)\n; cost = 9\n"

    def test_unwritable_out_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "plan.txt"
        assert dispatch(["plan", "--fixture", FIXTURE, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert errors == [f"error: [Errno 2] No such file or directory: {str(out)!r}"]
        assert "Traceback" not in captured.err

    def test_missing_fixture_is_a_one_line_error(self, tmp_path, capsys):
        fixture = tmp_path / "absent.model"
        assert dispatch(["plan", "--fixture", str(fixture)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: {str(fixture)!r}\n"
        )


class TestExplain:
    def test_csv_matches_the_walkthrough(self, capsys):
        rc = dispatch([
            "explain", "--fixture", FIXTURE, "--metric", "p1", "--format", "csv",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "step,cost_star,rho\r\n0,5,0\r\n1,10,5\r\n2,10,0\r\n3,9,1\r\n"
        )

    def test_json_output(self, capsys):
        rc = dispatch([
            "explain", "--fixture", FIXTURE, "--metric", "p2", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "peg"
        assert payload["sum_rho"] == 26
        assert payload["complete"] is True
        assert len(payload["changes"]) == 3

    def test_metric_names_are_lowercase(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["explain", "--fixture", FIXTURE, "--metric", "P2"])
        assert exc.value.code == 2
        assert "--metric" in capsys.readouterr().err

    def test_text_output_mentions_every_step(self, capsys):
        rc = dispatch(["explain", "--fixture", FIXTURE, "--format", "text"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mode: peg" in out
        assert "step 0: cost* = 5" in out
        assert "step 3:" in out
        assert "complete: true" in out

    def test_concise_mode(self, capsys):
        rc = dispatch([
            "explain", "--fixture", FIXTURE, "--mode", "concise", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "concise"
        assert len(payload["changes"]) == 3

    def test_plan_override(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        # the model readers lowercase identifiers, so the plan reader does too
        for line in ("(visit-park-cheap)", "(VISIT-PARK-CHEAP)"):
            plan_file.write_text("; the dearer park trip is also optimal for the robot\n"
                                 f"{line}\n")
            rc = dispatch([
                "explain", "--fixture", FIXTURE, "--plan", str(plan_file),
                "--format", "json",
            ])
            assert rc == 0, line
            assert json.loads(capsys.readouterr().out)["complete"] is True

    def test_suboptimal_plan_override_rejected(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("(visit-park)\n")
        rc = dispatch(["explain", "--fixture", FIXTURE, "--plan", str(plan_file)])
        assert rc == 1
        assert "error: " in capsys.readouterr().err

    def test_fixture_without_human_model_rejected(self, tmp_path, capsys):
        fixture = tmp_path / "solo.model"
        fixture.write_text(UNSOLVABLE_FIXTURE.replace("pre: miracle", "pre:"))
        assert dispatch(["explain", "--fixture", str(fixture)]) == 1
        assert "must define models named" in capsys.readouterr().err

    def test_robot_pddl_files_alone_are_a_domain_error(self, capsys):
        rc = dispatch(["explain", "--robot-domain", ROVER_DOMAIN, "--robot-problem", ROVER_P01])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: expected --fixture or all of --robot-domain, --robot-problem, "
            "--human-domain, --human-problem\n"
        )

    def test_malformed_plan_line_is_a_domain_error(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("(visit-park-cheap)\nbogus\n")
        assert dispatch(["explain", "--fixture", FIXTURE, "--plan", str(plan_file)]) == 1
        assert capsys.readouterr().err == (
            "error: malformed plan line 'bogus': expected (name arg1 arg2)\n"
        )

    def test_bad_epsilon_rejected(self, capsys):
        assert dispatch(["explain", "--fixture", FIXTURE, "--epsilon", "0.1.2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["1/0", "abc", "-1/2", "1e100000000", "1e5000"])
    def test_unusable_epsilon_is_a_one_line_error(self, value, capsys):
        rc = dispatch(["explain", "--fixture", FIXTURE, f"--epsilon={value}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --epsilon") and err.count("\n") == 1


class TestPddlPair:
    """``explain`` and ``validate`` over four PDDL files: the rover robot pair
    and a human problem written next to it."""

    @staticmethod
    def _pair(tmp_path, drop):
        text = (BENCHMARKS / "rover" / "p01.pddl").read_text()
        assert drop in text
        human = tmp_path / "human.pddl"
        human.write_text(text.replace(drop, ""))
        return [
            "--robot-domain", ROVER_DOMAIN, "--robot-problem", ROVER_P01,
            "--human-domain", ROVER_DOMAIN, "--human-problem", str(human),
        ]

    def test_explain_then_validate(self, tmp_path, capsys):
        pair = self._pair(tmp_path, "(communicated_rock_data w2)")
        out = tmp_path / "trace.json"
        assert dispatch(["explain", *pair, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["changes"] == [
            {"direction": "add", "feature": "goal-has-communicated_rock_data(w2)"}
        ]
        assert dispatch(["validate", str(out), *pair]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "changes": 1, "explanation": True, "complete": True,
        }

    def test_pruned_human_actions_are_a_one_line_error(self, tmp_path, capsys):
        pair = self._pair(tmp_path, "(can_traverse rover0 w0 w1)")
        assert dispatch(["explain", *pair]) == 1
        assert capsys.readouterr().err == (
            "error: robot and human models must share an action-name universe: "
            "navigate-rover0-w0-w1\n"
        )


class TestValidate:
    def test_complete_change_list_exits_zero(self, tmp_path, capsys):
        changes = tmp_path / "changes.txt"
        changes.write_text(
            "# reconcile the errand models\n"
            "remove init-has-not-holiday\n"
            "add init-has-car-ready\n"
            "add init-has-is-sunny\n"
        )
        rc = dispatch(["validate", str(changes), "--fixture", FIXTURE])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"changes": 3, "explanation": True, "complete": True}

    def test_incomplete_change_list_exits_one(self, tmp_path, capsys):
        changes = tmp_path / "changes.txt"
        changes.write_text("add init-has-car-ready\n")
        rc = dispatch(["validate", str(changes), "--fixture", FIXTURE])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["complete"] is False
        assert "not a complete explanation" in captured.err

    def test_accepts_explain_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert dispatch(["explain", "--fixture", FIXTURE, "--out", str(out)]) == 0
        rc = dispatch(["validate", str(out), "--fixture", FIXTURE])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            __import__("io").StringIO(
                "remove init-has-not-holiday\n"
                "add init-has-car-ready\n"
                "add init-has-is-sunny\n"
            ),
        )
        assert dispatch(["validate", "-", "--fixture", FIXTURE]) == 0

    @pytest.mark.parametrize(
        "payload", ['{"changes": [{}]}', '{"changes": [{"direction": "add"}]}', '{"changes": 3}']
    )
    def test_malformed_json_changes_are_a_one_line_error(self, payload, tmp_path, capsys):
        changes = tmp_path / "changes.json"
        changes.write_text(payload)
        assert dispatch(["validate", str(changes), "--fixture", FIXTURE]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_change_line(self, tmp_path, capsys):
        changes = tmp_path / "changes.txt"
        changes.write_text("befuddle init-has-car-ready\n")
        assert dispatch(["validate", str(changes), "--fixture", FIXTURE]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestBenchAndSweep:
    def test_bench_csv(self, capsys):
        rc = dispatch([
            "bench", "--fixture", FIXTURE, "--missing-prob", "0.3",
            "--runs", "3", "--seed", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("run_index,")
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("average,")

    def test_bench_json_honors_eligible_kinds(self, capsys):
        rc = dispatch([
            "bench", "--fixture", FIXTURE, "--runs", "2",
            "--eligible-kinds", "init,goal", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["config"]["eligible_kinds"]) == ["goal", "init"]
        # init/goal pool of the robot model: two init facts + one goal fact
        assert all(r["pool_size"] == 3 for r in payload["records"])

    def test_bench_unknown_kind(self, capsys):
        rc = dispatch(["bench", "--fixture", FIXTURE, "--eligible-kinds", "vibes"])
        assert rc == 1
        assert "unknown feature kind" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-2", "many"])
    def test_bench_runs_below_one_is_a_usage_error(self, runs, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["bench", "--fixture", FIXTURE, "--runs", runs])
        assert exc.value.code == 2
        assert "--runs" in capsys.readouterr().err

    @pytest.mark.parametrize("study", ["bench", "sweep"])
    def test_seed_of_too_many_digits_fails_before_any_probe(self, study, monkeypatch, capsys):
        def no_probe(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr("pegplan.bench.perturb_model", no_probe)
        for seed in ("9" * 1001, "9" * 4300, "-" + "1" * 5000):
            with pytest.raises(SystemExit) as exc:
                dispatch([study, "--fixture", FIXTURE, "--seed", seed])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.splitlines()[-1] == (
                f"pegplan {study}: error: argument --seed: expected at most 1000 digits, "
                f"got {len(seed.lstrip('-'))}"
            )

    @pytest.mark.parametrize("study", ["bench", "sweep"])
    def test_non_integer_seed_is_a_usage_error(self, study, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch([study, "--fixture", FIXTURE, "--seed", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"pegplan {study}: error: argument --seed: expected an integer, got 'abc'"
        )

    @pytest.mark.parametrize(
        "study", ["bench --runs 2", "sweep --p-lo 0.1 --p-hi 0.2 --p-step 0.1"]
    )
    def test_seed_of_a_thousand_digits_runs(self, study, capsys):
        seed = "9" * 1000
        rc = dispatch(study.split() + ["--fixture", FIXTURE, "--seed", seed, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in payload["records"]] == [int(seed), int(seed) + 1]

    def test_sweep_grid_too_large_fails_before_any_probe(self, monkeypatch, capsys):
        def no_probe(*args, **kwargs):
            raise AssertionError("a probe ran")

        monkeypatch.setattr("pegplan.bench.perturb_model", no_probe)
        rc = dispatch(["sweep", "--fixture", FIXTURE, "--p-step", "1e-9"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "probes" in err

    def test_sweep_csv_grid(self, capsys):
        rc = dispatch([
            "sweep", "--fixture", FIXTURE, "--p-lo", "0.1", "--p-hi", "0.3",
            "--p-step", "0.1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 + 1

    def test_node_budget_is_not_read_from_the_environment(self, monkeypatch, capsys):
        argv = ["plan", "--robot-domain", ROVER_DOMAIN, "--robot-problem", ROVER_P01]
        assert dispatch(argv) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("PEG_NODE_BUDGET", "1")
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == unset

    def test_negative_node_budget_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["plan", "--fixture", FIXTURE, "--node-budget", "-1"])
        assert exc.value.code == 2
        assert "--node-budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module, args, code, stream, expected",
    [
        pytest.param("pegplan.cli", ["validate", "--help"], 0, "stdout", "usage: ",
                     id="cli-validate-help"),
        pytest.param("pegplan", ["validate", "--help"], 0, "stdout", "usage: ",
                     id="validate-help"),
        pytest.param("pegplan", ["--help"], 0, "stdout", "usage: ", id="help"),
        # dispatch's own return code, not argparse's exit: no change explains nothing
        pytest.param("pegplan", ["validate", "-", "--fixture", FIXTURE], 1, "stderr",
                     "the change list is not a complete explanation\n", id="validate-empty"),
    ],
)
def test_python_m_exit_code(module, args, code, stream, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=ROOT, env=env, input="", capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == code, result.stderr
    assert getattr(result, stream).startswith(expected)


def test_import_loads_no_dataclasses():
    """``import pegplan`` stays off ``dataclasses``, and so off the ``inspect``,
    ``ast``, ``dis`` and ``tokenize`` it imports: every command pays its import."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "before = 'dataclasses' in sys.modules\n"
        "import pegplan\n"
        "print(before, 'dataclasses' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"

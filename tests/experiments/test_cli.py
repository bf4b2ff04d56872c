"""CLI smoke tests."""

import importlib
import pkgutil

import pytest

import repro.experiments
from repro.experiments.cli import EXPERIMENTS, _takes, main


class TestCLI:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1", "table2", "table3", "fig2", "fig3",
            "lemma13", "writeamp", "theorem9", "optima", "lsm",
            "epsilon", "aging", "asymmetry", "ycsb", "modelerr",
            "autotune", "tailres", "serve", "cob", "durability",
        }

    def test_list_prints_names_and_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(EXPERIMENTS)

    def test_no_experiment_and_no_list_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_runs_cheap_experiment(self, capsys):
        assert main(["optima"]) == 0
        out = capsys.readouterr().out
        assert "Corollaries" in out
        assert "wall]" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestRunnerFlags:
    def test_jobs_and_no_cache_smoke(self, capsys):
        assert main(["table2", "--jobs", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_cache_dir_env_is_honored(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["table2"]) == 0
        first = capsys.readouterr().out
        assert any((tmp_path / "cache").iterdir())
        assert main(["table2"]) == 0  # warm rerun, same table
        second = capsys.readouterr().out
        table = lambda s: s[: s.index("[table2")]
        assert table(first) == table(second)

    def test_profile_prints_cumulative_stats(self, capsys):
        assert main(["optima", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "Corollaries" in out


class TestFaultFlags:
    def test_tailres_quick_smoke(self, capsys):
        assert main(["tailres", "--quick", "--no-cache", "--policy", "hedge"]) == 0
        out = capsys.readouterr().out
        assert "E18a" in out and "E18b" in out
        # --policy hedge restricted the sweep: no data row runs "retry".
        rows = [l for l in out.splitlines() if l.startswith(("btree", "betree"))]
        assert rows and all("retry" not in l for l in rows)

    def test_tailres_custom_plan_file(self, capsys, tmp_path):
        from repro.faults import FaultPlan

        plan = tmp_path / "plan.json"
        plan.write_text(FaultPlan(seed=1, stall_prob=0.2, stall_steps=3).to_json())
        assert main(
            ["tailres", "--quick", "--no-cache", "--policy", "none",
             "--faults", str(plan)]
        ) == 0
        out = capsys.readouterr().out
        # Spike/error-free plan: the tree table reports clean latencies.
        assert "E18b" in out

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["tailres", "--policy", "yolo"])


class TestServeFlags:
    def test_serve_quick_smoke(self, capsys):
        assert main(["serve", "--quick", "--no-cache", "--policy", "hedge"]) == 0
        out = capsys.readouterr().out
        assert "E19" in out
        rows = [l for l in out.splitlines() if l.startswith("btree")]
        assert rows and all(" admit" not in l for l in rows)

    def test_serve_quick_full_policy_sweep_deterministic(self, capsys):
        assert main(["serve", "--quick", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--quick", "--no-cache", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        table = lambda s: s[: s.index("[serve")]
        assert table(first) == table(second)  # bit-identical at any job count


class TestCobFlags:
    def test_cob_quick_smoke(self, capsys):
        assert main(["cob", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "E20" in out
        assert "Lemma 13 panel" in out
        assert "Best B-tree node size per model" in out

    def test_cob_quick_deterministic_across_jobs(self, capsys):
        assert main(["cob", "--quick", "--no-cache"]) == 0
        first = capsys.readouterr().out
        assert main(["cob", "--quick", "--no-cache", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        table = lambda s: s[: s.index("[cob")]
        assert table(first) == table(second)  # bit-identical at any job count


class TestFlagRouting:
    """Flags reach a ``run()`` exactly when its signature has the keyword."""

    @pytest.mark.parametrize(
        "argv, flag, a_taker",
        [
            (["lsm", "--quick"], "--quick", "durability"),
            (["optima", "--jobs", "4"], "--jobs", "fig2"),
            (["optima", "--jobs", "0"], "--jobs", "fig2"),
            (["fig2", "--faults", "plan.json"], "--faults", "tailres"),
            (["fig2", "--policy", "hedge"], "--policy", "serve"),
        ],
    )
    def test_flag_one_experiment_cannot_honour_is_an_error(
        self, capsys, argv, flag, a_taker
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]} does not take {flag}" in err
        assert a_taker in err  # names the experiments that do take it

    def test_every_spec_module_takes_the_runner_flags(self):
        # An experiment with a ``sweep_spec`` runs on the runner: ``--jobs``
        # and the result cache must reach its ``run()``.
        names: dict[str, list[str]] = {}
        for name, run in EXPERIMENTS.items():
            names.setdefault(run.__module__, []).append(name)
        spec_modules = [
            module
            for module in (
                f"repro.experiments.{m.name}"
                for m in pkgutil.iter_modules(repro.experiments.__path__)
                if m.name.startswith("exp_")
            )
            if hasattr(importlib.import_module(module), "sweep_spec")
        ]
        assert "repro.experiments.exp_epsilon_tradeoff" in spec_modules
        for module in spec_modules:
            assert names.get(module), f"{module} has no CLI name"
            for name in names[module]:
                assert _takes(name, "jobs") and _takes(name, "cache"), name

    def test_default_jobs_is_not_a_request(self, capsys):
        assert main(["optima", "--jobs", "1"]) == 0

    def test_all_applies_flags_where_accepted(self, capsys, monkeypatch):
        from repro.experiments import cli

        calls = {}

        class Rendered:
            def render(self):
                return ""

        def takes_all(*, plan=None, policies=(), quick=False, jobs=1, cache=None):
            calls["takes_all"] = dict(
                plan=plan, policies=policies, quick=quick, jobs=jobs, cache=cache
            )
            return Rendered()

        def takes_jobs(*, seed=0, jobs=1):
            calls["takes_jobs"] = dict(jobs=jobs)
            return Rendered()

        def takes_none(*, seed=0):
            calls["takes_none"] = {}
            return Rendered()

        monkeypatch.setattr(
            cli,
            "EXPERIMENTS",
            {"takes_all": takes_all, "takes_jobs": takes_jobs, "takes_none": takes_none},
        )
        argv = ["all", "--quick", "--jobs", "3", "--policy", "hedge", "--no-cache"]
        assert cli.main(argv) == 0
        assert calls == {
            "takes_all": dict(
                plan=None, policies=("hedge",), quick=True, jobs=3, cache=None
            ),
            "takes_jobs": dict(jobs=3),
            "takes_none": {},
        }

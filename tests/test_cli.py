import json

import numpy as np
import pytest

import mlplr.cli
import mlplr.harness
from mlplr import RegressionSpec, gram_matrix
from mlplr.cli import main
from mlplr.harness import default_gram


@pytest.fixture()
def workdir(tmp_path, desk_spec, desk_box):
    (tmp_path / "spec.json").write_text(json.dumps(desk_spec.to_dict()))
    (tmp_path / "box.json").write_text(json.dumps(desk_box.to_dict()))
    (tmp_path / "fit.json").write_text(json.dumps({"n_starts": 3, "seed": 1, "max_iters": 200}))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestGenFitLr:
    def test_gen_writes_dataset(self, workdir):
        code = run(
            ["gen", "--spec", workdir / "spec.json", "--n", 50, "--seed", 3,
             "--out", "data.csv", "--out-dir", workdir]
        )
        assert code == 0
        lines = (workdir / "data.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "x1,y"
        assert len(lines) == 52

    def test_fit_and_lr(self, workdir):
        run(["gen", "--spec", workdir / "spec.json", "--n", 80, "--seed", 3,
             "--out", "data.csv", "--out-dir", workdir])
        code = run(
            ["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
             "--fit-config", workdir / "fit.json", "--spec", workdir / "spec.json",
             "--out", "fit_result.json", "--out-dir", workdir]
        )
        assert code == 0
        fit = json.loads((workdir / "fit_result.json").read_text())
        assert {"theta_hat", "loglik", "converged", "n_starts_used", "per_start_logliks",
                "config_hash", "seed"} <= set(fit)

        code = run(
            ["lr", "--data", workdir / "data.csv", "--spec", workdir / "spec.json",
             "--box", workdir / "box.json", "--fit-config", workdir / "fit.json",
             "--k", 1, "--out", "lr.json", "--out-dir", workdir]
        )
        assert code == 0
        lr = json.loads((workdir / "lr.json").read_text())
        assert lr["lr"] >= 0.0
        np.testing.assert_allclose(lr["lr"], 2 * (lr["sup_loglik"] - lr["true_loglik"]), rtol=1e-10)

    def test_missing_spec_is_config_error(self, workdir):
        code = run(["gen", "--spec", workdir / "nope.json", "--n", 10, "--out-dir", workdir])
        assert code == 2

    def test_malformed_spec_is_config_error(self, workdir):
        (workdir / "bad.json").write_text("{not json")
        code = run(["gen", "--spec", workdir / "bad.json", "--n", 10, "--out-dir", workdir])
        assert code == 2

    def test_invalid_box_is_config_error(self, workdir):
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "bad_box.json").write_text(json.dumps({"eta": 2.0, "M": 1.0, "positive_amplitudes": True}))
        code = run(["lr", "--data", workdir / "data.csv", "--spec", workdir / "spec.json",
                    "--box", workdir / "bad_box.json", "--k", 1, "--out-dir", workdir])
        assert code == 2

    def test_invalid_fit_config_is_config_error(self, workdir):
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "bad_fit.json").write_text(json.dumps({"n_starts": 0}))
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    "--fit-config", workdir / "bad_fit.json", "--out-dir", workdir])
        assert code == 2

    def test_unknown_fit_config_key_is_config_error(self, workdir):
        """A mistyped key (max_iter for max_iters) is rejected, not run
        with the default it meant to override."""
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "bad_fit.json").write_text(json.dumps({"n_starts": 1, "max_iter": 5}))
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    "--fit-config", workdir / "bad_fit.json", "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iters": -3},
            {"grad_tol": float("nan")},
            {"grad_tol": float("inf")},
            {"step_tol": float("nan")},
            {"step_tol": 0.0},
            {"init_scale": float("nan")},
            {"init_scale": float("-inf")},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_out_of_range_fit_config_is_config_error(self, workdir, bad):
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        # json writes NaN and Infinity as the literals json.load reads back
        (workdir / "bad_fit.json").write_text(json.dumps({"n_starts": 1, **bad}))
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    "--fit-config", workdir / "bad_fit.json", "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    def test_non_finite_warm_start_is_config_error(self, workdir):
        """json reads NaN; the fit used to blame the box for it and exit 3."""
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        start = {"beta": float("nan"), "units": [{"a": 1.0, "w": [0.5, 1.0]}]}
        (workdir / "bad_fit.json").write_text(json.dumps({"n_starts": 1, "warm_starts": [start]}))
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    "--fit-config", workdir / "bad_fit.json", "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    def test_misspelled_spec_key_is_config_error(self, workdir, desk_spec):
        """input_lw for input_law is rejected, not run with standard-normal
        inputs."""
        (workdir / "bad_spec.json").write_text(json.dumps({**desk_spec.to_dict(), "input_lw": "laplace"}))
        code = run(["gen", "--spec", workdir / "bad_spec.json", "--n", 10, "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "data.csv").exists()

    def test_negative_spec_amplitude_is_config_error(self, workdir, capsys):
        """The message names the spec's positive form (beta + a, |a|, -w)."""
        spec = {"theta0": {"beta": 0.5, "units": [{"a": -1.0, "w": [0.5, 1.0]}]}, "sigma2": 1.0, "input_dim": 1}
        (workdir / "neg.json").write_text(json.dumps(spec))
        assert run(["gen", "--spec", workdir / "neg.json", "--n", 10, "--out-dir", workdir]) == 2
        assert '{"beta": -0.5, "units": [{"a": 1.0, "w": [-0.5, -1.0]}]}' in capsys.readouterr().err
        assert not (workdir / "data.csv").exists()

    @pytest.mark.parametrize("flag", [False, "false"])
    def test_free_sign_box_is_config_error(self, workdir, flag):
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "signed_box.json").write_text(json.dumps({"eta": 0.1, "M": 50.0, "positive_amplitudes": flag}))
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "signed_box.json",
                    "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    def test_non_finite_dataset_is_config_error(self, workdir):
        (workdir / "data.csv").write_text("x1,y\n0.1,nan\n0.2,1.0\n0.3,0.5\n")
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    @pytest.mark.parametrize("sigma2", ["nan", "inf", "-1"])
    def test_bad_dataset_sigma2_is_config_error(self, workdir, sigma2):
        """nan used to exit 3 blaming the box, inf to fit to loglik=-inf."""
        (workdir / "data.csv").write_text("x1,y\n0.1,0.2\n0.2,1.0\n0.3,0.5\n")
        code = run(["fit", "--data", workdir / "data.csv", "--k", 1, "--box", workdir / "box.json",
                    f"--sigma2={sigma2}", "--out", "out.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "out.json").exists()

    def test_missing_dataset_is_config_error(self, workdir):
        code = run(["fit", "--data", workdir / "missing.csv", "--k", 1, "--box", workdir / "box.json",
                    "--out-dir", workdir])
        assert code == 2


class TestSelectAndLimit:
    def test_select(self, workdir):
        run(["gen", "--spec", workdir / "spec.json", "--n", 120, "--seed", 5,
             "--out", "data.csv", "--out-dir", workdir])
        code = run(
            ["select", "--data", workdir / "data.csv", "--spec", workdir / "spec.json",
             "--box", workdir / "box.json", "--fit-config", workdir / "fit.json",
             "--k-max", 2, "--out", "select.json", "--out-dir", workdir]
        )
        assert code == 0
        report = json.loads((workdir / "select.json").read_text())
        assert report["k_hat"] in (1, 2)
        assert len(report["per_k"]) == 2

    def test_limit_and_check_h4(self, workdir):
        code = run(
            ["limit", "--spec", workdir / "spec.json", "--k", 1, "--draws", 300,
             "--seed", 2, "--out", "limit.csv", "--out-dir", workdir]
        )
        assert code == 0
        lines = (workdir / "limit.csv").read_text().splitlines()
        assert len(lines) == 302
        vals = np.array([float(l.split(",")[0]) for l in lines[2:]])
        assert abs(vals.mean() - 4.0) < 1.0

        code = run(["check-h4", "--spec", workdir / "spec.json", "--out", "h4.json", "--out-dir", workdir])
        assert code == 0
        reports = json.loads((workdir / "h4.json").read_text())["reports"]
        assert set(reports["gram"]) == {"method", "min_eigenvalue", "passed", "tol"}
        assert reports["gram"]["method"] == "gauss_hermite" and reports["gram"]["passed"]
        assert reports["mc_cross_check"]["method"] == "mc" and reports["mc_cross_check"]["passed"]

    def test_limit_extended_flag(self, workdir):
        for k in (2, 3):
            code = run(
                ["limit", "--spec", workdir / "spec.json", "--k", k, "--draws", 40,
                 "--extended-index-set", "--box", workdir / "box.json",
                 "--out", f"limit_ext{k}.csv", "--out-dir", workdir]
            )
            assert code == 0
            # at d = 1 every single-unit cone is solved in closed form,
            # extra phi columns included
            lines = (workdir / f"limit_ext{k}.csv").read_text().splitlines()
            assert lines[1] == "value,best_partition,path"
            paths = {line.rsplit(",", 1)[1] for line in lines[2:]}
            assert paths and "search" not in paths, k

    def test_index_set_enters_the_hash_and_header(self, workdir):
        """A core and an extended sample of one spec, width, seed and draw
        count used to share one config_hash."""
        (workdir / "box_45.json").write_text(json.dumps({"eta": 0.1, "M": 45.0}))
        headers = []
        for flags in ([], ["--extended-index-set"], ["--extended-index-set", "--box", workdir / "box_45.json"]):
            assert run(["limit", "--spec", workdir / "spec.json", "--k", 2, "--draws", 20, "--seed", 5,
                        *flags, "--out", "limit.csv", "--out-dir", workdir]) == 0
            headers.append((workdir / "limit.csv").read_text().splitlines()[0])
        assert headers[0].endswith(' index_set={"extended":false}')
        assert headers[2].endswith(' index_set={"extended":true,"box":{"eta":0.1,"M":45.0,"positive_amplitudes":true}}')
        assert len({h.split()[1] for h in headers}) == 3, headers

    @pytest.mark.parametrize("command", ["limit", "gradcheck"])
    def test_width_below_k0_is_config_error(self, workdir, command, monkeypatch, capsys):
        """On a two-unit spec, --k 1 used to end in a traceback (gradcheck)
        or a limit-law failure (limit). It is a configuration error, found
        before any Gram is built or derivative checked."""
        spec = RegressionSpec.from_dict({**json.loads((workdir / "spec.json").read_text()), "theta0": {
            "beta": 0.5, "units": [{"a": 1.0, "w": [2.7, -2.8]}, {"a": 1.5, "w": [-2.6, -2.8]}]}})
        (workdir / "k0_2.json").write_text(json.dumps(spec.to_dict()))

        def never(*args, **kwargs):
            raise AssertionError("reached")

        monkeypatch.setattr(mlplr.cli, "default_gram", never)
        monkeypatch.setattr(mlplr.cli, "gradcheck", never)
        code = run([command, "--spec", workdir / "k0_2.json", "--k", 1, "--draws", 10, "--out-dir", workdir])
        assert code == 2
        assert "--k 1 is below the spec's k0 = 2" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["box.json", "fit.json", "k0_2.json", "spec.json"]

    @pytest.mark.parametrize(
        "args",
        [["limit", "--k", 1, "--gram-mode", "mc"], ["limit", "--k", 1, "--gram-draws", 10],
         ["check-h4", "--mode", "mc"], ["check-h4", "--seed", 3], ["check-h4", "--tol", 0.5],
         ["gen", "--n", 10, "--threads", 2]],
        ids=["limit_gram_mode", "limit_gram_draws", "check_h4_mode", "check_h4_seed", "check_h4_tol", "gen_threads"],
    )
    def test_removed_option_is_usage_error(self, workdir, args):
        """Each command takes the spec's one Gram and its one certificate,
        and only experiment runs a process pool."""
        with pytest.raises(SystemExit) as exc:
            run([*args[:1], "--spec", workdir / "spec.json", *args[1:], "--out-dir", workdir])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args",
        [["gen", "--spec", "S", "--n", 0], ["gen", "--spec", "S", "--n", 10, "--seed", -3],
         ["fit", "--data", "D", "--box", "B", "--k", 1, "--seed", -3],
         ["fit", "--data", "D", "--box", "B", "--k", 0],
         ["lr", "--data", "D", "--spec", "S", "--box", "B", "--k", 0],
         ["select", "--data", "D", "--spec", "S", "--box", "B", "--k-max", 0],
         ["limit", "--spec", "S", "--k", 1, "--seed", -3], ["limit", "--spec", "S", "--k", 0],
         ["limit", "--spec", "S", "--k", 1, "--draws", -5], ["limit", "--spec", "S", "--k", 1, "--draws", 0],
         ["limit", "--spec", "S", "--k", 1, "--draws", "many"],
         ["gradcheck", "--spec", "S", "--k", 0], ["gradcheck", "--spec", "S", "--draws", 0],
         ["experiment", "--config", "C", "--threads", 0]],
        ids=["gen_n_0", "gen_seed_neg", "fit_seed_neg", "fit_k_0", "lr_k_0", "select_k_max_0", "limit_seed_neg",
             "limit_k_0", "limit_draws_neg", "limit_draws_0", "limit_draws_not_int", "gradcheck_k_0",
             "gradcheck_draws_0", "experiment_threads_0"],
    )
    def test_count_or_seed_out_of_range_is_usage_error(self, workdir, args, capsys):
        """Counts must be at least 1 and seeds at least 0. They fail at
        parse time, before any input is read or output written; some used
        to end in a traceback, a fit or limit failure, or a header-only
        limit.csv."""
        names = {"S": "spec.json", "D": "data.csv", "B": "box.json", "C": "config.json"}
        with pytest.raises(SystemExit) as exc:
            run([workdir / names[a] if a in names else a for a in args] + ["--out-dir", workdir])
        assert exc.value.code == 2
        option = next(a for a in reversed(args) if isinstance(a, str) and a.startswith("--"))
        assert f"argument {option}:" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["box.json", "fit.json", "spec.json"]

    def test_box_without_extended_index_set_is_config_error(self, workdir):
        """The box bounds only the extended grid; a path never read used to pass."""
        code = run(["limit", "--spec", workdir / "spec.json", "--k", 1, "--draws", 10,
                    "--box", workdir / "missing_box.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "limit.csv").exists()

    def test_extended_grid_outside_box_is_config_error(self, workdir):
        (workdir / "small_box.json").write_text(json.dumps({"eta": 0.1, "M": 1.5}))
        code = run(["limit", "--spec", workdir / "spec.json", "--k", 2, "--draws", 10, "--extended-index-set",
                    "--box", workdir / "small_box.json", "--out-dir", workdir])
        assert code == 2
        assert not (workdir / "limit.csv").exists()

    def test_check_h4_defaults_on_d2_laplace(self, workdir):
        """At d = 2 with Laplace inputs the certified Gram takes the input
        law's rule, and the Monte Carlo cross-check runs beside it."""
        units = [{"a": 1.0, "w": [0.5, 1.0, -0.5]}, {"a": 1.5, "w": [-0.3, 0.2, 1.2]}]
        spec = {"theta0": {"beta": 0.5, "units": units}, "sigma2": 1.0, "input_dim": 2, "input_law": "laplace"}
        (workdir / "wide.json").write_text(json.dumps(spec))
        assert run(["check-h4", "--spec", workdir / "wide.json", "--out-dir", workdir]) == 0
        reports = json.loads((workdir / "h4.json").read_text())["reports"]
        assert set(reports) == {"gram", "mc_cross_check"}
        assert reports["gram"]["method"] == "gauss_laguerre" and reports["gram"]["passed"]

    def test_check_h4_failure_is_exit_4(self, workdir):
        """Two identical true units fail the certificate that limit applies:
        both exit 4, and check-h4 writes its report first."""
        unit = {"a": 1.0, "w": [0.5, 1.0]}
        spec = {"theta0": {"beta": 0.5, "units": [unit, unit]}, "sigma2": 1.0, "input_dim": 1}
        (workdir / "twin.json").write_text(json.dumps(spec))
        assert run(["limit", "--spec", workdir / "twin.json", "--k", 2, "--draws", 10, "--out-dir", workdir]) == 4
        assert run(["check-h4", "--spec", workdir / "twin.json", "--out-dir", workdir]) == 4
        reports = json.loads((workdir / "h4.json").read_text())["reports"]
        assert not reports["gram"]["passed"]

    def test_failed_cross_check_leaves_exit_0(self, workdir, monkeypatch):
        """The Monte Carlo cross-check is reported, but only the spec's own
        Gram sets the exit code."""
        def broken_mc(spec, mc_draws, seed):
            gram = gram_matrix(spec, 1000, seed)
            gram.x_gram[:, 0] = gram.x_gram[0, :] = 0.0  # a zero-norm column fails
            return gram

        monkeypatch.setattr(mlplr.cli, "gram_matrix", broken_mc)
        assert run(["check-h4", "--spec", workdir / "spec.json", "--out-dir", workdir]) == 0
        reports = json.loads((workdir / "h4.json").read_text())["reports"]
        assert reports["gram"]["passed"] and not reports["mc_cross_check"]["passed"]

    def test_one_gram_per_d3_spec(self, workdir, monkeypatch):
        """check-h4 certifies, and limit and experiment simulate on, the same
        d = 3 Gram, and --save-gram writes exactly that Gram."""
        unit = {"a": 1.0, "w": [0.5, 1.0, -0.5, 0.3]}
        spec_dict = {"theta0": {"beta": 0.5, "units": [unit]}, "sigma2": 1.0, "input_dim": 3}
        (workdir / "d3.json").write_text(json.dumps(spec_dict))
        expected = default_gram(RegressionSpec.from_dict(spec_dict)).x_gram.tobytes()
        used = []

        def recording(simulate):
            def wrapper(spec, k, gram, *args, **kwargs):
                used.append(gram.x_gram.tobytes())
                return simulate(spec, k, gram, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(mlplr.cli, "simulate_limit", recording(mlplr.cli.simulate_limit))
        monkeypatch.setattr(mlplr.harness, "simulate_limit", recording(mlplr.harness.simulate_limit))
        assert run(["check-h4", "--spec", workdir / "d3.json", "--save-gram", "--out-dir", workdir]) == 0
        reports = json.loads((workdir / "h4.json").read_text())["reports"]
        assert set(reports) == {"gram"} and reports["gram"]["method"] == "mc" and reports["gram"]["passed"]
        assert np.loadtxt(workdir / "gram.mat").tobytes() == expected
        for seed in (1, 2):
            assert run(["limit", "--spec", workdir / "d3.json", "--k", 1, "--draws", 20, "--seed", seed,
                        "--out-dir", workdir]) == 0
        config = {
            "spec": spec_dict,
            "box": {"eta": 0.1, "M": 50.0},
            "fit": {"n_starts": 1, "seed": 0, "max_iters": 20},
            "schedule": {"kind": "bic_like", "input_dim": 3},
            "n_grid": [20],
            "k_grid": [1],
            "replicates": 1,
            "base_seed": 9,
            "limit_draws": 20,
        }
        (workdir / "exp.json").write_text(json.dumps(config))
        assert run(["experiment", "--config", workdir / "exp.json", "--out-dir", workdir / "results"]) == 0
        assert used == [expected] * 3

    @pytest.mark.parametrize("input_dim", [5, "1"])
    def test_schedule_input_dim_must_match_spec(self, workdir, input_dim):
        """input_dim 5 on d = 1 data used to double the BIC penalty."""
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "schedule.json").write_text(json.dumps({"kind": "bic_like", "input_dim": input_dim}))
        code = run(
            ["select", "--data", workdir / "data.csv", "--spec", workdir / "spec.json",
             "--box", workdir / "box.json", "--k-max", 2, "--schedule", workdir / "schedule.json",
             "--out", "select.json", "--out-dir", workdir]
        )
        assert code == 2
        assert not (workdir / "select.json").exists()

    def test_invalid_schedule_is_config_error(self, workdir):
        run(["gen", "--spec", workdir / "spec.json", "--n", 20, "--out", "data.csv", "--out-dir", workdir])
        (workdir / "bad_schedule.json").write_text(json.dumps({"kind": "nonsense"}))
        code = run(
            ["select", "--data", workdir / "data.csv", "--spec", workdir / "spec.json",
             "--box", workdir / "box.json", "--k-max", 2, "--schedule", workdir / "bad_schedule.json",
             "--out-dir", workdir]
        )
        assert code == 2

    def test_gradcheck(self, workdir):
        code = run(
            ["gradcheck", "--spec", workdir / "spec.json", "--draws", 5,
             "--out", "gradcheck.json", "--out-dir", workdir]
        )
        assert code == 0
        rep = json.loads((workdir / "gradcheck.json").read_text())
        assert rep["max_rel_error_first"] <= 1e-5
        assert rep["max_rel_error_second"] <= 1e-4


class TestExperiment:
    def test_end_to_end(self, workdir, desk_spec, desk_box):
        config = {
            "spec": desk_spec.to_dict(),
            "box": desk_box.to_dict(),
            "fit": {"n_starts": 2, "seed": 0, "max_iters": 150},
            "schedule": {"kind": "bic_like", "input_dim": 1},
            "n_grid": [60],
            "k_grid": [1],
            "replicates": 2,
            "base_seed": 9,
            "limit_draws": 200,
        }
        (workdir / "exp.json").write_text(json.dumps(config))
        out = workdir / "results"
        code = run(["experiment", "--config", workdir / "exp.json", "--out-dir", out])
        assert code == 0
        for name in ("matrix.csv", "selection.csv", "summary.json", "limit_k1.csv"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_cells"] == 0
        assert "n=60,k=1" in summary["cells"]
        assert summary["cells"]["n=60,k=1"]["ks_distance"] is not None
        assert summary["config_hash"]
        # reproducibility marker embedded in every CSV
        assert (out / "matrix.csv").read_text().startswith("# config_hash=")

    def test_limit_law_failure_is_exit_4(self, workdir, desk_box):
        """Two identical true units fail the linear-independence certificate
        in the limit-law stage, which runs before any replicate fit."""
        unit = {"a": 1.0, "w": [0.5, 1.0]}
        spec = {"theta0": {"beta": 0.5, "units": [unit, unit]}, "sigma2": 1.0, "input_dim": 1}
        config = {
            "spec": spec,
            "box": desk_box.to_dict(),
            "fit": {"n_starts": 1, "seed": 0, "max_iters": 50},
            "schedule": {"kind": "bic_like", "input_dim": 1},
            "n_grid": [30],
            "k_grid": [2],
            "replicates": 1,
            "base_seed": 9,
            "limit_draws": 10,
        }
        (workdir / "exp.json").write_text(json.dumps(config))
        out = workdir / "results"
        assert run(["experiment", "--config", workdir / "exp.json", "--out-dir", out]) == 4
        assert not (out / "matrix.csv").exists()  # no fit was spent

    def test_invalid_config_is_exit_2(self, workdir):
        (workdir / "exp.json").write_text(json.dumps({"spec": {}}))
        assert run(["experiment", "--config", workdir / "exp.json", "--out-dir", workdir]) == 2

    @pytest.mark.parametrize(
        "bad",
        [{"k_grid": [0, 2]}, {"n_grid": [1]}, {"limit_draws": -1}, {"replicate": 2}, {"fit": {"max_iter": 5}},
         {"noise_sigma2": -1.0}, {"schedule": {"kind": "bic_like", "input_dim": 5}},
         {"schedule": {"kind": "bic_like", "input_dim": "1"}}],
        ids=["width_0", "n_1", "negative_limit_draws", "unknown_key", "unknown_fit_key", "negative_noise_sigma2",
             "schedule_input_dim_5", "schedule_input_dim_str"],
    )
    def test_bad_grid_or_key_is_exit_2(self, workdir, desk_spec, desk_box, bad):
        config = {
            "spec": desk_spec.to_dict(),
            "box": desk_box.to_dict(),
            "fit": {"n_starts": 1, "seed": 0, "max_iters": 50},
            "schedule": {"kind": "bic_like", "input_dim": 1},
            "n_grid": [30],
            "k_grid": [1, 2],
            "replicates": 1,
            "base_seed": 9,
            **bad,
        }
        (workdir / "exp.json").write_text(json.dumps(config))
        out = workdir / "results"
        assert run(["experiment", "--config", workdir / "exp.json", "--out-dir", out]) == 2
        assert not out.exists()

import importlib
import json
import os
import subprocess
import sys

import pytest

import commtest
from commtest.cli import (
    EXIT_GUARANTEE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_STOCHASTIC,
    _json_safe,
    main,
)

P = '[0.8,0.2]'
Q = '[0.2,0.8]'
P3, Q3 = "[0.5,0.3,0.2]", "[0.2,0.3,0.5]"


def child_env(blas_threads=None):
    """os.environ for a fresh interpreter that imports commtest from
    src, with OPENBLAS_NUM_THREADS unset or set to `blas_threads`."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDivergence:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "divergence", "--p", P, "--q", Q)
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["total_variation"] == pytest.approx(0.6)
        assert obj["hellinger_affinity"] == pytest.approx(0.8)

    def test_spec_selection(self, capsys):
        code, out, _ = run(capsys, "divergence", "--p", P, "--q", Q,
                           "--spec", "sym_chi_1.5")
        assert code == EXIT_OK
        assert json.loads(out)["spec"] == "sym_chi_1.5"

    def test_unknown_spec(self, capsys):
        code, _, err = run(capsys, "divergence", "--p", P, "--q", Q, "--spec", "kl")
        assert code == EXIT_INVALID
        assert "error" in err

    def test_malformed_distribution(self, capsys):
        code, _, err = run(capsys, "divergence", "--p", "[0.5, 0.6]", "--q", Q)
        assert code == EXIT_INVALID
        code, _, err = run(capsys, "divergence", "--p", "not json", "--q", Q)
        assert code == EXIT_INVALID

    def test_infinite_divergence_is_a_string(self, capsys):
        code, out, _ = run(capsys, "divergence", "--p", "[1,0]", "--q", Q, "--spec", "sym_kl")
        assert code == EXIT_OK
        assert '"f_divergence": "inf"' in out

    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text('{"probs": [0.8, 0.2]}')
        code, out, _ = run(capsys, "divergence", "--p", f"@{f}", "--q", Q)
        assert code == EXIT_OK
        assert json.loads(out)["total_variation"] == pytest.approx(0.6)


class TestQuantize:
    def test_within_bound(self, capsys):
        code, out, _ = run(capsys, "quantize", "--p", "[0.5,0.3,0.2]",
                           "--q", "[0.2,0.3,0.5]", "--d", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["ratio_achieved"] <= obj["bound"]
        assert obj["channel"]["rows"] == 2

    def test_oracle_mode(self, capsys):
        code, out, _ = run(capsys, "quantize", "--p", "[0.5,0.3,0.2]",
                           "--q", "[0.2,0.3,0.5]", "--d", "2", "--oracle")
        assert code == EXIT_OK
        assert json.loads(out)["case"] == "oracle"
        assert json.loads(out)["r_value"] is None  # NaN: the oracle has no R

    def test_infinite_values_are_strings(self, capsys):
        code, out, _ = run(capsys, "quantize", "--p", "[0.5,0.5,0]",
                           "--q", "[0,0.5,0.5]", "--d", "3", "--spec", "sym_kl")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["bound"] == "inf"
        assert obj["ratio_achieved"] == 1.0

    def test_identical_inputs_invalid(self, capsys):
        code, _, err = run(capsys, "quantize", "--p", P, "--q", P, "--d", "2")
        assert code == EXIT_INVALID

    def test_d_too_small(self, capsys):
        code, _, _ = run(capsys, "quantize", "--p", P, "--q", Q, "--d", "1")
        assert code == EXIT_INVALID


class TestSimulate:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--n", "10",
                           "--trials", "500", "--seed", "3")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["n"] == 10 and obj["seed"] == 3

    @pytest.mark.parametrize("flags, message", [
        (("--seed", "-1"), "error: seed must be at least 0, got -1\n"),
        (("--seed", "-1", "--search"), "error: seed must be at least 0, got -1\n"),
        (("--n", "0"), "error: n must be at least 1, got 0\n"),
        (("--n", str(10**19)), "error: n must be at most 2**63 - 1, got 10000000000000000000\n"),
        (("--trials", "0"), "error: trials must be at least 1, got 0\n"),
        (("--n", "1.5"), "error: --n takes a sample size or a comma list of sizes, got '1.5'\n"),
        (("--n", "5,"), "error: --n takes a sample size or a comma list of sizes, got '5,'\n"),
        (("--n", "abc"), "error: --n takes a sample size or a comma list of sizes, got 'abc'\n"),
        (("--search", "--budget", "nan"), "error: budget must be at least 0, got nan\n"),
        (("--search", "--budget", "-1"), "error: budget must be at least 0, got -1.0\n"),
    ], ids=["seed -1", "search seed -1", "n 0", "n 10**19", "trials 0", "n 1.5", "n 5,",
            "n abc", "budget nan", "budget -1"])
    def test_invalid_sizes_and_seed(self, capsys, flags, message):
        code, out, err = run(capsys, "simulate", "--p", P, "--q", Q, *flags)
        assert (code, out, err) == (EXIT_INVALID, "", message)

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate", "--p", P, "--q", Q, "--n", "5,10",
                "--trials", "400", "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_csv_curve(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--n", "5,10",
                           "--trials", "400", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,trials,error_p")
        assert len(lines) == 3

    def test_search(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--search",
                           "--trials", "2000")
        assert code == EXIT_OK
        assert 1 <= json.loads(out)["n_hat"] <= 30

    def test_search_designs_the_channel_once(self, capsys, monkeypatch):
        import commtest.quantizer

        designs = []

        def counted(*args):
            designs.append(args)
            return design_hellinger_channel(*args)

        design_hellinger_channel = commtest.quantizer.design_hellinger_channel
        monkeypatch.setattr("commtest.quantizer.design_hellinger_channel", counted)
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--search",
                           "--trials", "2000")
        assert code == EXIT_OK and json.loads(out)["n_hat"] > 2  # several probes
        assert len(designs) == 1

    def test_scheffe_rule(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--n", "10",
                           "--trials", "400", "--rule", "scheffe")
        assert code == EXIT_OK

    @pytest.mark.parametrize("flags, named", [
        (["--rule", "scheffe", "--d", "5"], "--d"),
        (["--channel", "[[1,0],[0,1]]", "--d", "2"], "--d"),
        (["--channel", "[[1,0],[0,1]]", "--rule", "designed"], "--rule"),
        (["--channel", "[[1,0],[0,1]]", "--rule", "scheffe"], "--rule"),
        (["--search", "--n", "5"], "--n"),
    ])
    def test_unread_flags_are_rejected(self, capsys, flags, named):
        code, out, err = run(capsys, "simulate", "--p", P, "--q", Q, "--trials", "100",
                             *flags)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ") and f"drop {named}" in err

    @pytest.mark.parametrize("flags, defaults", [
        ([], ["--n", "100", "--d", "2", "--rule", "designed"]),
        (["--rule", "scheffe"], ["--n", "100"]),
        (["--channel", "[[1,0],[0,1]]", "--n", "7"], []),
    ])
    def test_defaults_match_explicit_flags(self, capsys, flags, defaults):
        args = ("simulate", "--p", P, "--q", Q, "--trials", "300", "--seed", "2", *flags)
        code, implicit, _ = run(capsys, *args)
        assert code == EXIT_OK
        assert run(capsys, *args, *defaults)[1] == implicit

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--n", "5",
                           "--trials", "200", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["n"] == 5


class TestRobust:
    def test_lfd(self, capsys):
        code, out, _ = run(capsys, "robust-lfd", "--p", P, "--q", Q, "--eps", "0.1")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["p_lfd"]["probs"] == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_lfd_at_zero_radius_on_disjoint_supports(self, capsys):
        code, out, _ = run(capsys, "robust-lfd", "--p", "[1,0]", "--q", "[0,1]", "--eps", "0")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert (obj["clip_low"], obj["clip_high"]) == (0.0, "inf")

    def test_lfd_infeasible(self, capsys):
        code, _, err = run(capsys, "robust-lfd", "--p", P, "--q", Q, "--eps", "0.5")
        assert code == EXIT_INVALID

    def test_design(self, capsys):
        code, out, _ = run(capsys, "robust-design", "--p", P, "--q", Q,
                           "--eps", "0.1", "--d", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["design"]["ratio_achieved"] <= obj["design"]["bound"]


class TestMary:
    def test_instance(self, capsys):
        code, out, _ = run(capsys, "mary", "instance", "--m", "4", "--eps", "0.4")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert len(obj["dists"]) == 4
        assert obj["hadamard_eps"] == 0.4

    def test_identical_design(self, capsys):
        code, out, _ = run(capsys, "mary", "identical", "--m", "4", "--eps", "0.4",
                           "--d", "3", "--seed", "0")
        assert code == EXIT_OK
        assert json.loads(out)["min_pairwise_output_tv"] > 0

    def test_sketch_stochastic_failure_exit(self, capsys, monkeypatch):
        from commtest.errors import StochasticFailureError

        def always_fail(*args, **kwargs):
            raise StochasticFailureError("no sketch met the floor",
                                         best=None, best_score=0.0)

        monkeypatch.setattr("commtest.mary.jl_sketch_channel", always_fail)
        code, out, _ = run(capsys, "mary", "identical", "--m", "4", "--eps", "0.4",
                           "--d", "3", "--design", "sketch", "--seed", "0")
        assert code == EXIT_STOCHASTIC

    def test_tournament(self, capsys):
        code, out, _ = run(capsys, "mary", "tournament", "--m", "4", "--eps", "0.4",
                           "--truth", "1", "--trials", "3", "--seed", "2")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["trials"] == 3
        assert obj["win_rate"] == pytest.approx(obj["wins"] / 3)

    def test_tournament_bad_truth(self, capsys):
        code, _, _ = run(capsys, "mary", "tournament", "--m", "4", "--eps", "0.4",
                         "--truth", "7")
        assert code == EXIT_INVALID

    def test_tournament_zero_trials(self, capsys):
        code, out, err = run(capsys, "mary", "tournament", "--m", "4", "--eps", "0.4",
                             "--trials", "0")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: --trials must be at least 1")

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_tournament_needs_two_outputs(self, capsys, d):
        # --d 0 divided by zero in the game size, and --d -1 made it negative
        code, out, err = run(capsys, "mary", "tournament", "--m", "4", "--eps", "0.4",
                             "--d", d)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: out_size must be at least 2\n"

    def test_family_file(self, capsys, tmp_path):
        fam = {"dists": [[0.9, 0.1], [0.1, 0.9]]}
        f = tmp_path / "family.json"
        f.write_text(json.dumps(fam))
        code, out, _ = run(capsys, "mary", "identical", "--family", f"@{f}",
                           "--d", "2")
        assert code == EXIT_OK

    def test_family_base_on_another_alphabet(self, capsys):
        fam = json.dumps({"dists": [[0.9, 0.1], [0.1, 0.9]], "base": [0.2, 0.3, 0.5]})
        code, out, err = run(capsys, "mary", "identical", "--family", fam, "--d", "2")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: base alphabet 3")

    @pytest.mark.parametrize("sub, extra", [("identical", ["--d", "2"]),
                                            ("tournament", []), ("verify", [])])
    @pytest.mark.parametrize("flags", [["--m", "4"], ["--eps", "0.4"],
                                       ["--m", "4", "--eps", "0.4"]])
    def test_family_with_m_or_eps_is_rejected(self, capsys, sub, extra, flags):
        fam = json.dumps({"dists": [[0.9, 0.1], [0.1, 0.9]]})
        code, out, err = run(capsys, "mary", sub, "--family", fam, *flags, *extra)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: --family replaces --m and --eps")

    @pytest.mark.parametrize("argv, flag, values", [
        *[pytest.param(["identical", "--design", design], "--d", ("3", "5"),
                       id=f"identical-{design}-d") for design in ("best", "sketch", "reduction")],
        *[pytest.param(["identical", "--design", design, *extra], "--seed", ("0", "9"),
                       id=f"identical-{design}-seed")
          for design, extra in (("best", ["--d", "3"]), ("sketch", ["--d", "3"]),
                                ("reduction", []))],
        pytest.param(["verify"], "--seed", ("0", "9"), id="verify-seed"),
        pytest.param(["verify", "--samples", "50"], "--seed", ("0", "9"),
                     id="verify-samples-seed"),
    ])
    def test_every_accepted_flag_is_read(self, capsys, argv, flag, values):
        """An accepted flag changes the printed channel or report (the
        echoed seed aside); a flag the command would ignore exits 1."""
        runs = [run(capsys, "mary", *argv, "--m", "4", "--eps", "0.4", flag, value)
                for value in values]
        if runs[0][0] == EXIT_INVALID:
            for code, out, err in runs:
                assert code == EXIT_INVALID and out == ""
                assert err.startswith("error: ") and f"drop {flag}" in err
            return
        reports = []
        for code, out, _ in runs:
            assert code == EXIT_OK
            reports.append(json.loads(out))
            reports[-1].pop("seed")
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("argv, defaults", [
        (["identical", "--d", "3"], ["--design", "best", "--seed", "0"]),
        (["identical", "--d", "3", "--design", "sketch"], ["--seed", "0"]),
        (["identical", "--design", "reduction"], []),
        (["verify", "--samples", "20"], ["--seed", "0"]),
        (["verify"], []),
    ])
    def test_seed_defaults_to_zero(self, capsys, argv, defaults):
        """The seed is echoed as 0 when it is left out, also where nothing is drawn."""
        args = ("mary", *argv, "--m", "4", "--eps", "0.4")
        code, implicit, _ = run(capsys, *args)
        assert code == EXIT_OK and json.loads(implicit)["seed"] == 0
        assert run(capsys, *args, *defaults)[1] == implicit

    @pytest.mark.parametrize("design", ["best", "sketch"])
    def test_designs_that_draw_need_d(self, capsys, design):
        code, out, err = run(capsys, "mary", "identical", "--m", "4", "--eps", "0.4",
                             "--design", design)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith(f"error: --design {design} needs --d")

    def test_verify_bound(self, capsys):
        code, out, _ = run(capsys, "mary", "verify", "--m", "4", "--eps", "0.4")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["lower"] == 0.0
        assert set(obj) == {"sup_min_hellinger", "lower", "max_pairwise_hellinger",
                            "constant", "seed"}

    def test_verify_large_alphabet(self, capsys):
        # M = 31 needs k = 32 atoms
        code, out, _ = run(capsys, "mary", "verify", "--m", "31", "--eps", "0.4",
                           "--samples", "20")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert 0.0 < obj["lower"] <= obj["sup_min_hellinger"]

    def test_verify_negative_samples(self, capsys):
        code, out, err = run(capsys, "mary", "verify", "--m", "4", "--eps", "0.4",
                             "--samples", "-5")
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: ")


class TestVerifyCommand:
    def test_tightness_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "tightness")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["passed"] is True
        assert all("name" in c for c in obj["checks"])

    def test_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "tightness", "--seed", "4")
        _, out2, _ = run(capsys, "verify", "tightness", "--seed", "4")
        assert out1 == out2

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == EXIT_INVALID


def test_json_safe_encodes_non_finite_floats_at_any_depth():
    inf, nan = float("inf"), float("nan")
    obj = {"a": [1.5, (-inf, {"b": nan})], "c": inf, "d": "inf", "e": 0, "f": True}
    assert _json_safe(obj) == {"a": [1.5, ["-inf", {"b": None}]], "c": "inf",
                               "d": "inf", "e": 0, "f": True}


class TestUsage:
    def test_unknown_flag_is_invalid_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--p", P, "--q", Q, "--nosuch"])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["divergence", "--p", P, "--q", Q],
        ["mary", "instance", "--m", "4", "--eps", "0.4"],
        ["verify", "tightness"],
    ])
    def test_format_only_on_simulate(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == EXIT_INVALID
        assert capsys.readouterr().out == ""

    def test_search_rejects_csv(self, capsys):
        code, out, err = run(capsys, "simulate", "--p", P, "--q", Q, "--search",
                             "--format", "csv")
        assert code == EXIT_INVALID
        assert out == ""
        assert "--search" in err

    def test_budget_needs_search(self, capsys):
        code, out, err = run(capsys, "simulate", "--p", P, "--q", Q, "--budget", "0.2")
        assert code == EXIT_INVALID
        assert out == ""
        assert "--budget" in err
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--search",
                           "--budget", "0.2", "--trials", "2000")
        assert code == EXIT_OK
        assert json.loads(out)["budget"] == 0.2

    def test_help_exits_ok(self, capsys):
        for argv in (["--help"], ["simulate", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_OK
        assert "--format" in capsys.readouterr().out

    @staticmethod
    def _after_import(expr, setup="import commtest.cli", blas_threads=None):
        """What `expr` prints, as its last line of output, in a fresh
        interpreter after `setup` (by default `import commtest.cli`), with
        OPENBLAS_NUM_THREADS unset or set to `blas_threads`."""
        code = f"import sys\n{setup}\nprint({expr})"
        out = subprocess.run([sys.executable, "-c", code], env=child_env(blas_threads),
                             check=True, capture_output=True, text=True, timeout=60).stdout
        return out.strip().splitlines()[-1]

    @staticmethod
    def _call_setup(argv):
        return f"from commtest.cli import main\nassert main({argv!r}) == 0"

    def test_import_loads_no_scipy(self):
        assert self._after_import(
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"

    def test_import_loads_no_numpy_random(self):
        # commands that draw nothing should not pay for importing numpy.random
        assert self._after_import("'numpy.random' in sys.modules") == "False"

    def test_import_loads_no_numpy_and_no_command_module(self):
        assert self._after_import(
            "sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'commtest'))"
        ) == str(["commtest", "commtest.cli", "commtest.errors"])

    def test_package_import_loads_no_numpy(self):
        assert self._after_import("'numpy' in sys.modules", setup="import commtest") == "False"

    def test_package_loads_a_submodule_on_first_use(self):
        assert self._after_import("commtest.mary.__name__, 'commtest.verify' in sys.modules",
                                  setup="import commtest") == "commtest.mary False"

    @pytest.mark.parametrize("argv, used, unused", [
        (["divergence", "--p", P, "--q", Q, "--spec", "sym_kl"], ["core"],
         ["decision", "testing", "robust", "mary", "verify"]),
        (["quantize", "--p", P3, "--q", Q3, "--d", "2"], ["quantizer"],
         ["decision", "testing", "robust", "mary", "verify"]),
        (["mary", "instance", "--m", "4", "--eps", "0.4"], ["mary", "decision"],
         ["testing", "quantizer", "revmarkov", "verify"]),
        (["mary", "tournament", "--m", "4", "--eps", "0.4", "--adaptive"], ["mary", "decision"],
         ["testing", "robust", "verify"]),
        (["robust-lfd", "--p", P, "--q", Q, "--eps", "0.05"], ["robust"],
         ["decision", "quantizer", "revmarkov", "testing", "verify"]),
        (["simulate", "--p", P3, "--q", Q3, "--d", "3", "--trials", "200"],
         ["testing", "decision"], ["robust", "mary", "verify"]),
    ], ids=["divergence", "quantize", "mary-instance", "mary-tournament", "robust-lfd",
            "simulate"])
    def test_a_call_loads_only_the_modules_it_runs(self, argv, used, unused):
        used, unused = ([f"commtest.{name}" for name in names] for names in (used, unused))
        assert self._after_import(
            f"[m for m in {used!r} if m not in sys.modules], "
            f"[m for m in {unused!r} if m in sys.modules]",
            setup=self._call_setup(argv)) == "[] []"

    @pytest.mark.parametrize("argv", [
        ["quantize", "--p", P3, "--q", Q3, "--d", "3"],
        ["quantize", "--p", P3, "--q", Q3, "--d", "3", "--oracle"],
        ["simulate", "--p", P3, "--q", Q3, "--d", "3", "--trials", "200"],
        ["robust-design", "--p", P3, "--q", Q3, "--eps", "0.05", "--d", "3"],
    ], ids=["quantize", "quantize-oracle", "simulate", "robust-design"])
    def test_a_design_loads_no_numpy_ma(self, argv):
        # np.unique imports numpy.ma on its first call; the designer avoids it
        assert self._after_import("'numpy.ma' in sys.modules",
                                  setup=self._call_setup(argv)) == "False"

    @pytest.mark.parametrize("preset, seen", [(None, "'1'"), ("3", "'3'")])
    def test_a_call_pins_one_blas_thread_unless_set(self, preset, seen):
        argv = ["divergence", "--p", P, "--q", Q]
        assert self._after_import("repr(os.environ.get('OPENBLAS_NUM_THREADS'))",
                                  setup=f"import os\n{self._call_setup(argv)}",
                                  blas_threads=preset) == seen

    def test_a_call_in_a_numpy_host_leaves_the_environment(self, capsys, monkeypatch):
        import numpy  # noqa: F401  (a host that already loaded numpy)

        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert run(capsys, "divergence", "--p", P, "--q", Q)[0] == EXIT_OK
        assert dict(os.environ) == before

    @pytest.mark.parametrize("argv", [
        ["quantize", "--p", P3, "--q", Q3, "--d", "3"],
        ["verify", "robust", "--seed", "0"],
    ], ids=["quantize", "verify-robust"])
    def test_output_does_not_depend_on_blas_threads(self, argv):
        outs = [subprocess.run([sys.executable, "-m", "commtest.cli", *argv],
                               env=child_env(threads), check=True, capture_output=True,
                               timeout=120).stdout for threads in (None, "2")]
        assert outs[0] == outs[1] != b""

    def test_parser_constants_match_their_modules(self):
        from commtest import testing, verify
        from commtest.cli import build_parser

        assert self._after_import(
            "[m for m in ('commtest.testing', 'commtest.verify') if m in sys.modules]",
            setup="from commtest.cli import build_parser\nbuild_parser()") == "[]"
        subs = build_parser()._subparsers._group_actions[0].choices
        suite, = (a for a in subs["verify"]._actions if a.dest == "suite")
        budget, = (a for a in subs["simulate"]._actions if a.dest == "budget")
        assert suite.choices == list(verify.SUITE_NAMES)
        assert budget.help.endswith(f"(default {testing.DEFAULT_ERROR_BUDGET})")


# Every public name of the package, in the order of `commtest.__all__`.
EXPORTS = [
    "Channel", "Distribution", "FDivergenceSpec", "ThresholdSet", "apply_channel",
    "builtin_fdiv", "f_divergence", "hellinger_affinity", "hellinger_sq", "likelihood_ratios",
    "sym_chi_spec", "threshold_channel", "total_variation",
    "CommtestError", "DegenerateInputError", "DimensionError", "InfeasibleContaminationError",
    "NonConvergenceError", "StochasticFailureError", "ValidationError",
    "DiscreteRV", "ThresholdGrid", "brute_force_revmarkov", "guarantee", "reverse_markov_best",
    "revmarkov_objective", "tightness_instance",
    "QuantizeResult", "brute_force_threshold_channel", "design_fdiv_channel",
    "design_hellinger_channel", "fdiv_ratio", "hell_tight_instance",
    "SimulationReport", "TestRule", "empirical_sample_complexity", "lrt_decide",
    "scheffe_channel", "simulate_error",
    "ContaminationSetup", "LfdPair", "design_robust_channel", "example_nonrobust_instance",
    "example_phase_transition_instance", "huber_lfd", "robust_decide",
    "BinaryChannelBoundReport", "GameRecord", "HypothesisFamily", "TournamentTranscript",
    "chi_square_budget", "counts_sampler", "game_sample_size",
    "hadamard_instance", "identical_channel_design", "jl_sketch_channel",
    "min_pairwise_tv_after", "pairwise_indicator_reduction", "tournament_adaptive",
    "tournament_nonadaptive", "verify_identical_d2_bound",
]


class TestPackageSurface:
    def test_all_lists_every_export(self):
        assert len(EXPORTS) == 61
        assert commtest.__all__ == EXPORTS

    @pytest.mark.parametrize("name", EXPORTS)
    def test_export_is_its_defining_modules_object(self, name):
        obj = getattr(commtest, name)
        assert obj.__module__.startswith("commtest.") and obj.__name__ == name
        assert getattr(importlib.import_module(obj.__module__), name) is obj

    def test_dir_lists_all_and_unknown_names_raise(self):
        assert "__all__" in dir(commtest) and set(EXPORTS) <= set(dir(commtest))
        with pytest.raises(AttributeError, match="nosuch"):
            commtest.nosuch  # noqa: B018

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from commtest import *", namespace)
        assert set(EXPORTS) <= set(namespace)

    def test_submodules_import_from_the_package(self):
        from commtest import mary, quantizer, verify

        assert [m.__name__ for m in (quantizer, mary, verify)] == [
            "commtest.quantizer", "commtest.mary", "commtest.verify"]

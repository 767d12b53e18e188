import json
import os
import subprocess
import sys

import pytest

from commtest.cli import (
    EXIT_GUARANTEE,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_STOCHASTIC,
    main,
)

P = '[0.8,0.2]'
Q = '[0.2,0.8]'


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

    def test_scheffe_rule(self, capsys):
        code, out, _ = run(capsys, "simulate", "--p", P, "--q", Q, "--n", "10",
                           "--trials", "400", "--rule", "scheffe")
        assert code == EXIT_OK

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

        monkeypatch.setattr("commtest.cli.jl_sketch_channel", always_fail)
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

    def test_family_file(self, capsys, tmp_path):
        fam = {"dists": [[0.9, 0.1], [0.1, 0.9]]}
        f = tmp_path / "family.json"
        f.write_text(json.dumps(fam))
        code, out, _ = run(capsys, "mary", "identical", "--family", f"@{f}",
                           "--d", "2")
        assert code == EXIT_OK

    def test_verify_bound(self, capsys):
        code, out, _ = run(capsys, "mary", "verify", "--m", "4", "--eps", "0.4")
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["constant"] <= obj["limit"]

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
    def _after_import(expr):
        """What `expr` prints in a fresh interpreter after `import commtest.cli`."""
        code = f"import sys, commtest.cli; print({expr})"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60).stdout.strip()

    def test_import_loads_no_scipy(self):
        assert self._after_import(
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"

    def test_import_loads_no_numpy_random(self):
        # commands that draw nothing should not pay for importing numpy.random
        assert self._after_import("'numpy.random' in sys.modules") == "False"

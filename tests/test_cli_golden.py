"""Golden CLI output: stdout and exit code of a fixed set of commands at
--seed 0 and --seed 7, run in process through `cli.main`, byte for byte.

A command that takes no seed, or names its own, runs once. To rewrite the
files after a declared output change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff of
tests/golden/.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from commtest.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SEEDS = (0, 7)
P3, Q3 = "[0.5,0.3,0.2]", "[0.2,0.3,0.5]"
P6 = "[0.3,0.25,0.2,0.1,0.1,0.05]"
Q6 = "[0.05,0.1,0.15,0.2,0.2,0.3]"
FAMILY = ("--m", "7", "--eps", "0.4")

# name -> argv; "{seed}" marks the commands run at each seed
COMMANDS = {
    "simulate": ("simulate", "--p", P6, "--q", Q6, "--d", "3", "--n", "40",
                 "--trials", "4000", "--seed", "{seed}"),
    "simulate-curve": ("simulate", "--p", P3, "--q", Q3, "--n", "5,10,20",
                       "--trials", "2000", "--format", "csv", "--seed", "{seed}"),
    "simulate-search": ("simulate", "--p", P3, "--q", Q3, "--search",
                        "--trials", "2000", "--seed", "{seed}"),
    "simulate-scheffe": ("simulate", "--p", P6, "--q", Q6, "--rule", "scheffe", "--n", "30",
                         "--trials", "4000", "--seed", "{seed}"),
    "robust-design": ("robust-design", "--p", P6, "--q", Q6, "--eps", "0.02", "--d", "3"),
    "mary-tournament": ("mary", "tournament", *FAMILY, "--d", "3", "--truth", "2",
                        "--trials", "3", "--seed", "{seed}"),
    "mary-tournament-adaptive": ("mary", "tournament", *FAMILY, "--d", "3", "--truth", "2",
                                 "--trials", "3", "--adaptive", "--seed", "{seed}"),
    "mary-identical": ("mary", "identical", *FAMILY, "--d", "3", "--seed", "{seed}"),
    "mary-identical-sketch": ("mary", "identical", *FAMILY, "--design", "sketch", "--d", "3",
                              "--seed", "{seed}"),
    "mary-identical-reduction": ("mary", "identical", *FAMILY, "--design", "reduction"),
    "quantize": ("quantize", "--p", P6, "--q", Q6, "--d", "3"),
    "quantize-oracle": ("quantize", "--p", P6, "--q", Q6, "--d", "3", "--oracle"),
    "verify-robust": ("verify", "robust", "--seed", "{seed}"),
    "verify-mary": ("verify", "mary", "--seed", "{seed}"),
    "verify-tightness": ("verify", "tightness", "--seed", "{seed}"),
    # one seed each: with verify-tightness they pin the reverse Markov grids,
    # alone and under the designer, byte for byte
    "verify-reverse-markov-seed0": ("verify", "reverse-markov", "--seed", "0"),
    "verify-quantizer-seed0": ("verify", "quantizer", "--seed", "0"),
}

CASES = [(name, seed) for name, argv in COMMANDS.items()
         for seed in (SEEDS if "{seed}" in argv else (None,))]


def case_id(name, seed):
    return name if seed is None else f"{name}-seed{seed}"


def run_case(name, seed):
    """'exit <code>' on one line, then the command's stdout."""
    argv = [arg.replace("{seed}", str(seed)) for arg in COMMANDS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name, seed", CASES, ids=[case_id(*c) for c in CASES])
def test_output_matches_golden(name, seed):
    want = (GOLDEN / f"{case_id(name, seed)}.txt").read_text(encoding="utf-8")
    assert run_case(name, seed) == want


def test_every_golden_file_has_a_case():
    assert sorted(f.stem for f in GOLDEN.glob("*.txt")) == sorted(case_id(*c) for c in CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case_id(*case)}.txt").write_text(run_case(*case), encoding="utf-8")
        print(case_id(*case), file=sys.stderr)

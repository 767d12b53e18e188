"""The value-type contract of every frozen dataclass that commtest exports,
and malformed JSON through every `from_json` and every JSON flag of the CLI."""

import dataclasses
import math

import numpy as np
import pytest

import commtest as ct
from commtest.cli import EXIT_INVALID, main
from commtest.core import _trusted

P, Q = [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]


def _family(z):
    return ct.HypothesisFamily([ct.Distribution([0.9, 0.1, z]), ct.Distribution([0.1, 0.9, z])])


# One builder per exported frozen dataclass. Each builds its value from the
# zero z; called with 0.0 and with -0.0, it must give equal values.
BUILDERS = {
    "Distribution": lambda z: ct.Distribution([z, 0.25, 0.75]),
    "Channel": lambda z: ct.Channel([[1.0, z], [z, 1.0]]),
    "ThresholdSet": lambda z: ct.ThresholdSet([0.5 + z, 2.0]),
    "FDivergenceSpec": lambda z: ct.sym_chi_spec(1.5 + z),
    "DiscreteRV": lambda z: ct.DiscreteRV([z, 0.5], [0.5, 0.5], 1.0),
    "ThresholdGrid": lambda z: ct.ThresholdGrid(nus=(z, 1.0), achieved=0.25),
    "QuantizeResult": lambda z: ct.design_hellinger_channel(
        ct.Distribution(P + [z]), ct.Distribution(Q + [z]), 2),
    "SimulationReport": lambda z: ct.simulate_error(
        ct.TestRule([ct.Channel([[1.0, z], [z, 1.0]])]),
        ct.Distribution([0.8, 0.2]), ct.Distribution([0.2, 0.8]), 5, trials=50),
    "TestRule": lambda z: ct.TestRule([ct.Channel([[1.0, z], [z, 1.0]])]),
    "ContaminationSetup": lambda z: ct.ContaminationSetup(
        ct.Distribution([0.8, 0.2, z]), ct.Distribution([0.2, 0.8, z]), 0.1),
    "LfdPair": lambda z: ct.huber_lfd(ct.ContaminationSetup(
        ct.Distribution([0.8, 0.2, z]), ct.Distribution([0.2, 0.8, z]), 0.1)),
    "BinaryChannelBoundReport": lambda z: ct.verify_identical_d2_bound(_family(z)),
    "GameRecord": lambda z: ct.GameRecord(i=0, j=1, samples=10, winner=0),
    "HypothesisFamily": _family,
    "TournamentTranscript": lambda z: ct.tournament_adaptive(
        _family(z), 2, ct.counts_sampler(ct.Distribution([0.9, 0.1, 0.0])), seed=0),
}

# A value of the same type as BUILDERS[name] with arrays of another shape.
RESHAPED = {
    "Distribution": lambda: ct.Distribution([0.25, 0.75]),
    "Channel": lambda: ct.Channel([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
    "ThresholdSet": lambda: ct.ThresholdSet([0.5]),
    "DiscreteRV": lambda: ct.DiscreteRV([0.0, 0.25, 0.5], [0.5, 0.25, 0.25], 1.0),
    "TestRule": lambda: ct.TestRule([ct.Channel([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])]),
    "HypothesisFamily": lambda: ct.HypothesisFamily(
        [ct.Distribution([0.9, 0.1]), ct.Distribution([0.1, 0.9])]),
}


def _frozen_exports():
    return sorted(name for name in ct.__all__
                  if dataclasses.is_dataclass(obj := getattr(ct, name)) and isinstance(obj, type)
                  and obj.__dataclass_params__.frozen)


def _arrays(value):
    """Every array held by a value, through its fields, tuples and values."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


def test_every_frozen_export_has_a_builder():
    assert _frozen_exports() == sorted(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_content_gives_equal_values_and_hashes(name):
    a, b, neg = (BUILDERS[name](z) for z in (0.0, 0.0, -0.0))
    assert type(a).__name__ == name
    assert a == b and a == neg and not a != neg
    assert hash(a) == hash(b) == hash(neg)
    assert len({a, b, neg}) == 1


@pytest.mark.parametrize("name", sorted(RESHAPED))
def test_other_shapes_compare_unequal(name):
    a, other = BUILDERS[name](0.0), RESHAPED[name]()
    assert a != other and not a == other


def test_same_bytes_in_another_shape_compare_unequal():
    flat, square = np.full((1, 4), 0.5), np.full((2, 2), 0.5)
    assert _trusted(ct.Channel, matrix=flat) != _trusted(ct.Channel, matrix=square)


def test_values_of_other_types_compare_unequal():
    assert ct.Distribution([1.0]) != ct.ThresholdSet([1.0])
    assert ct.Channel([[1.0]]) != np.ones((1, 1)).tolist()


@pytest.mark.parametrize("validated, trusted", [
    (lambda: ct.Distribution([0.25, 0.75, 0.0]),
     lambda: _trusted(ct.Distribution, probs=np.array([0.25, 0.75, -0.0]))),
    (lambda: ct.Channel([[1.0, 0.0], [0.0, 1.0]]),
     lambda: _trusted(ct.Channel, matrix=np.array([[1.0, -0.0], [-0.0, 1.0]]))),
    (lambda: ct.ThresholdSet([0.5, 2.0]),
     lambda: _trusted(ct.ThresholdSet, values=np.array([0.5, 2.0]))),
    (lambda: ct.DiscreteRV([0.0, 0.5], [0.5, 0.5], 1.0),
     lambda: _trusted(ct.DiscreteRV, values=np.array([-0.0, 0.5]),
                      masses=np.array([0.5, 0.5]), beta=1.0)),
])
def test_trusted_values_equal_validated_ones(validated, trusted):
    a, b = validated(), trusted()
    assert a == b and hash(a) == hash(b)


def test_designed_values_equal_their_validated_copies():
    design = BUILDERS["QuantizeResult"](0.0)
    assert design.channel == ct.Channel(design.channel.matrix)
    assert design.gamma == ct.ThresholdSet(design.gamma.values)
    assert hash(design.channel) == hash(ct.Channel(design.channel.matrix))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fields_cannot_be_set_or_deleted(name):
    value = BUILDERS[name](0.0)
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_arrays_are_read_only(name):
    for arr in _arrays(BUILDERS[name](0.0)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.5


@pytest.mark.parametrize("build, arr", [
    (ct.Distribution, [0.25, 0.75]),
    (ct.Channel, [[0.25, 0.75], [0.75, 0.25]]),
    (ct.ThresholdSet, [0.25, 0.75]),
    (lambda a: ct.DiscreteRV(a, [0.5, 0.5], 1.0), [0.25, 0.75]),
    (lambda a: ct.DiscreteRV([0.25, 0.75], a, 1.0), [0.25, 0.75]),
])
def test_values_neither_freeze_nor_share_the_callers_array(build, arr):
    arr = np.array(arr)
    value = build(arr)
    before = [a.copy() for a in _arrays(value)]
    arr.flat[0] = 0.5  # still the caller's to write
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(value), before, strict=True))


# --------------------------------------------------------------------------
# malformed JSON

GOOD_DISTS = [[0.9, 0.1], [0.1, 0.9]]

BAD_FROM_JSON = [
    (ct.Distribution, None),
    (ct.Distribution, [0.5, 0.5]),
    (ct.Distribution, {}),
    (ct.Distribution, {"probs": "x"}),
    (ct.Distribution, {"probs": 0.5}),
    (ct.Distribution, {"probs": [[0.5, 0.5]]}),
    (ct.Distribution, {"probs": {"a": 1}}),
    (ct.Distribution, {"probs": [None, 1.0]}),
    (ct.Distribution, {"probs": [[0.5], [0.25, 0.25]]}),
    (ct.Distribution, {"probs": [10 ** 400, 1]}),
    (ct.Channel, "x"),
    (ct.Channel, {"rows": 2, "cols": 2}),
    (ct.Channel, {"rows": 2.0, "cols": 2, "data": [1, 0, 0, 1]}),
    (ct.Channel, {"rows": True, "cols": 4, "data": [1, 1, 1, 1]}),
    (ct.Channel, {"rows": "2", "cols": 2, "data": [1, 0, 0, 1]}),
    (ct.Channel, {"rows": -1, "cols": -4, "data": [1, 0, 0, 1]}),
    (ct.Channel, {"rows": -2, "cols": -2, "data": [1, 0, 0, 1]}),
    (ct.Channel, {"rows": 1, "cols": 0, "data": []}),
    (ct.Channel, {"rows": 2, "cols": 2, "data": [1, 0, 0]}),
    (ct.Channel, {"rows": 2, "cols": 2, "data": [[1, 0], [0, 1]]}),
    (ct.Channel, {"rows": 2, "cols": 2, "data": "abcd"}),
    (ct.Channel, {"rows": 2, "cols": 2, "data": [{}, 0, 0, 1]}),
    (ct.ThresholdSet, {}),
    (ct.ThresholdSet, {"thresholds": 1.0}),
    (ct.ThresholdSet, {"thresholds": [[1.0]]}),
    (ct.ThresholdSet, {"thresholds": ["a"]}),
    (ct.DiscreteRV, {"beta": 1.0}),
    (ct.DiscreteRV, {"beta": "1", "atoms": [[0.5, 1.0]]}),
    (ct.DiscreteRV, {"beta": None, "atoms": [[0.5, 1.0]]}),
    (ct.DiscreteRV, {"beta": 1.0, "atoms": [0.5, 1.0]}),
    (ct.DiscreteRV, {"beta": 1.0, "atoms": [[0.5, 1.0, 2.0]]}),
    (ct.DiscreteRV, {"beta": 1.0, "atoms": [[0.5], [0.25, 0.5]]}),
    (ct.DiscreteRV, {"beta": 1.0, "atoms": [[0.5, "x"]]}),
    (ct.DiscreteRV, {"beta": 10 ** 400, "atoms": [[0.5, 1.0]]}),
    (ct.HypothesisFamily, []),
    (ct.HypothesisFamily, {"dists": 5}),
    (ct.HypothesisFamily, {"dists": [0.5, 0.5]}),
    (ct.HypothesisFamily, {"dists": [[0.9, 0.1], [0.1]]}),
    (ct.HypothesisFamily, {"dists": [["a", "b"], [0.1, 0.9]]}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "base": "u"}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "base": [0.5, 0.25, 0.25]}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": "x"}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": math.nan}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": math.inf}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": 0.0}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": 1}),
    (ct.HypothesisFamily, {"dists": GOOD_DISTS, "hadamard_eps": True}),
]


@pytest.mark.parametrize("cls, obj", BAD_FROM_JSON)
def test_malformed_json_raises_validation_error(cls, obj):
    with pytest.raises(ct.ValidationError):
        cls.from_json(obj)


@pytest.mark.parametrize("cls, value", [
    (ct.Distribution, ct.Distribution(P)),
    (ct.Channel, ct.Channel([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]])),
    (ct.ThresholdSet, ct.ThresholdSet([0.5, 2.0])),
    (ct.DiscreteRV, ct.DiscreteRV([0.0, 0.5], [0.5, 0.5], 1.0)),
    (ct.HypothesisFamily, ct.hadamard_instance(3, 0.4)),
])
def test_json_round_trips(cls, value):
    assert cls.from_json(value.to_json()) == value


def test_check_results_are_read_only_and_hash_without_detail():
    from commtest.verify import CheckResult

    detail = {"x": 1}
    result = CheckResult("c", True, 0.5, detail)
    detail["x"] = 2  # the caller's dict stays the caller's
    assert result.detail == {"x": 1}
    with pytest.raises(TypeError):
        result.detail["x"] = 3
    assert hash(result) == hash(CheckResult("c", True, 0.5, {"y": 0}))
    assert result == CheckResult("c", True, 0.5, {"x": 1}) != CheckResult("c", True, 0.5)
    assert result.to_json() == {"name": "c", "passed": True, "value": 0.5, "detail": {"x": 1}}


PQ = ["--p", "[0.8,0.2]", "--q", "[0.2,0.8]"]
SIMULATE = ["simulate", *PQ, "--n", "5", "--trials", "10", "--channel"]
FAMILY = '{"dists": [[0.9, 0.1], [0.1, 0.9]], %s}'

BAD_CLI = [
    ["divergence", "--p", '{"probs": "x"}', "--q", "[0.2,0.8]"],
    ["divergence", "--p", '{"prob": [0.8, 0.2]}', "--q", "[0.2,0.8]"],
    ["divergence", "--p", '{"probs": {"a": 1}}', "--q", "[0.2,0.8]"],
    ["divergence", "--p", "[{}]", "--q", "[0.2,0.8]"],
    ["divergence", "--p", "[[0.5], [0.25, 0.25]]", "--q", "[0.2,0.8]"],
    ["divergence", "--p", "5", "--q", "[0.2,0.8]"],
    ["divergence", "--p", "[0.8,0.2]", "--q", "[0.8,"],
    ["quantize", "--p", "[0.8,0.2]", "--q", "null", "--d", "2"],
    [*SIMULATE, '{"rows": 2.0, "cols": 2, "data": [1, 0, 0, 1]}'],
    [*SIMULATE, '{"rows": 2, "cols": 2}'],
    [*SIMULATE, '{"rows": -1, "cols": -2, "data": [1, 0]}'],
    [*SIMULATE, '{"rows": 2, "cols": 2, "data": [1, 0, 0]}'],
    [*SIMULATE, '{"rows": 2, "cols": 2, "data": "abcd"}'],
    [*SIMULATE, "[[{}]]"],
    [*SIMULATE, "[[]]"],
    ["mary", "tournament", "--family", '{"dists": 5}'],
    ["mary", "tournament", "--family", '{"dists": [[0.9, 0.1], [0.1]]}'],
    ["mary", "tournament", "--family", '{"dists": [["a", "b"], [0.1, 0.9]]}'],
    ["mary", "verify", "--family", FAMILY % '"hadamard_eps": "x"'],
    ["mary", "verify", "--family", FAMILY % '"hadamard_eps": NaN'],
    ["mary", "verify", "--family", FAMILY % '"base": "u"'],
    ["mary", "identical", "--family", "[]", "--d", "2"],
    ["divergence", "--p", "[" * 5000 + "]" * 5000, "--q", "[0.2,0.8]"],
    ["divergence", "--p", "[" * 100 + "0.5" + "]" * 100, "--q", "[0.2,0.8]"],
    ["divergence", "--p", f"[1{'0' * 400}, 1]", "--q", "[0.2,0.8]"],
]


@pytest.mark.parametrize("argv", BAD_CLI, ids=lambda argv: " ".join(argv)[:80])
def test_malformed_json_flags_exit_1_with_one_error_line(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


RV = ct.DiscreteRV([0.0, 0.25, 0.5], [0.25, 0.25, 0.5], 1.0)
HELLINGER, PQ = ct.builtin_fdiv("hellinger"), (ct.Distribution(P), ct.Distribution(Q))
# Each entry point that takes a size, as a function of that size alone.
SIZED = {
    "design_fdiv_channel": lambda d: ct.design_fdiv_channel(HELLINGER, *PQ, d),
    "brute_force_threshold_channel": lambda d: ct.brute_force_threshold_channel(HELLINGER, *PQ, d),
    "reverse_markov_best": lambda d: ct.reverse_markov_best(RV, d),
    "brute_force_revmarkov": lambda d: ct.brute_force_revmarkov(RV, d),
    "guarantee": lambda d: ct.guarantee(RV, d),
    "jl_distance_floor": lambda d: ct.mary.jl_distance_floor(ct.hadamard_instance(4, 0.4), d),
    "game_sample_size": lambda d: ct.game_sample_size(ct.hadamard_instance(4, 0.4), d),
    "hadamard_instance": lambda m: ct.hadamard_instance(m, 0.4),
    "Channel.identity": lambda k: ct.Channel.identity(k),
}


@pytest.mark.parametrize("size, message", [
    (2.5, "must be an integer, got 2.5"),
    (np.float64(3.0), f"must be an integer, got {np.float64(3.0)!r}"),
    (True, "must be an integer, got True"),
    (1, "must be at least 2, got 1"),
    (-3, "must be at least 2, got -3"),
], ids=["2.5", "float64", "True", "1", "-3"])
@pytest.mark.parametrize("name", SIZED)
def test_sizes_are_integers_of_at_least_two(name, size, message):
    with pytest.raises(ct.ValidationError) as info:
        SIZED[name](size)
    assert str(info.value).endswith(message)


@pytest.mark.parametrize("name", SIZED)
def test_a_numpy_integer_size_counts_as_its_int(name):
    assert repr(SIZED[name](np.int64(3))) == repr(SIZED[name](3))


FAMILY4 = ct.hadamard_instance(4, 0.4)
SAMPLER = ct.counts_sampler(FAMILY4.dists[1])
PHASE = (0.005, 0.2, 0.5, 0.7)  # eps, alpha, beta, delta of the phase-transition pair


def _phase(at, value):
    return ct.example_phase_transition_instance(*PHASE[:at], value, *PHASE[at + 1:])


def _sym_chi(s):
    spec = ct.sym_chi_spec(s)  # its generator, a fresh lambda, would repr by address
    return dataclasses.replace(spec, f=None), spec.f(0.5)


# Each real parameter, as "<callable>.<parameter>": a function of that value
# alone, a value inside its range, and values just past each finite end.
REAL = {
    "hadamard_instance.eps": (lambda e: ct.hadamard_instance(4, e), 0.4, (0.0, 1.0)),
    "HypothesisFamily.hadamard_eps": (lambda e: ct.HypothesisFamily(
        [ct.Distribution(row) for row in GOOD_DISTS], hadamard_eps=e), 0.4, (0.0, 1.0)),
    "game_sample_size.constant": (lambda c: ct.game_sample_size(FAMILY4, 2, c), 4.0, (0.0,)),
    "tournament_nonadaptive.constant": (lambda c: ct.tournament_nonadaptive(
        FAMILY4, 2, SAMPLER, constant=c), 0.5, (0.0,)),
    "tournament_adaptive.constant": (lambda c: ct.tournament_adaptive(
        FAMILY4, 2, SAMPLER, constant=c), 0.5, (0.0,)),
    "jl_distance_floor.accept": (lambda a: ct.mary.jl_distance_floor(FAMILY4, 3, a), 0.5, (0.0,)),
    "jl_sketch_channel.accept": (lambda a: ct.jl_sketch_channel(FAMILY4, 3, accept=a),
                                 0.02, (0.0,)),
    "tightness_instance.rho": (ct.tightness_instance, 0.05, (0.0, 0.25)),
    "hell_tight_instance.rho": (ct.hell_tight_instance, 0.05, (0.0, 0.25)),
    "sym_chi_spec.s": (_sym_chi, 1.5, (0.5, 2.5)),
    "empirical_sample_complexity.budget": (lambda b: ct.empirical_sample_complexity(
        lambda n: ct.TestRule([ct.Channel.identity(2)]), ct.Distribution([0.8, 0.2]),
        ct.Distribution([0.2, 0.8]), trials=200, budget=b), 0.3, (-0.1,)),
    "ContaminationSetup.epsilon": (lambda e: ct.ContaminationSetup(
        ct.Distribution(P), ct.Distribution(Q), e), 0.1, (-0.1,)),
    "DiscreteRV.beta": (lambda b: ct.DiscreteRV([0.0, 0.5], [0.5, 0.5], b), 1.0, (0.0,)),
    "example_nonrobust_instance.eps": (lambda e: ct.example_nonrobust_instance(e, 0.5),
                                       0.05, (0.0, 0.11)),
    "example_nonrobust_instance.alpha": (lambda a: ct.example_nonrobust_instance(0.05, a),
                                         0.5, (0.0, 1.0)),
    "example_phase_transition_instance.eps": (lambda e: _phase(0, e), 0.005, (0.0, 0.011)),
    "example_phase_transition_instance.alpha": (lambda a: _phase(1, a), 0.2, (0.0, 1.0)),
    "example_phase_transition_instance.beta": (lambda b: _phase(2, b), 0.5, (0.0, 1.0)),
    "example_phase_transition_instance.delta": (lambda d: _phase(3, d), 0.7, (0.0, 1.0)),
} | {
    f"FDivergenceSpec.{name}": (lambda v, name=name: dataclasses.replace(HELLINGER, **{name: v}),
                                getattr(HELLINGER, name), (0.0,))
    for name in ("kappa", "c1", "c2", "alpha")
}
NOT_REAL = ["x", None, [], True, 10 ** 400, math.nan, math.inf, -math.inf]
TAKES_NONE = {"HypothesisFamily.hadamard_eps"}


@pytest.mark.parametrize("name, value", [
    (name, value) for name, (_, _, ends) in REAL.items() for value in NOT_REAL + list(ends)
    if not (value is None and name in TAKES_NONE)
], ids=lambda arg: arg if isinstance(arg, str) and "." in arg else repr(arg)[:12])
def test_reals_outside_their_range_raise_validation_error(name, value):
    with pytest.raises(ct.ValidationError) as info:
        REAL[name][0](value)
    message = str(info.value)
    assert f"{name.split('.')[1]} must be " in message
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("name", REAL)
def test_a_numpy_real_counts_as_its_float(name):
    build, inside, _ = REAL[name]
    assert repr(build(np.float64(inside))) == repr(build(inside))

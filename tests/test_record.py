"""The frozen-record contract: every public record keeps the behaviour of
the frozen dataclass it is declared as, and importing resilkit compiles no
generated methods."""

import dataclasses
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import resilkit as rk
from resilkit._record import record

from conftest import M1_ACCEPTABLE, cli_env

A = M1_ACCEPTABLE
MODELS = Path(__file__).resolve().parent.parent / "models"

# every public record with its fields in declaration order
FIELDS = {
    "AmbiguityExceedance": ("acceptable", "beliefs"),
    "AtMostKExits": ("region", "max_exits"),
    "Bounded": ("region",),
    "CVaR": ("level",),
    "Composed": ("cost", "outer"),
    "ControlEffort": ("rates", "cemetery_penalty"),
    "ControlEvent": ("controls",),
    "ControlSpace": ("labels", "coords"),
    "Exceedance": ("acceptable",),
    "ExitCountFunctional": ("acceptable", "outer"),
    "Expectation": (),
    "KernelTable": ("acceptable", "member", "witness", "domain"),
    "OptimizationResult": ("resilient", "value", "strategy", "examined",
                           "certificate", "strategy_class"),
    "ParsedModel": ("model", "regime", "risk"),
    "Policy": ("t", "kind", "table"),
    "ProbExcursion": ("region", "beta"),
    "RecoveryOffset": ("acceptable", "cemetery_penalty"),
    "RecoveryTable": ("acceptable", "deadline", "min_layer", "witness",
                      "r_star"),
    "ResilientSet": ("start", "regime", "strategy_class", "members",
                     "witnesses", "method"),
    "RiskContainment": ("measure", "level"),
    "RobustRecovery": ("acceptable", "deadline"),
    "Stabilize": ("target", "radius", "window"),
    "StateSpace": ("labels", "coords"),
    "StochasticViability": ("acceptable", "beta"),
    "Strategy": ("start", "policies"),
    "SystemModel": ("time", "states", "controls", "uncertainty", "dynamics",
                    "constraints", "robust_scenarios", "scenario_probs"),
    "TabularCost": ("state_costs", "control_costs", "cemetery_penalty"),
    "TerminalMiss": ("acceptable", "cemetery_penalty"),
    "TimeGrid": ("horizon",),
    "TimeOutside": ("acceptable", "cemetery_penalty"),
    "Trajectory": ("start", "states", "controls", "scenario"),
    "TrajectoryBundle": ("start", "x0", "robust", "scenarios",
                         "trajectories"),
    "UncertaintyStructure": ("sets", "probs", "robust"),
    "Viability": ("acceptable",),
    "ValueTable": ("acceptable", "value", "witness"),
    "WorstCase": (),
    "WorstCaseViolation": ("acceptable",),
}

# the records that compare and hash by value; the rest keep identity
# (TabularCost defines its own array-wise __eq__ and no hash)
VALUE = {
    "AmbiguityExceedance", "AtMostKExits", "Bounded", "CVaR", "Composed",
    "ControlEffort", "ControlEvent", "Exceedance", "ExitCountFunctional",
    "Expectation", "ProbExcursion", "RecoveryOffset", "RiskContainment",
    "RobustRecovery", "Stabilize", "StochasticViability", "TerminalMiss",
    "TimeGrid", "TimeOutside", "Viability", "WorstCase",
    "WorstCaseViolation",
}

# one instance of each regime and risk spec with its repr as a frozen
# dataclass gave it
GOLDEN_REPRS = [
    (lambda: rk.Viability({0, 2}),
     "Viability(acceptable=frozenset({0, 2}))"),
    (lambda: rk.RobustRecovery({1}, 2),
     "RobustRecovery(acceptable=frozenset({1}), deadline=2)"),
    (lambda: rk.StochasticViability({0, 1}, 0.9),
     "StochasticViability(acceptable=frozenset({0, 1}), beta=0.9)"),
    (lambda: rk.Bounded({0}),
     "Bounded(region=frozenset({0}))"),
    (lambda: rk.ProbExcursion({0, 1}, 0.25),
     "ProbExcursion(region=frozenset({0, 1}), beta=0.25)"),
    (lambda: rk.AtMostKExits({2}, 1),
     "AtMostKExits(region=frozenset({2}), max_exits=1)"),
    (lambda: rk.Stabilize(0, 1.5, 2),
     "Stabilize(target=0, radius=1.5, window=2)"),
    (lambda: rk.ControlEvent({1}),
     "ControlEvent(controls=frozenset({1}))"),
    (lambda: rk.RiskContainment(
        rk.Composed(rk.TimeOutside({0}), rk.Expectation()), 0.5),
     "RiskContainment(measure=Composed(cost=TimeOutside(acceptable="
     "frozenset({0}), cemetery_penalty=1e+18), outer=Expectation()), "
     "level=0.5)"),
    (lambda: rk.Expectation(), "Expectation()"),
    (lambda: rk.WorstCase(), "WorstCase()"),
    (lambda: rk.CVaR(0.5), "CVaR(level=0.5)"),
    (lambda: rk.TimeOutside({0, 1}),
     "TimeOutside(acceptable=frozenset({0, 1}), cemetery_penalty=1e+18)"),
    (lambda: rk.ControlEffort((1, 2)),
     "ControlEffort(rates=(1.0, 2.0), cemetery_penalty=1e+18)"),
    (lambda: rk.TerminalMiss({1}, cemetery_penalty=5.0),
     "TerminalMiss(acceptable=frozenset({1}), cemetery_penalty=5.0)"),
    (lambda: rk.TabularCost([[0, 1]], [[2]]),
     "TabularCost(state_costs=array([[0., 1.]]), "
     "control_costs=array([[2.]]), cemetery_penalty=1e+18)"),
    (lambda: rk.RecoveryOffset({0}),
     "RecoveryOffset(acceptable=frozenset({0}), cemetery_penalty=1e+18)"),
    (lambda: rk.WorstCaseViolation({1}),
     "WorstCaseViolation(acceptable=frozenset({1}))"),
    (lambda: rk.Exceedance({0, 1}),
     "Exceedance(acceptable=frozenset({0, 1}))"),
    (lambda: rk.AmbiguityExceedance({0}, [[[0.5, 0.5]]]),
     "AmbiguityExceedance(acceptable=frozenset({0}), "
     "beliefs=(((0.5, 0.5),),))"),
    (lambda: rk.ExitCountFunctional({0}, rk.CVaR(0.25)),
     "ExitCountFunctional(acceptable=frozenset({0}), "
     "outer=CVaR(level=0.25))"),
    (lambda: rk.Composed(rk.ControlEffort(), rk.WorstCase()),
     "Composed(cost=ControlEffort(rates=None, cemetery_penalty=1e+18), "
     "outer=WorstCase())"),
]


def records():
    """The public record classes, by name."""
    return {
        name: getattr(rk, name) for name in rk.__all__
        if isinstance(getattr(rk, name), type)
        and dataclasses.is_dataclass(getattr(rk, name))
    }


def instances(m1):
    """One instance of every public record, by class name."""
    out = {type(x).__name__: x for x in (make() for make, _ in GOLDEN_REPRS)}
    strat = rk.constant_strategy(m1, 0)
    bundle = rk.build_bundle(m1, strat, 2)
    parsed = rk.parse_model((MODELS / "m1.model").read_text())
    for x in (
        m1, m1.time, m1.states, m1.controls, m1.uncertainty, parsed,
        rk.robust_viability_kernel(m1, A),
        rk.stochastic_viability_value(m1, A),
        rk.robust_recovery_table(m1, A, 1),
        rk.resilient_states(m1, 0, rk.Viability(A)),
        rk.minimize_risk(m1, 2, 0, rk.Viability(A),
                         rk.Composed(rk.ControlEffort(), rk.Expectation())),
        strat, strat.policies[0], bundle, bundle.trajectories[0],
    ):
        out[type(x).__name__] = x
    return out


def test_every_public_record_is_a_dataclass_with_declared_fields():
    assert set(records()) == set(FIELDS)
    for name, cls in records().items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name]
        assert cls.__match_args__ == FIELDS[name]


def test_one_instance_of_each_record(m1):
    classes = records()
    made = instances(m1)
    assert set(made) == set(classes)
    for name, x in made.items():
        assert type(x) is classes[name]


@pytest.mark.parametrize("make, text", GOLDEN_REPRS)
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text


def test_replace_reruns_post_init():
    regime = rk.StochasticViability({2, 3}, 0.5)
    moved = dataclasses.replace(regime, acceptable=[3])
    assert moved.acceptable == frozenset({3}) and moved.beta == 0.5
    assert dataclasses.replace(rk.ControlEffort(), rates=[1, 2]).rates == (
        1.0, 2.0
    )
    with pytest.raises(rk.InputError, match="horizon must be >= 1"):
        dataclasses.replace(rk.TimeGrid(3), horizon=0)


@record
class Tagged:
    # declared here, without `from __future__ import annotations`, so the
    # annotation is the frozenset type itself, not the string "frozenset"
    tags: frozenset
    weight: float = 1.0


# every regime and risk kind with a frozenset field, made from a set
# (`make(s)`), and the field's name
SET_SPECS = [
    (rk.Viability, "acceptable"),
    (lambda s: rk.RobustRecovery(s, 2), "acceptable"),
    (lambda s: rk.StochasticViability(s, 0.5), "acceptable"),
    (rk.Bounded, "region"),
    (lambda s: rk.ProbExcursion(s, 0.25), "region"),
    (lambda s: rk.AtMostKExits(s, 1), "region"),
    (rk.ControlEvent, "controls"),
    (rk.TimeOutside, "acceptable"),
    (lambda s: rk.TerminalMiss(s, cemetery_penalty=5.0), "acceptable"),
    (rk.RecoveryOffset, "acceptable"),
    (rk.WorstCaseViolation, "acceptable"),
    (rk.Exceedance, "acceptable"),
    (lambda s: rk.AmbiguityExceedance(s, [[[0.5, 0.5]]]), "acceptable"),
    (lambda s: rk.ExitCountFunctional(s, rk.CVaR(0.25)), "acceptable"),
]


@pytest.mark.parametrize("given", [[1, 2, 2], {1, 2}, frozenset({1, 2})],
                         ids=["list", "set", "frozenset"])
def test_record_freezes_its_set_fields(given):
    made = [
        Tagged(given),
        Tagged(given, 2.0),
        Tagged(tags=given),
        Tagged(weight=2.0, tags=given),
        dataclasses.replace(Tagged(()), tags=given),
        dataclasses.replace(Tagged(given), weight=3.0),
    ]
    for x in made:
        assert type(x.tags) is frozenset and x.tags == frozenset({1, 2})
    for make, field in SET_SPECS:
        for x in (make(given), dataclasses.replace(make(()), **{
                field: given})):
            assert type(getattr(x, field)) is frozenset
            assert getattr(x, field) == frozenset({1, 2})


@pytest.mark.parametrize("make, field", SET_SPECS)
def test_set_fields_keep_repr_equality_and_hash(make, field):
    # a spec made from a list is the spec made from a frozenset: the same
    # repr, equal, and hashed by its field tuple as a frozen dataclass is
    listed, frozen = make([1, 0, 1]), make(frozenset({0, 1}))
    assert repr(listed) == repr(frozen)
    assert "frozenset({0, 1})" in repr(listed)
    assert listed == frozen and hash(listed) == hash(frozen)
    values = tuple(getattr(listed, f.name) for f in dataclasses.fields(listed))
    assert hash(listed) == hash(values)
    assert listed != dataclasses.replace(frozen, **{field: {1}})


def test_set_field_needs_an_iterable():
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        rk.Viability(5)
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        rk.Bounded([[0]])


def test_replace_then_validation_rejects_a_bad_beta(m1):
    bad = dataclasses.replace(rk.StochasticViability(A, 0.5), beta=1.5)
    with pytest.raises(rk.InputError, match="beta 1.5 outside"):
        rk.validate_regime(m1, bad)
    with pytest.raises(TypeError, match="unexpected keyword argument 'alpha'"):
        dataclasses.replace(rk.CVaR(0.5), alpha=0.2)


def test_value_records_compare_and_hash_by_fields(m1):
    made = instances(m1)
    for name in VALUE:
        x = made[name]
        twin = dataclasses.replace(x)
        assert twin is not x and twin == x and not twin != x
        assert hash(twin) == hash(x)
        assert hash(x) == hash(tuple(getattr(x, f) for f in FIELDS[name]))
        assert x != object() and x.__eq__(object()) is NotImplemented
    assert rk.CVaR(0.5) != rk.CVaR(0.25)
    # same fields, different classes
    assert rk.Exceedance(A) != rk.WorstCaseViolation(A)
    assert rk.Expectation() != rk.WorstCase()
    assert len({rk.Viability(A), rk.Viability(set(A)), rk.Bounded(A)}) == 2


def test_identity_records_compare_by_identity(m1):
    for name, x in instances(m1).items():
        if name in VALUE or name == "TabularCost":
            continue
        twin = dataclasses.replace(x)
        assert x == x and twin != x
        assert hash(x) == object.__hash__(x)
    costs = rk.TabularCost([[0, 1]], [[2]])
    assert costs == rk.TabularCost([[0, 1]], [[2]])
    with pytest.raises(TypeError, match="unhashable"):
        hash(costs)


def test_records_are_frozen(m1):
    for name, x in instances(m1).items():
        for field in FIELDS[name] + ("other",):
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot assign to field '{field}'"):
                setattr(x, field, 1)
            with pytest.raises(dataclasses.FrozenInstanceError,
                               match=f"cannot delete field '{field}'"):
                delattr(x, field)


def test_construction_by_keyword_position_and_default():
    by_position = rk.Trajectory(0, (1, 2), (0,), (1,))
    by_keyword = rk.Trajectory(scenario=(1,), controls=(0,), states=(1, 2),
                               start=0)
    mixed = rk.Trajectory(0, (1, 2), scenario=(1,), controls=(0,))
    for t in (by_keyword, mixed):
        assert [getattr(t, f) for f in FIELDS["Trajectory"]] == [
            getattr(by_position, f) for f in FIELDS["Trajectory"]
        ]
    assert rk.TimeOutside(A).cemetery_penalty == rk.CEMETERY_PENALTY
    assert rk.TimeOutside(A, 2.0) == rk.TimeOutside(A, cemetery_penalty=2.0)
    assert rk.UncertaintyStructure((("0", "1"),)).robust == ((0, 1),)


@pytest.mark.parametrize("make, message", [
    (lambda: rk.Trajectory(0, (1,), ()),
     "Trajectory.__init__() missing 1 required positional argument: "
     "'scenario'"),
    (lambda: rk.Stabilize(),
     "Stabilize.__init__() missing 3 required positional arguments: "
     "'target', 'radius', and 'window'"),
    (lambda: rk.RobustRecovery(),
     "RobustRecovery.__init__() missing 2 required positional arguments: "
     "'acceptable' and 'deadline'"),
    (lambda: rk.TimeOutside(cemetery_penalty=1.0),
     "TimeOutside.__init__() missing 1 required positional argument: "
     "'acceptable'"),
    (lambda: rk.Viability(A, A),
     "Viability.__init__() takes 2 positional arguments but 3 were given"),
    (lambda: rk.Expectation(1),
     "Expectation.__init__() takes 1 positional argument but 2 were given"),
    (lambda: rk.TimeOutside(A, 1.0, 2.0),
     "TimeOutside.__init__() takes from 2 to 3 positional arguments but 4 "
     "were given"),
    (lambda: rk.CVaR(lvl=0.5),
     "CVaR.__init__() got an unexpected keyword argument 'lvl'"),
    (lambda: rk.CVaR(0.5, level=0.5),
     "CVaR.__init__() got multiple values for argument 'level'"),
])
def test_bad_arguments_raise_type_error(make, message):
    with pytest.raises(TypeError) as err:
        make()
    assert str(err.value) == message


def test_importing_resilkit_compiles_no_dataclass_methods():
    # a frozen dataclass execs its generated methods when its class is
    # made; records install shared functions instead
    code = textwrap.dedent("""
        import argparse, builtins, dataclasses, json, sys
        import numpy
        calls = 0
        real_exec = builtins.exec
        def counting_exec(*args, **kwargs):
            global calls
            if sys._getframe(1).f_globals.get("__name__") == "dataclasses":
                calls += 1
            return real_exec(*args, **kwargs)
        builtins.exec = counting_exec
        import resilkit.cli
        builtins.exec = real_exec
        assert "resilkit.risk" in sys.modules
        print(calls)
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"

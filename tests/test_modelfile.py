"""Model file parsing, validation errors with line numbers, and the
canonical serializer (parse-serialize-parse identity, serializer as a fixed
point on the shipped fixtures)."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from conftest import M1_ACCEPTABLE, build_m1

A = M1_ACCEPTABLE
MODELS = Path(__file__).resolve().parent.parent / "models"
FIXTURES = (
    "m1.model",
    "m1_effort.model",
    "m1_benign.model",
    "m1_top.model",
    "m2_plant.model",
    "m3_grid.model",
    "m4_belief.model",
)


def load(name):
    return (MODELS / name).read_text()


# a tiny well-formed file the error cases below mutate
BASE = """\
[time]
horizon = 2

[states]
a
b

[controls]
u

[uncertainty]
set * = 0 1

[dynamics]
* a u 0 -> a
* a u 1 -> b
* b u 0 -> b
* b u 1 -> a

[regime]
kind = bounded
region = a b
"""


def test_base_text_parses():
    parsed = rk.parse_model(BASE)
    assert parsed.model.horizon == 2
    assert parsed.regime == rk.Bounded({0, 1})
    assert parsed.risk is None


# ------------------------------------------------------------- fixtures


def test_reservoir_fixture():
    parsed = rk.parse_model(load("m1.model"))
    assert rk.models_equal(parsed.model, build_m1())
    assert parsed.regime == rk.Viability(A)
    assert parsed.risk == rk.Exceedance(A)


def test_effort_fixture():
    parsed = rk.parse_model(load("m1_effort.model"))
    assert parsed.regime == rk.StochasticViability(A, 1.0)
    assert parsed.risk == rk.Composed(rk.ControlEffort(), rk.Expectation())


def test_benign_fixture():
    parsed = rk.parse_model(load("m1_benign.model"))
    assert parsed.model.uncertainty.robust == ((0,), (0,), (0,))
    assert parsed.regime == rk.RobustRecovery(A, 3)
    assert parsed.risk == rk.Composed(rk.RecoveryOffset(A), rk.WorstCase())


def test_plant_fixture():
    parsed = rk.parse_model(load("m2_plant.model"))
    model = parsed.model
    assert model.states.labels == ("L", "M", "H")
    assert model.states.coords.tolist() == [[0, 0], [1, 0], [2, 1]]
    assert model.uncertainty.probs == ((0.7, 0.3), (0.6, 0.4))
    assert model.uncertainty.robust == ((0,), (0,))
    # pushing at high pressure is constrained away and lethal anyway
    assert model.constraints[0, 2].tolist() == [True, False]
    assert model.dynamics[0, 2, 1, 0] == model.cemetery
    assert parsed.regime == rk.Stabilize(1, 0.5, 1)
    assert isinstance(parsed.risk, rk.Composed)
    assert isinstance(parsed.risk.outer, rk.CVaR)
    assert parsed.risk.outer.level == 0.4
    cost = parsed.risk.cost
    assert cost.cemetery_penalty == 1000.0
    assert cost.state_costs[:, 2].tolist() == [2.0, 2.0, 2.0]
    assert cost.control_costs.tolist() == [[0.0, 1.5], [0.0, 0.5]]


def test_grid_fixture():
    parsed = rk.parse_model(load("m3_grid.model"))
    model = parsed.model
    assert not model.uncertainty.has_probs
    assert model.robust_scenarios == ((0, 0), (1, 1))
    assert model.scenario_probs == {
        (0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.2, (1, 1): 0.3,
    }
    assert parsed.regime == rk.AtMostKExits({0}, 1)
    assert parsed.risk == rk.ExitCountFunctional({0}, rk.WorstCase())


def test_belief_fixture():
    parsed = rk.parse_model(load("m4_belief.model"))
    assert parsed.model.horizon == 1
    assert parsed.risk == rk.AmbiguityExceedance(
        {0}, (((1.0, 0.0),), ((0.25, 0.75),))
    )
    assert parsed.regime == rk.RiskContainment(parsed.risk, 0.5)


def test_keep_strategy_fixture():
    model = build_m1()
    text = (MODELS / "m1_keep.strategy").read_text()
    strat = rk.strategy_from_text(model, text)
    assert rk.strategies_equal(strat, rk.markov_strategy(model, [[0, 0, 1, 0]] * 3))
    assert rk.strategy_to_text(model, strat) == text


# ------------------------------------------------------------ round-trip


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name):
    first = rk.parse_model(load(name))
    text = rk.serialize_model(first.model, first.regime, first.risk)
    second = rk.parse_model(text)
    assert rk.models_equal(first.model, second.model)
    assert first.regime == second.regime
    assert first.risk == second.risk
    # the canonical form is a fixed point
    assert rk.serialize_model(second.model, second.regime, second.risk) == text


def test_serializer_covers_remaining_kinds():
    model = build_m1()
    cases = [
        (rk.Bounded({1, 2}), rk.WorstCaseViolation(A)),
        (rk.ProbExcursion(A, 0.25),
         rk.Composed(rk.TimeOutside({2}), rk.Expectation())),
        (rk.ControlEvent({1}),
         rk.Composed(rk.TerminalMiss({3}, cemetery_penalty=5.0), rk.WorstCase())),
        (rk.Viability(A),
         rk.Composed(rk.ControlEffort(rates=(0.5, 2.0)), rk.CVaR(0.7))),
        (rk.StochasticViability(A, 0.75), None),
        (rk.Viability(A),
         rk.AmbiguityExceedance(A, (((0.5, 0.5),) * 3, ((1.0, 0.0),) * 3))),
        (rk.Bounded(A), rk.ExitCountFunctional(A, rk.CVaR(0.5))),
    ]
    for regime, risk in cases:
        text = rk.serialize_model(model, regime, risk)
        parsed = rk.parse_model(text)
        assert rk.models_equal(parsed.model, model)
        assert parsed.regime == regime
        assert parsed.risk == risk
        assert rk.serialize_model(parsed.model, parsed.regime, parsed.risk) == text


def test_serializer_risk_containment():
    model = build_m1()
    measure = rk.Exceedance(A)
    regime = rk.RiskContainment(measure, 0.1)
    parsed = rk.parse_model(rk.serialize_model(model, regime, measure))
    assert parsed.regime == regime
    assert parsed.risk == measure


def test_serializer_emits_robust_lines_only_for_proper_subsets():
    full = rk.serialize_model(build_m1(), rk.Viability(A))
    assert "robust" not in full
    benign = rk.serialize_model(build_m1(robust=(0,)), rk.Viability(A))
    assert "robust 0 = 0" in benign


def test_serializer_rejects_foreign_objects():
    model = build_m1()
    with pytest.raises(rk.ModelFormatError, match="cannot serialize regime"):
        rk.serialize_model(model, "viability")
    with pytest.raises(rk.ModelFormatError, match="cannot serialize risk"):
        rk.serialize_model(model, rk.Viability(A), risk="exceedance")


def test_regime_state_set():
    assert rk.regime_state_set(rk.Viability(A)) == A
    assert rk.regime_state_set(rk.RobustRecovery(A, 2)) == A
    assert rk.regime_state_set(rk.StochasticViability(A, 0.5)) == A
    assert rk.regime_state_set(rk.Bounded({1})) == {1}
    assert rk.regime_state_set(rk.ProbExcursion({1}, 0.5)) == {1}
    assert rk.regime_state_set(rk.AtMostKExits({1}, 0)) == {1}
    assert rk.regime_state_set(rk.ControlEvent({0})) is None
    assert rk.regime_state_set(rk.Stabilize(1, 0.5, 1)) is None


# ---------------------------------------------------------- error cases


def expect(text, pattern):
    with pytest.raises(rk.ModelFormatError, match=pattern):
        rk.parse_model(text)


def test_section_errors():
    expect(BASE + "\n[extra]\n", r"unknown section \[extra\]; expected one of:")
    expect(BASE + "\n[time]\nhorizon = 2\n", r"duplicate section \[time\]")
    expect("horizon = 2\n" + BASE, "content before any section")
    expect(BASE.replace("[dynamics]", "[constraints]"),
           r"missing required section \[dynamics\]")


def test_time_errors():
    expect(BASE.replace("horizon = 2", "horizon = 0"), "horizon must be >= 1")
    expect(BASE.replace("horizon = 2", "steps = 2"),
           "line 2: unknown time key 'steps'")
    expect(BASE.replace("horizon = 2", ""), "missing `horizon =")
    expect(BASE.replace("horizon = 2", "horizon = three"),
           "bad horizon 'three'")


def test_space_errors():
    expect(BASE.replace("a\nb", "a\na"), "line 6: duplicate state label 'a'")
    expect(BASE.replace("a\nb", "CEMETERY\nb"), "label 'CEMETERY' is reserved")
    expect(BASE.replace("a\nb", "a 0\nb"), "inconsistent coordinate counts")
    expect(BASE.replace("a\nb", "a 0\nb x"), "bad coordinate 'x'")
    expect(BASE.replace("[controls]\nu", "[controls]"),
           r"\[controls\] section is empty")


def test_uncertainty_errors():
    expect(BASE.replace("set * = 0 1", "noise * = 0 1"),
           "unknown uncertainty line")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nset 0 = 0"),
           "duplicate `set` for time 0")
    expect(BASE.replace("set * = 0 1", "set 0 = 0 1"),
           "no uncertainty set declared for time 1")
    expect(BASE.replace("set * = 0 1", "set * = 0 0"),
           "duplicate uncertainty labels at time 0")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nprob * = 1.0"),
           "probabilities at time 0 have length 1, expected 2")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nprob * = 0.6 0.6"),
           "probabilities at time 0 sum to 1.2, expected 1")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nprob 0 = 0.5 0.5"),
           r"line 13: probabilities missing at times \[1\]")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nrobust * = z"),
           "unknown uncertainty label 'z' at time 0")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nrobust_scenario = 0"),
           "scenario has 1 entries, expected 2")
    expect(BASE.replace("set * = 0 1", "set * = 0 1\nscenario_prob = 0 0"),
           "expected `scenario_prob")
    joint = "set * = 0 1\nscenario_prob = 0 0 : 0.5\nscenario_prob = 0 0 : 0.5"
    expect(BASE.replace("set * = 0 1", joint), "duplicate scenario_prob")


def test_joint_distribution_must_sum_to_one():
    bad = BASE.replace(
        "set * = 0 1",
        "set * = 0 1\nscenario_prob = 0 0 : 0.4\nscenario_prob = 1 1 : 0.4",
    )
    with pytest.raises(rk.ModelFormatError,
                       match="line 13: scenario probabilities sum to 0.8"):
        rk.parse_model(bad)


def test_dynamics_errors():
    expect(BASE.replace("* a u 0 -> a", "* a u 0 a"), "expected `t x u w -> state`")
    expect(BASE.replace("* a u 0 -> a", "* a u -> a"), "expected `t x u w -> state`")
    expect(BASE.replace("* a u 0 -> a", "* a u 0 -> z"),
           "unknown state label 'z'")
    expect(BASE.replace("* a u 0 -> a", "* a v 0 -> a"),
           "unknown control label 'v'")
    expect(BASE.replace("* a u 0 -> a", "* a u 9 -> a"),
           "unknown uncertainty label '9' at time 0")
    expect(BASE.replace("* a u 0 -> a", "* CEMETERY u 0 -> a"),
           "no dynamics rows at the cemetery")
    expect(BASE.replace("* a u 0 -> a", "5 a u 0 -> a"), r"time 5 outside 0\.\.1")
    expect(BASE + "[dynamics]\n", r"duplicate section \[dynamics\]")
    expect(BASE.replace("* a u 1 -> b", "* a u 1 -> b\n0 a u 1 -> b"),
           r"duplicate dynamics row for \(t=0, x=a, u=u, w=1\)")
    expect(BASE.replace("* b u 1 -> a\n", ""),
           r"dynamics not total at \(t=0, x=b, u=u, w=1\)")


def test_constraints_errors():
    def with_con(row):
        return BASE.replace("[regime]", f"[constraints]\n{row}\n\n[regime]")

    expect(with_con("* a ->"), "empty admissible control set")
    expect(with_con("* z -> u"), "unknown state label 'z'")
    expect(with_con("* a -> v"), "unknown control label 'v'")
    expect(with_con("* a u"), "expected `t x -> controls`")
    expect(with_con("* a -> u\n0 a -> u"),
           r"duplicate constraints row for \(t=0, x=a\)")


def test_regime_errors():
    expect(BASE.replace("kind = bounded", "kind = flow"),
           "unknown regime kind 'flow'; expected one of:")
    expect(BASE.replace("region = a b", ""), r"\[regime\] is missing `region =")
    expect(BASE.replace("region = a b", "region = a z"),
           "unknown state label 'z'")
    expect(BASE.replace("region = a b", "region = a b\ncolour = red"),
           r"unknown \[regime\] key 'colour'; expected one of:")
    expect(BASE.replace("region = a b", "region = a b\nbelief 0 * = 1.0"),
           r"belief lines belong in \[risk\]")
    expect(
        BASE.replace("kind = bounded\nregion = a b",
                     "kind = stabilize\ntarget = z\nradius = 1\nwindow = 1"),
        "unknown state label 'z'",
    )
    expect(
        BASE.replace("kind = bounded\nregion = a b",
                     "kind = risk_containment\nlevel = 0.5"),
        r"requires a \[risk\] section",
    )


def with_risk(lines):
    return BASE + "\n[risk]\n" + lines + "\n"


def test_risk_errors():
    expect(with_risk("kind = entropy"), "unknown risk kind 'entropy'")
    expect(with_risk("kind = exceedance"), r"\[risk\] is missing `acceptable =")
    expect(with_risk("kind = exceedance\nacceptable = a\ncost = tabular"),
           "`cost =` only applies to kind composed")
    expect(with_risk("kind = exit_count\nacceptable = a\nouter = median"),
           "unknown outer 'median'; expected one of:")
    expect(with_risk("kind = exit_count\nacceptable = a\nouter = cvar"),
           r"\[risk\] is missing `alpha =")
    expect(with_risk("kind = composed\ncost = fuel\nouter = expectation"),
           "unknown cost 'fuel'; expected one of:")
    expect(
        with_risk("kind = composed\ncost = control_effort\n"
                  "effort = 1 2\nouter = expectation"),
        "2 effort rates for 1 controls",
    )
    expect(
        with_risk("kind = exit_count\nacceptable = a\nouter = worst_case\n"
                  "belief 0 * = 1.0 0.0"),
        "belief lines only apply to kind ambiguity_exceedance",
    )
    expect(with_risk("kind = ambiguity_exceedance\nacceptable = a"),
           "ambiguity_exceedance needs belief lines")
    expect(
        with_risk("kind = ambiguity_exceedance\nacceptable = a\n"
                  "belief 0 * = 1.0 0.0\nbelief 0 0 = 1.0 0.0"),
        "duplicate belief 0 vector for time 0",
    )
    expect(
        with_risk("kind = ambiguity_exceedance\nacceptable = a\n"
                  "belief 0 0 = 1.0 0.0"),
        "belief 0 is missing a vector for time 1",
    )
    expect(
        with_risk("kind = ambiguity_exceedance\nacceptable = a\n"
                  "belief 0 * = 1.0"),
        "belief 0 probabilities at time 0 have length 1, expected 2",
    )
    expect(
        with_risk("kind = ambiguity_exceedance\nacceptable = a\n"
                  "belief 0 = 1.0 0.0"),
        r"expected `belief <i> <t\|\*> = p",
    )


def test_cost_section_errors():
    head = with_risk("kind = composed\ncost = tabular\nouter = expectation")

    def with_cost(rows):
        return head + "\n[cost]\n" + rows + "\n"

    expect(BASE + "\n[cost]\nstate * a = 1.0\n",
           r"\[cost\] section requires a \[risk\] section")
    expect(with_cost("state 0 a"), "expected `key = value`, got 'state 0 a'")
    expect(with_cost("fuel 0 a = 1.0"), r"expected `state\|control")
    expect(with_cost("state * CEMETERY = 1.0"), "no cost rows at the cemetery")
    expect(with_cost("state 3 a = 1.0"), r"time 3 outside 0\.\.2")
    expect(with_cost("state * a = 1.0\nstate 0 a = 2.0"),
           r"duplicate state cost for \(t=0, x=a\)")
    expect(with_cost("control * u = 1.0\ncontrol 1 u = 2.0"),
           r"duplicate control cost for \(t=1, u=u\)")
    expect(with_cost("state 0 z = 1.0"), "unknown state label 'z'")
    expect(with_cost("control 0 v = 1.0"), "unknown control label 'v'")


def test_error_lines_are_reported():
    # the duplicate label sits on line 6 of BASE
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(BASE.replace("a\nb", "a\na"))
    assert err.value.line == 6
    assert str(err.value).startswith("line 6:")


# One malformed file per raise site of the structural readers ([time],
# [uncertainty], [dynamics], [constraints], [cost] and belief rows), with the
# full message
# and line each one reports: (old text of BASE, its replacement, message,
# line). "+risk" and "+cost" name a section appended to BASE.

TABULAR = "\n[risk]\nkind = composed\ncost = tabular\nouter = expectation\n"
AMBIGUITY = "\n[risk]\nkind = ambiguity_exceedance\nacceptable = a\n"
SET = "set * = 0 1"
CON = "[regime]"


def corpus_text(old, new):
    if old == "+cost":
        return BASE + TABULAR + "\n[cost]\n" + new + "\n"
    if old == "+belief":
        return BASE + AMBIGUITY + new + "\n"
    if old == CON:
        return BASE.replace(CON, f"[constraints]\n{new}\n\n{CON}")
    assert old in BASE
    return BASE.replace(old, new, 1)


READER_ERRORS = [
    ("horizon = 2", "horizon = 0", "horizon must be >= 1, got 0", 2),
    ("horizon = 2", "horizon = 2\nhorizon = 3", "duplicate key 'horizon'", 3),
    ("a\nb", "a\nCEMETERY", "label 'CEMETERY' is reserved", 6),
    ("u\n", "u\nCEMETERY\n", "label 'CEMETERY' is reserved", 10),
    (SET, SET + "\nrobust", "expected `key = value`, got 'robust'", 13),
    (SET, SET + "\nnoise * = 0", "unknown uncertainty line 'noise * = 0'", 13),
    (SET, SET + "\nset 0 = 0", "duplicate `set` for time 0", 13),
    (SET, SET + "\nset 9 = 0", "time 9 outside 0..1", 13),
    (SET, SET + "\nset t = 0", "bad time 't'", 13),
    (SET, "set 0 = 0 1", "no uncertainty set declared for time 1", None),
    (SET, "set * = 0 0", "duplicate uncertainty labels at time 0", 12),
    (SET, SET + "\nprob 1 = 0.5 x", "bad probability 'x'", 13),
    (SET, SET + "\nprob * = 1.0",
     "probabilities at time 0 have length 1, expected 2", 13),
    (SET, SET + "\nprob * = 0.6 0.6",
     "probabilities at time 0 sum to 1.2, expected 1", 13),
    (SET, SET + "\nprob 1 = 0.5 0.5",
     "probabilities missing at times [0]: declare them at every time or at "
     "none", 13),
    (SET, SET + "\nrobust 1 = 0 z", "unknown uncertainty label 'z' at time 1",
     13),
    (SET, SET + "\nrobust_scenario = 0", "scenario has 1 entries, expected 2",
     13),
    (SET, SET + "\nrobust_scenario = 0 z",
     "unknown uncertainty label 'z' at time 1", 13),
    (SET, SET + "\nscenario_prob = 0 0",
     "expected `scenario_prob = w ... w : p`", 13),
    (SET, SET + "\nscenario_prob = 0 0 : x", "bad probability 'x'", 13),
    (SET, SET + "\nscenario_prob = 0 : 1.0",
     "scenario has 1 entries, expected 2", 13),
    (SET, SET + "\nscenario_prob = z 0 : 1.0",
     "unknown uncertainty label 'z' at time 0", 13),
    (SET, SET + "\nscenario_prob = 0 0 : 0.5\nscenario_prob = 0 0 : 0.5",
     "duplicate scenario_prob entry", 14),
    (SET, SET + "\nscenario_prob = 0 0 : 0.5\nscenario_prob = 1 1 : 0.4",
     "scenario probabilities sum to 0.9, expected 1", 13),
    (SET, SET + "\nrobust_scenario = 0 1\nrobust_scenario = 0 1",
     "duplicate explicit robust scenario", 14),
    ("* a u 0 -> a", "* a u 0 a",
     "expected `t x u w -> state`, got '* a u 0 a'", 15),
    ("* a u 0 -> a", "* a u -> a",
     "expected `t x u w -> state`, got '* a u -> a'", 15),
    ("* a u 0 -> a", "* a u 0 -> b -> a",
     "expected `t x u w -> state`, got '* a u 0 -> b -> a'", 15),
    ("* a u 0 -> a", "* z v 9 -> q", "unknown state label 'q'", 15),
    ("* a u 0 -> a", "* z v 9 -> a", "unknown state label 'z'", 15),
    ("* a u 0 -> a", "* a v 9 -> a", "unknown control label 'v'", 15),
    ("* a u 0 -> a", "t CEMETERY u 0 -> a",
     "no dynamics rows at the cemetery", 15),
    ("* a u 0 -> a", "5 a u 0 -> a", "time 5 outside 0..1", 15),
    ("* a u 0 -> a", "t a u 9 -> a", "bad time 't'", 15),
    ("* a u 0 -> a", "* a u 9 -> a",
     "unknown uncertainty label '9' at time 0", 15),
    ("* b u 1 -> a", "* b u 1 -> a\n1 b u 1 -> a",
     "duplicate dynamics row for (t=1, x=b, u=u, w=1)", 19),
    ("* b u 1 -> a", "0 b u 1 -> a",
     "dynamics not total at (t=1, x=b, u=u, w=1)", None),
    ("* a u 1 -> b", "0 a u 1 -> b",
     "dynamics not total at (t=1, x=a, u=u, w=1)", None),
    (CON, "* a u", "expected `t x -> controls`, got '* a u'", 21),
    (CON, "* a b -> u", "expected `t x -> controls`, got '* a b -> u'", 21),
    (CON, "* CEMETERY ->", "unknown state label 'CEMETERY'", 21),
    (CON, "* z -> v", "unknown state label 'z'", 21),
    (CON, "* a ->", "empty admissible control set for state a", 21),
    (CON, "t a -> u v", "unknown control label 'v'", 21),
    (CON, "2 a -> u", "time 2 outside 0..1", 21),
    (CON, "* a -> u\n1 a -> u", "duplicate constraints row for (t=1, x=a)",
     22),
    ("region = a b", "region = a b\n\n[cost]\nstate * a = 1.0",
     "[cost] section requires a [risk] section", None),
    ("+cost", "state 0 a", "expected `key = value`, got 'state 0 a'", 30),
    ("+cost", "fuel 0 a = 1.0",
     "expected `state|control <t|*> <label> = v`, got 'fuel 0 a = 1.0'", 30),
    ("+cost", "state 0 a b = 1.0",
     "expected `state|control <t|*> <label> = v`, got 'state 0 a b = 1.0'",
     30),
    ("+cost", "state 0 z = x", "bad cost 'x'", 30),
    ("+cost", "state t z = 1.0", "unknown state label 'z'", 30),
    ("+cost", "state t CEMETERY = 1.0", "no cost rows at the cemetery", 30),
    ("+cost", "state 3 a = 1.0", "time 3 outside 0..2", 30),
    ("+cost", "state * a = 1.0\nstate 2 a = 2.0",
     "duplicate state cost for (t=2, x=a)", 31),
    ("+cost", "control t v = 1.0", "unknown control label 'v'", 30),
    ("+cost", "control 2 u = 1.0", "time 2 outside 0..1", 30),
    ("+cost", "control * u = 1.0\ncontrol 1 u = 2.0",
     "duplicate control cost for (t=1, u=u)", 31),
    ("+belief", "belief 0 = 1.0 0.0",
     "expected `belief <i> <t|*> = p...`, got 'belief 0'", 27),
    ("+belief", "belief x * = 1.0 0.0", "bad belief index 'x'", 27),
    ("+belief", "belief -1 * = 1.0 0.0", "bad belief index '-1'", 27),
    ("+belief", "belief 0 * = 1.0 x", "bad probability 'x'", 27),
    ("+belief", "belief 0 2 = 1.0 0.0", "time 2 outside 0..1", 27),
    ("+belief", "belief 0 * = 1.0 0.0\nbelief 0 1 = 1.0 0.0",
     "duplicate belief 0 vector for time 1", 28),
    ("+belief", "belief 0 * = 1.0",
     "belief 0 probabilities at time 0 have length 1, expected 2", 27),
    ("+belief", "", "ambiguity_exceedance needs belief lines", None),
    ("+belief", "belief 0 * = 1.0 0.0\nbelief 2 0 = 1.0 0.0",
     "belief 1 is missing a vector for time 0", None),
]


@pytest.mark.parametrize("row, value", [
    ("prob * = 1.5 -0.5", "-0.5"),
    ("prob 0 = nan nan", "nan"),
    ("prob * = inf 0", "inf"),
    ("scenario_prob = 0 0 : -0.5", "-0.5"),
    ("scenario_prob = 0 0 : nan", "nan"),
    ("belief 0 * = 1.5 -0.5", "-0.5"),
    ("belief 0 1 = nan nan", "nan"),
    ("belief 0 * = 1.0 0.0\nbelief 1 * = inf 0", "inf"),
])
def test_probabilities_must_be_finite_and_non_negative(row, value):
    if row.startswith("belief"):
        # the fault is on the last belief row
        text, line = corpus_text("+belief", row), 27 + row.count("\n")
    else:
        text, line = BASE.replace(SET, SET + "\n" + row), 13
    # the faulty row's vector, as the probability rule names it
    kind, *head = row.splitlines()[-1].partition("=")[0].split()
    what = "scenario probabilities"
    if kind != "scenario_prob":
        what = f"probabilities at time {head[-1].replace('*', '0')}"
    if kind == "belief":
        what = f"belief {head[0]} {what}"
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(text)
    assert err.value.line == line
    assert str(err.value) == (
        f"line {line}: {what} include {value} "
        "(each must be finite and non-negative)"
    )


def test_nan_probabilities_in_a_fixture_are_rejected():
    text = load("m1_effort.model")
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("prob"))
    lines[at] = "prob * = nan nan"
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model("\n".join(lines))
    assert err.value.line == at + 1


@pytest.mark.parametrize("old, new, message, line", READER_ERRORS)
def test_reader_errors_are_exact(old, new, message, line):
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(corpus_text(old, new))
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


def base_model(**probabilities):
    """BASE's system through the API, with the given probabilities."""
    return rk.make_model(2, ("a", "b"), ("u",), ("0", "1"),
                         lambda t, x, u, w: x ^ w, **probabilities)


def ambiguity(vec):
    """validate_risk of BASE's system under one belief: vec at each time."""
    spec = rk.AmbiguityExceedance({0}, ((tuple(vec),) * 2,))
    return lambda: rk.validate_risk(base_model(), spec)


BAD_VALUE = "(each must be finite and non-negative)"


# One fault per part of the probability rule, made once through the API and
# once in a file: (API call, the file's rows, the line cited, the one text
# both give). The `prob` and `scenario_prob` rows follow BASE's line 12, the
# belief rows its [risk] section.
@pytest.mark.parametrize("call, rows, line, message", [
    (lambda: base_model(probs=((1.5, -0.5),) * 2), "prob * = 1.5 -0.5", 13,
     f"probabilities at time 0 include -0.5 {BAD_VALUE}"),
    (lambda: base_model(probs=((1.0,),) * 2), "prob * = 1.0", 13,
     "probabilities at time 0 have length 1, expected 2"),
    (lambda: base_model(probs=((0.5, 0.5), (0.6, 0.6))),
     "prob 0 = 0.5 0.5\nprob 1 = 0.6 0.6", 14,
     "probabilities at time 1 sum to 1.2, expected 1"),
    (lambda: rk.UncertaintyStructure((("0", "1"),) * 2, ((0.5, 0.5), None)),
     "prob 0 = 0.5 0.5", 13,
     "probabilities missing at times [1]: declare them at every time or at "
     "none"),
    (lambda: base_model(scenario_probs={(0, 0): 1.0, (1, 1): math.inf}),
     "scenario_prob = 0 0 : 1.0\nscenario_prob = 1 1 : inf", 14,
     f"scenario probabilities include inf {BAD_VALUE}"),
    (lambda: base_model(scenario_probs={(0, 0): 0.5, (1, 1): 0.4}),
     "scenario_prob = 0 0 : 0.5\nscenario_prob = 1 1 : 0.4", 13,
     "scenario probabilities sum to 0.9, expected 1"),
    (ambiguity((0.5, math.nan)), "belief 0 * = 0.5 nan", 27,
     f"belief 0 probabilities at time 0 include nan {BAD_VALUE}"),
    (ambiguity((1.0,)), "belief 0 * = 1.0", 27,
     "belief 0 probabilities at time 0 have length 1, expected 2"),
    (ambiguity((0.25, 0.65)), "belief 0 * = 0.25 0.65", 27,
     "belief 0 probabilities at time 0 sum to 0.9, expected 1"),
], ids=["value", "length", "sum", "all-or-none", "joint-value", "joint-sum",
        "belief-value", "belief-length", "belief-sum"])
def test_probability_rule_gives_the_api_and_a_file_one_text(call, rows, line,
                                                             message):
    with pytest.raises(rk.InputError) as err:
        call()
    assert str(err.value) == message
    if rows.startswith("belief"):
        text = corpus_text("+belief", rows)
    else:
        text = corpus_text(SET, SET + "\n" + rows)
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(text)
    assert str(err.value) == f"line {line}: {message}"


def test_an_off_one_belief_fails_at_its_line():
    text = load("m4_belief.model")
    assert "belief 1 * = 0.25 0.75\n" in text
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(text.replace("0.25 0.75", "0.25 0.65"))
    assert str(err.value) == (
        "line 31: belief 1 probabilities at time 0 sum to 0.9, expected 1"
    )


# ------------------------------------------------------------ vocabulary
#
# Each kind of the [regime] and [risk] sections with its keys in file
# order: (key, good value, malformed value, the malformed value's message).

REGIME_NAMES = (
    "viability, robust_recovery, stochastic_viability, bounded, "
    "prob_excursion, at_most_k_exits, stabilize, control_event, "
    "risk_containment"
)
RISK_NAMES = (
    "worst_case_violation, exceedance, ambiguity_exceedance, exit_count, "
    "composed"
)
COST_NAMES = (
    "time_outside, control_effort, terminal_miss, tabular, recovery_offset"
)
OUTER_NAMES = "expectation, worst_case, cvar"
OPTIONAL_KEYS = ("effort", "cemetery_penalty")


def state_set_key(key):
    return (key, "a", "a z", "unknown state label 'z'")


def number_key(key, good="1"):
    return (key, good, "x", f"bad {key} 'x'")


def kind_key(noun, name, names):
    return ("kind", name, "flow",
            f"unknown {noun} kind 'flow'; expected one of: {names}")


REGIME_FIELDS = {
    "viability": [state_set_key("acceptable")],
    "robust_recovery": [state_set_key("acceptable"), number_key("deadline")],
    "stochastic_viability": [state_set_key("acceptable"),
                             number_key("beta", "0.5")],
    "bounded": [state_set_key("region")],
    "prob_excursion": [state_set_key("region"), number_key("beta", "0.5")],
    "at_most_k_exits": [state_set_key("region"), number_key("max_exits")],
    "stabilize": [("target", "a", "z", "unknown state label 'z'"),
                  number_key("radius", "0.5"), number_key("window")],
    "control_event": [("controls", "u", "u v", "unknown control label 'v'")],
    "risk_containment": [number_key("level", "0.5")],
}
COST_FIELDS = {
    "time_outside": [state_set_key("acceptable")],
    "control_effort": [("effort", "2.0", "x", "bad effort rate 'x'")],
    "terminal_miss": [state_set_key("acceptable")],
    "tabular": [],
    "recovery_offset": [state_set_key("acceptable")],
}
OUTER_FIELDS = {
    "expectation": [],
    "worst_case": [],
    "cvar": [number_key("alpha", "0.5")],
}


def outer_keys(name):
    return [("outer", name, "median",
             f"unknown outer 'median'; expected one of: {OUTER_NAMES}"),
            *OUTER_FIELDS[name]]


def vocabulary_cases():
    """(id, section, keys, lines that follow the keys)."""
    for name, fields in REGIME_FIELDS.items():
        extra = ("\n[risk]\nkind = exceedance\nacceptable = a\n"
                 if name == "risk_containment" else "")
        yield (f"regime.{name}", "regime",
               [kind_key("regime", name, REGIME_NAMES), *fields], extra)
    for name in ("worst_case_violation", "exceedance", "ambiguity_exceedance"):
        extra = "belief 0 * = 0.5 0.5\n" if name == "ambiguity_exceedance" else ""
        yield (f"risk.{name}", "risk",
               [kind_key("risk", name, RISK_NAMES),
                state_set_key("acceptable")], extra)
    for outer in OUTER_FIELDS:
        yield (f"risk.exit_count.{outer}", "risk",
               [kind_key("risk", "exit_count", RISK_NAMES),
                state_set_key("acceptable"), *outer_keys(outer)], "")
    for cost, fields in COST_FIELDS.items():
        yield (f"risk.composed.{cost}", "risk",
               [kind_key("risk", "composed", RISK_NAMES),
                ("cost", cost, "fuel",
                 f"unknown cost 'fuel'; expected one of: {COST_NAMES}"),
                *fields, number_key("cemetery_penalty", "5.0"),
                *outer_keys("cvar")], "")


def section_text(section, lines, extra):
    body = "\n".join(f"{key} = {value}" for key, value in lines)
    if section == "regime":
        return BASE.replace("kind = bounded\nregion = a b", body) + extra
    return BASE + "\n[risk]\n" + body + "\n" + extra


def expect_at(text, message, line):
    with pytest.raises(rk.ModelFormatError) as err:
        rk.parse_model(text)
    assert err.value.line == line
    prefix = "" if line is None else f"line {line}: "
    assert str(err.value) == prefix + message


def line_of(text, line):
    return text.splitlines().index(line) + 1


@pytest.mark.parametrize(
    "section, keys, extra",
    [case[1:] for case in vocabulary_cases()],
    ids=[case[0] for case in vocabulary_cases()],
)
def test_each_key_missing_or_malformed(section, keys, extra):
    good = [(key, value) for key, value, _, _ in keys]
    rk.parse_model(section_text(section, good, extra))
    for i, (key, _, bad, message) in enumerate(keys):
        text = section_text(section, good[:i] + good[i + 1:], extra)
        if key in OPTIONAL_KEYS:
            rk.parse_model(text)
        else:
            expect_at(text, f"[{section}] is missing `{key} =`", None)
        text = section_text(section, good[:i] + [(key, bad)] + good[i + 1:],
                            extra)
        expect_at(text, message, line_of(text, f"{key} = {bad}"))


def regime_text(lines):
    return BASE.replace("kind = bounded\nregion = a b", lines)


@pytest.mark.parametrize("text, message, line", [
    # each field's key is required, then its value decoded, in record
    # field order; the fields no key names (measure, beliefs) come last
    (regime_text("kind = robust_recovery\nacceptable = a z"),
     "unknown state label 'z'", "acceptable = a z"),
    (regime_text("kind = stabilize\ntarget = a\nradius = x"),
     "bad radius 'x'", "radius = x"),
    (regime_text("kind = risk_containment\nlevel = x"),
     "bad level 'x'", "level = x"),
    (with_risk("kind = ambiguity_exceedance\nacceptable = z\n"
               "belief 0 * = x"),
     "unknown state label 'z'", "acceptable = z"),
    (with_risk("kind = composed\ncost = terminal_miss\n"
               "cemetery_penalty = x\nouter = worst_case"),
     "[risk] is missing `acceptable =`", None),
], ids=["robust_recovery", "stabilize", "risk_containment",
        "ambiguity_exceedance", "composed"])
def test_two_faults_report_the_first_field_in_record_order(text, message,
                                                            line):
    expect_at(text, message, line and line_of(text, line))


def record_classes():
    """Every regime, risk, cost and outer record class resilkit defines."""
    regimes = {
        cls for cls in vars(rk.regimes).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == rk.regimes.__name__
    }
    return regimes | set(rk.risk.RISK_KINDS + rk.risk.COST_KINDS
                         + rk.risk.OUTER_KINDS)


def vocabulary_samples(model):
    """(regime, risk) pairs that use every record class between them."""
    n, K, nu = model.n_states, model.horizon, model.n_controls
    tabular = rk.TabularCost(
        np.arange((K + 1) * n, dtype=float).reshape(K + 1, n) / 4,
        np.eye(K, nu), cemetery_penalty=9.0,
    )
    measure = rk.Exceedance(A)
    return [
        (rk.Viability(A), rk.WorstCaseViolation(A)),
        (rk.RobustRecovery(A, 2), measure),
        (rk.StochasticViability(A, 0.75),
         rk.AmbiguityExceedance(A, (((0.5, 0.5),) * K, ((1.0, 0.0),) * K))),
        (rk.Bounded({1, 2}), rk.ExitCountFunctional(A, rk.Expectation())),
        (rk.ProbExcursion(A, 0.25), rk.ExitCountFunctional(A, rk.CVaR(0.5))),
        (rk.AtMostKExits(A, 1),
         rk.Composed(rk.TimeOutside({2}), rk.WorstCase())),
        (rk.Stabilize(2, 0.5, 1),
         rk.Composed(rk.ControlEffort((0.5, 2.0), 7.0), rk.CVaR(0.7))),
        (rk.ControlEvent({1}),
         rk.Composed(rk.TerminalMiss({3}, 5.0), rk.Expectation())),
        (rk.RiskContainment(measure, 0.1), measure),
        (rk.Viability(A), rk.Composed(tabular, rk.Expectation())),
        (rk.Viability(A), rk.Composed(rk.RecoveryOffset(A), rk.WorstCase())),
    ]


def same_spec(a, b):
    if isinstance(a, rk.TabularCost):
        return (type(b) is rk.TabularCost
                and np.array_equal(a.state_costs, b.state_costs)
                and np.array_equal(a.control_costs, b.control_costs)
                and a.cemetery_penalty == b.cemetery_penalty)
    if isinstance(a, rk.Composed):
        return (type(b) is rk.Composed and same_spec(a.cost, b.cost)
                and a.outer == b.outer)
    return a == b


def test_every_record_kind_round_trips():
    model = build_m1()
    samples = vocabulary_samples(model)
    used = set()
    for regime, risk in samples:
        used |= {type(regime), type(risk)}
        used |= {type(getattr(risk, f)) for f in ("cost", "outer")
                 if hasattr(risk, f)}
        text = rk.serialize_model(model, regime, risk)
        parsed = rk.parse_model(text)
        assert rk.models_equal(parsed.model, model)
        assert same_spec(regime, parsed.regime)
        assert same_spec(risk, parsed.risk)
        assert rk.serialize_model(parsed.model, parsed.regime,
                                  parsed.risk) == text
    assert used == record_classes()


def test_empty_key_is_a_format_error():
    expect_at(BASE.replace("region = a b", "region = a b\n= a"),
              "unknown [regime] key ''; expected one of: acceptable, beta, "
              "controls, deadline, kind, level, max_exits, radius, region, "
              "target, window", 23)
    text = with_risk("kind = exceedance\n= a")
    expect_at(text, "unknown [risk] key ''; expected one of: acceptable, "
              "alpha, cemetery_penalty, cost, effort, kind, outer",
              line_of(text, "= a"))
    expect_at(BASE.replace("set * = 0 1", "set * = 0 1\n= 0 1"),
              "unknown uncertainty line '= 0 1'", 13)


def test_negative_belief_index_is_rejected():
    text = with_risk("kind = ambiguity_exceedance\nacceptable = a\n"
                     "belief 0 * = 1.0 0.0\nbelief -1 * = 1.0 0.0")
    expect_at(text, "bad belief index '-1'",
              line_of(text, "belief -1 * = 1.0 0.0"))


@pytest.mark.parametrize("kind", ["worst_case_violation", "exceedance"])
def test_belief_lines_only_apply_to_ambiguity_exceedance(kind):
    text = with_risk(f"kind = {kind}\nacceptable = a\nbelief 0 * = 1.0 0.0")
    expect_at(text, "belief lines only apply to kind ambiguity_exceedance",
              line_of(text, "belief 0 * = 1.0 0.0"))


def test_serializer_writes_the_risk_containment_measure():
    model = build_m1()
    measure = rk.ExitCountFunctional(A, rk.CVaR(0.5))
    regime = rk.RiskContainment(measure, 0.25)
    text = rk.serialize_model(model, regime)
    assert text == rk.serialize_model(model, regime, measure)
    parsed = rk.parse_model(text)
    assert parsed.regime == regime
    assert parsed.risk == measure
    with pytest.raises(rk.ModelFormatError,
                       match="writes its measure as the \\[risk\\] section"):
        rk.serialize_model(model, regime, rk.Exceedance(A))


def test_cost_rows_need_the_tabular_cost():
    text = with_risk("kind = composed\ncost = time_outside\nacceptable = a\n"
                     "outer = expectation") + "\n[cost]\nstate * a = 1.0\n"
    expect_at(text, "[cost] section requires risk `kind = composed` with "
              "`cost = tabular`", line_of(text, "state * a = 1.0"))


def test_record_subclasses_keep_their_kind():
    class Region(rk.Bounded):
        pass

    model = build_m1()
    regime = Region({1, 2})
    assert rk.regime_state_set(regime) == {1, 2}
    text = rk.serialize_model(model, regime)
    assert text == rk.serialize_model(model, rk.Bounded({1, 2}))


@pytest.mark.parametrize("text, key, message", [
    (BASE + "deadline = 9\n", "deadline = 9",
     "[regime] key 'deadline' does not apply to kind = bounded"),
    (BASE + "beta = x\n", "beta = x",
     "[regime] key 'beta' does not apply to kind = bounded"),
    (with_risk("kind = exit_count\nacceptable = a\nouter = expectation\n"
               "alpha = 0.3"), "alpha = 0.3",
     "[risk] key 'alpha' does not apply to kind = exit_count, "
     "outer = expectation"),
    (with_risk("kind = exit_count\neffort = x\nacceptable = a\n"
               "outer = worst_case"), "effort = x",
     "[risk] key 'effort' does not apply to kind = exit_count, "
     "outer = worst_case"),
    (with_risk("kind = composed\ncost = terminal_miss\nacceptable = a\n"
               "outer = cvar\nalpha = 0.5\ncemetery_penalty = 2\n"
               "effort = 1"), "effort = 1",
     "[risk] key 'effort' does not apply to kind = composed, "
     "cost = terminal_miss, outer = cvar"),
])
def test_keys_the_chosen_kinds_do_not_read_are_rejected(text, key, message):
    # a stray key is reported at its own line, after every fault of the
    # keys the kinds read
    expect_at(text, message, line_of(text, key))
    bad = text.replace("region = a b", "region = z")
    expect(bad.replace("acceptable = a", "acceptable = z"),
           "unknown state label 'z'")

import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from resilkit.model import packed_tables, successor_planes
from resilkit.modelfile import parse_model

from conftest import build_m1, padded_twin, random_model


def test_spaces_basic(m1):
    assert m1.n_states == 4
    assert m1.n_controls == 2
    assert m1.horizon == 3
    assert m1.cemetery == 4
    assert m1.states.label(2) == "2"
    assert m1.states.label(4) == rk.CEMETERY_LABEL
    assert m1.states.index("3") == 3
    assert m1.states.index(rk.CEMETERY_LABEL) == 4
    # numeric labels double as 1-d coordinates
    assert m1.states.coords.shape == (4, 1)
    assert m1.states.coords[3, 0] == 3.0


def test_space_label_errors():
    with pytest.raises(rk.InputError):
        rk.StateSpace(("a", "a"))
    with pytest.raises(rk.InputError):
        rk.StateSpace((rk.CEMETERY_LABEL,))
    with pytest.raises(rk.InputError):
        rk.StateSpace(())


def test_non_numeric_labels_fall_back_to_index_coords():
    space = rk.StateSpace(("lo", "hi"))
    assert space.coords[0, 0] == 0.0
    assert space.coords[1, 0] == 1.0


def test_state_indices(m1):
    assert rk.state_indices(m1, ("2", "3")) == frozenset({2, 3})
    with pytest.raises(rk.InputError):
        rk.state_indices(m1, ("9",))
    with pytest.raises(rk.InputError):
        rk.state_indices(m1, (rk.CEMETERY_LABEL,))


def test_step_matches_rule(m1):
    for t, x, u, w in itertools.product(range(3), range(4), range(2), range(2)):
        assert rk.step(m1, t, x, u, w) == min(3, max(0, x + u - w))


def test_step_cemetery_absorbing(m1):
    for u, w in itertools.product(range(2), range(2)):
        assert rk.step(m1, 0, m1.cemetery, u, w) == m1.cemetery


def test_inadmissible_control_routes_to_cemetery():
    model = rk.make_model(
        horizon=2,
        state_labels=("0", "1"),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (0,),
    )
    assert rk.step(model, 0, 1, 1, 0) == model.cemetery
    assert rk.step(model, 0, 1, 0, 0) == 1
    assert rk.admissible_controls(model, 0, 1) == (0,)
    # every control is admissible at the cemetery
    assert rk.admissible_controls(model, 0, model.cemetery) == (0, 1)


def test_step_validates_ranges(m1):
    with pytest.raises(rk.InputError):
        rk.step(m1, 3, 0, 0, 0)
    with pytest.raises(rk.InputError):
        rk.step(m1, 0, 9, 0, 0)
    with pytest.raises(rk.InputError):
        rk.step(m1, 0, 0, 9, 0)
    with pytest.raises(rk.InputError):
        rk.step(m1, 0, 0, 0, 9)


def test_flow(m1):
    assert rk.flow(m1, 0, 2, (1, 0, 0), (0, 1, 1)) == (2, 3, 2, 1)
    assert rk.flow(m1, 1, 2, (1,), (0,)) == (2, 3)
    with pytest.raises(rk.InputError):
        rk.flow(m1, 0, 2, (1, 0), (0,))
    with pytest.raises(rk.InputError):
        rk.flow(m1, 1, 2, (1, 0, 0), (0, 0, 0))  # runs past the horizon


def test_dynamics_image_validated():
    dynamics = np.zeros((1, 2, 1, 1), dtype=np.int32)
    dynamics[0, 1, 0, 0] = 7
    with pytest.raises(rk.InputError, match="dynamics image"):
        rk.SystemModel(
            rk.TimeGrid(1),
            rk.StateSpace(("0", "1")),
            rk.ControlSpace(("0",)),
            rk.UncertaintyStructure((("0",),)),
            dynamics,
            np.ones((1, 2, 1), dtype=bool),
        )


def test_empty_constraint_row_rejected():
    constraints = np.ones((1, 2, 1), dtype=bool)
    constraints[0, 1, 0] = False
    with pytest.raises(rk.InputError, match="no admissible control"):
        rk.SystemModel(
            rk.TimeGrid(1),
            rk.StateSpace(("0", "1")),
            rk.ControlSpace(("0",)),
            rk.UncertaintyStructure((("0",),)),
            np.zeros((1, 2, 1, 1), dtype=np.int32),
            constraints,
        )


def test_probs_validated():
    with pytest.raises(rk.InputError, match="sum"):
        rk.UncertaintyStructure((("0", "1"),), ((0.6, 0.6),))
    with pytest.raises(rk.InputError):
        rk.UncertaintyStructure((("0", "1"),), ((1.2, -0.2),))
    with pytest.raises(rk.InputError):
        rk.UncertaintyStructure((("0", "1"),), ((1.0,),))


def test_nan_probabilities_are_rejected():
    nan = math.nan
    with pytest.raises(rk.InputError, match="at time 0 include nan"):
        rk.UncertaintyStructure((("0", "1"),), ((nan, nan),))
    with pytest.raises(rk.InputError, match="at time 0 include nan"):
        rk.make_model(1, ("a",), ("u",), ("0", "1"), lambda t, x, u, w: 0,
                      probs=[nan, nan])
    with pytest.raises(rk.InputError,
                       match="scenario probabilities include nan"):
        rk.make_model(1, ("a",), ("u",), ("0", "1"), lambda t, x, u, w: 0,
                      scenario_probs={(0,): nan})


def test_make_model_broadcasts_single_sequence(m1):
    assert m1.uncertainty.sets == (("0", "1"),) * 3
    assert m1.uncertainty.probs == ((0.5, 0.5),) * 3
    assert m1.uncertainty.robust == ((0, 1),) * 3


def test_scenario_enumeration_order(m1):
    scen = rk.enumerate_scenarios(m1)
    assert len(scen) == 8 == rk.count_scenarios(m1)
    assert scen == sorted(scen)
    assert scen[0] == (0, 0, 0)
    assert scen[-1] == (1, 1, 1)


def test_scenario_enumeration_robust_subset():
    model = build_m1(robust=(0,))
    assert rk.count_scenarios(model, robust_only=True) == 1
    assert rk.enumerate_scenarios(model, robust_only=True) == [(0, 0, 0)]
    assert rk.in_robust_set(model, (0, 0, 0))
    assert not rk.in_robust_set(model, (0, 1, 0))


def test_explicit_robust_scenarios_take_precedence():
    base = build_m1()
    model = rk.SystemModel(
        base.time,
        base.states,
        base.controls,
        base.uncertainty,
        base.dynamics,
        base.constraints,
        robust_scenarios=((0, 1, 0), (1, 1, 1)),
    )
    assert rk.enumerate_scenarios(model, robust_only=True) == [(0, 1, 0), (1, 1, 1)]
    assert rk.in_robust_set(model, (1, 1, 1))
    assert not rk.in_robust_set(model, (0, 0, 0))
    # full enumeration is unaffected
    assert rk.count_scenarios(model) == 8


def test_scenario_cap():
    with pytest.raises(rk.CapacityError):
        rk.enumerate_scenarios(build_m1(), cap=7)


def test_scenario_weight_product(m1):
    for scen in rk.enumerate_scenarios(m1):
        assert rk.scenario_weight(m1, scen) == pytest.approx(0.125, abs=0)
    weights = rk.scenario_weights(m1, rk.enumerate_scenarios(m1))
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_scenario_weight_requires_probs():
    model = build_m1(probs=None)
    with pytest.raises(rk.ConfigurationError):
        rk.scenario_weight(model, (0, 0, 0))


def test_joint_scenario_probs_take_precedence():
    base = build_m1()
    joint = {s: 0.0 for s in rk.enumerate_scenarios(base)}
    joint[(0, 0, 0)] = 0.25
    joint[(1, 1, 1)] = 0.75
    model = rk.SystemModel(
        base.time,
        base.states,
        base.controls,
        base.uncertainty,
        base.dynamics,
        base.constraints,
        scenario_probs=joint,
    )
    assert rk.scenario_weight(model, (1, 1, 1)) == 0.75
    assert rk.scenario_weight(model, (0, 1, 0)) == 0.0


def test_packed_tables(m1):
    dyn, ok = packed_tables(m1)
    assert dyn.shape == (3, 5, 2, 2)
    assert ok.shape == (3, 5, 2)
    assert (dyn[:, 4, :, :] == 4).all()
    assert ok[:, 4, :].all()
    assert dyn[0, 2, 1, 0] == 3
    # cached
    assert packed_tables(m1)[0] is dyn


def _assert_folded(model, planes):
    """planes is the fold of model's packed tables over w < |W_t|: the
    dynamics where the control is admissible, the cemetery elsewhere and
    from the cemetery row, read-only and C-ordered in the narrowest dtype."""
    dyn, ok = packed_tables(model)
    n = model.n_states
    assert len(planes) == model.horizon
    for t, plane in enumerate(planes):
        nw = model.uncertainty.size(t)
        want = np.where(ok[t, :, :, None] != 0, dyn[t, :, :, :nw], n)
        assert plane.dtype == np.min_scalar_type(n)
        assert plane.flags.c_contiguous and not plane.flags.writeable
        assert np.array_equal(plane, want.transpose(2, 0, 1))
        assert (plane[:, n] == n).all()  # the cemetery absorbs


def test_successor_planes_fold_inadmissible_to_cemetery():
    rng = np.random.default_rng(2117)
    twins = 0
    for _ in range(40):
        model = random_model(
            rng, max_states=6, max_controls=3, max_w=3, max_horizon=4,
            cemetery_rate=0.2,
        )
        twin = padded_twin(rng, model)
        for m in (model,) if twin is None else (model, twin):
            assert getattr(m, "_planes", None) is None  # built on first use
            planes = successor_planes(m)
            assert successor_planes(m) is planes  # and once
            assert all(p.dtype == np.uint8 for p in planes)
            # the padding w >= |W_t| is never read
            _assert_folded(model, planes)
        twins += twin is not None
    assert twins
    # the dtype holds n: 255 states fit uint8, 256 need uint16
    for n, dtype in ((255, np.uint8), (256, np.uint16)):
        dynamics = rng.integers(0, n + 1, size=(2, n, 2, 2), dtype=np.int32)
        constraints = rng.random((2, n, 2)) < 0.7
        constraints[:, :, 0] = True
        model = rk.SystemModel(
            rk.TimeGrid(2),
            rk.StateSpace(tuple(str(x) for x in range(n))),
            rk.ControlSpace(("a", "b")),
            rk.UncertaintyStructure((("0", "1"), ("0",))),
            dynamics,
            constraints,
        )
        planes = successor_planes(model)
        assert [p.dtype for p in planes] == [dtype, dtype]
        assert [p.shape for p in planes] == [(2, n + 1, 2), (1, n + 1, 2)]
        _assert_folded(model, planes)


def test_planes_layout_and_lazy_single_build():
    rng = np.random.default_rng(5)
    model = random_model(
        rng, min_states=3, max_states=6, max_controls=3, max_w=3,
        max_horizon=4, with_probs=True, cemetery_rate=0.2,
    )
    n = model.n_states
    packed_tables(model)
    # packed_tables is timed as setup; the planes are built on first use
    assert getattr(model, "_planes", None) is None
    acc = frozenset(range(n))
    rk.robust_viability_kernel(model, acc)
    planes = model._planes
    _assert_folded(model, planes)
    assert [p.shape for p in planes] == [
        (model.uncertainty.size(t), n + 1, model.n_controls)
        for t in range(model.horizon)
    ]
    assert getattr(model, "_least", None) is None
    # every sweep, scan, bundle and simulation reuses the one build
    rk.stochastic_viability_value(model, acc)
    rk.robust_recovery_table(model, acc, 1)
    rk.resilient_states(model, 0, rk.Viability(acc))
    rk.minimize_risk(
        model, 0, 0, rk.Viability(acc),
        rk.Composed(rk.TimeOutside(acc), rk.Expectation()), method="dp",
    )
    layout = rk.strategy.rank_layout(model, 0)
    strategy = rk.strategy_from_rank(model, layout.rank(layout.size - 1))
    rk.build_bundle(model, strategy, 0)
    rk.simulate_batch(
        planes, rk.markov_policy_array(model, strategy)[None],
        np.zeros((1, model.horizon), dtype=np.int32), 0,
    )
    assert model._planes is planes
    # witness fills read the least admissible control, cached on its own
    least = model._least
    assert least.dtype == np.int32 and not least.flags.writeable
    assert np.array_equal(least, model.constraints.argmax(axis=2))
    rk.resilient_states(model, 0, rk.RobustRecovery(acc, 1))
    assert model._least is least


def test_models_equal(m1):
    assert rk.models_equal(m1, build_m1())
    assert not rk.models_equal(m1, build_m1(robust=(0,)))
    assert not rk.models_equal(m1, build_m1(probs=None))


def test_random_models_construct_and_step():
    rng = np.random.default_rng(20240811)
    for _ in range(60):
        model = random_model(
            rng,
            with_probs=bool(rng.integers(2)),
            with_robust=bool(rng.integers(2)),
        )
        scen = rk.enumerate_scenarios(model)
        assert len(scen) == rk.count_scenarios(model)
        robust = rk.enumerate_scenarios(model, robust_only=True)
        assert set(robust) <= set(scen)
        for s in scen[:4]:
            states = rk.flow(
                model, 0, 0, tuple(0 for _ in range(model.horizon)), s
            )
            assert len(states) == model.horizon + 1
            assert all(0 <= x <= model.n_states for x in states)
        if model.uncertainty.has_probs:
            w = rk.scenario_weights(model, scen)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert math.isfinite(w.sum())


def _m1_from(dynamics_fn=None, constraints_fn=None):
    """m1 with its dynamics_fn or constraints_fn replaced."""
    return rk.make_model(
        3, ("0", "1", "2", "3"), ("0", "1"), ("0", "1"),
        dynamics_fn or (lambda t, x, u, w: min(3, max(0, x + u - w))),
        constraints_fn, probs=(0.5, 0.5),
    )


_A = {2, 3}
_KEEP = np.ones((3, 4), dtype=int)  # control 1 everywhere, from time 0
# one state, control and uncertainty value: one scenario, one strategy
_ONE = rk.make_model(1, ("a",), ("u",), ("w",), lambda t, x, u, w: x)
_STAY = rk.constant_strategy(_ONE, 0)
_SCANNED = rk.AtMostKExits({0}, 0)  # decided by the exhaustive scan
_CAP = "cap {} outside 0..inf"

# (row, call(model, v), what, out-of-range text of {}, out-of-range values):
# every index a public function or record accessor takes, read at v with
# every other argument fixed; v = 1 is in range in every row
INDEX_ROWS = [
    ("step t", lambda m, v: rk.step(m, v, 2, 0, 0),
     "time", "time {} out of range 0..2", (-1, 3)),
    ("step x", lambda m, v: rk.step(m, 0, v, 0, 0),
     "state index", "state index {} out of range", (-1, 5)),
    ("step u", lambda m, v: rk.step(m, 0, 2, v, 0),
     "control index", "control index {} out of range", (-1, 2)),
    ("step w", lambda m, v: rk.step(m, 0, 2, 0, v),
     "uncertainty index", "uncertainty index {} out of range at time 0",
     (-1, 2)),
    ("admissible_controls t", lambda m, v: rk.admissible_controls(m, v, 2),
     "time", "time {} out of range 0..2", (-1, 3)),
    ("admissible_controls x", lambda m, v: rk.admissible_controls(m, 0, v),
     "state index", "state index {} out of range", (-1, 5)),
    ("flow s", lambda m, v: rk.flow(m, v, 2, (1,), (0,)),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("flow x0", lambda m, v: rk.flow(m, 0, v, (), ()),
     "state index", "state index {} out of range", (-1, 5)),
    ("flow u", lambda m, v: rk.flow(m, 1, 2, (0, v), (0, 0)),
     "control index", "control index {} out of range", (-1, 2)),
    ("flow w", lambda m, v: rk.flow(m, 1, 2, (0, 0), (0, v)),
     "uncertainty index", "uncertainty index {} out of range at time 2",
     (-1, 2)),
    ("in_robust_set", lambda m, v: rk.in_robust_set(m, (v, 0, 0)),
     "scenario entry", "scenario entry {} out of range at time 0", (-1, 2)),
    ("scenario_weight", lambda m, v: rk.scenario_weight(m, [0, v, 0]),
     "scenario entry", "scenario entry {} out of range at time 1", (-1, 2)),
    ("robust list", lambda m, v: dataclasses.replace(
        m, robust_scenarios=((0, 0, v), (0, 0, 0))).robust_scenarios,
     "scenario entry", "scenario entry {} out of range at time 2", (-1, 2)),
    ("joint key", lambda m, v: dataclasses.replace(
        m, scenario_probs={(v, 0, 0): 1.0}).scenario_probs,
     "scenario entry", "scenario entry {} out of range at time 0", (-1, 2)),
    ("robust subset", lambda m, v: rk.UncertaintyStructure(
        m.uncertainty.sets, None, ((0, v), (0,), (1,))).robust,
     "robust subset at time 0 entry", "robust subset at time 0 out of range",
     (-1, 2)),
    ("dynamics_fn", lambda m, v: _m1_from(
        dynamics_fn=lambda t, x, u, w: v).dynamics,
     "dynamics_fn(0, 0, 0, 0) value",
     "dynamics image out of range at (t=0, x=0, u=0, w=0)", (-1, 5)),
    ("constraints_fn", lambda m, v: _m1_from(
        constraints_fn=lambda t, x: (v,)).constraints,
     "constraints_fn(0, 0) control", "constraints_fn(0, 0) control {} "
     "outside 0..1", (-1, 2)),
    ("simulate_closed_loop", lambda m, v: rk.simulate_closed_loop(
        m, rk.constant_strategy(m, 1), 2, (v, 0, 0)),
     "scenario entry", "scenario entry {} out of range at time 0", (-1, 2)),
    ("n_prefixes t", lambda m, v: rk.n_prefixes(m, v),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("n_prefixes base", lambda m, v: rk.n_prefixes(m, 3, v),
     "base", "base {} out of range 0..3", (-1, 4)),
    ("prefix_rank t", lambda m, v: rk.prefix_rank(m, v, (1, 1, 1)),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("prefix_rank base", lambda m, v: rk.prefix_rank(m, 3, (1, 1, 1), v),
     "base", "base {} out of range 0..3", (-1, 4)),
    ("prefix_rank entry", lambda m, v: rk.prefix_rank(m, 2, (1, v)),
     "scenario entry", "scenario entry {} out of range at time 1", (-1, 2)),
    ("strategy_from_rank", lambda m, v: rk.strategy_from_rank(m, v),
     "strategy rank", "strategy rank {} out of range 0..4095", (-1, 4096)),
    ("constant_strategy", lambda m, v: rk.constant_strategy(m, v),
     "control", "policy at time 0 uses an unknown control", (-1, 2)),
    ("Strategy.policy", lambda m, v: rk.markov_strategy(
        m, _KEEP[1:], 1).policy(v),
     "time", "no policy at time {}", (-1, 0, 3)),
    ("Trajectory.state", lambda m, v: rk.simulate_closed_loop(
        m, rk.markov_strategy(m, _KEEP), 2, (0, 1, 0), 1).state(v),
     "time", "no state at time {}; trajectory starts at 1", (-1, 0, 4)),
    ("Trajectory.control", lambda m, v: rk.simulate_closed_loop(
        m, rk.markov_strategy(m, _KEEP), 2, (0, 1, 0), 1).control(v),
     "time", "no control at time {}; trajectory starts at 1", (-1, 0, 3)),
    ("KernelTable.member_set", lambda m, v: rk.robust_viability_kernel(
        m, _A).member_set(v),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("ValueTable.resilient_set", lambda m, v: rk.stochastic_viability_value(
        m, _A).resilient_set(v, 0.5),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("RecoveryTable.resilient_set", lambda m, v: rk.robust_recovery_table(
        m, _A, 3).resilient_set(v),
     "time", "time {} out of range 0..3", (-1, 4)),
    ("TimeGrid", lambda m, v: rk.TimeGrid(v),
     "horizon", "horizon must be >= 1, got {}", (0, -1)),
    ("make_model horizon", lambda m, v: rk.make_model(
        v, ("a",), ("u",), ("w",), lambda t, x, u, w: x).time,
     "horizon", "horizon must be >= 1, got {}", (0, -1)),
    ("enumerate_scenarios cap", lambda m, v: rk.enumerate_scenarios(
        _ONE, cap=v), "cap", _CAP, (-1,)),
    ("enumerate_strategies cap", lambda m, v: list(rk.enumerate_strategies(
        _ONE, cap=v)), "cap", _CAP, (-1,)),
    ("build_bundle cap", lambda m, v: rk.build_bundle(_ONE, _STAY, 0, cap=v),
     "cap", _CAP, (-1,)),
    ("check_resilient cap", lambda m, v: rk.check_resilient(
        _ONE, _STAY, 0, 0, _SCANNED, cap=v), "cap", _CAP, (-1,)),
    ("resilient_states cap", lambda m, v: rk.resilient_states(
        _ONE, 0, _SCANNED, cap=v), "cap", _CAP, (-1,)),
    ("oracle_resilient_states cap", lambda m, v: rk.oracle_resilient_states(
        _ONE, 0, _SCANNED, cap=v), "cap", _CAP, (-1,)),
    ("minimize_risk cap", lambda m, v: rk.minimize_risk(
        _ONE, 0, 0, _SCANNED, rk.WorstCaseViolation({0}), cap=v),
     "cap", _CAP, (-1,)),
    ("oracle_min_risk cap", lambda m, v: rk.oracle_min_risk(
        _ONE, 0, 0, _SCANNED, rk.WorstCaseViolation({0}), cap=v),
     "cap", _CAP, (-1,)),
]


@pytest.mark.parametrize("row", INDEX_ROWS, ids=[r[0] for r in INDEX_ROWS])
def test_every_index_follows_the_index_rule(m1, row):
    """One index rule (model._check_index) for every index argument: numpy
    integers and True read as the int they equal, any other type raises
    "... is not an integer", and an out-of-range value raises the
    function's own out-of-range text."""
    _, call, what, outside, bad = row
    want = repr(call(m1, 1))
    for v in (np.int64(1), np.int32(1), True):
        assert repr(call(m1, v)) == want, v
    for v in (1.5, 1.0, 1.9, 2.0, "1"):
        with pytest.raises(rk.InputError, match="^" + re.escape(
                f"{what} {v!r} is not an integer") + "$"):
            call(m1, v)
    for v in bad:
        with pytest.raises(rk.InputError,
                           match="^" + re.escape(outside.format(v)) + "$"):
            call(m1, v)


def test_make_model_callbacks_follow_the_index_rule():
    # the cell that returned the value is named, not truncated or converted
    def dynamics(t, x, u, w):
        return 1.5 if (t, x, u, w) == (1, 2, 0, 1) else x

    with pytest.raises(rk.InputError, match=re.escape(
            "dynamics_fn(1, 2, 0, 1) value 1.5 is not an integer")):
        _m1_from(dynamics_fn=dynamics)
    with pytest.raises(rk.InputError, match=re.escape(
            "constraints_fn(2, 3) control '0' is not an integer")):
        _m1_from(constraints_fn=lambda t, x: ("0",) if (t, x) == (2, 3)
                 else (0,))
    # None still means the cemetery, and numpy integers their index
    model = _m1_from(dynamics_fn=lambda t, x, u, w: None if x == 0
                     else np.int64(x),
                     constraints_fn=lambda t, x: np.arange(2))
    assert rk.step(model, 0, 0, 0, 0) == model.cemetery
    assert rk.step(model, 0, 3, 1, 0) == 3


def _put(table, dtype, at, value):
    """`table` as a `dtype` array with `value` at index `at`."""
    out = np.array(table, dtype=dtype)
    out[at] = value
    return out


def _keep_bundle(m):
    return rk.build_bundle(m, rk.constant_strategy(m, 1), 2)


def _handed(make, *tables):
    """make(*tables) for writable arrays of the caller's in their stored
    dtypes: each stays writable, and zeroing it afterwards leaves what
    make returned as the twin (a call on fresh copies) makes it."""
    made = make(*tables)
    for table in tables:
        assert table.flags.writeable
        table[...] = 0
    return made


_NO_PICKS = np.full((3, 4), -1)
_COSTS = (np.arange(16).reshape(4, 4), np.ones((3, 2), dtype=int))
_INF_COSTS = ([[math.nan] * 4] * 4, [[math.inf, 0.0]] * 3)

# (row, call(m1), the InputError text, or the twin call(m1) whose answer
# the call gives): every table a public function or record takes. A fault
# row names the table and its first foreign value; a valid row hands the
# table in another integer or float dtype, or as nested lists, and its
# twin hands it in the stored dtype, which reads as it always did
TABLE_ROWS = [
    ("markov_strategy float", lambda m: rk.markov_strategy(m, [[0.7] * 4] * 3),
     "markov strategy table entry 0.7 is not an integer"),
    ("markov_strategy string", lambda m: rk.markov_strategy(
        m, [["1"] * 4] * 3), "markov strategy table entry '1' is not an "
     "integer"),
    ("markov_strategy range", lambda m: rk.markov_strategy(
        m, _put(_KEEP, np.uint8, (2, 3), 2)),
     "policy at time 2 uses an unknown control"),
    ("markov_strategy int64", lambda m: rk.markov_strategy(m, _KEEP),
     lambda m: rk.markov_strategy(m, _KEEP.astype(np.int32))),
    ("markov_strategy uint8", lambda m: rk.markov_strategy(
        m, _KEEP.astype(np.uint8)),
     lambda m: rk.markov_strategy(m, _KEEP.astype(np.int32))),
    ("markov_strategy lists", lambda m: rk.markov_strategy(m, _KEEP.tolist()),
     lambda m: rk.markov_strategy(m, _KEEP.astype(np.int32))),
    ("markov_strategy ragged", lambda m: rk.markov_strategy(
        m, [[0, 1, 0, 0], [0]]), "markov strategy table is ragged"),
    ("markov_strategy 0-d", lambda m: rk.markov_strategy(m, 1),
     "markov strategy table must be 2-d, got 0-d"),
    ("markov_strategy 1-d", lambda m: rk.markov_strategy(m, [0, 1, 0, 0]),
     "markov policy table must be 1-d, got 0-d"),
    ("markov_strategy 3-d", lambda m: rk.markov_strategy(
        m, _KEEP[:, :, None]), "markov policy table must be 1-d, got 2-d"),
    ("Policy float", lambda m: rk.Policy(0, rk.MARKOV, [1.9, 0, 0, 0]),
     "markov policy table entry 1.9 is not an integer"),
    ("Policy string", lambda m: rk.Policy(0, rk.MARKOV, ["1"] * 4),
     "markov policy table entry '1' is not an integer"),
    ("Policy past int32", lambda m: rk.Policy(0, rk.MARKOV, [2**40, 0, 0, 0]),
     "markov policy table entry 1099511627776 outside "
     "-2147483648..2147483647"),
    ("Policy None", lambda m: rk.Policy(0, rk.MARKOV, None),
     "markov policy table entry None is not an integer"),
    ("Policy bool", lambda m: rk.Policy(1, rk.ADAPTED, np.ones((4, 2), bool)),
     "adapted policy table entry np.True_ is not an integer"),
    ("Policy lists", lambda m: rk.Policy(1, rk.ADAPTED, [[1, 0]] * 4),
     lambda m: rk.Policy(1, rk.ADAPTED, np.array([[1, 0]] * 4, np.int32))),
    ("Policy own array", lambda m: _handed(
        lambda a: rk.Policy(0, rk.MARKOV, a), np.ones(4, np.int32)),
     lambda m: rk.Policy(0, rk.MARKOV, np.ones(4, np.int32))),
    ("markov_strategy own array", lambda m: _handed(
        lambda a: rk.markov_strategy(m, a), _KEEP.astype(np.int32)),
     lambda m: rk.markov_strategy(m, _KEEP.astype(np.int32))),
    ("fill_policy float", lambda m: rk.fill_policy(m, np.full((3, 4), 1.5), 0),
     "picks table entry 1.5 is not an integer"),
    ("fill_policy nan", lambda m: rk.fill_policy(
        m, np.full((3, 4), math.nan), 0), "picks table entry nan is not an "
     "integer"),
    ("fill_policy below -1", lambda m: rk.fill_policy(
        m, _put(_NO_PICKS, np.int64, (1, 2), -5), 0),
     "picks table entry -5 outside -1..2147483647"),
    ("fill_policy range", lambda m: rk.fill_policy(
        m, _put(_NO_PICKS, np.int64, (1, 2), 2), 0),
     "policy at time 1 uses an unknown control"),
    ("fill_policy bool", lambda m: rk.fill_policy(m, np.ones((3, 4), bool), 0),
     "picks table entry np.True_ is not an integer"),
    ("fill_policy lists", lambda m: rk.fill_policy(
        m, _put(_NO_PICKS, np.int64, (1, 2), 1).tolist(), 1),
     lambda m: rk.fill_policy(m, _put(_NO_PICKS, np.int32, (1, 2), 1), 1)),
    ("dynamics float", lambda m: dataclasses.replace(
        m, dynamics=_put(m.dynamics, float, (0, 0, 0, 0), 1.5)),
     "dynamics table entry 1.5 is not an integer"),
    ("dynamics object", lambda m: dataclasses.replace(
        m, dynamics=_put(m.dynamics, object, (1, 2, 0, 1), "1")),
     "dynamics table entry '1' is not an integer"),
    ("dynamics range", lambda m: dataclasses.replace(
        m, dynamics=_put(m.dynamics, np.int64, (1, 2, 0, 1), 5)),
     "dynamics image out of range at (t=1, x=2, u=0, w=1)"),
    ("dynamics int64", lambda m: dataclasses.replace(
        m, dynamics=m.dynamics.astype(np.int64)), lambda m: m),
    ("dynamics uint8", lambda m: dataclasses.replace(
        m, dynamics=m.dynamics.astype(np.uint8)), lambda m: m),
    ("dynamics lists", lambda m: dataclasses.replace(
        m, dynamics=m.dynamics.tolist()), lambda m: m),
    ("dynamics own array", lambda m: _handed(
        lambda d: dataclasses.replace(m, dynamics=d), m.dynamics.copy()),
     lambda m: m),
    ("constraints float", lambda m: dataclasses.replace(
        m, constraints=_put(m.constraints, float, (0, 0, 0), 0.5)),
     "constraint table entry 0.5 is not a bool"),
    ("constraints nan", lambda m: dataclasses.replace(
        m, constraints=_put(m.constraints, float, (0, 0, 0), math.nan)),
     "constraint table entry nan is not a bool"),
    ("constraints 2", lambda m: dataclasses.replace(
        m, constraints=_put(m.constraints, np.int64, (2, 3, 1), 2)),
     "constraint table entry 2 outside 0..1"),
    ("constraints 0/1", lambda m: dataclasses.replace(
        m, constraints=_put(m.constraints, np.uint8, (2, 3, 1), 0)),
     lambda m: dataclasses.replace(
         m, constraints=_put(m.constraints, bool, (2, 3, 1), False))),
    ("constraints lists", lambda m: dataclasses.replace(
        m, constraints=m.constraints.astype(int).tolist()), lambda m: m),
    ("constraints own array", lambda m: _handed(
        lambda c: dataclasses.replace(m, constraints=c), m.constraints.copy()),
     lambda m: m),
    ("dynamics and constraints own arrays", lambda m: _handed(
        lambda d, c: dataclasses.replace(m, dynamics=d, constraints=c),
        m.dynamics.copy(), m.constraints.copy()), lambda m: m),
    ("TabularCost strings", lambda m: rk.TabularCost(
        [["1"] * 4] * 4, [["1"] * 2] * 3),
     "state cost table entry '1' is not a number"),
    ("TabularCost None", lambda m: rk.TabularCost(
        np.zeros((4, 4)), [[None] * 2] * 3),
     "control cost table entry None is not a number"),
    ("TabularCost shape", lambda m: rk.validate_risk(m, rk.Composed(
        rk.TabularCost(np.zeros((4, 4)), np.zeros((2, 2))), rk.Expectation())),
     "control cost table has shape (2, 2), expected (3, 2)"),
    ("TabularCost int", lambda m: rk.TabularCost(*_COSTS),
     lambda m: rk.TabularCost(*(c.astype(float) for c in _COSTS))),
    ("TabularCost own arrays", lambda m: _handed(
        rk.TabularCost, *(c.astype(float) for c in _COSTS)),
     lambda m: rk.TabularCost(*(c.astype(float) for c in _COSTS))),
    ("TabularCost nan inf", lambda m: rk.evaluate_risk(m, rk.Composed(
        rk.TabularCost(*_INF_COSTS), rk.Expectation()), _keep_bundle(m)),
     lambda m: rk.evaluate_risk(m, rk.Composed(
         rk.TabularCost(*map(np.array, _INF_COSTS)), rk.Expectation()),
         _keep_bundle(m))),
    ("state coordinates nan", lambda m: rk.make_model(
        1, ("0", "1", "2"), ("u",), ("w",), lambda t, x, u, w: x,
        state_coords=[0, math.nan, 5]),
     "state coordinates entry nan is not finite"),
    ("control coordinates inf", lambda m: rk.ControlSpace(
        ("a", "b"), [[0, 1], [math.inf, 0]]),
     "control coordinates entry inf is not finite"),
    ("coordinates int", lambda m: rk.StateSpace(("a", "b"), [[0, 1], [2, 3]]),
     lambda m: rk.StateSpace(("a", "b"), np.arange(4.0).reshape(2, 2))),
    ("coordinates own array", lambda m: _handed(
        lambda c: rk.StateSpace(("a", "b"), c), np.arange(1.0, 5.0).reshape(2, 2)),
     lambda m: rk.StateSpace(("a", "b"), np.arange(1.0, 5.0).reshape(2, 2))),
    ("coordinates own 1-d array", lambda m: _handed(
        lambda c: rk.ControlSpace(("a", "b"), c), np.array([1.0, 2.0])),
     lambda m: rk.ControlSpace(("a", "b"), [1.0, 2.0])),
    ("coordinates 0-d", lambda m: rk.StateSpace(("a",), 5.0),
     "state coordinates must be 1-d or 2-d, got 0-d"),
    ("coordinates 3-d", lambda m: rk.StateSpace(("a", "b"), np.zeros((2, 1, 1))),
     "state coordinates must be 1-d or 2-d, got 3-d"),
    ("coordinates ragged", lambda m: rk.ControlSpace(("a", "b"), [[0, 1], [2]]),
     "control coordinates is ragged"),
    ("probabilities string", lambda m: rk.UncertaintyStructure(
        m.uncertainty.sets, (("0.5", "0.5"),) * 3),
     "probabilities at time 0 entry '0.5' is not a number"),
    ("probabilities int", lambda m: rk.UncertaintyStructure(
        m.uncertainty.sets, (np.array([1, 0]),) * 3),
     lambda m: rk.UncertaintyStructure(m.uncertainty.sets, ((1.0, 0.0),) * 3)),
    ("joint weight string", lambda m: dataclasses.replace(
        m, scenario_probs={(0, 0, 0): "1"}),
     "scenario probabilities entry '1' is not a number"),
    ("joint weight int", lambda m: dataclasses.replace(
        m, scenario_probs={(0, 0, 0): 1}),
     lambda m: dataclasses.replace(m, scenario_probs={(0, 0, 0): 1.0})),
    ("belief string", lambda m: rk.validate_risk(m, rk.AmbiguityExceedance(
        _A, ((("0.5", "0.5"),) * 3,))),
     "belief 0 probabilities at time 0 entry '0.5' is not a number"),
    ("belief int", lambda m: rk.evaluate_risk(m, rk.AmbiguityExceedance(
        _A, (((1, 0),) * 3,)), _keep_bundle(m)),
     lambda m: rk.evaluate_risk(m, rk.AmbiguityExceedance(
         _A, (((1.0, 0.0),) * 3,)), _keep_bundle(m))),
    ("cvar string", lambda m: rk.cvar(["1"], [1.0], 0.5),
     "CVaR values entry '1' is not a number"),
    ("cvar None", lambda m: rk.cvar([None], [1.0], 0.5),
     "CVaR values entry None is not a number"),
    ("cvar int inf", lambda m: rk.cvar([1, 3, math.inf], [0.2, 0.5, 0.3], 0.5),
     lambda m: rk.cvar(np.array([1.0, 3.0, math.inf]), [0.2, 0.5, 0.3], 0.5)),
]


@pytest.mark.parametrize("row", TABLE_ROWS, ids=[r[0] for r in TABLE_ROWS])
def test_every_table_follows_the_table_rule(m1, row):
    """One table rule (model._check_table) for every table argument: a
    table of a foreign dtype, or a value out of its range, raises
    InputError; an integer or float table of another width, or nested
    lists, reads as the stored dtype does; a kept table of the stored
    dtype is a copy, which leaves the caller's array writable and its own
    (_handed)."""
    _, call, want = row
    if isinstance(want, str):
        with pytest.raises(rk.InputError, match="^" + re.escape(want) + "$"):
            call(m1)
    else:
        assert repr(call(m1)) == repr(want(m1))


def test_read_only_tables_are_kept_uncopied(m1):
    # make_model and parse_model hand over tables they froze, and a model
    # rebuilt by dataclasses.replace keeps its own: none is copied again
    text = (Path(__file__).parent.parent / "models" / "m1.model").read_text()
    for m in m1, parse_model(text).model:
        assert not m.dynamics.flags.writeable
        assert not m.constraints.flags.writeable
        again = dataclasses.replace(m)
        assert again.dynamics is m.dynamics
        assert again.constraints is m.constraints
    # a read-only view is copied: its base may still be written
    view = m1.dynamics.copy().view()
    view.setflags(write=False)
    assert dataclasses.replace(m1, dynamics=view).dynamics is not view

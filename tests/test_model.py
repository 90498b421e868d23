import itertools
import math

import numpy as np
import pytest

import resilkit as rk
from resilkit.model import packed_tables, successor_planes

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
    model = build_m1(robust=("0",))
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
    assert not rk.models_equal(m1, build_m1(robust=("0",)))
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

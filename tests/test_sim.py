"""The batched numpy simulation kernel: agreement with the object-level
closed loop, shapes, and the cemetery's absorbing and inadmissible-control
rules."""

import numpy as np

import resilkit as rk
from resilkit.model import _Scenarios, successor_planes
from resilkit.strategy import _policy_array
from conftest import build_m1, random_model, random_strategy


def batch_inputs(rng, model, n_policies, start=0):
    K, n = model.horizon, model.n_states
    policies = np.zeros((n_policies, K, n + 1), dtype=np.int32)
    policies[:, :, :n] = rng.integers(
        0, model.n_controls, size=(n_policies, K, n)
    )
    scen = np.array(
        rk.enumerate_scenarios(model), dtype=np.int32
    ).reshape(-1, K)
    return successor_planes(model), policies, scen


def test_batch_matches_bundle_trajectories():
    rng = np.random.default_rng(88)
    for _ in range(10):
        model = random_model(rng, cemetery_rate=0.3)
        strategy = rk.markov_strategy(
            model,
            rng.integers(0, model.n_controls,
                         size=(model.horizon, model.n_states)).tolist(),
        )
        x0 = int(rng.integers(0, model.n_states))
        bundle = rk.build_bundle(model, strategy, x0)
        planes = successor_planes(model)
        pol = rk.markov_policy_array(model, strategy)[None, :, :]
        scen = np.array(
            rk.enumerate_scenarios(model), dtype=np.int32
        ).reshape(-1, model.horizon)
        states, controls = rk.simulate_batch(planes, pol, scen, x0)
        for m, traj in enumerate(bundle):
            assert states[0, m].tolist() == list(traj.states)
            assert controls[0, m].tolist() == list(traj.controls)
    # adapted policy arrays read the prefixes ranked from the strategy's
    # own start, also when the run starts later
    later = 0
    for _ in range(40):
        model = random_model(rng, max_w=3, max_horizon=4, cemetery_rate=0.3)
        K = model.horizon
        base = int(rng.integers(K))
        start = int(rng.integers(base, K + 1))
        strategy = random_strategy(rng, model, rk.ADAPTED, base)
        x0 = int(rng.integers(0, model.n_states))
        bundle = rk.build_bundle(model, strategy, x0, start)
        scenarios = _Scenarios(model)
        states, controls = rk.simulate_batch(
            successor_planes(model), _policy_array(model, strategy)[None],
            scenarios.table, x0, start, scenarios.prefixes(base),
        )
        for m, traj in enumerate(bundle):
            assert states[0, m].tolist() == list(traj.states)
            assert controls[0, m].tolist() == list(traj.controls)
        later += base < start < K and rk.n_prefixes(model, start, base) > 1
    assert later >= 5


def test_shapes_with_later_start():
    model = build_m1()
    rng = np.random.default_rng(3)
    planes, policies, scen = batch_inputs(rng, model, 4)
    states, controls = rk.simulate_batch(planes, policies, scen, 2, start=2)
    assert states.shape == (4, 8, 2)
    assert controls.shape == (4, 8, 1)
    assert (states[:, :, 0] == 2).all()


def test_cemetery_absorbs_in_batch():
    # one state, one control; everything dies at t=0
    model = rk.make_model(
        horizon=3,
        state_labels=("a",),
        control_labels=("u",),
        uncertainty_sets=(("0",),) * 3,
        dynamics_fn=lambda t, x, u, w: None if t == 0 else 0,
    )
    planes = successor_planes(model)
    pol = np.zeros((1, 3, 2), dtype=np.int32)
    scen = np.zeros((1, 3), dtype=np.int32)
    states, _ = rk.simulate_batch(planes, pol, scen, 0)
    assert states[0, 0].tolist() == [0, 1, 1, 1]


def test_inadmissible_control_routes_to_cemetery():
    model = rk.make_model(
        horizon=2,
        state_labels=("a", "b"),
        control_labels=("u", "v"),
        uncertainty_sets=(("0",),) * 2,
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (0,),
    )
    planes = successor_planes(model)
    pol = np.full((1, 2, 3), 1, dtype=np.int32)  # always pick forbidden v
    pol[:, :, 2] = 0
    scen = np.zeros((1, 2), dtype=np.int32)
    states, controls = rk.simulate_batch(planes, pol, scen, 0)
    assert states[0, 0].tolist() == [0, 2, 2]
    assert controls[0, 0].tolist() == [1, 0]

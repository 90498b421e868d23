"""Acceptance suite: ten numbered criteria, each printing one
`ACCEPT Cn PASS` or `ACCEPT Cn FAIL` line.

Every criterion checks the production engine against an independent route
(exhaustive oracle, hand recursion, frozen golden files, or a definitional
replay), on randomized instances with pinned seeds and tolerances.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from conftest import cli_env, random_acceptable, random_model, random_strategy

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

TOL = 1e-12


@contextmanager
def criterion(n, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPT C{n} FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPT C{n} PASS", flush=True)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "resilkit", *argv],
        capture_output=True, text=True, env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def traj_offset(traj, acceptable):
    """First offset from which the trajectory never leaves `acceptable`
    (inadmissible controls already routed to the cemetery)."""
    K = len(traj.states) - 1 + traj.start
    for s in range(traj.start, K + 1):
        if all(traj.state(r) in acceptable for r in range(s, K + 1)):
            return float(s - traj.start)
    return math.inf


def test_c1_kernel_matches_oracle(capsys):
    with criterion(1, capsys):
        t0 = time.monotonic()
        rng = np.random.default_rng(20260101)
        for _ in range(200):
            model = random_model(rng, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            regime = rk.Viability(acceptable)
            table = rk.robust_viability_kernel(model, acceptable)
            for t in range(model.horizon + 1):
                got = rk.oracle_resilient_states(model, t, regime)
                assert got.members == table.member_set(t), (
                    f"t={t}: oracle {sorted(got.members)} "
                    f"!= kernel {sorted(table.member_set(t))}"
                )
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c2_value_matches_oracle(capsys):
    with criterion(2, capsys):
        t0 = time.monotonic()
        rng = np.random.default_rng(20260202)
        for _ in range(100):
            model = random_model(rng, with_probs=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            table = rk.stochastic_viability_value(model, acceptable)
            best = rk.oracle_value(model, acceptable)
            assert np.all(np.abs(table.value[0] - best) <= TOL)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_c3_adapted_strategies_add_nothing(capsys):
    with criterion(3, capsys):
        rng = np.random.default_rng(20260303)
        for _ in range(50):
            model = random_model(
                rng, max_states=3, max_horizon=2,
                with_robust=bool(rng.integers(2)), cemetery_rate=0.2,
            )
            acceptable = random_acceptable(rng, model)
            deadline = int(rng.integers(0, model.horizon + 1))
            for regime in (
                rk.Viability(acceptable),
                rk.RobustRecovery(acceptable, deadline),
            ):
                markov = rk.oracle_resilient_states(
                    model, 0, regime, strategy_class=rk.MARKOV
                )
                adapted = rk.oracle_resilient_states(
                    model, 0, regime, strategy_class=rk.ADAPTED
                )
                assert adapted.members == markov.members


def test_c4_worst_case_violation_is_robust_viability(capsys):
    with criterion(4, capsys):
        rng = np.random.default_rng(20260404)
        for i in range(100):
            model = random_model(rng, with_robust=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            kind = rk.ADAPTED if i % 5 == 0 else rk.MARKOV
            strategy = random_strategy(rng, model, kind=kind)
            x0 = int(rng.integers(0, model.n_states))
            bundle = rk.build_bundle(model, strategy, x0)
            value = rk.evaluate_risk(
                model, rk.WorstCaseViolation(acceptable), bundle
            )
            robust = rk.build_bundle(model, strategy, x0, robust_only=True)
            stays = all(
                all(x in acceptable for x in traj.states) for traj in robust
            )
            for alpha in (0.01, 0.5, 0.99):
                assert (value <= alpha) == stays


def test_c5_stochastic_viability_is_exceedance_bound(capsys):
    with criterion(5, capsys):
        rng = np.random.default_rng(20260505)
        done = 0
        while done < 100:
            model = random_model(rng, with_probs=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            strategy = random_strategy(rng, model)
            x0 = int(rng.integers(0, model.n_states))
            bundle = rk.build_bundle(model, strategy, x0)
            exceedance = rk.evaluate_risk(
                model, rk.Exceedance(acceptable), bundle
            )
            beta = float(rng.integers(1, 21)) / 20.0
            if abs((1.0 - exceedance) - beta) < 1e-9:
                continue  # skip knife edges thinner than the tolerance
            member = rk.check_resilient(
                model, strategy, x0, 0,
                rk.StochasticViability(acceptable, beta),
            )
            assert member == (exceedance <= 1.0 - beta + TOL)
            done += 1


def test_c6_recovery_times_and_witness_replay(capsys):
    with criterion(6, capsys):
        rng = np.random.default_rng(20260606)
        for _ in range(100):
            model = random_model(rng, with_robust=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            table = rk.robust_recovery_table(
                model, acceptable, model.horizon
            )
            offsets, _ = rk.oracle_recovery_offsets(model, acceptable)
            assert table.r_star.tolist() == offsets.tolist()
            witness = rk.fill_policy(model, table.witness, 0)
            for x0 in range(model.n_states):
                robust = rk.build_bundle(model, witness, x0, robust_only=True)
                worst = max(traj_offset(traj, acceptable) for traj in robust)
                assert worst == table.r_star[x0]


def test_c7_reference_model_golden_files(capsys, tmp_path):
    with criterion(7, capsys):
        runs = (
            ("m1_resilient_set.json", "oracle_resilient_set.json",
             ("oracle", "resilient-set", "--model", str(MODELS / "m1.model"))),
            ("m1_top_resilient_set.json", "oracle_resilient_set.json",
             ("oracle", "resilient-set",
              "--model", str(MODELS / "m1_top.model"))),
            ("m1_value.json", "oracle_value.json",
             ("oracle", "value", "--model", str(MODELS / "m1.model"))),
            ("m1_benign_recovery.json", "oracle_recovery.json",
             ("oracle", "recovery",
              "--model", str(MODELS / "m1_benign.model"))),
            ("m1_effort_min_risk.json", "oracle_min_risk.json",
             ("oracle", "min-risk", "--model", str(MODELS / "m1_effort.model"),
              "--x0", "2")),
            ("m1_hold_risk.json", "oracle_risk.json",
             ("oracle", "risk", "--model", str(MODELS / "m1.model"),
              "--strategy", str(MODELS / "m1_hold.strategy"), "--x0", "2")),
        )
        docs = {}
        for i, (golden, produced, argv) in enumerate(runs):
            out = tmp_path / str(i)
            run_cli(*argv, "--out", str(out))
            fresh = (out / produced).read_bytes()
            assert fresh == (GOLDEN / golden).read_bytes(), golden
            docs[golden] = json.loads(fresh)
            if produced == "oracle_min_risk.json":
                witness = (out / "oracle_witness.strategy").read_bytes()
                assert witness == (
                    GOLDEN / "m1_effort_witness.strategy"
                ).read_bytes()
        assert docs["m1_resilient_set.json"]["members"] == ["2", "3"]
        assert docs["m1_top_resilient_set.json"]["members"] == ["3"]
        values = docs["m1_value.json"]["values"]
        assert abs(values["2"] - 1.0) <= TOL and abs(values["1"]) <= TOL
        assert abs(docs["m1_hold_risk.json"]["value"] - 7.0 / 8.0) <= TOL
        assert abs(docs["m1_effort_min_risk.json"]["value"] - 2.0) <= TOL
        assert docs["m1_benign_recovery.json"]["offsets"]["0"] == 2


def test_c8_monotonicity(capsys):
    with criterion(8, capsys):
        rng = np.random.default_rng(20260808)

        # growing the acceptable set can only grow the kernel
        for _ in range(100):
            model = random_model(rng, cemetery_rate=0.2)
            small = random_acceptable(rng, model)
            extra = random_acceptable(rng, model)
            big = small | extra
            ks = rk.robust_viability_kernel(model, small)
            kb = rk.robust_viability_kernel(model, big)
            for t in range(model.horizon + 1):
                assert ks.member_set(t) <= kb.member_set(t)

        # raising the confidence threshold can only shrink the set
        for _ in range(100):
            model = random_model(rng, with_probs=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            table = rk.stochastic_viability_value(model, acceptable)
            grid = (0.2, 0.4, 0.6, 0.8, 1.0)
            for t in range(model.horizon + 1):
                sets = [table.resilient_set(t, b) for b in grid]
                for lo, hi in zip(sets, sets[1:]):
                    assert hi <= lo

        # extending the deadline can only grow the recoverable set
        for _ in range(100):
            model = random_model(rng, with_robust=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            tables = [
                rk.robust_recovery_table(model, acceptable, d)
                for d in range(model.horizon + 1)
            ]
            for t in range(model.horizon + 1):
                sets = [tb.resilient_set(t) for tb in tables]
                for lo, hi in zip(sets, sets[1:]):
                    assert lo <= hi

        # guarding against more scenarios can only shrink the kernel
        for _ in range(100):
            model = random_model(rng, with_robust=True, cemetery_rate=0.2)
            acceptable = random_acceptable(rng, model)
            base = model.uncertainty.robust
            mid, full = [], []
            for t, sub in enumerate(base):
                size = model.uncertainty.size(t)
                grow = set(sub) | {
                    int(w) for w in rng.integers(0, size, size=2)
                }
                mid.append(tuple(sorted(grow)))
                full.append(tuple(range(size)))
            members = []
            for robust in (base, tuple(mid), tuple(full)):
                unc = dataclasses.replace(model.uncertainty, robust=robust)
                variant = dataclasses.replace(model, uncertainty=unc)
                members.append(rk.robust_viability_kernel(variant, acceptable))
            for t in range(model.horizon + 1):
                assert members[2].member_set(t) <= members[1].member_set(t)
                assert members[1].member_set(t) <= members[0].member_set(t)


def test_c9_cvar_contract(capsys):
    with criterion(9, capsys):
        rng = np.random.default_rng(20260909)

        # level 1 recovers the mean
        for _ in range(100):
            k = int(rng.integers(1, 9))
            values = rng.normal(size=k) * 10.0
            weights = rng.integers(1, 6, size=k).astype(float)
            weights /= weights.sum()
            mean = float(np.dot(values, weights))
            assert abs(rk.cvar(values, weights, 1.0) - mean) <= TOL

        # tightening the tail level never lowers the value
        for _ in range(100):
            k = int(rng.integers(1, 9))
            values = rng.normal(size=k) * 10.0
            weights = rng.integers(1, 6, size=k).astype(float)
            weights /= weights.sum()
            grid = (1.0, 0.8, 0.6, 0.4, 0.2, 0.05)
            series = [rk.cvar(values, weights, a) for a in grid]
            for lo, hi in zip(series, series[1:]):
                assert hi >= lo - TOL

        # pinned case through the minimization form:
        # min over thresholds h of h + E[(V - h)+] / level
        values = [0.0, 1.0, 2.0, 3.0]
        weights = [0.25, 0.25, 0.25, 0.25]

        def min_form(level):
            return min(
                h + sum(w * max(v - h, 0.0) for v, w in zip(values, weights))
                / level
                for h in values
            )

        assert abs(min_form(0.5) - 2.5) <= TOL
        assert abs(rk.cvar(values, weights, 0.5) - 2.5) <= TOL
        for level in (0.25, 0.5, 0.75, 1.0):
            assert abs(rk.cvar(values, weights, level) - min_form(level)) <= TOL


def test_c10_round_trip_and_parallel_determinism(capsys, tmp_path):
    with criterion(10, capsys):
        for path in sorted(MODELS.glob("*.model")):
            first = rk.parse_model(path.read_text())
            text = rk.serialize_model(first.model, first.regime, first.risk)
            second = rk.parse_model(text)
            assert rk.models_equal(first.model, second.model), path.name
            assert first.regime == second.regime, path.name
            assert first.risk == second.risk, path.name
            assert text == rk.serialize_model(
                second.model, second.regime, second.risk
            ), path.name

        blobs = []
        for i in range(2):
            out = tmp_path / str(i)
            run_cli("optimize", "--model", str(MODELS / "m1.model"),
                    "--x0", "2", "--out", str(out))
            blobs.append((
                (out / "optimize.json").read_bytes(),
                (out / "witness.strategy").read_bytes(),
            ))
        assert blobs[0] == blobs[1]

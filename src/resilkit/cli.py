"""Command line interface.

    resilkit <command> --model FILE [options]

Commands:
    check          is --strategy resilient from --x0 at --t
    kernel         robust viability kernel for the regime's state set
    value          stochastic viability value table
    recovery       layered recovery table (deadline from regime/--deadline)
    resilient-set  resilient states at --t under the file's regime
    optimize       risk-minimizing resilient strategy
    indicator      the minimized risk value only
    simulate       closed-loop trajectories for --strategy from --x0
    oracle         enumeration-based reference results; modes
                   resilient-set | value | recovery | min-risk | risk

Results go to --out as canonical JSON plus CSV tables; stdout gets a one
line summary. Exit status: 0 success; 1 the run completed but the queried
object is not resilient; 2 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .engine import (
    check_resilient,
    resilient_states,
    robust_recovery_table,
    robust_viability_kernel,
    stochastic_viability_value,
)
from .errors import InputError, ResilkitError
from .jsonio import dumps_canonical, format_float, write_csv
from .model import DEFAULT_SCENARIO_CAP
from .modelfile import _kind_name, parse_model, regime_state_set
from .optimize import minimize_risk
from .oracle import (
    oracle_min_risk,
    oracle_recovery_offsets,
    oracle_resilient_states,
    oracle_value,
)
from . import regimes as rg
from . import risk as rk
from .strategy import (
    ADAPTED,
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    build_bundle,
    strategy_from_text,
    strategy_to_text,
)

def _flags(p, *names):
    for name in names:
        if name == "--model":
            p.add_argument("--model", required=True, help="model file path")
        elif name == "--out":
            p.add_argument("--out", help="output directory")
        elif name == "--strategy":
            p.add_argument("--strategy", help="strategy file path")
        elif name == "--x0":
            p.add_argument("--x0", help="initial state label")
        elif name == "--t":
            p.add_argument("--t", type=int, default=0, help="start time")
        elif name == "--class":
            p.add_argument(
                "--class", dest="strategy_class", choices=(MARKOV, ADAPTED),
                default=MARKOV, help="strategy class",
            )
        elif name == "--deadline":
            p.add_argument("--deadline", type=int, help="recovery deadline")
        elif name == "--beta":
            p.add_argument("--beta", type=float, help="confidence threshold")
        elif name == "--alpha":
            p.add_argument("--alpha", type=float, help="tail level override")
        elif name == "--cap":
            p.add_argument("--cap", type=int, help="enumeration cap")
        elif name == "--robust-only":
            p.add_argument(
                "--robust-only", action="store_true",
                help="restrict scenarios to the robust subset",
            )
        else:  # pragma: no cover
            raise AssertionError(name)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resilkit",
        description="resilience analysis for finite controlled systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test one strategy for resilience")
    _flags(p, "--model", "--out", "--strategy", "--x0", "--t", "--cap")

    p = sub.add_parser("kernel", help="robust viability kernel")
    _flags(p, "--model", "--out", "--x0", "--t")

    p = sub.add_parser("value", help="stochastic viability value table")
    _flags(p, "--model", "--out", "--x0", "--t", "--beta")

    p = sub.add_parser("recovery", help="layered recovery table")
    _flags(p, "--model", "--out", "--x0", "--t", "--deadline")

    p = sub.add_parser("resilient-set", help="resilient states at a time")
    _flags(p, "--model", "--out", "--x0", "--t", "--class", "--cap")

    p = sub.add_parser("optimize", help="risk-minimizing resilient strategy")
    _flags(p, "--model", "--out", "--x0", "--t", "--class", "--cap")

    p = sub.add_parser("indicator", help="minimized risk value")
    _flags(p, "--model", "--out", "--x0", "--t", "--class", "--cap")

    p = sub.add_parser("simulate", help="closed-loop trajectory bundle")
    _flags(p, "--model", "--out", "--strategy", "--x0", "--t", "--cap",
           "--robust-only")

    p = sub.add_parser("oracle", help="enumeration-based reference results")
    p.add_argument(
        "mode",
        choices=("resilient-set", "value", "recovery", "min-risk", "risk"),
    )
    _flags(p, "--model", "--out", "--strategy", "--x0", "--t", "--class",
           "--cap", "--robust-only")

    return parser


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load(args):
    parsed = parse_model(_read(args.model))
    model, regime, risk = parsed.model, parsed.regime, parsed.risk
    if getattr(args, "deadline", None) is not None and isinstance(
        regime, rg.RobustRecovery
    ):
        regime = dataclasses.replace(regime, deadline=args.deadline)
    if getattr(args, "beta", None) is not None:
        if isinstance(regime, (rg.StochasticViability, rg.ProbExcursion)):
            regime = dataclasses.replace(regime, beta=args.beta)
    if getattr(args, "alpha", None) is not None and isinstance(
        risk, (rk.Composed, rk.ExitCountFunctional)
    ):
        if isinstance(risk.outer, rk.CVaR):
            risk = dataclasses.replace(risk, outer=rk.CVaR(args.alpha))
    return model, regime, risk


def _x0_index(model, args):
    if args.x0 is None:
        raise InputError("this command needs --x0")
    x0 = model.states.index(args.x0)
    if x0 == model.cemetery:
        raise InputError("x0 must be an ordinary state")
    return x0


def _strategy_arg(model, args):
    if args.strategy is None:
        raise InputError("this command needs --strategy")
    return strategy_from_text(model, _read(args.strategy))


def _state_set_arg(model, regime):
    acceptable = regime_state_set(regime)
    if acceptable is None:
        raise InputError(
            f"regime {_kind_name(regime)} does not name a state "
            "set; use a set-based regime for this command"
        )
    return acceptable


def _check_time(model, t, last=None):
    hi = model.horizon if last is None else last
    if not 0 <= t <= hi:
        raise InputError(f"--t must be in 0..{hi}, got {t}")


def _outdir(args):
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit_json(outdir, name, doc):
    if outdir is not None:
        with open(os.path.join(outdir, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(dumps_canonical(doc))


def _emit_csv(outdir, name, header, rows):
    if outdir is not None:
        write_csv(os.path.join(outdir, name), header, rows)


def _labels(model, indices):
    return [model.states.label(x) for x in sorted(indices)]


def _witness_label(model, table, t, x):
    u = int(table[t, x])
    return model.controls.label(u) if u >= 0 else ""


def _scenario_cap(args):
    return args.cap if args.cap is not None else DEFAULT_SCENARIO_CAP


def _strategy_cap(args):
    return args.cap if args.cap is not None else DEFAULT_STRATEGY_CAP


def _x0_exit(args, model, member_fn):
    """Exit code for table commands: 1 when --x0 is given and not resilient
    at --t."""
    if args.x0 is None:
        return 0
    return 0 if member_fn(_x0_index(model, args)) else 1


def cmd_check(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t, model.horizon - 1)
    x0 = _x0_index(model, args)
    strategy = _strategy_arg(model, args)
    ok = check_resilient(
        model, strategy, x0, args.t, regime, cap=_scenario_cap(args)
    )
    doc = {
        "command": "check",
        "regime": _kind_name(regime),
        "x0": args.x0,
        "start": args.t,
        "resilient": ok,
    }
    _emit_json(_outdir(args), "check.json", doc)
    print(f"resilient: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_kernel(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t)
    table = robust_viability_kernel(model, _state_set_arg(model, regime))
    members = {
        str(t): _labels(model, table.member_set(t))
        for t in range(model.horizon + 1)
    }
    doc = {
        "command": "kernel",
        "domain": table.domain,
        "acceptable": _labels(model, table.acceptable),
        "members": members,
    }
    rows = []
    for t in range(model.horizon + 1):
        for x in range(model.n_states):
            witness = (
                _witness_label(model, table.witness, t, x)
                if t < model.horizon and table.member[t, x]
                else ""
            )
            rows.append(
                (t, model.states.label(x), int(table.member[t, x]), witness)
            )
    outdir = _outdir(args)
    _emit_json(outdir, "kernel.json", doc)
    _emit_csv(outdir, "kernel.csv", ("t", "state", "member", "witness"), rows)
    print(
        f"kernel at t={args.t}: "
        + (" ".join(members[str(args.t)]) or "(empty)")
    )
    return _x0_exit(args, model, lambda x: bool(table.member[args.t, x]))


def cmd_value(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t)
    acceptable = _state_set_arg(model, regime)
    beta = args.beta
    if beta is None:
        beta = regime.beta if isinstance(regime, rg.StochasticViability) else 1.0
    table = stochastic_viability_value(model, acceptable)
    values = {
        str(t): {
            model.states.label(x): float(table.value[t, x])
            for x in range(model.n_states)
        }
        for t in range(model.horizon + 1)
    }
    doc = {
        "command": "value",
        "acceptable": _labels(model, acceptable),
        "beta": float(beta),
        "values": values,
    }
    rows = []
    for t in range(model.horizon + 1):
        for x in range(model.n_states):
            witness = (
                _witness_label(model, table.witness, t, x)
                if t < model.horizon
                else ""
            )
            rows.append((
                t,
                model.states.label(x),
                format_float(table.value[t, x]),
                witness,
                int(table.value[t, x] >= beta),
            ))
    outdir = _outdir(args)
    _emit_json(outdir, "value.json", doc)
    _emit_csv(
        outdir, "value.csv",
        ("t", "state", "value", "witness", "resilient"), rows,
    )
    print(
        f"resilient at t={args.t} (beta={format_float(beta)}): "
        + (" ".join(_labels(model, table.resilient_set(args.t, beta)))
           or "(empty)")
    )
    return _x0_exit(args, model, lambda x: table.value[args.t, x] >= beta)


def cmd_recovery(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t)
    acceptable = _state_set_arg(model, regime)
    deadline = args.deadline
    if deadline is None:
        deadline = (
            regime.deadline
            if isinstance(regime, rg.RobustRecovery)
            else model.horizon
        )
    table = robust_recovery_table(model, acceptable, deadline)
    doc = {
        "command": "recovery",
        "acceptable": _labels(model, acceptable),
        "deadline": deadline,
        "r_star": {
            model.states.label(x): float(table.r_star[x])
            for x in range(model.n_states)
        },
    }
    rows = []
    for t in range(model.horizon + 1):
        resilient = table.resilient_set(t)
        for x in range(model.n_states):
            witness = (
                _witness_label(model, table.witness, t, x)
                if t < model.horizon
                else ""
            )
            rows.append((
                t,
                model.states.label(x),
                format_float(table.min_layer[t, x]),
                int(x in resilient),
                witness,
            ))
    outdir = _outdir(args)
    _emit_json(outdir, "recovery.json", doc)
    _emit_csv(
        outdir, "recovery.csv",
        ("t", "state", "min_layer", "resilient", "witness"), rows,
    )
    print(
        f"resilient at t={args.t} (deadline={deadline}): "
        + (" ".join(_labels(model, table.resilient_set(args.t))) or "(empty)")
    )
    return _x0_exit(args, model, lambda x: x in table.resilient_set(args.t))


def _resilient_set_doc(model, result, command):
    members = sorted(result.members)
    return {
        "command": command,
        "regime": _kind_name(result.regime),
        "class": result.strategy_class,
        "start": result.start,
        "method": result.method,
        "members": [model.states.label(x) for x in members],
        "witnesses": {
            model.states.label(x): strategy_to_text(model, result.witnesses[x])
            for x in members
        },
    }


def cmd_resilient_set(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t, model.horizon - 1)
    result = resilient_states(
        model, args.t, regime,
        strategy_class=args.strategy_class, cap=_strategy_cap(args),
    )
    doc = _resilient_set_doc(model, result, "resilient-set")
    rows = [
        (model.states.label(x), int(x in result.members))
        for x in range(model.n_states)
    ]
    outdir = _outdir(args)
    _emit_json(outdir, "resilient_set.json", doc)
    _emit_csv(outdir, "resilient_set.csv", ("state", "member"), rows)
    print(
        f"resilient at t={args.t} [{result.method}]: "
        + (" ".join(doc["members"]) or "(empty)")
    )
    return _x0_exit(args, model, lambda x: x in result.members)


def _optimize_result(args, model, regime, risk):
    if risk is None:
        raise InputError("this command needs a [risk] section in the model")
    x0 = _x0_index(model, args)
    return minimize_risk(
        model, x0, args.t, regime, risk,
        strategy_class=args.strategy_class, cap=_strategy_cap(args),
    )


def cmd_optimize(args):
    model, regime, risk = _load(args)
    _check_time(model, args.t, model.horizon - 1)
    result = _optimize_result(args, model, regime, risk)
    doc = {
        "command": "optimize",
        "regime": _kind_name(regime),
        "risk": _kind_name(risk),
        "x0": args.x0,
        "start": args.t,
        "class": result.strategy_class,
        "resilient": result.resilient,
        "value": result.value,
        "examined": result.examined,
        "certificate": result.certificate,
    }
    outdir = _outdir(args)
    _emit_json(outdir, "optimize.json", doc)
    if result.strategy is not None and outdir is not None:
        with open(os.path.join(outdir, "witness.strategy"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(strategy_to_text(model, result.strategy))
    print(
        f"minimal risk: {format_float(result.value)} "
        f"[{result.certificate}, examined {result.examined}]"
    )
    return 0 if result.resilient else 1


def cmd_indicator(args):
    model, regime, risk = _load(args)
    _check_time(model, args.t, model.horizon - 1)
    result = _optimize_result(args, model, regime, risk)
    doc = {
        "command": "indicator",
        "x0": args.x0,
        "start": args.t,
        "value": result.value,
    }
    _emit_json(_outdir(args), "indicator.json", doc)
    print(format_float(result.value))
    return 0 if math.isfinite(result.value) else 1


def cmd_simulate(args):
    model, regime, _ = _load(args)
    _check_time(model, args.t, model.horizon - 1)
    x0 = _x0_index(model, args)
    strategy = _strategy_arg(model, args)
    bundle = build_bundle(
        model, strategy, x0, start=args.t,
        robust_only=args.robust_only, cap=_scenario_cap(args),
    )
    doc = {
        "command": "simulate",
        "x0": args.x0,
        "start": args.t,
        "robust_only": bundle.robust,
        "scenarios": len(bundle),
    }
    rows = []
    for i, traj in enumerate(bundle):
        scenario = " ".join(
            model.uncertainty.sets[t][w] for t, w in enumerate(traj.scenario)
        )
        for s in range(args.t, model.horizon + 1):
            control = (
                model.controls.label(traj.control(s))
                if s < model.horizon
                else ""
            )
            rows.append(
                (i, scenario, s, model.states.label(traj.state(s)), control)
            )
    outdir = _outdir(args)
    _emit_json(outdir, "simulate.json", doc)
    _emit_csv(
        outdir, "trajectories.csv",
        ("scenario", "labels", "time", "state", "control"), rows,
    )
    print(f"simulated {len(bundle)} scenario(s) from {args.x0} at t={args.t}")
    return 0


def cmd_oracle(args):
    model, regime, risk = _load(args)
    outdir = _outdir(args)
    if args.mode == "resilient-set":
        _check_time(model, args.t, model.horizon - 1)
        result = oracle_resilient_states(
            model, args.t, regime,
            strategy_class=args.strategy_class, cap=_strategy_cap(args),
        )
        doc = _resilient_set_doc(model, result, "oracle")
        doc["mode"] = "resilient-set"
        _emit_json(outdir, "oracle_resilient_set.json", doc)
        print(
            f"oracle resilient at t={args.t}: "
            + (" ".join(doc["members"]) or "(empty)")
        )
        return _x0_exit(args, model, lambda x: x in result.members)
    if args.mode == "value":
        _check_time(model, args.t)
        values = oracle_value(
            model, _state_set_arg(model, regime), start=args.t,
            cap=_strategy_cap(args),
        )
        doc = {
            "command": "oracle",
            "mode": "value",
            "start": args.t,
            "values": {
                model.states.label(x): float(values[x])
                for x in range(model.n_states)
            },
        }
        _emit_json(outdir, "oracle_value.json", doc)
        print(
            "oracle values: "
            + " ".join(format_float(v) for v in values)
        )
        return 0
    if args.mode == "recovery":
        _check_time(model, args.t)
        offsets, ranks = oracle_recovery_offsets(
            model, _state_set_arg(model, regime), start=args.t,
            cap=_strategy_cap(args),
        )
        doc = {
            "command": "oracle",
            "mode": "recovery",
            "start": args.t,
            "offsets": {
                model.states.label(x): float(offsets[x])
                for x in range(model.n_states)
            },
            "witness_ranks": {
                model.states.label(x): int(ranks[x])
                for x in range(model.n_states)
            },
        }
        _emit_json(outdir, "oracle_recovery.json", doc)
        print(
            "oracle recovery offsets: "
            + " ".join(format_float(v) for v in offsets)
        )
        return 0
    if args.mode == "min-risk":
        _check_time(model, args.t, model.horizon - 1)
        if risk is None:
            raise InputError("oracle min-risk needs a [risk] section")
        x0 = _x0_index(model, args)
        value, strategy, examined = oracle_min_risk(
            model, x0, args.t, regime, risk,
            strategy_class=args.strategy_class, cap=_strategy_cap(args),
        )
        doc = {
            "command": "oracle",
            "mode": "min-risk",
            "x0": args.x0,
            "start": args.t,
            "value": value,
            "examined": examined,
        }
        _emit_json(outdir, "oracle_min_risk.json", doc)
        if strategy is not None and outdir is not None:
            with open(os.path.join(outdir, "oracle_witness.strategy"), "w",
                      encoding="utf-8", newline="") as fh:
                fh.write(strategy_to_text(model, strategy))
        print(f"oracle minimal risk: {format_float(value)}")
        return 0 if strategy is not None else 1
    # risk: evaluate the model's risk measure on one closed loop
    _check_time(model, args.t, model.horizon - 1)
    if risk is None:
        raise InputError("oracle risk needs a [risk] section")
    x0 = _x0_index(model, args)
    strategy = _strategy_arg(model, args)
    bundle = build_bundle(
        model, strategy, x0, start=args.t,
        robust_only=args.robust_only, cap=_scenario_cap(args),
    )
    value = rk.evaluate_risk(model, risk, bundle)
    doc = {
        "command": "oracle",
        "mode": "risk",
        "risk": _kind_name(risk),
        "x0": args.x0,
        "start": args.t,
        "value": value,
    }
    _emit_json(outdir, "oracle_risk.json", doc)
    print(f"risk: {format_float(value)}")
    return 0


_HANDLERS = {
    "check": cmd_check,
    "kernel": cmd_kernel,
    "value": cmd_value,
    "recovery": cmd_recovery,
    "resilient-set": cmd_resilient_set,
    "optimize": cmd_optimize,
    "indicator": cmd_indicator,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ResilkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command line interface.

    resilkit <command> --model FILE [--out DIR] [flags]

Commands and their other flags (the command table at the end):
    check          one strategy's resilience: --strategy --x0 --t --cap
    kernel         robust viability kernel: --x0 --t
    value          stochastic viability value table: --x0 --t --beta
    recovery       layered recovery table: --x0 --t --deadline
    resilient-set  resilient states at --t: --x0 --t --class --cap
    optimize       risk-minimizing resilient strategy: --x0 --t --class --cap
    indicator      the minimized risk value only: --x0 --t --class --cap
    simulate       closed-loop trajectories: --strategy --x0 --t --cap
                   --robust-only
    oracle MODE    enumeration-based reference results, MODE one of
                   resilient-set | value | recovery | min-risk | risk:
                   --strategy --x0 --t --class --cap --robust-only

Results go to --out as canonical JSON plus CSV tables; stdout gets a one
line summary. Exit status: 0 success; 1 the run completed but the queried
object is not resilient; 2 bad input.
"""

from __future__ import annotations

import argparse
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
from .model import DEFAULT_SCENARIO_CAP, _check_x0
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


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _x0_index(model, args):
    if args.x0 is None:
        raise InputError("this command needs --x0")
    x0 = model.states.index(args.x0)
    _check_x0(model, x0)
    return x0


def _strategy_arg(model, args):
    if args.strategy is None:
        raise InputError("this command needs --strategy")
    return strategy_from_text(model, _read(args.strategy))


def _bundle_arg(model, args):
    """The closed-loop bundle of --strategy from --x0 at --t."""
    x0 = _x0_index(model, args)
    return build_bundle(
        model, _strategy_arg(model, args), x0, start=args.t,
        robust_only=args.robust_only, cap=_scenario_cap(args),
    )


def _state_set_arg(model, regime):
    acceptable = regime_state_set(regime)
    if acceptable is None:
        raise InputError(
            f"regime {_kind_name(regime)} does not name a state "
            "set; use a set-based regime for this command"
        )
    return acceptable


def _scenario_cap(args):
    return args.cap if args.cap is not None else DEFAULT_SCENARIO_CAP


def _strategy_cap(args):
    return args.cap if args.cap is not None else DEFAULT_STRATEGY_CAP


def _outdir(args):
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    return args.out


def _emit_text(outdir, name, render, *args):
    """Open outdir/name, then write render(*args); nothing without --out."""
    if outdir is not None:
        with open(os.path.join(outdir, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(render(*args))


def _emit_json(outdir, name, doc):
    _emit_text(outdir, name, dumps_canonical, doc)


def _emit_csv(outdir, name, header, rows):
    if outdir is not None:
        write_csv(os.path.join(outdir, name), header, rows)


def _emit_witness(outdir, name, model, strategy):
    if strategy is not None:
        _emit_text(outdir, name, strategy_to_text, model, strategy)


def _labels(model, indices):
    return [model.states.label(x) for x in sorted(indices)]


def _by_state(model, values, cast=float):
    return {
        model.states.label(x): cast(values[x]) for x in range(model.n_states)
    }


def _grid(model, witness):
    """(t, x, state label, witness control label) for every time and state;
    the witness label is empty at the horizon and where the witness is -1."""
    for t in range(model.horizon + 1):
        for x in range(model.n_states):
            u = int(witness[t, x]) if t < model.horizon else -1
            yield (t, x, model.states.label(x),
                   model.controls.label(u) if u >= 0 else "")


def _summary(args, model, head, members):
    """Print `head: ` and the members' labels; the exit code is 1 when --x0
    is given and is not a member."""
    print(f"{head}: " + (" ".join(_labels(model, members)) or "(empty)"))
    if args.x0 is None:
        return 0
    return 0 if _x0_index(model, args) in members else 1


def _emit_table(args, name, doc, header, rows):
    """NAME.json and NAME.csv of a table command."""
    outdir = _outdir(args)
    _emit_json(outdir, f"{name}.json", doc)
    _emit_csv(outdir, f"{name}.csv", header, rows)


def cmd_check(args, model, regime, risk):
    x0 = _x0_index(model, args)
    ok = check_resilient(
        model, _strategy_arg(model, args), x0, args.t, regime,
        cap=_scenario_cap(args),
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


def cmd_kernel(args, model, regime, risk):
    table = robust_viability_kernel(model, _state_set_arg(model, regime))
    doc = {
        "command": "kernel",
        "domain": table.domain,
        "acceptable": _labels(model, table.acceptable),
        "members": {
            str(t): _labels(model, table.member_set(t))
            for t in range(model.horizon + 1)
        },
    }
    rows = [
        (t, label, int(table.member[t, x]), witness)
        for t, x, label, witness in _grid(model, table.witness)
    ]
    _emit_table(args, "kernel", doc, ("t", "state", "member", "witness"),
                rows)
    return _summary(
        args, model, f"kernel at t={args.t}", table.member_set(args.t)
    )


def cmd_value(args, model, regime, risk):
    acceptable = _state_set_arg(model, regime)
    beta, source = args.beta, "--beta"
    if beta is None:
        beta = regime.beta if isinstance(regime, rg.StochasticViability) else 1.0
        source = "the regime's beta"
    if not 0.0 <= beta <= 1.0:
        raise InputError(f"{source} must be in [0, 1], got {beta}")
    table = stochastic_viability_value(model, acceptable)
    doc = {
        "command": "value",
        "acceptable": _labels(model, acceptable),
        "beta": float(beta),
        "values": {
            str(t): _by_state(model, table.value[t])
            for t in range(model.horizon + 1)
        },
    }
    rows = [
        (t, label, format_float(table.value[t, x]), witness,
         int(table.value[t, x] >= beta))
        for t, x, label, witness in _grid(model, table.witness)
    ]
    _emit_table(
        args, "value", doc, ("t", "state", "value", "witness", "resilient"),
        rows,
    )
    return _summary(
        args, model, f"resilient at t={args.t} (beta={format_float(beta)})",
        table.resilient_set(args.t, beta),
    )


def cmd_recovery(args, model, regime, risk):
    acceptable = _state_set_arg(model, regime)
    deadline = args.deadline
    if deadline is None:
        deadline = (regime.deadline if isinstance(regime, rg.RobustRecovery)
                    else model.horizon)
    table = robust_recovery_table(model, acceptable, deadline)
    doc = {
        "command": "recovery",
        "acceptable": _labels(model, acceptable),
        "deadline": deadline,
        "r_star": _by_state(model, table.r_star),
    }
    resilient = [table.resilient_set(t) for t in range(model.horizon + 1)]
    rows = [
        (t, label, format_float(table.min_layer[t, x]),
         int(x in resilient[t]), witness)
        for t, x, label, witness in _grid(model, table.witness)
    ]
    _emit_table(
        args, "recovery", doc,
        ("t", "state", "min_layer", "resilient", "witness"), rows,
    )
    return _summary(
        args, model, f"resilient at t={args.t} (deadline={deadline})",
        resilient[args.t],
    )


def _resilient_set_doc(model, result, command):
    return {
        "command": command,
        "regime": _kind_name(result.regime),
        "class": result.strategy_class,
        "start": result.start,
        "method": result.method,
        "members": _labels(model, result.members),
        "witnesses": {
            model.states.label(x): strategy_to_text(model, result.witnesses[x])
            for x in sorted(result.members)
        },
    }


def cmd_resilient_set(args, model, regime, risk):
    result = resilient_states(
        model, args.t, regime,
        strategy_class=args.strategy_class, cap=_strategy_cap(args),
    )
    doc = _resilient_set_doc(model, result, "resilient-set")
    rows = [
        (model.states.label(x), int(x in result.members))
        for x in range(model.n_states)
    ]
    _emit_table(args, "resilient_set", doc, ("state", "member"), rows)
    return _summary(
        args, model, f"resilient at t={args.t} [{result.method}]",
        result.members,
    )


def _optimize_result(args, model, regime, risk):
    if risk is None:
        raise InputError("this command needs a [risk] section in the model")
    return minimize_risk(
        model, _x0_index(model, args), args.t, regime, risk,
        strategy_class=args.strategy_class, cap=_strategy_cap(args),
    )


def cmd_optimize(args, model, regime, risk):
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
    _emit_witness(outdir, "witness.strategy", model, result.strategy)
    print(
        f"minimal risk: {format_float(result.value)} "
        f"[{result.certificate}, examined {result.examined}]"
    )
    return 0 if result.resilient else 1


def cmd_indicator(args, model, regime, risk):
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


def cmd_simulate(args, model, regime, risk):
    bundle = _bundle_arg(model, args)
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
            control = (model.controls.label(traj.control(s))
                       if s < model.horizon else "")
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


def _oracle_resilient_set(args, model, regime, risk):
    result = oracle_resilient_states(
        model, args.t, regime,
        strategy_class=args.strategy_class, cap=_strategy_cap(args),
    )
    doc = _resilient_set_doc(model, result, "oracle")
    doc["mode"] = "resilient-set"
    _emit_json(_outdir(args), "oracle_resilient_set.json", doc)
    return _summary(
        args, model, f"oracle resilient at t={args.t}", result.members
    )


def _oracle_value(args, model, regime, risk):
    values = oracle_value(
        model, _state_set_arg(model, regime), start=args.t,
        cap=_strategy_cap(args),
    )
    doc = {
        "command": "oracle",
        "mode": "value",
        "start": args.t,
        "values": _by_state(model, values),
    }
    _emit_json(_outdir(args), "oracle_value.json", doc)
    print("oracle values: " + " ".join(format_float(v) for v in values))
    return 0


def _oracle_recovery(args, model, regime, risk):
    offsets, ranks = oracle_recovery_offsets(
        model, _state_set_arg(model, regime), start=args.t,
        cap=_strategy_cap(args),
    )
    doc = {
        "command": "oracle",
        "mode": "recovery",
        "start": args.t,
        "offsets": _by_state(model, offsets),
        "witness_ranks": _by_state(model, ranks, int),
    }
    _emit_json(_outdir(args), "oracle_recovery.json", doc)
    print(
        "oracle recovery offsets: "
        + " ".join(format_float(v) for v in offsets)
    )
    return 0


def _oracle_min_risk(args, model, regime, risk):
    if risk is None:
        raise InputError("oracle min-risk needs a [risk] section")
    value, strategy, examined = oracle_min_risk(
        model, _x0_index(model, args), args.t, regime, risk,
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
    outdir = _outdir(args)
    _emit_json(outdir, "oracle_min_risk.json", doc)
    _emit_witness(outdir, "oracle_witness.strategy", model, strategy)
    print(f"oracle minimal risk: {format_float(value)}")
    return 0 if strategy is not None else 1


def _oracle_risk(args, model, regime, risk):
    """The model's risk measure on one closed loop."""
    if risk is None:
        raise InputError("oracle risk needs a [risk] section")
    value = rk.evaluate_risk(model, risk, _bundle_arg(model, args))
    doc = {
        "command": "oracle",
        "mode": "risk",
        "risk": _kind_name(risk),
        "x0": args.x0,
        "start": args.t,
        "value": value,
    }
    _emit_json(_outdir(args), "oracle_risk.json", doc)
    print(f"risk: {format_float(value)}")
    return 0


_ORACLE_MODES = {
    "resilient-set": _oracle_resilient_set,
    "value": _oracle_value,
    "recovery": _oracle_recovery,
    "min-risk": _oracle_min_risk,
    "risk": _oracle_risk,
}


def cmd_oracle(args, model, regime, risk):
    return _ORACLE_MODES[args.mode](args, model, regime, risk)


# Each argument's add_argument keywords; a command names the ones it takes.
_FLAGS = {
    "mode": {"choices": tuple(_ORACLE_MODES)},
    "--model": {"required": True, "help": "model file path"},
    "--out": {"help": "output directory"},
    "--strategy": {"help": "strategy file path"},
    "--x0": {"help": "initial state label"},
    "--t": {"type": int, "default": 0, "help": "start time"},
    "--class": {"dest": "strategy_class", "choices": (MARKOV, ADAPTED),
                "default": MARKOV, "help": "strategy class"},
    "--deadline": {"type": int, "help": "recovery deadline"},
    "--beta": {"type": float, "help": "confidence threshold"},
    "--cap": {"type": int, "help": "enumeration cap"},
    "--robust-only": {"action": "store_true",
                      "help": "restrict scenarios to the robust subset"},
}

# the commands and oracle modes whose --t, checked in main, may be K
_TABLES = ("kernel", "value", "recovery")

# command: (help, handler, its arguments in --help order)
_COMMANDS = {
    "check": ("test one strategy for resilience", cmd_check,
              "--model --out --strategy --x0 --t --cap"),
    "kernel": ("robust viability kernel", cmd_kernel,
               "--model --out --x0 --t"),
    "value": ("stochastic viability value table", cmd_value,
              "--model --out --x0 --t --beta"),
    "recovery": ("layered recovery table", cmd_recovery,
                 "--model --out --x0 --t --deadline"),
    "resilient-set": ("resilient states at a time", cmd_resilient_set,
                      "--model --out --x0 --t --class --cap"),
    "optimize": ("risk-minimizing resilient strategy", cmd_optimize,
                 "--model --out --x0 --t --class --cap"),
    "indicator": ("minimized risk value", cmd_indicator,
                  "--model --out --x0 --t --class --cap"),
    "simulate": ("closed-loop trajectory bundle", cmd_simulate,
                 "--model --out --strategy --x0 --t --cap --robust-only"),
    "oracle": ("enumeration-based reference results", cmd_oracle,
               "mode --model --out --strategy --x0 --t --class --cap "
               "--robust-only"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="resilkit",
        description="resilience analysis for finite controlled systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in names.split():
            p.add_argument(name, **_FLAGS[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parsed = parse_model(_read(args.model))
        hi = parsed.model.horizon
        if getattr(args, "mode", args.command) not in _TABLES:
            hi -= 1  # a control is played at --t
        if not 0 <= args.t <= hi:
            raise InputError(f"--t must be in 0..{hi}, got {args.t}")
        return _COMMANDS[args.command][1](
            args, parsed.model, parsed.regime, parsed.risk
        )
    except ResilkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

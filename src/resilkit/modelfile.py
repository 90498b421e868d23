"""The line/section model file format.

A model file is UTF-8 text. '#' starts a comment; blank lines are ignored.
Sections open with a bracketed name and hold either `key = value` lines or
table rows:

    [time]         horizon = K
    [states]       rows: label coord...   (coords optional, default numeric)
    [controls]     rows: label coord...
    [uncertainty]  set <t|*> = labels...; prob <t|*> = p...;
                   robust <t|*> = labels...;
                   robust_scenario = w_0 ... w_{K-1}   (repeatable);
                   scenario_prob = w_0 ... w_{K-1} : p (repeatable)
    [dynamics]     rows: <t|*> x u w -> x'   (x' may be CEMETERY)
    [constraints]  rows: <t|*> x -> u...     (default: every control)
    [regime]       kind = ... plus the kind's keys
    [risk]         kind = ... plus the kind's keys (optional section)
    [cost]         rows: state <t|*> x = v; control <t|*> u = v
                   (tables for the tabular cost kind; absent entries are 0)

The wildcard `*` expands to every time; a wildcard row and an explicit row
covering the same cell is a duplicate error. Exactly one regime section is
required, at most one risk section. Dynamics must be total. Floats are
decimal; per-time probabilities must sum to 1 within 1e-9.

Regime kinds and their keys:
    viability              acceptable
    robust_recovery        acceptable, deadline
    stochastic_viability   acceptable, beta
    bounded                region
    prob_excursion         region, beta
    at_most_k_exits        region, max_exits
    stabilize              target, radius, window
    control_event          controls
    risk_containment       level (measures the [risk] section)

Risk kinds and their keys:
    worst_case_violation   acceptable
    exceedance             acceptable
    ambiguity_exceedance   acceptable, belief rows (`belief <i> <t|*> = p...`)
    exit_count             acceptable, outer (expectation|worst_case|cvar),
                           alpha (when outer = cvar)
    composed               cost (time_outside|control_effort|terminal_miss|
                           tabular|recovery_offset), outer, alpha,
                           acceptable (set-based costs), effort (optional
                           per-control rates), cemetery_penalty (optional)
"""

from __future__ import annotations

import numpy as np

from ._record import record
from .errors import ModelFormatError
from .model import (
    CEMETERY_LABEL,
    ControlSpace,
    StateSpace,
    SystemModel,
    TimeGrid,
    UncertaintyStructure,
    state_indices,
)
from . import regimes as rg
from . import risk as rk

SECTIONS = (
    "time",
    "states",
    "controls",
    "uncertainty",
    "dynamics",
    "constraints",
    "regime",
    "risk",
    "cost",
)

REGIME_KINDS = (
    "viability",
    "robust_recovery",
    "stochastic_viability",
    "bounded",
    "prob_excursion",
    "at_most_k_exits",
    "stabilize",
    "control_event",
    "risk_containment",
)

RISK_KIND_NAMES = (
    "worst_case_violation",
    "exceedance",
    "ambiguity_exceedance",
    "exit_count",
    "composed",
)

COST_NAMES = (
    "time_outside",
    "control_effort",
    "terminal_miss",
    "tabular",
    "recovery_offset",
)

OUTER_NAMES = ("expectation", "worst_case", "cvar")


@record(eq=False)
class ParsedModel:
    """parse_model result: the system plus its declared regime and risk."""

    model: SystemModel
    regime: object
    risk: object  # or None


def _split_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ModelFormatError(
                    f"unknown section [{name}]; expected one of: "
                    + ", ".join(SECTIONS),
                    lineno,
                )
            if name in sections:
                raise ModelFormatError(f"duplicate section [{name}]", lineno)
            current = []
            sections[name] = current
            continue
        if current is None:
            raise ModelFormatError(
                f"content before any section: {line!r}", lineno
            )
        current.append((lineno, line))
    for name in ("time", "states", "controls", "uncertainty", "dynamics",
                 "regime"):
        if name not in sections:
            raise ModelFormatError(f"missing required section [{name}]")
    return sections


def _keyvals(rows):
    out = []
    for lineno, line in rows:
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelFormatError(f"expected `key = value`, got {line!r}", lineno)
        out.append((lineno, key.strip(), value.strip()))
    return out


def _int(value, what, lineno):
    try:
        return int(value)
    except ValueError:
        raise ModelFormatError(f"bad {what} {value!r}", lineno) from None


def _float(value, what, lineno):
    try:
        return float(value)
    except ValueError:
        raise ModelFormatError(f"bad {what} {value!r}", lineno) from None


def _times(token, horizon, lineno):
    if token == "*":
        return range(horizon)
    t = _int(token, "time", lineno)
    if not 0 <= t < horizon:
        raise ModelFormatError(f"time {t} outside 0..{horizon - 1}", lineno)
    return (t,)


def _parse_time(rows):
    horizon = None
    for lineno, key, value in _keyvals(rows):
        if key != "horizon":
            raise ModelFormatError(f"unknown time key {key!r}", lineno)
        horizon = _int(value, "horizon", lineno)
    if horizon is None:
        raise ModelFormatError("missing `horizon =` in [time]")
    return horizon


def _parse_space(rows, what):
    labels = []
    coords = []
    for lineno, line in rows:
        parts = line.split()
        label = parts[0]
        if label in labels:
            raise ModelFormatError(f"duplicate {what} label {label!r}", lineno)
        labels.append(label)
        coords.append([_float(c, "coordinate", lineno) for c in parts[1:]])
    if not labels:
        raise ModelFormatError(f"[{what}s] section is empty")
    lens = {len(c) for c in coords}
    if lens == {0}:
        return labels, None
    if len(lens) != 1 or 0 in lens:
        raise ModelFormatError(
            f"inconsistent coordinate counts in [{what}s] section"
        )
    return labels, coords


def _parse_uncertainty(rows, horizon):
    sets = [None] * horizon
    probs = [None] * horizon
    robust = [None] * horizon
    raw_scenarios = []  # (lineno, labels)
    raw_joint = []  # (lineno, labels, prob)
    lines = {}
    for lineno, line in rows:
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelFormatError(f"expected `key ... = ...`, got {line!r}", lineno)
        head = key.split()
        value = value.strip()
        if head[0] == "robust_scenario" and len(head) == 1:
            raw_scenarios.append((lineno, value.split()))
            continue
        if head[0] == "scenario_prob" and len(head) == 1:
            labels, colon, p = value.partition(":")
            if not colon:
                raise ModelFormatError(
                    "expected `scenario_prob = w ... w : p`", lineno
                )
            raw_joint.append(
                (lineno, labels.split(), _float(p.strip(), "probability", lineno))
            )
            continue
        if len(head) != 2 or head[0] not in ("set", "prob", "robust"):
            raise ModelFormatError(f"unknown uncertainty line {line!r}", lineno)
        kind, token = head
        target = {"set": sets, "prob": probs, "robust": robust}[kind]
        for t in _times(token, horizon, lineno):
            if target[t] is not None:
                raise ModelFormatError(
                    f"duplicate `{kind}` for time {t}", lineno
                )
            target[t] = value.split()
            lines[(kind, t)] = lineno
    for t in range(horizon):
        if sets[t] is None:
            raise ModelFormatError(f"no uncertainty set declared for time {t}")
    return sets, probs, robust, raw_scenarios, raw_joint, lines


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file; errors cite 1-based line numbers."""
    sections = _split_sections(text)
    horizon = _parse_time(sections["time"])
    if horizon < 1:
        raise ModelFormatError(f"horizon must be >= 1, got {horizon}")
    state_labels, state_coords = _parse_space(sections["states"], "state")
    control_labels, control_coords = _parse_space(sections["controls"], "control")
    if CEMETERY_LABEL in state_labels or CEMETERY_LABEL in control_labels:
        raise ModelFormatError(f"label {CEMETERY_LABEL!r} is reserved")

    (set_rows, prob_rows, robust_rows, raw_scenarios, raw_joint,
     unc_lines) = _parse_uncertainty(sections["uncertainty"], horizon)

    n, nu = len(state_labels), len(control_labels)
    state_idx = {lab: i for i, lab in enumerate(state_labels)}
    state_idx[CEMETERY_LABEL] = n
    control_idx = {lab: i for i, lab in enumerate(control_labels)}
    w_idx = []
    for t, ws in enumerate(set_rows):
        if len(set(ws)) != len(ws):
            raise ModelFormatError(
                f"duplicate uncertainty labels at time {t}",
                unc_lines.get(("set", t)),
            )
        w_idx.append({lab: i for i, lab in enumerate(ws)})

    prob_vectors = []
    for t, ps in enumerate(prob_rows):
        if ps is None:
            prob_vectors.append(None)
            continue
        lineno = unc_lines.get(("prob", t))
        vec = [_float(p, "probability", lineno) for p in ps]
        if len(vec) != len(set_rows[t]):
            raise ModelFormatError(
                f"{len(vec)} probabilities for {len(set_rows[t])} "
                f"uncertainty values at time {t}",
                lineno,
            )
        s = sum(vec)
        if abs(s - 1.0) > 1e-9:
            raise ModelFormatError(
                f"probabilities sum to {s!r} != 1 at time {t}", lineno
            )
        prob_vectors.append(vec)
    if any(p is not None for p in prob_vectors) and any(
        p is None for p in prob_vectors
    ):
        missing = [t for t, p in enumerate(prob_vectors) if p is None]
        raise ModelFormatError(
            f"probabilities declared for some times but missing for {missing}"
        )

    robust_sets = []
    for t, labs in enumerate(robust_rows):
        if labs is None:
            robust_sets.append(tuple(range(len(set_rows[t]))))
            continue
        lineno = unc_lines.get(("robust", t))
        idx = []
        for lab in labs:
            if lab not in w_idx[t]:
                raise ModelFormatError(
                    f"unknown uncertainty label {lab!r} at time {t}", lineno
                )
            idx.append(w_idx[t][lab])
        robust_sets.append(tuple(idx))

    def scenario_from_labels(labels, lineno):
        if len(labels) != horizon:
            raise ModelFormatError(
                f"scenario has {len(labels)} entries, expected {horizon}",
                lineno,
            )
        out = []
        for t, lab in enumerate(labels):
            if lab not in w_idx[t]:
                raise ModelFormatError(
                    f"unknown uncertainty label {lab!r} at time {t}", lineno
                )
            out.append(w_idx[t][lab])
        return tuple(out)

    robust_scenarios = None
    if raw_scenarios:
        robust_scenarios = tuple(
            scenario_from_labels(labs, lineno) for lineno, labs in raw_scenarios
        )
    scenario_probs = None
    if raw_joint:
        scenario_probs = {}
        for lineno, labs, p in raw_joint:
            scen = scenario_from_labels(labs, lineno)
            if scen in scenario_probs:
                raise ModelFormatError(
                    "duplicate scenario_prob entry", lineno
                )
            scenario_probs[scen] = p

    nw_max = max(len(ws) for ws in set_rows)
    dynamics = np.full((horizon, n, nu, nw_max), -1, dtype=np.int32)
    dyn_line = {}
    for lineno, line in sections["dynamics"]:
        head, arrow, target = line.rpartition("->")
        if not arrow:
            raise ModelFormatError(
                f"expected `t x u w -> state`, got {line!r}", lineno
            )
        parts = head.split()
        if len(parts) != 4:
            raise ModelFormatError(
                f"expected `t x u w -> state`, got {line!r}", lineno
            )
        target = target.strip()
        if target not in state_idx:
            raise ModelFormatError(f"unknown state label {target!r}", lineno)
        for name, idx, what in (
            (parts[1], state_idx, "state"),
            (parts[2], control_idx, "control"),
        ):
            if name not in idx:
                raise ModelFormatError(f"unknown {what} label {name!r}", lineno)
        x, u = state_idx[parts[1]], control_idx[parts[2]]
        if x == n:
            raise ModelFormatError("no dynamics rows at the cemetery", lineno)
        for t in _times(parts[0], horizon, lineno):
            if parts[3] not in w_idx[t]:
                raise ModelFormatError(
                    f"unknown uncertainty label {parts[3]!r} at time {t}",
                    lineno,
                )
            w = w_idx[t][parts[3]]
            if dynamics[t, x, u, w] != -1:
                raise ModelFormatError(
                    f"duplicate dynamics row for (t={t}, x={parts[1]}, "
                    f"u={parts[2]}, w={parts[3]})",
                    lineno,
                )
            dynamics[t, x, u, w] = state_idx[target]
            dyn_line[(t, x, u, w)] = lineno
    for t in range(horizon):
        for x in range(n):
            for u in range(nu):
                for w in range(len(set_rows[t])):
                    if dynamics[t, x, u, w] == -1:
                        raise ModelFormatError(
                            "dynamics not total at (t="
                            f"{t}, x={state_labels[x]}, "
                            f"u={control_labels[u]}, w={set_rows[t][w]})"
                        )
        # padding entries (w beyond |W_t|) must stay valid indices
        dynamics[t, :, :, len(set_rows[t]):] = n

    constraints = np.ones((horizon, n, nu), dtype=bool)
    seen_con = set()
    for lineno, line in sections.get("constraints", []):
        head, arrow, allowed = line.rpartition("->")
        if not arrow:
            raise ModelFormatError(
                f"expected `t x -> controls`, got {line!r}", lineno
            )
        parts = head.split()
        if len(parts) != 2:
            raise ModelFormatError(
                f"expected `t x -> controls`, got {line!r}", lineno
            )
        if parts[1] not in state_idx or state_idx[parts[1]] == n:
            raise ModelFormatError(f"unknown state label {parts[1]!r}", lineno)
        x = state_idx[parts[1]]
        labs = allowed.split()
        if not labs:
            raise ModelFormatError(
                f"empty admissible control set for state {parts[1]}", lineno
            )
        us = []
        for lab in labs:
            if lab not in control_idx:
                raise ModelFormatError(f"unknown control label {lab!r}", lineno)
            us.append(control_idx[lab])
        for t in _times(parts[0], horizon, lineno):
            if (t, x) in seen_con:
                raise ModelFormatError(
                    f"duplicate constraints row for (t={t}, x={parts[1]})",
                    lineno,
                )
            seen_con.add((t, x))
            constraints[t, x, :] = False
            constraints[t, x, us] = True

    model = SystemModel(
        TimeGrid(horizon),
        StateSpace(tuple(state_labels), state_coords),
        ControlSpace(tuple(control_labels), control_coords),
        UncertaintyStructure(
            tuple(tuple(ws) for ws in set_rows),
            tuple(prob_vectors),
            tuple(robust_sets),
        ),
        dynamics,
        constraints,
        robust_scenarios,
        scenario_probs,
    )

    risk_spec = None
    if "risk" in sections:
        risk_spec = _parse_risk(sections["risk"], sections.get("cost", []), model)
    elif "cost" in sections:
        raise ModelFormatError("[cost] section requires a [risk] section")
    regime = _parse_regime(sections["regime"], model, risk_spec)
    return ParsedModel(model, regime, risk_spec)


def _section_dict(rows, known, section):
    out = {}
    extra = []
    for lineno, line in rows:
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelFormatError(f"expected `key = value`, got {line!r}", lineno)
        key = key.strip()
        if key.split()[0] == "belief":
            extra.append((lineno, key, value.strip()))
            continue
        if key not in known:
            raise ModelFormatError(
                f"unknown [{section}] key {key!r}; expected one of: "
                + ", ".join(sorted(known)),
                lineno,
            )
        if key in out:
            raise ModelFormatError(f"duplicate key {key!r}", lineno)
        out[key] = (lineno, value.strip())
    return out, extra


def _need(d, key, section):
    if key not in d:
        raise ModelFormatError(f"[{section}] is missing `{key} =`")
    return d[key]


def _state_set(model, value, lineno):
    try:
        return state_indices(model, value.split())
    except Exception as exc:
        raise ModelFormatError(str(exc), lineno) from None


REGIME_KEYS = {
    "kind", "acceptable", "region", "deadline", "beta", "max_exits",
    "target", "radius", "window", "controls", "level",
}


def _parse_regime(rows, model, risk_spec):
    d, extra = _section_dict(rows, REGIME_KEYS, "regime")
    if extra:
        raise ModelFormatError("belief lines belong in [risk]", extra[0][0])
    lineno, kind = _need(d, "kind", "regime")
    if kind not in REGIME_KINDS:
        raise ModelFormatError(
            f"unknown regime kind {kind!r}; expected one of: "
            + ", ".join(REGIME_KINDS),
            lineno,
        )
    if kind == "viability":
        ln, v = _need(d, "acceptable", "regime")
        return rg.Viability(_state_set(model, v, ln))
    if kind == "robust_recovery":
        ln, v = _need(d, "acceptable", "regime")
        dl, dv = _need(d, "deadline", "regime")
        return rg.RobustRecovery(_state_set(model, v, ln), _int(dv, "deadline", dl))
    if kind == "stochastic_viability":
        ln, v = _need(d, "acceptable", "regime")
        bl, bv = _need(d, "beta", "regime")
        return rg.StochasticViability(
            _state_set(model, v, ln), _float(bv, "beta", bl)
        )
    if kind == "bounded":
        ln, v = _need(d, "region", "regime")
        return rg.Bounded(_state_set(model, v, ln))
    if kind == "prob_excursion":
        ln, v = _need(d, "region", "regime")
        bl, bv = _need(d, "beta", "regime")
        return rg.ProbExcursion(_state_set(model, v, ln), _float(bv, "beta", bl))
    if kind == "at_most_k_exits":
        ln, v = _need(d, "region", "regime")
        kl, kv = _need(d, "max_exits", "regime")
        return rg.AtMostKExits(_state_set(model, v, ln), _int(kv, "max_exits", kl))
    if kind == "stabilize":
        tl, tv = _need(d, "target", "regime")
        try:
            target = model.states.index(tv)
        except Exception as exc:
            raise ModelFormatError(str(exc), tl) from None
        rl, rv = _need(d, "radius", "regime")
        wl, wv = _need(d, "window", "regime")
        return rg.Stabilize(
            target, _float(rv, "radius", rl), _int(wv, "window", wl)
        )
    if kind == "control_event":
        ln, v = _need(d, "controls", "regime")
        out = set()
        for lab in v.split():
            try:
                out.add(model.controls.index(lab))
            except Exception as exc:
                raise ModelFormatError(str(exc), ln) from None
        return rg.ControlEvent(frozenset(out))
    # risk_containment
    ll, lv = _need(d, "level", "regime")
    if risk_spec is None:
        raise ModelFormatError(
            "regime kind risk_containment requires a [risk] section", ll
        )
    return rg.RiskContainment(risk_spec, _float(lv, "level", ll))


RISK_KEYS = {
    "kind", "acceptable", "outer", "alpha", "cost", "effort",
    "cemetery_penalty",
}


def _parse_outer(d):
    lineno, name = _need(d, "outer", "risk")
    if name not in OUTER_NAMES:
        raise ModelFormatError(
            f"unknown outer {name!r}; expected one of: " + ", ".join(OUTER_NAMES),
            lineno,
        )
    if name == "expectation":
        return rk.Expectation()
    if name == "worst_case":
        return rk.WorstCase()
    al, av = _need(d, "alpha", "risk")
    return rk.CVaR(_float(av, "alpha", al))


def _parse_risk(rows, cost_rows, model):
    d, belief_rows = _section_dict(rows, RISK_KEYS, "risk")
    lineno, kind = _need(d, "kind", "risk")
    if kind not in RISK_KIND_NAMES:
        raise ModelFormatError(
            f"unknown risk kind {kind!r}; expected one of: "
            + ", ".join(RISK_KIND_NAMES),
            lineno,
        )
    if kind != "composed" and "cost" in d:
        raise ModelFormatError("`cost =` only applies to kind composed", d["cost"][0])
    if cost_rows and not (kind == "composed" and d.get("cost", (0, ""))[1] == "tabular"):
        raise ModelFormatError(
            "[cost] section requires risk `kind = composed` with "
            "`cost = tabular`",
            cost_rows[0][0],
        )

    if kind == "worst_case_violation":
        ln, v = _need(d, "acceptable", "risk")
        return rk.WorstCaseViolation(_state_set(model, v, ln))
    if kind == "exceedance":
        ln, v = _need(d, "acceptable", "risk")
        return rk.Exceedance(_state_set(model, v, ln))
    if kind == "ambiguity_exceedance":
        ln, v = _need(d, "acceptable", "risk")
        beliefs = _parse_beliefs(belief_rows, model)
        return rk.AmbiguityExceedance(_state_set(model, v, ln), beliefs)
    if belief_rows:
        raise ModelFormatError(
            "belief lines only apply to kind ambiguity_exceedance",
            belief_rows[0][0],
        )
    if kind == "exit_count":
        ln, v = _need(d, "acceptable", "risk")
        return rk.ExitCountFunctional(_state_set(model, v, ln), _parse_outer(d))
    # composed
    cl, cname = _need(d, "cost", "risk")
    if cname not in COST_NAMES:
        raise ModelFormatError(
            f"unknown cost {cname!r}; expected one of: " + ", ".join(COST_NAMES),
            cl,
        )
    penalty = rk.CEMETERY_PENALTY
    if "cemetery_penalty" in d:
        pl, pv = d["cemetery_penalty"]
        penalty = _float(pv, "cemetery_penalty", pl)
    if cname == "time_outside":
        ln, v = _need(d, "acceptable", "risk")
        cost = rk.TimeOutside(_state_set(model, v, ln), penalty)
    elif cname == "control_effort":
        rates = None
        if "effort" in d:
            el, ev = d["effort"]
            rates = tuple(_float(r, "effort rate", el) for r in ev.split())
            if len(rates) != model.n_controls:
                raise ModelFormatError(
                    f"{len(rates)} effort rates for {model.n_controls} "
                    "controls",
                    el,
                )
        cost = rk.ControlEffort(rates, penalty)
    elif cname == "terminal_miss":
        ln, v = _need(d, "acceptable", "risk")
        cost = rk.TerminalMiss(_state_set(model, v, ln), penalty)
    elif cname == "recovery_offset":
        ln, v = _need(d, "acceptable", "risk")
        cost = rk.RecoveryOffset(_state_set(model, v, ln), penalty)
    else:
        cost = _parse_cost_tables(cost_rows, model, penalty)
    return rk.Composed(cost, _parse_outer(d))


def _parse_beliefs(belief_rows, model):
    """Rows `belief <i> <t|*> = p...` indexed densely from 0."""
    table = {}
    for lineno, key, value in belief_rows:
        parts = key.split()
        if len(parts) != 3:
            raise ModelFormatError(
                f"expected `belief <i> <t|*> = p...`, got {key!r}", lineno
            )
        b = _int(parts[1], "belief index", lineno)
        vec = [_float(p, "probability", lineno) for p in value.split()]
        for t in _times(parts[2], model.horizon, lineno):
            if (b, t) in table:
                raise ModelFormatError(
                    f"duplicate belief {b} vector for time {t}", lineno
                )
            if len(vec) != model.uncertainty.size(t):
                raise ModelFormatError(
                    f"{len(vec)} probabilities for "
                    f"{model.uncertainty.size(t)} uncertainty values at "
                    f"time {t}",
                    lineno,
                )
            table[(b, t)] = tuple(vec)
    if not table:
        raise ModelFormatError("ambiguity_exceedance needs belief lines")
    count = max(b for b, _ in table) + 1
    beliefs = []
    for b in range(count):
        belief = []
        for t in range(model.horizon):
            if (b, t) not in table:
                raise ModelFormatError(
                    f"belief {b} is missing a vector for time {t}"
                )
            belief.append(table[(b, t)])
        beliefs.append(tuple(belief))
    return tuple(beliefs)


def _parse_cost_tables(cost_rows, model, penalty):
    K, n, nu = model.horizon, model.n_states, model.n_controls
    state_costs = np.zeros((K + 1, n), dtype=np.float64)
    control_costs = np.zeros((K, nu), dtype=np.float64)
    seen = set()
    for lineno, line in cost_rows:
        head, eq, value = line.partition("=")
        if not eq:
            raise ModelFormatError(
                f"expected `state|control <t|*> <label> = v`, got {line!r}",
                lineno,
            )
        parts = head.split()
        if len(parts) != 3 or parts[0] not in ("state", "control"):
            raise ModelFormatError(
                f"expected `state|control <t|*> <label> = v`, got {line!r}",
                lineno,
            )
        v = _float(value.strip(), "cost", lineno)
        if parts[0] == "state":
            try:
                x = model.states.index(parts[2])
            except Exception as exc:
                raise ModelFormatError(str(exc), lineno) from None
            if x == model.cemetery:
                raise ModelFormatError("no cost rows at the cemetery", lineno)
            if parts[1] == "*":
                times = range(K + 1)
            else:
                t = _int(parts[1], "time", lineno)
                if not 0 <= t <= K:
                    raise ModelFormatError(f"time {t} outside 0..{K}", lineno)
                times = (t,)
            for t in times:
                if ("state", t, x) in seen:
                    raise ModelFormatError(
                        f"duplicate state cost for (t={t}, x={parts[2]})",
                        lineno,
                    )
                seen.add(("state", t, x))
                state_costs[t, x] = v
        else:
            try:
                u = model.controls.index(parts[2])
            except Exception as exc:
                raise ModelFormatError(str(exc), lineno) from None
            for t in _times(parts[1], K, lineno):
                if ("control", t, u) in seen:
                    raise ModelFormatError(
                        f"duplicate control cost for (t={t}, u={parts[2]})",
                        lineno,
                    )
                seen.add(("control", t, u))
                control_costs[t, u] = v
    return rk.TabularCost(state_costs, control_costs, penalty)


def _fmt(value):
    # builtin float repr is the shortest exact round-trip form
    return repr(float(value))


def _labels(model, indices):
    return " ".join(model.states.label(x) for x in sorted(indices))


def serialize_model(model, regime, risk=None) -> str:
    """Canonical text form: explicit rows, sorted, shortest-round-trip
    floats. parse(serialize(parse(text))) is the identity on the model,
    regime, and risk."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    unc = model.uncertainty
    out = ["[time]", f"horizon = {K}", "", "[states]"]
    for x in range(n):
        coords = " ".join(_fmt(c) for c in model.states.coords[x])
        out.append(f"{model.states.label(x)} {coords}".rstrip())
    out += ["", "[controls]"]
    for u in range(nu):
        coords = " ".join(_fmt(c) for c in model.controls.coords[u])
        out.append(f"{model.controls.label(u)} {coords}".rstrip())
    out += ["", "[uncertainty]"]
    for t in range(K):
        out.append(f"set {t} = " + " ".join(unc.sets[t]))
    if unc.has_probs:
        for t in range(K):
            out.append(
                f"prob {t} = " + " ".join(_fmt(p) for p in unc.probs[t])
            )
    for t in range(K):
        if len(unc.robust[t]) != unc.size(t):
            out.append(
                f"robust {t} = "
                + " ".join(unc.sets[t][w] for w in unc.robust[t])
            )
    if model.robust_scenarios is not None:
        for scen in model.robust_scenarios:
            out.append(
                "robust_scenario = "
                + " ".join(unc.sets[t][w] for t, w in enumerate(scen))
            )
    if model.scenario_probs is not None:
        for scen in sorted(model.scenario_probs):
            labels = " ".join(unc.sets[t][w] for t, w in enumerate(scen))
            out.append(
                f"scenario_prob = {labels} : "
                + _fmt(model.scenario_probs[scen])
            )
    out += ["", "[dynamics]"]
    for t in range(K):
        for x in range(n):
            for u in range(nu):
                for w in range(unc.size(t)):
                    nxt = int(model.dynamics[t, x, u, w])
                    label = CEMETERY_LABEL if nxt == n else model.states.label(nxt)
                    out.append(
                        f"{t} {model.states.label(x)} "
                        f"{model.controls.label(u)} {unc.sets[t][w]} -> {label}"
                    )
    rows = []
    for t in range(K):
        for x in range(n):
            if not model.constraints[t, x].all():
                allowed = " ".join(
                    model.controls.label(u)
                    for u in range(nu)
                    if model.constraints[t, x, u]
                )
                rows.append(f"{t} {model.states.label(x)} -> {allowed}")
    if rows:
        out += ["", "[constraints]"] + rows
    out += ["", "[regime]"] + _regime_lines(model, regime)
    if risk is not None:
        risk_lines, cost_lines = _risk_lines(model, risk)
        out += ["", "[risk]"] + risk_lines
        if cost_lines:
            out += ["", "[cost]"] + cost_lines
    return "\n".join(out) + "\n"


def _regime_lines(model, regime):
    if isinstance(regime, rg.Viability):
        return ["kind = viability",
                f"acceptable = {_labels(model, regime.acceptable)}"]
    if isinstance(regime, rg.RobustRecovery):
        return ["kind = robust_recovery",
                f"acceptable = {_labels(model, regime.acceptable)}",
                f"deadline = {regime.deadline}"]
    if isinstance(regime, rg.StochasticViability):
        return ["kind = stochastic_viability",
                f"acceptable = {_labels(model, regime.acceptable)}",
                f"beta = {_fmt(regime.beta)}"]
    if isinstance(regime, rg.Bounded):
        return ["kind = bounded",
                f"region = {_labels(model, regime.region)}"]
    if isinstance(regime, rg.ProbExcursion):
        return ["kind = prob_excursion",
                f"region = {_labels(model, regime.region)}",
                f"beta = {_fmt(regime.beta)}"]
    if isinstance(regime, rg.AtMostKExits):
        return ["kind = at_most_k_exits",
                f"region = {_labels(model, regime.region)}",
                f"max_exits = {regime.max_exits}"]
    if isinstance(regime, rg.Stabilize):
        return ["kind = stabilize",
                f"target = {model.states.label(regime.target)}",
                f"radius = {_fmt(regime.radius)}",
                f"window = {regime.window}"]
    if isinstance(regime, rg.ControlEvent):
        labels = " ".join(
            model.controls.label(u) for u in sorted(regime.controls)
        )
        return ["kind = control_event", f"controls = {labels}"]
    if isinstance(regime, rg.RiskContainment):
        return ["kind = risk_containment", f"level = {_fmt(regime.level)}"]
    raise ModelFormatError(f"cannot serialize regime {type(regime).__name__}")


def _outer_lines(outer):
    if isinstance(outer, rk.Expectation):
        return ["outer = expectation"]
    if isinstance(outer, rk.WorstCase):
        return ["outer = worst_case"]
    return ["outer = cvar", f"alpha = {_fmt(outer.level)}"]


def _risk_lines(model, risk):
    if isinstance(risk, rk.WorstCaseViolation):
        return (["kind = worst_case_violation",
                 f"acceptable = {_labels(model, risk.acceptable)}"], [])
    if isinstance(risk, rk.Exceedance):
        return (["kind = exceedance",
                 f"acceptable = {_labels(model, risk.acceptable)}"], [])
    if isinstance(risk, rk.AmbiguityExceedance):
        lines = ["kind = ambiguity_exceedance",
                 f"acceptable = {_labels(model, risk.acceptable)}"]
        for b, belief in enumerate(risk.beliefs):
            for t, vec in enumerate(belief):
                lines.append(
                    f"belief {b} {t} = " + " ".join(_fmt(p) for p in vec)
                )
        return (lines, [])
    if isinstance(risk, rk.ExitCountFunctional):
        return (["kind = exit_count",
                 f"acceptable = {_labels(model, risk.acceptable)}"]
                + _outer_lines(risk.outer), [])
    if not isinstance(risk, rk.Composed):
        raise ModelFormatError(f"cannot serialize risk {type(risk).__name__}")
    cost = risk.cost
    lines = ["kind = composed"]
    cost_lines = []
    if isinstance(cost, rk.TimeOutside):
        lines.append("cost = time_outside")
        lines.append(f"acceptable = {_labels(model, cost.acceptable)}")
    elif isinstance(cost, rk.ControlEffort):
        lines.append("cost = control_effort")
        if cost.rates is not None:
            lines.append("effort = " + " ".join(_fmt(r) for r in cost.rates))
    elif isinstance(cost, rk.TerminalMiss):
        lines.append("cost = terminal_miss")
        lines.append(f"acceptable = {_labels(model, cost.acceptable)}")
    elif isinstance(cost, rk.RecoveryOffset):
        lines.append("cost = recovery_offset")
        lines.append(f"acceptable = {_labels(model, cost.acceptable)}")
    elif isinstance(cost, rk.TabularCost):
        lines.append("cost = tabular")
        for t in range(model.horizon + 1):
            for x in range(model.n_states):
                v = float(cost.state_costs[t, x])
                if v != 0.0:
                    cost_lines.append(
                        f"state {t} {model.states.label(x)} = {_fmt(v)}"
                    )
        for t in range(model.horizon):
            for u in range(model.n_controls):
                v = float(cost.control_costs[t, u])
                if v != 0.0:
                    cost_lines.append(
                        f"control {t} {model.controls.label(u)} = {_fmt(v)}"
                    )
    else:
        raise ModelFormatError(f"cannot serialize cost {type(cost).__name__}")
    if cost.cemetery_penalty != rk.CEMETERY_PENALTY:
        lines.append(f"cemetery_penalty = {_fmt(cost.cemetery_penalty)}")
    lines += _outer_lines(risk.outer)
    return (lines, cost_lines)


def regime_state_set(regime):
    """The state set a kernel/value/recovery table should target, if the
    regime names one."""
    if isinstance(regime, (rg.Viability, rg.RobustRecovery,
                           rg.StochasticViability)):
        return regime.acceptable
    if isinstance(regime, (rg.Bounded, rg.ProbExcursion, rg.AtMostKExits)):
        return regime.region
    return None

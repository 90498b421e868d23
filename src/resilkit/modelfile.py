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
decimal; a `robust_scenario` may not repeat. `prob`, `scenario_prob` and
`belief` values follow the probability rule of the model records
(model._check_probabilities), which fails at the line that holds the fault.
Any InputError of a record built from the file surfaces as a
ModelFormatError, with the record's text.

The [regime] and [risk] vocabulary lives in one table below (_REGIMES,
_RISKS, _COSTS, _OUTERS): each kind's name, its record class and the keys
of its fields. Parsing, serializing, `regime_state_set` and the CLI's JSON
names all read it. An error names the first fault in record field order:
each key is required, then its value read, nested kinds (cost, outer) in
place, and the fields no key names (risk_containment's measure, the
beliefs, the [cost] tables) last.

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
    composed               cost (a cost kind below, then its keys), outer,
                           alpha (when outer = cvar)

Cost kinds and their keys (in the [risk] section, after `cost =`):
    time_outside           acceptable, cemetery_penalty (optional)
    control_effort         effort (optional), cemetery_penalty (optional)
    terminal_miss          acceptable, cemetery_penalty (optional)
    tabular                the [cost] rows, cemetery_penalty (optional)
    recovery_offset        acceptable, cemetery_penalty (optional)
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._record import record
from .errors import InputError, ModelFormatError
from .model import (
    CEMETERY_LABEL,
    ControlSpace,
    StateSpace,
    SystemModel,
    TimeGrid,
    UncertaintyStructure,
    _check_probabilities,
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

@record(eq=False)
class ParsedModel:
    """parse_model result: the system plus its declared regime and risk."""

    model: SystemModel
    regime: object
    risk: object  # or None


def _split_lines(text):
    """The rows before the first `[header]` and the sections in file order,
    each as (header text, its line, its rows); a row is (line number,
    text). '#' starts a comment and blank lines are dropped. Model and
    strategy files both read their lines through here."""
    head, sections = [], []
    rows = head
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            rows = []
            sections.append((line[1:-1].strip(), lineno, rows))
        else:
            rows.append((lineno, line))
    return head, sections


def _split_sections(text):
    """The model file's sections by name: known names, none repeated, the
    required ones present, no content before the first."""
    head, found = _split_lines(text)
    if head:
        lineno, line = head[0]
        raise ModelFormatError(f"content before any section: {line!r}", lineno)
    sections = {}
    for name, lineno, rows in found:
        if name not in SECTIONS:
            raise ModelFormatError(
                f"unknown section [{name}]; expected one of: "
                + ", ".join(SECTIONS),
                lineno,
            )
        _put(sections, name, rows, lineno, "section [{}]", name)
    for name in ("time", "states", "controls", "uncertainty", "dynamics",
                 "regime"):
        if name not in sections:
            raise ModelFormatError(f"missing required section [{name}]")
    return sections


def _keyvals(rows):
    """(line number, key, value) of each `key = value` row, in row order."""
    for lineno, line in rows:
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelFormatError(f"expected `key = value`, got {line!r}", lineno)
        yield lineno, key.strip(), value.strip()


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


def _cited(lineno, build, *args, **kwargs):
    """build(*args, **kwargs), its InputError raised as a ModelFormatError
    at `lineno`."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        raise ModelFormatError(str(exc), lineno) from None


def _times(token, horizon, lineno):
    if token == "*":
        return range(horizon)
    t = _int(token, "time", lineno)
    if not 0 <= t < horizon:
        raise ModelFormatError(f"time {t} outside 0..{horizon - 1}", lineno)
    return (t,)


def _label(index, label, what, lineno, t=None):
    """index[label], or an error naming the unknown label."""
    try:
        return index[label]
    except KeyError:
        at = "" if t is None else f" at time {t}"
        raise ModelFormatError(
            f"unknown {what} label {label!r}{at}", lineno
        ) from None


def _label_maps(model):
    """The label -> index maps of a model's states (CEMETERY included), its
    controls and each time's uncertainty set, for _label."""
    states = {lab: x for x, lab in enumerate(model.states.labels)}
    states[CEMETERY_LABEL] = model.cemetery
    controls = {lab: u for u, lab in enumerate(model.controls.labels)}
    sets = [{lab: w for w, lab in enumerate(ws)} for ws in model.uncertainty.sets]
    return states, controls, sets


def _arrow_row(line, form, arity, lineno):
    """The head tokens and the tail text of a `head -> tail` row with
    `arity` head tokens (any number when arity is None)."""
    head, arrow, tail = line.rpartition("->")
    parts = head.split()
    if not arrow or arity not in (None, len(parts)):
        raise ModelFormatError(f"expected `{form}`, got {line!r}", lineno)
    return parts, tail.strip()


def _put(table, cell, value, lineno, what, *args):
    """table[cell] = value, or an error if an earlier row set the cell."""
    if cell in table:
        raise ModelFormatError("duplicate " + what.format(*args), lineno)
    table[cell] = value


def _parse_time(rows):
    """The TimeGrid of the one `horizon =` line, cited at that line."""
    keys = {}
    for lineno, key, value in _keyvals(rows):
        if key != "horizon":
            raise ModelFormatError(f"unknown time key {key!r}", lineno)
        _put(keys, key, lineno, lineno, "key {!r}", key)
        horizon = _int(value, "horizon", lineno)
    if not keys:
        raise ModelFormatError("missing `horizon =` in [time]")
    return _cited(keys["horizon"], TimeGrid, horizon)


def _parse_space(rows, what):
    """The label -> index map and the coordinates (or None)."""
    index = {}
    coords = []
    for lineno, line in rows:
        label, *parts = line.split()
        if label == CEMETERY_LABEL:
            raise ModelFormatError(f"label {label!r} is reserved", lineno)
        _put(index, label, len(index), lineno, "{} label {!r}", what, label)
        coords.append([_float(c, "coordinate", lineno) for c in parts])
    if not index:
        raise ModelFormatError(f"[{what}s] section is empty")
    lens = {len(c) for c in coords}
    if lens == {0}:
        return index, None
    if len(lens) != 1 or 0 in lens:
        raise ModelFormatError(
            f"inconsistent coordinate counts in [{what}s] section"
        )
    return index, coords


def _parse_uncertainty(rows, horizon):
    """The label -> index map of each W_t, the UncertaintyStructure, the
    explicit robust scenarios and joint distribution (or None), and the
    line of the joint's first entry (or None)."""
    lines = {}  # (set|prob|robust, t) -> (lineno, value tokens)
    raw_scenarios = []  # (lineno, labels)
    raw_joint = []  # (lineno, labels, prob)
    for (lineno, line), (_, key, value) in zip(rows, _keyvals(rows)):
        head = key.split()
        if head == ["robust_scenario"]:
            raw_scenarios.append((lineno, value.split()))
            continue
        if head == ["scenario_prob"]:
            labels, colon, p = value.partition(":")
            if not colon:
                raise ModelFormatError(
                    "expected `scenario_prob = w ... w : p`", lineno
                )
            p = _float(p.strip(), "probability", lineno)
            _cited(lineno, _check_probabilities, (p,),
                   "scenario probabilities", distribution=False)
            raw_joint.append((lineno, labels.split(), p))
            continue
        if len(head) != 2 or head[0] not in ("set", "prob", "robust"):
            raise ModelFormatError(f"unknown uncertainty line {line!r}", lineno)
        kind, token = head
        for t in _times(token, horizon, lineno):
            _put(lines, (kind, t), (lineno, value.split()), lineno,
                 "`{}` for time {}", kind, t)
    for t in range(horizon):
        if ("set", t) not in lines:
            raise ModelFormatError(f"no uncertainty set declared for time {t}")

    w_idx = []
    for t in range(horizon):
        lineno, ws = lines[("set", t)]
        index = {}
        for lab in ws:
            _put(index, lab, len(index), lineno,
                 "uncertainty labels at time {}", t)
        w_idx.append(index)

    probs = []
    prob_lines = []
    for t, index in enumerate(w_idx):
        if ("prob", t) not in lines:
            probs.append(None)
            continue
        lineno, ps = lines[("prob", t)]
        vec = [_float(p, "probability", lineno) for p in ps]
        _cited(lineno, _check_probabilities, vec, f"probabilities at time {t}",
               len(index))
        probs.append(vec)
        prob_lines.append(lineno)

    robust = []
    for t, index in enumerate(w_idx):
        # no `robust` line: the whole set
        lineno, labs = lines.get(("robust", t), (None, index))
        robust.append(
            tuple(_label(index, lab, "uncertainty", lineno, t) for lab in labs)
        )

    def scenario(labels, lineno):
        if len(labels) != horizon:
            raise ModelFormatError(
                f"scenario has {len(labels)} entries, expected {horizon}",
                lineno,
            )
        return tuple(
            _label(w_idx[t], lab, "uncertainty", lineno, t)
            for t, lab in enumerate(labels)
        )

    scenarios = {}  # an ordered set
    for lineno, labs in raw_scenarios:
        _put(scenarios, scenario(labs, lineno), None, lineno,
             "explicit robust scenario")
    joint = {}
    for lineno, labs, p in raw_joint:
        _put(joint, scenario(labs, lineno), p, lineno, "scenario_prob entry")
    # all or none: the per-time rule left to the record
    unc = _cited(
        min(prob_lines, default=None), UncertaintyStructure,
        tuple(tuple(index) for index in w_idx), tuple(probs), tuple(robust),
    )
    joint_line = raw_joint[0][0] if raw_joint else None
    return w_idx, unc, tuple(scenarios) or None, joint or None, joint_line


def _parse_dynamics(rows, state_idx, control_idx, w_idx):
    """The (K, n, nu, max |W_t|) successor table; must be total."""
    n = len(state_idx)
    image_idx = {**state_idx, CEMETERY_LABEL: n}
    cells = {}
    for lineno, line in rows:
        (token, xl, ul, wl), target = _arrow_row(
            line, "t x u w -> state", 4, lineno
        )
        y = _label(image_idx, target, "state", lineno)
        x = _label(image_idx, xl, "state", lineno)
        u = _label(control_idx, ul, "control", lineno)
        if x == n:
            raise ModelFormatError("no dynamics rows at the cemetery", lineno)
        for t in _times(token, len(w_idx), lineno):
            w = _label(w_idx[t], wl, "uncertainty", lineno, t)
            _put(cells, (t, x, u, w), y, lineno,
                 "dynamics row for (t={}, x={}, u={}, w={})", t, xl, ul, wl)
    shape = (len(w_idx), n, len(control_idx), max(map(len, w_idx)))
    dynamics = np.full(shape, -1, dtype=np.int32)
    where = np.array(list(cells), dtype=np.intp).reshape(-1, 4)
    dynamics[tuple(where.T)] = list(cells.values())
    for t, index in enumerate(w_idx):
        # padding entries (w beyond |W_t|) must stay valid indices
        dynamics[t, :, :, len(index):] = n
    missing = np.argwhere(dynamics == -1)
    if len(missing):
        t, x, u, w = missing[0]
        raise ModelFormatError(
            f"dynamics not total at (t={t}, x={list(state_idx)[x]}, "
            f"u={list(control_idx)[u]}, w={list(w_idx[t])[w]})"
        )
    return dynamics


def _parse_constraints(rows, state_idx, control_idx, horizon):
    """The (K, n, nu) admissibility table; rows absent allow every
    control."""
    allowed = {}
    for lineno, line in rows:
        (token, xl), tail = _arrow_row(line, "t x -> controls", 2, lineno)
        x = _label(state_idx, xl, "state", lineno)
        labs = tail.split()
        if not labs:
            raise ModelFormatError(
                f"empty admissible control set for state {xl}", lineno
            )
        us = [_label(control_idx, lab, "control", lineno) for lab in labs]
        for t in _times(token, horizon, lineno):
            _put(allowed, (t, x), us, lineno,
                 "constraints row for (t={}, x={})", t, xl)
    constraints = np.ones((horizon, len(state_idx), len(control_idx)),
                          dtype=bool)
    for (t, x), us in allowed.items():
        constraints[t, x] = False
        constraints[t, x, us] = True
    return constraints


def parse_model(text: str) -> ParsedModel:
    """Parse and validate a model file; errors cite 1-based line numbers."""
    sections = _split_sections(text)
    time = _parse_time(sections["time"])
    horizon = time.horizon
    state_idx, state_coords = _parse_space(sections["states"], "state")
    control_idx, control_coords = _parse_space(sections["controls"], "control")
    w_idx, unc, robust_scenarios, scenario_probs, joint_line = (
        _parse_uncertainty(sections["uncertainty"], horizon)
    )
    dynamics = _parse_dynamics(sections["dynamics"], state_idx, control_idx,
                               w_idx)
    constraints = _parse_constraints(sections.get("constraints", []),
                                     state_idx, control_idx, horizon)
    # the joint's sum is the one rule left to the record
    model = _cited(
        joint_line, SystemModel,
        time,
        StateSpace(tuple(state_idx), state_coords),
        ControlSpace(tuple(control_idx), control_coords),
        unc,
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
    for lineno, key, value in _keyvals(rows):
        if key.split()[:1] == ["belief"]:
            extra.append((lineno, key, value))
            continue
        if key not in known:
            raise ModelFormatError(
                f"unknown [{section}] key {key!r}; expected one of: "
                + ", ".join(sorted(known)),
                lineno,
            )
        _put(out, key, (lineno, value), lineno, "key {!r}", key)
    return out, extra


def _need(d, key, section):
    if key not in d:
        raise ModelFormatError(f"[{section}] is missing `{key} =`")
    return d[key]


# ---------------------------------------------------------------- vocabulary
#
# Each kind's file name maps to its record class and to the fields it reads
# from `key = value` lines, in record field order, each with its file key
# and a codec. A field with a record default is optional: absent, it takes
# the default; equal to the default, it is not written. A field whose codec
# is another table is a nested kind named by its own key (`outer =`, `cost
# =`), whose keys sit in the same section. The fields the table leaves out
# are read by _unlisted and written by serialize_model.


@record(eq=False)
class _Codec:
    """How one field's value reads from and writes to its key's text."""

    decode: object  # (model, text, key, lineno) -> field value
    encode: object  # (model, field value) -> text


def _fmt(value):
    # builtin float repr is the shortest exact round-trip form
    return repr(float(value))


def _labels(model, indices):
    return " ".join(model.states.label(x) for x in sorted(indices))


def _looked_up(lookup):
    """A decoder for labels: lookup(model, text), its InputError cited at
    the key's line."""
    def decode(model, text, key, lineno):
        return _cited(lineno, lookup, model, text)

    return decode


def _rates(model, text, key, lineno):
    rates = tuple(_float(r, "effort rate", lineno) for r in text.split())
    if len(rates) != model.n_controls:
        raise ModelFormatError(
            f"{len(rates)} effort rates for {model.n_controls} controls",
            lineno,
        )
    return rates


_INT = _Codec(lambda model, text, key, lineno: _int(text, key, lineno),
              lambda model, value: str(value))
_FLOAT = _Codec(lambda model, text, key, lineno: _float(text, key, lineno),
                lambda model, value: _fmt(value))
_STATE = _Codec(_looked_up(lambda model, text: model.states.index(text)),
                lambda model, x: model.states.label(x))
_STATES = _Codec(
    _looked_up(lambda model, text: state_indices(model, text.split())),
    _labels,
)
_CONTROLS = _Codec(
    _looked_up(lambda model, text: frozenset(
        model.controls.index(lab) for lab in text.split()
    )),
    lambda model, us: " ".join(model.controls.label(u) for u in sorted(us)),
)
_RATES = _Codec(_rates, lambda model, rates: " ".join(_fmt(r) for r in rates))


def _kind(cls, **codecs):
    """(cls, ((field, key, codec, default), ...)) for the fields named in
    `codecs`, in record field order. A field's key is its name unless its
    codec comes as (key, codec)."""
    fields = []
    for f in dataclasses.fields(cls):
        if f.name in codecs:
            codec = codecs[f.name]
            key, codec = codec if isinstance(codec, tuple) else (f.name, codec)
            fields.append((f.name, key, codec, f.default))
    return cls, tuple(fields)


_OUTERS = {
    "expectation": _kind(rk.Expectation),
    "worst_case": _kind(rk.WorstCase),
    "cvar": _kind(rk.CVaR, level=("alpha", _FLOAT)),
}

_COSTS = {
    "time_outside": _kind(
        rk.TimeOutside, acceptable=_STATES, cemetery_penalty=_FLOAT
    ),
    "control_effort": _kind(
        rk.ControlEffort, rates=("effort", _RATES), cemetery_penalty=_FLOAT
    ),
    "terminal_miss": _kind(
        rk.TerminalMiss, acceptable=_STATES, cemetery_penalty=_FLOAT
    ),
    "tabular": _kind(rk.TabularCost, cemetery_penalty=_FLOAT),
    "recovery_offset": _kind(
        rk.RecoveryOffset, acceptable=_STATES, cemetery_penalty=_FLOAT
    ),
}

_REGIMES = {
    "viability": _kind(rg.Viability, acceptable=_STATES),
    "robust_recovery": _kind(
        rg.RobustRecovery, acceptable=_STATES, deadline=_INT
    ),
    "stochastic_viability": _kind(
        rg.StochasticViability, acceptable=_STATES, beta=_FLOAT
    ),
    "bounded": _kind(rg.Bounded, region=_STATES),
    "prob_excursion": _kind(rg.ProbExcursion, region=_STATES, beta=_FLOAT),
    "at_most_k_exits": _kind(rg.AtMostKExits, region=_STATES, max_exits=_INT),
    "stabilize": _kind(rg.Stabilize, target=_STATE, radius=_FLOAT,
                       window=_INT),
    "control_event": _kind(rg.ControlEvent, controls=_CONTROLS),
    "risk_containment": _kind(rg.RiskContainment, level=_FLOAT),
}

_RISKS = {
    "worst_case_violation": _kind(rk.WorstCaseViolation, acceptable=_STATES),
    "exceedance": _kind(rk.Exceedance, acceptable=_STATES),
    "ambiguity_exceedance": _kind(rk.AmbiguityExceedance, acceptable=_STATES),
    "exit_count": _kind(
        rk.ExitCountFunctional, acceptable=_STATES, outer=_OUTERS
    ),
    "composed": _kind(rk.Composed, cost=_COSTS, outer=_OUTERS),
}

_NAMES = {
    cls: name
    for table in (_REGIMES, _RISKS, _COSTS, _OUTERS)
    for name, (cls, _) in table.items()
}


def _kind_name(spec):
    """The file name of a regime, risk, cost or outer record's kind, or
    None for any other object."""
    for cls in type(spec).__mro__:
        if cls in _NAMES:
            return _NAMES[cls]
    return None


def _keys(table):
    """Every field key of the table's kinds, nested kinds included."""
    keys = set()
    for _, fields in table.values():
        for _, key, codec, _ in fields:
            keys.add(key)
            if isinstance(codec, dict):
                keys |= _keys(codec)
    return keys


_REGIME_KEYS = {"kind"} | _keys(_REGIMES)
_RISK_KEYS = {"kind"} | _keys(_RISKS)


@record(eq=False)
class _Section:
    """A [regime] or [risk] section under parse."""

    name: str
    keys: dict  # key -> (lineno, value text)
    model: SystemModel
    beliefs: list = ()  # (lineno, key, value text) of its belief lines
    cost_rows: list = ()  # the [cost] section's rows
    risk: object = None  # the parsed [risk] measure


def _lookup(sec, key, table):
    """The table entry that the section's `key = name` line names."""
    lineno, name = _need(sec.keys, key, sec.name)
    if name not in table:
        noun = f"{sec.name} kind" if key == "kind" else key
        raise ModelFormatError(
            f"unknown {noun} {name!r}; expected one of: " + ", ".join(table),
            lineno,
        )
    return table[name]


def _build(sec, cls, fields, read):
    """The record from its fields in order: each key required, then its
    value decoded; nested kinds depth-first; the unlisted fields last.
    Each key read goes into `read`, mapped to whether it names a kind."""
    values = {}
    for field, key, codec, default in fields:
        if key not in sec.keys and default is not dataclasses.MISSING:
            continue
        read[key] = isinstance(codec, dict)
        if isinstance(codec, dict):
            values[field] = _build(sec, *_lookup(sec, key, codec), read)
        else:
            lineno, text = _need(sec.keys, key, sec.name)
            values[field] = codec.decode(sec.model, text, key, lineno)
    values.update(_unlisted(sec, cls))
    return cls(**values)


def _unlisted(sec, cls):
    """The fields of `cls` that no key names, read from the rest of the
    file."""
    if cls is rg.RiskContainment:
        if sec.risk is None:
            raise ModelFormatError(
                f"regime kind {_NAMES[cls]} requires a [risk] section",
                sec.keys["level"][0],
            )
        return {"measure": sec.risk}
    if cls is rk.AmbiguityExceedance:
        return {"beliefs": _parse_beliefs(sec.beliefs, sec.model)}
    if cls is rk.TabularCost:
        return _parse_cost_tables(sec.cost_rows, sec.model)
    return {}


def _build_kind(sec, cls, fields):
    """_build of the section's `kind =` entry, then an error at the first
    line whose key the chosen kinds do not read."""
    read = {"kind": True}
    spec = _build(sec, cls, fields, read)
    for key, (lineno, _) in sec.keys.items():
        if key not in read:
            chosen = (f"{k} = {sec.keys[k][1]}" for k in read if read[k])
            raise ModelFormatError(
                f"[{sec.name}] key {key!r} does not apply to "
                + ", ".join(chosen),
                lineno,
            )
    return spec


def _parse_regime(rows, model, risk_spec):
    keys, beliefs = _section_dict(rows, _REGIME_KEYS, "regime")
    if beliefs:
        raise ModelFormatError("belief lines belong in [risk]", beliefs[0][0])
    sec = _Section("regime", keys, model, risk=risk_spec)
    return _build_kind(sec, *_lookup(sec, "kind", _REGIMES))


def _parse_risk(rows, cost_rows, model):
    keys, beliefs = _section_dict(rows, _RISK_KEYS, "risk")
    sec = _Section("risk", keys, model, beliefs, cost_rows)
    cls, fields = _lookup(sec, "kind", _RISKS)
    composed = _NAMES[rk.Composed]
    if cls is not rk.Composed and "cost" in keys:
        raise ModelFormatError(
            f"`cost =` only applies to kind {composed}", keys["cost"][0]
        )
    tabular = _NAMES[rk.TabularCost]
    if cost_rows and keys.get("cost", (0, ""))[1] != tabular:
        raise ModelFormatError(
            f"[cost] section requires risk `kind = {composed}` with "
            f"`cost = {tabular}`",
            cost_rows[0][0],
        )
    if beliefs and cls is not rk.AmbiguityExceedance:
        raise ModelFormatError(
            "belief lines only apply to kind "
            + _NAMES[rk.AmbiguityExceedance],
            beliefs[0][0],
        )
    return _build_kind(sec, cls, fields)


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
        if b < 0:
            raise ModelFormatError(f"bad belief index {parts[1]!r}", lineno)
        vec = tuple(_float(p, "probability", lineno) for p in value.split())
        for t in _times(parts[2], model.horizon, lineno):
            _put(table, (b, t), vec, lineno, "belief {} vector for time {}",
                 b, t)
            _cited(lineno, _check_probabilities, vec,
                   f"belief {b} probabilities at time {t}",
                   model.uncertainty.size(t))
    if not table:
        raise ModelFormatError(
            f"{_NAMES[rk.AmbiguityExceedance]} needs belief lines"
        )
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


def _parse_cost_tables(rows, model):
    """The state_costs and control_costs of a tabular cost."""
    K = model.horizon
    states, controls, _ = _label_maps(model)
    tables = {  # kind -> (costs, label index, duplicate message)
        "state": (np.zeros((K + 1, model.n_states)), states,
                  "state cost for (t={}, x={})"),
        "control": (np.zeros((K, model.n_controls)), controls,
                    "control cost for (t={}, u={})"),
    }
    seen = {}
    for (lineno, line), (_, head, value) in zip(rows, _keyvals(rows)):
        parts = head.split()
        if len(parts) != 3 or parts[0] not in tables:
            raise ModelFormatError(
                f"expected `state|control <t|*> <label> = v`, got {line!r}",
                lineno,
            )
        kind, token, label = parts
        costs, index, what = tables[kind]
        v = _float(value, "cost", lineno)
        i = _label(index, label, kind, lineno)
        if label == CEMETERY_LABEL:
            raise ModelFormatError("no cost rows at the cemetery", lineno)
        for t in _times(token, len(costs), lineno):
            _put(seen, (kind, t, i), v, lineno, what, t, label)
            costs[t, i] = v
    return {"state_costs": tables["state"][0],
            "control_costs": tables["control"][0]}


def serialize_model(model, regime, risk=None) -> str:
    """Canonical text form: explicit rows, sorted, shortest-round-trip
    floats. parse(serialize(parse(text))) is the identity on the model,
    regime, and risk. A risk_containment regime's measure is written as
    the [risk] section, so `risk` must be None or that measure."""
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
    out += ["", "[regime]"]
    out += _kind_lines(model, "kind", _REGIMES, regime, "regime")
    if isinstance(regime, rg.RiskContainment):
        if risk is None:
            risk = regime.measure
        elif risk != regime.measure:
            raise ModelFormatError(
                f"regime kind {_NAMES[rg.RiskContainment]} writes its "
                "measure as the [risk] section; got a different risk"
            )
    if risk is not None:
        out += ["", "[risk]"] + _kind_lines(model, "kind", _RISKS, risk, "risk")
        if isinstance(risk, rk.AmbiguityExceedance):
            out += [
                f"belief {b} {t} = " + " ".join(_fmt(p) for p in vec)
                for b, belief in enumerate(risk.beliefs)
                for t, vec in enumerate(belief)
            ]
        if isinstance(risk, rk.Composed) and isinstance(risk.cost,
                                                        rk.TabularCost):
            rows = _cost_rows(model, risk.cost)
            if rows:
                out += ["", "[cost]"] + rows
    return "\n".join(out) + "\n"


def _kind_lines(model, key, table, spec, noun):
    """The `key = name` line of the record's kind, then its fields'
    lines."""
    name = _kind_name(spec)
    if name not in table:
        raise ModelFormatError(f"cannot serialize {noun} {type(spec).__name__}")
    lines = [f"{key} = {name}"]
    for field, fkey, codec, default in table[name][1]:
        value = getattr(spec, field)
        if isinstance(codec, dict):
            lines += _kind_lines(model, fkey, codec, value, fkey)
        elif default is dataclasses.MISSING or value != default:
            lines.append(f"{fkey} = {codec.encode(model, value)}")
    return lines


def _cost_rows(model, cost):
    rows = []
    for t in range(model.horizon + 1):
        for x in range(model.n_states):
            v = float(cost.state_costs[t, x])
            if v != 0.0:
                rows.append(f"state {t} {model.states.label(x)} = {_fmt(v)}")
    for t in range(model.horizon):
        for u in range(model.n_controls):
            v = float(cost.control_costs[t, u])
            if v != 0.0:
                rows.append(
                    f"control {t} {model.controls.label(u)} = {_fmt(v)}"
                )
    return rows


def regime_state_set(regime):
    """The state set a kernel/value/recovery table should target, if the
    regime names one."""
    for field, _, codec, _ in _REGIMES.get(_kind_name(regime), (None, ()))[1]:
        if codec is _STATES:
            return getattr(regime, field)
    return None

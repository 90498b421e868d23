"""Finite-horizon controlled dynamics under uncertainty.

A system couples a time grid t = 0..K with finite state, control, and
per-time uncertainty spaces. Dynamics are a total transition table
next = F_t(x, u, w); a constraint table says which controls are admissible
at (t, x). Every inadmissible choice routes the state to an absorbing
cemetery point, which is represented by the extra index ``model.cemetery``
(== number of ordinary states) and the label ``CEMETERY``.

Scenarios are full uncertainty paths (w_0, ..., w_{K-1}). The model may
carry per-time probability vectors (independent across times), a per-time
robust subset of each uncertainty set, an explicit robust scenario list
(which then takes precedence over the per-time subsets), and an explicit
joint distribution over scenarios (which takes precedence over the product
weights when evaluating probabilities).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ._record import record
from .errors import CapacityError, ConfigurationError, InputError

CEMETERY_LABEL = "CEMETERY"

# enumerate_scenarios refuses to materialize more than this many paths
DEFAULT_SCENARIO_CAP = 1 << 20

Scenario = tuple  # tuple[int, ...] of length K, entry t indexes W_t


@record
class TimeGrid:
    """Decision times 0..horizon-1; states live on 0..horizon >= 1."""

    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_index(
            self.horizon, "horizon", math.inf,
            "horizon must be >= 1, got {value}", 1))


def _as_coords(space, what):
    labels, coords = space.labels, space.coords
    if coords is None:
        # default: finite numeric labels as 1-d coordinates, else the index
        try:
            coords = [float(lab) for lab in labels]
        except ValueError:
            coords = [math.nan]
        if not all(map(math.isfinite, coords)):
            coords = range(len(labels))
    arr = _check_table(coords, f"{what} coordinates", kind="real",
                       finite=True, frozen=True)
    if arr.ndim not in (1, 2):
        raise InputError(
            f"{what} coordinates must be 1-d or 2-d, got {arr.ndim}-d"
        )
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != len(labels):
        raise InputError(
            f"{len(labels)} labels but {arr.shape[0]} coordinate rows"
        )
    return arr


def _check_labels(labels, what):
    if not labels:
        raise InputError(f"{what} space must be nonempty")
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate {what} labels")
    if CEMETERY_LABEL in labels:
        raise InputError(f"{what} label {CEMETERY_LABEL!r} is reserved")


@record(eq=False)
class StateSpace:
    """Ordinary states with display labels and numeric coordinates.

    The cemetery is not listed; it is the extra index ``len(labels)``.
    coords is a finite real table (_check_table) with a row per label.
    """

    labels: tuple
    coords: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        _check_labels(self.labels, "state")
        object.__setattr__(self, "coords", _as_coords(self, "state"))

    @property
    def size(self):
        return len(self.labels)

    @property
    def cemetery(self):
        return len(self.labels)

    def index(self, label):
        label = str(label)
        if label == CEMETERY_LABEL:
            return self.cemetery
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown state label {label!r}") from None

    def label(self, i):
        if i == self.cemetery:
            return CEMETERY_LABEL
        return self.labels[i]


@record(eq=False)
class ControlSpace:
    """Controls with display labels and coordinates, as StateSpace's."""

    labels: tuple
    coords: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        _check_labels(self.labels, "control")
        object.__setattr__(self, "coords", _as_coords(self, "control"))

    @property
    def size(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise InputError(f"unknown control label {label!r}") from None

    def label(self, i):
        return self.labels[i]


def _check_probabilities(values, what, size=None, distribution=True):
    """The probability rule, as a float tuple: a real table (_check_table),
    each value finite and non-negative; with `distribution`, also `size`
    values when one is given and an fsum within 1e-9 of 1. InputError texts
    begin with `what`, which names the vector ("probabilities at time 0",
    "scenario probabilities")."""
    values = _check_table(values, what, kind="real")
    bad = values[~((values >= 0.0) & (values < math.inf))]
    if bad.size:
        raise InputError(f"{what} include {bad[0].item()!r} "
                         "(each must be finite and non-negative)")
    if distribution and size is not None and len(values) != size:
        raise InputError(f"{what} have length {len(values)}, expected {size}")
    total = math.fsum(values.tolist())
    if distribution and not abs(total - 1.0) <= 1e-9:
        raise InputError(f"{what} sum to {total!r}, expected 1")
    return tuple(values.tolist())


@record(eq=False)
class UncertaintyStructure:
    """Per-time uncertainty sets with optional probabilities and robust subsets.

    sets[t]   labels of W_t
    probs[t]  probability vector over W_t or None; vectors are declared at
              every time or at none, and each follows the probability rule
              of _check_probabilities
    robust[t] sorted tuple of indices of the robust subset (defaults to all)
    """

    sets: tuple
    probs: tuple = None
    robust: tuple = None

    def __post_init__(self):
        sets = tuple(tuple(str(w) for w in ws) for ws in self.sets)
        if not sets:
            raise InputError("need at least one uncertainty set")
        for t, ws in enumerate(sets):
            if not ws:
                raise InputError(f"uncertainty set at time {t} is empty")
            if len(set(ws)) != len(ws):
                raise InputError(f"duplicate uncertainty labels at time {t}")
        object.__setattr__(self, "sets", sets)

        probs = self.probs
        probs = (None,) * len(sets) if probs is None else tuple(probs)
        if len(probs) != len(sets):
            raise InputError("probs must have one entry per time")
        missing = [t for t, p in enumerate(probs) if p is None]
        if 0 < len(missing) < len(sets):
            raise InputError(
                f"probabilities missing at times {missing}: declare them at "
                "every time or at none"
            )
        if not missing:
            probs = tuple(
                _check_probabilities(p, f"probabilities at time {t}", len(ws))
                for t, (p, ws) in enumerate(zip(probs, sets))
            )
        object.__setattr__(self, "probs", probs)

        robust = self.robust
        if robust is None:
            robust = tuple(tuple(range(len(ws))) for ws in sets)
        else:
            if len(robust) != len(sets):
                raise InputError("robust must have one entry per time")
            checked = []
            for t, (r, ws) in enumerate(zip(robust, sets)):
                what = f"robust subset at time {t}"
                r = {_check_index(i, f"{what} entry", len(ws),
                                  f"{what} out of range") for i in r}
                if not r:
                    raise InputError(f"{what} is empty")
                checked.append(tuple(sorted(r)))
            robust = tuple(checked)
        object.__setattr__(self, "robust", robust)

    def size(self, t):
        return len(self.sets[t])

    @property
    def has_probs(self):
        return all(p is not None for p in self.probs)

    def index(self, t, label):
        try:
            return self.sets[t].index(str(label))
        except ValueError:
            raise InputError(
                f"unknown uncertainty label {label!r} at time {t}"
            ) from None


@record(eq=False)
class SystemModel:
    """A complete controlled system.

    dynamics[t, x, u, w], an index table (_check_table) of shape (K, n, nu,
    max |W_t|), is the next state (cemetery allowed); entries with w >= |W_t|
    are padding, never read nor checked. constraints[t, x, u], a bool table,
    says u is admissible at (t, x); each (t, x) row admits some control, and
    an inadmissible control routes to the cemetery.
    """

    time: TimeGrid
    states: StateSpace
    controls: ControlSpace
    uncertainty: UncertaintyStructure
    dynamics: np.ndarray
    constraints: np.ndarray
    robust_scenarios: tuple = None  # explicit robust scenario list, or None
    scenario_probs: Mapping = None  # explicit joint distribution, or None

    def __post_init__(self):
        K, n, nu = self.horizon, self.n_states, self.n_controls
        if len(self.uncertainty.sets) != K:
            raise InputError(
                f"{len(self.uncertainty.sets)} uncertainty sets for horizon {K}"
            )
        sizes = np.array([self.uncertainty.size(t) for t in range(K)])
        nw_max = int(sizes.max())
        dyn = _check_table(
            self.dynamics, "dynamics table", (K, n, nu, nw_max), first=0,
            stop=n + 1, where=np.arange(nw_max) < sizes[:, None, None, None],
            outside="dynamics image out of range at "
                    "(t={at[0]}, x={at[1]}, u={at[2]}, w={at[3]})",
            frozen=True)
        object.__setattr__(self, "dynamics", dyn)

        con = _check_table(self.constraints, "constraint table", (K, n, nu),
                           "bool", 0, 2, frozen=True)
        empty = np.argwhere(~con.any(axis=2))
        if len(empty):
            t, x = empty[0]
            raise InputError(
                f"no admissible control at (t={t}, x={self.states.label(x)})"
            )
        object.__setattr__(self, "constraints", con)

        if self.robust_scenarios is not None:
            scens = tuple(self._check_scenario(s) for s in self.robust_scenarios)
            if not scens:
                raise InputError("explicit robust scenario list is empty")
            if len(set(scens)) != len(scens):
                raise InputError("duplicate explicit robust scenario")
            object.__setattr__(self, "robust_scenarios", tuple(sorted(scens)))

        if self.scenario_probs is not None:
            probs = {self._check_scenario(s): p
                     for s, p in dict(self.scenario_probs).items()}
            weights = _check_probabilities(list(probs.values()),
                                           "scenario probabilities")
            object.__setattr__(self, "scenario_probs",
                               dict(zip(probs, weights)))

    def _check_scenario(self, scenario):
        """`scenario`, a sequence of K uncertainty indices, each under the
        index rule of _check_index, as a tuple of plain ints."""
        scenario = tuple(scenario)
        if len(scenario) != self.horizon:
            raise InputError(
                f"scenario {scenario} has length {len(scenario)}, "
                f"expected {self.horizon}"
            )
        return tuple(
            _check_index(w, "scenario entry", self.uncertainty.size(t),
                         _OUT_OF_RANGE + f" at time {t}")
            for t, w in enumerate(scenario)
        )

    @property
    def horizon(self):
        return self.time.horizon

    @property
    def n_states(self):
        return self.states.size

    @property
    def n_controls(self):
        return self.controls.size

    @property
    def cemetery(self):
        return self.states.cemetery


def make_model(
    horizon: int,
    state_labels: Sequence,
    control_labels: Sequence,
    uncertainty_sets: Sequence,
    dynamics_fn: Callable,
    constraints_fn: Optional[Callable] = None,
    probs: Optional[Sequence] = None,
    robust: Optional[Sequence] = None,
    state_coords=None,
    control_coords=None,
    robust_scenarios=None,
    scenario_probs=None,
) -> SystemModel:
    """Build a SystemModel from callables.

    dynamics_fn(t, x, u, w) -> next state index (the cemetery is index
    len(state_labels); None also means the cemetery).
    constraints_fn(t, x) -> iterable of admissible
    control indices (default: every control). uncertainty_sets may be a
    single label sequence (reused at every time) or one sequence per time.
    """
    time = TimeGrid(horizon)
    horizon = time.horizon
    states = StateSpace(tuple(state_labels), state_coords)
    controls = ControlSpace(tuple(control_labels), control_coords)

    if uncertainty_sets and not isinstance(
        uncertainty_sets[0], (list, tuple, range)
    ):
        uncertainty_sets = [uncertainty_sets] * horizon
    if probs is not None and len(probs) and np.ndim(probs[0]) == 0:
        probs = [probs] * horizon
    if robust is not None and len(robust) and np.ndim(robust[0]) == 0:
        robust = [robust] * horizon
    unc = UncertaintyStructure(tuple(uncertainty_sets), probs, robust)

    K, n, nu = horizon, states.size, controls.size
    nw_max = max(unc.size(t) for t in range(K))
    dyn = np.full((K, n, nu, nw_max), states.cemetery, dtype=np.int32)
    for t in range(K):
        for x in range(n):
            for u in range(nu):
                for w in range(unc.size(t)):
                    nxt = dynamics_fn(t, x, u, w)
                    # None marks a transition straight to the cemetery,
                    # which dyn holds already
                    if nxt is None:
                        continue
                    # a fault is raised again with the texts that name the
                    # cell, so they are made only then
                    try:
                        dyn[t, x, u, w] = _check_index(nxt, "value", n + 1)
                    except InputError:
                        _check_index(
                            nxt, f"dynamics_fn{(t, x, u, w)} value", n + 1,
                            "dynamics image out of range at "
                            f"(t={t}, x={x}, u={u}, w={w})",
                        )
    con = np.ones((K, n, nu), dtype=bool)
    if constraints_fn is not None:
        con[:] = False
        for t in range(K):
            for x in range(n):
                for u in constraints_fn(t, x):
                    try:
                        u = _check_index(u, "control", nu)
                    except InputError:
                        _check_index(u, f"constraints_fn{(t, x)} control", nu)
                    con[t, x, u] = True
    dyn.setflags(write=False)  # handed over: the record keeps it uncopied
    con.setflags(write=False)
    return SystemModel(
        time, states, controls, unc, dyn, con, robust_scenarios, scenario_probs
    )


def state_indices(model: SystemModel, labels: Iterable) -> frozenset:
    """Resolve state labels to an index set (cemetery not allowed)."""
    out = set()
    for lab in labels:
        i = model.states.index(lab)
        if i == model.cemetery:
            raise InputError("state sets may not contain the cemetery")
        out.add(i)
    return frozenset(out)


def _check_index(value, what, stop=math.inf,
                 outside="{what} {value!r} outside {first}..{last}", first=0):
    """The package's one index rule: `value`, an int, numpy integer or bool
    (which means its index, as in state sets), in first..stop-1, as a plain
    int. Any other type raises InputError "{what} {value!r} is not an
    integer"; a value out of range raises `outside`, formatted with what,
    value, first and last. regimes._check_state_set is its set form."""
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} {value!r} is not an integer")
    if not first <= value < stop:
        raise InputError(outside.format(what=what, value=value, first=first,
                                        last=stop - 1))
    return int(value)


def _check_real(value, what, interval=None):
    """The package's one number rule: `value`, an int (a bool too), float,
    numpy integer or numpy floating, in `interval`, "[lo, hi]" or "(lo, hi]"
    (NaN is in none), as a float. With no interval any number passes."""
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{what} {value!r} is not a number")
    if interval is not None:
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        if not (lo < value <= hi or value == lo and interval[0] == "["):
            raise InputError(f"{what} {value!r} outside {interval}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range rounds to +-inf
        return math.inf if value > 0 else -math.inf


_TABLE_KINDS = {"index": ("iu", "an integer", np.int32),
                "bool": ("biu", "a bool", bool),
                "real": ("iuf", "a number", np.float64)}


def _check_table(values, what, shape=None, kind="index", first=-2**31,
                 stop=2**31, where=True,
                 outside="{what} entry {value!r} outside {first}..{last}",
                 finite=False, frozen=False):
    """The package's one table rule: `values`, an array or nested sequence
    of `shape` (if given) and of a dtype `kind` takes (_TABLE_KINDS; else
    the first foreign value is named, a numpy bool by its repr), as an array
    of its stored dtype, copied only to convert. Integer values lie in
    first..stop-1 (int32's range) where `where` holds, else `outside`,
    formatted with what, value, first, last and `at` (the first bad cell),
    is raised; real values are finite if asked. Constant numpy calls.
    A `frozen` table, one a record keeps, comes back read-only and never
    as memory the caller can still write: a writable array of the stored
    dtype, or any view, is copied first, so the caller's array stays
    writable and its own. A read-only array that owns its memory (a
    record's own table, or one the package's builders froze) is kept."""
    try:
        arr = np.asarray(values)
    except ValueError:  # rows of unequal length
        raise InputError(f"{what} is ragged") from None
    dtypes, noun, stored = _TABLE_KINDS[kind]
    if shape is not None and arr.shape != shape:
        raise InputError(f"{what} has shape {arr.shape}, expected {shape}")
    if arr.size and arr.dtype.kind not in dtypes:
        value = next((v for v in arr.flat
                      if np.asarray(v).dtype.kind not in dtypes), arr.flat[0])
        if isinstance(value, np.generic) and not isinstance(value, np.bool_):
            value = value.item()
        raise InputError(f"{what} entry {value!r} is not {noun}")
    if kind != "real" and arr.size and (arr.min() < first or arr.max() >= stop):
        at = np.argwhere(((arr < first) | (arr >= stop)) & where)
        if len(at):
            at = tuple(at[0].tolist())
            raise InputError(outside.format(what=what, value=arr[at].item(),
                                            first=first, last=stop - 1, at=at))
    if finite and not np.isfinite(arr).all():
        value = arr[~np.isfinite(arr)][0].item()
        raise InputError(f"{what} entry {value!r} is not finite")
    arr = arr.astype(stored, copy=False)
    if frozen:
        if not arr.flags.owndata or arr is values and arr.flags.writeable:
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


# out-of-range texts: "{what} {value} out of range", with the span for a
# time, a start or a rank
_OUT_OF_RANGE = "{what} {value} out of range"
_OUT_OF_SPAN = _OUT_OF_RANGE + " {first}..{last}"


def _check_start(model, start):
    return _check_index(start, "strategy start", model.horizon + 1,
                        _OUT_OF_SPAN)


def _check_x0(model, x0):
    return _check_index(x0, "x0", model.n_states,
                        "x0 must be an ordinary state index, got {value}")


def admissible_controls(model: SystemModel, t: int, x: int) -> tuple:
    """Indices of controls admissible at (t, x), ascending."""
    t = _check_index(t, "time", model.horizon, _OUT_OF_SPAN)
    x = _check_index(x, "state index", model.cemetery + 1, _OUT_OF_RANGE)
    if x == model.cemetery:
        return tuple(range(model.n_controls))
    return tuple(np.flatnonzero(model.constraints[t, x]))


def step(model: SystemModel, t: int, x: int, u: int, w: int) -> int:
    """One transition. The cemetery is absorbing; an inadmissible control
    routes to the cemetery."""
    t = _check_index(t, "time", model.horizon, _OUT_OF_SPAN)
    x = _check_index(x, "state index", model.cemetery + 1, _OUT_OF_RANGE)
    u = _check_index(u, "control index", model.n_controls, _OUT_OF_RANGE)
    w = _check_index(w, "uncertainty index", model.uncertainty.size(t),
                     _OUT_OF_RANGE + f" at time {t}")
    if x == model.cemetery:
        return model.cemetery
    if not model.constraints[t, x, u]:
        return model.cemetery
    return int(model.dynamics[t, x, u, w])


def flow(model: SystemModel, s: int, x0: int, controls, scenario) -> tuple:
    """Iterate step from time s: states (x_s, ..., x_{s+L}) under the control
    and uncertainty words (u_s..u_{s+L-1}), (w_s..w_{s+L-1})."""
    controls = tuple(controls)
    scenario = tuple(scenario)
    if len(controls) != len(scenario):
        raise InputError(
            f"{len(controls)} controls but {len(scenario)} uncertainty values"
        )
    s = _check_index(s, "time", model.horizon + 1, _OUT_OF_SPAN)
    if s + len(controls) > model.horizon:
        raise InputError("control word runs past the horizon")
    xs = [_check_index(x0, "state index", model.cemetery + 1, _OUT_OF_RANGE)]
    for i, (u, w) in enumerate(zip(controls, scenario)):
        xs.append(step(model, s + i, xs[-1], u, w))
    return tuple(xs)


def count_scenarios(model: SystemModel, robust_only: bool = False) -> int:
    """Number of scenarios enumerate_scenarios would yield."""
    if robust_only and model.robust_scenarios is not None:
        return len(model.robust_scenarios)
    if robust_only:
        sizes = (len(r) for r in model.uncertainty.robust)
    else:
        sizes = (model.uncertainty.size(t) for t in range(model.horizon))
    return math.prod(sizes)


def enumerate_scenarios(
    model: SystemModel, robust_only: bool = False, cap: int = DEFAULT_SCENARIO_CAP
) -> list:
    """All scenarios in canonical (lexicographic) order.

    With robust_only, the domain is the explicit robust scenario list when
    one was declared, otherwise the product of the per-time robust subsets.
    """
    cap = _check_index(cap, "cap")
    total = count_scenarios(model, robust_only)
    if total > cap:
        raise CapacityError(f"{total} scenarios exceed cap {cap}")
    if robust_only and model.robust_scenarios is not None:
        return list(model.robust_scenarios)
    if robust_only:
        pools = model.uncertainty.robust
    else:
        pools = [range(model.uncertainty.size(t)) for t in range(model.horizon)]
    return [tuple(s) for s in itertools.product(*pools)]


def in_robust_set(model: SystemModel, scenario) -> bool:
    """Does the scenario belong to the robust subset?"""
    return _in_robust(model, model._check_scenario(scenario))


def _in_robust(model, scenario):
    """in_robust_set of a valid scenario tuple, unchecked."""
    if model.robust_scenarios is not None:
        return scenario in model.robust_scenarios
    return all(
        w in model.uncertainty.robust[t] for t, w in enumerate(scenario)
    )


def scenario_weight(model: SystemModel, scenario) -> float:
    """Probability of one scenario.

    Uses the explicit joint distribution when declared (unlisted scenarios
    get weight 0), otherwise the product of per-time probabilities.
    """
    return _weight(model, model._check_scenario(scenario))


def _weight(model, scenario):
    """scenario_weight of a valid scenario tuple, unchecked."""
    if model.scenario_probs is not None:
        return model.scenario_probs.get(scenario, 0.0)
    if not model.uncertainty.has_probs:
        raise ConfigurationError(
            "scenario probabilities need per-time probability vectors "
            "or an explicit joint distribution"
        )
    p = 1.0
    for t, w in enumerate(scenario):
        p *= float(model.uncertainty.probs[t][w])
    return p


class _Scenarios:
    """A scenario list with each scenario's weight and robust flag, both
    computed once, on first use.

    Loops that simulate many strategies over one scenario set share one
    instance, so weights and flags are computed once per call, not once
    per bundle. The scenarios must be valid tuples, as enumerate_scenarios
    yields them. robust_only says the list is the robust domain, as in a
    bundle. Without `scenarios` the list is that domain, enumerated on
    first use against `cap`.
    """

    def __init__(
        self, model, scenarios=None, robust_only=False,
        cap=DEFAULT_SCENARIO_CAP,
    ):
        self.model = model
        if scenarios is not None:
            self.scenarios = tuple(scenarios)
        self.robust_only = robust_only
        self.cap = cap
        self._prefixes = {}

    @functools.cached_property
    def scenarios(self):
        """The scenario tuples, when not given at construction."""
        return tuple(
            enumerate_scenarios(self.model, self.robust_only, self.cap)
        )

    @functools.cached_property
    def table(self):
        """The scenarios as int32 (M, K), for the batched simulation."""
        return np.array(self.scenarios, dtype=np.int32).reshape(
            len(self.scenarios), self.model.horizon
        )

    def prefixes(self, start):
        """intp (M, K): [m, t] ranks row m's prefix (w_start..w_{t-1}) as
        strategy.prefix_rank does, from the table's own w columns (0 up to
        `start`), for adapted policies; built once per start."""
        if start not in self._prefixes:
            ranks = self._prefixes[start] = np.zeros_like(self.table, np.intp)
            for t in range(start + 1, self.model.horizon):
                size = self.model.uncertainty.size(t - 1)
                ranks[:, t] = ranks[:, t - 1] * size + self.table[:, t - 1]
        return self._prefixes[start]

    @functools.cached_property
    def weights(self):
        return [_weight(self.model, s) for s in self.scenarios]

    @functools.cached_property
    def robust(self):
        return [_in_robust(self.model, s) for s in self.scenarios]

    @functools.cached_property
    def full(self):
        """This set when it is the full domain, else the full scenario set,
        enumerated on first use against the default cap."""
        if not self.robust_only:
            return self
        return _Scenarios(self.model)


def scenario_weights(model: SystemModel, scenarios) -> np.ndarray:
    """Weights for a scenario sequence, in the given order."""
    return np.array(
        [scenario_weight(model, s) for s in scenarios], dtype=np.float64
    )


def packed_tables(model: SystemModel):
    """Dynamics/constraint tables padded with an explicit cemetery row, as
    flat arrays for the batched simulation kernel.

    Returns (dyn, ok): dyn is int32 (K, n+1, nu, nw_max) with
    dyn[t, cemetery, :, :] == cemetery; ok is uint8 (K, n+1, nu) with
    ok[t, cemetery, :] == 1, so the kernel needs no special cases.
    """
    cached = getattr(model, "_packed", None)
    if cached is not None:
        return cached
    K, n, nu = model.horizon, model.n_states, model.n_controls
    nw_max = model.dynamics.shape[3]
    dyn = np.full((K, n + 1, nu, nw_max), model.cemetery, dtype=np.int32)
    dyn[:, :n] = model.dynamics
    ok = np.ones((K, n + 1, nu), dtype=np.uint8)
    ok[:, :n] = model.constraints
    dyn.setflags(write=False)
    ok.setflags(write=False)
    object.__setattr__(model, "_packed", (dyn, ok))
    return dyn, ok


def _fold_planes(dynamics, constraints, sizes):
    """successor_planes of (K, n, nu, nw_max) dynamics under the bool
    (K, n, nu) admissibility table, over w < sizes[t]."""
    n, nu = constraints.shape[1:]
    planes = []
    for t, size in enumerate(sizes):
        plane = np.full((size, n + 1, nu), n, dtype=np.min_scalar_type(n))
        # the one place where an inadmissible control meets the cemetery
        np.copyto(plane[:, :n], dynamics[t, :, :, :size].transpose(2, 0, 1),
                  casting="unsafe", where=constraints[t])
        plane.setflags(write=False)
        planes.append(plane)
    return tuple(planes)


def successor_planes(model: SystemModel):
    """The closed loop's successor table, built on first use and cached on
    the model apart from packed_tables: planes[t] is the read-only C-ordered
    (|W_t|, n+1, nu) array, in the narrowest unsigned dtype that holds n, of
    the state after (x, u, w) at t. That is F_t(x, u, w) where u is
    admissible at (t, x), and n (the cemetery) where it is not and on the
    cemetery row, which absorbs."""
    if getattr(model, "_planes", None) is None:
        sizes = [model.uncertainty.size(t) for t in range(model.horizon)]
        planes = _fold_planes(model.dynamics, model.constraints, sizes)
        object.__setattr__(model, "_planes", planes)
    return model._planes


def models_equal(a: SystemModel, b: SystemModel) -> bool:
    """Structural equality over every declared table."""
    if (
        a.horizon != b.horizon
        or a.states.labels != b.states.labels
        or not np.array_equal(a.states.coords, b.states.coords)
        or a.controls.labels != b.controls.labels
        or not np.array_equal(a.controls.coords, b.controls.coords)
        or a.uncertainty.sets != b.uncertainty.sets
        or a.uncertainty.robust != b.uncertainty.robust
    ):
        return False
    for pa, pb in zip(a.uncertainty.probs, b.uncertainty.probs):
        if (pa is None) != (pb is None):
            return False
        if pa is not None and not np.array_equal(pa, pb):
            return False
    for t in range(a.horizon):
        nw = a.uncertainty.size(t)
        if not np.array_equal(
            a.dynamics[t, :, :, :nw], b.dynamics[t, :, :, :nw]
        ):
            return False
    return (
        np.array_equal(a.constraints, b.constraints)
        and a.robust_scenarios == b.robust_scenarios
        and a.scenario_probs == b.scenario_probs
    )

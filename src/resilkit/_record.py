"""Frozen records: dataclass behaviour without generated code.

resilkit writes its vocabulary (regimes, risk specs, the model, strategy
and result types) as frozen records. As `@dataclass(frozen=True)`, each
class would `exec` four to six generated methods when its module is
imported, about two hundred compiles on every `import resilkit`, which is
most of the package's own import time and so a good part of a small
command-line run. `record` gives the same behaviour from shared functions
built as closures, with no `exec` or `compile`:

- the class is registered with `dataclasses.dataclass(cls, init=False,
  repr=False, eq=False)`, which generates no code, so `dataclasses.fields`,
  `replace`, `is_dataclass` and `__match_args__` work as before;
- `__init__` takes the fields positionally or by keyword, fills defaults,
  raises TypeError on a missing, extra or duplicate argument, sets each
  field with `object.__setattr__` in field order and runs `__post_init__`
  last (also under `dataclasses.replace`);
- `__repr__` is the dataclass text, `Qualname(field=value!r, ...)`;
- assigning or deleting an attribute raises
  `dataclasses.FrozenInstanceError` with the dataclass messages;
- a value record (`@record`, the old `frozen=True`) compares and hashes
  by its field tuple; an identity record (`@record(eq=False)`, the old
  `frozen=True, eq=False`) keeps object identity.

A method the class body defines itself is kept, as a dataclass keeps it.
Fields take plain defaults; the options of `dataclasses.field` are not
read.

One difference remains: `__dataclass_params__` describes the registration,
so its `init`, `repr`, `eq` and `frozen` read False. Registering with
`frozen=True` would compile two methods per class again.
"""

from __future__ import annotations

import collections
import dataclasses
import reprlib
from itertools import repeat

_setattr = object.__setattr__
_consume = collections.deque(maxlen=0).extend


def record(cls=None, /, *, eq=True):
    """Make `cls` a frozen record: a value record, or with eq=False an
    identity record."""
    if cls is None:
        return lambda cls: _install(cls, eq)
    return _install(cls, eq)


def _install(cls, eq):
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    names = tuple(f.name for f in fields)
    defaults = {
        f.name: f.default for f in fields if f.default is not dataclasses.MISSING
    }
    methods = [
        _init(cls, names, defaults),
        _repr(names),
        *_frozen(cls, names),
    ]
    if eq:
        methods += _value_eq(names)
    for fn in methods:
        if fn.__name__ not in cls.__dict__:
            fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
            setattr(cls, fn.__name__, fn)
    return cls


def _init(cls, names, defaults):
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    where = f"{cls.__qualname__}.__init__()"

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(where, names, defaults, args, kwargs)
        _consume(map(_setattr, repeat(self, n), names, args))
        if post_init:
            self.__post_init__()

    return __init__


def _bind(where, names, defaults, args, kwargs):
    """The field values of an __init__ call in field order, or the
    TypeError the interpreter raises for a function of these fields."""
    given = dict(zip(names, args))
    for key in kwargs:
        if key in given:
            raise TypeError(f"{where} got multiple values for argument '{key}'")
        if key not in names:
            raise TypeError(f"{where} got an unexpected keyword argument '{key}'")
    if len(args) > len(names):
        most = len(names) + 1  # self counts, as in the interpreter's message
        takes = (
            f"from {most - len(defaults)} to {most} positional arguments"
            if defaults
            else f"{most} positional argument{'s' if most != 1 else ''}"
        )
        raise TypeError(f"{where} takes {takes} but {len(args) + 1} were given")
    given.update(kwargs)
    missing = [f"'{name}'" for name in names
               if name not in given and name not in defaults]
    if missing:
        listed = (
            " and ".join(missing) if len(missing) < 3
            else ", ".join(missing[:-1]) + ", and " + missing[-1]
        )
        raise TypeError(
            f"{where} missing {len(missing)} required positional "
            f"argument{'s' if len(missing) > 1 else ''}: {listed}"
        )
    return [given[name] if name in given else defaults[name] for name in names]


def _repr(names):
    @reprlib.recursive_repr()
    def __repr__(self):
        inner = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({inner})"

    return __repr__


def _frozen(cls, names):
    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(
                f"cannot assign to field {name!r}"
            )
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(
                f"cannot delete field {name!r}"
            )
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


def _value_eq(names):
    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return __eq__, __hash__

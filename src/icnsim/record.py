"""Frozen records at near the construction cost of a plain slots class.

:func:`record` is ``dataclass(frozen=True, slots=True)`` with a generated
``__init__`` (as ``wire._Layout`` generates codecs) that stores each field
through its slot descriptor, not ``object.__setattr__``, with the same
parameters and defaults; assigning a field still raises ``FrozenInstanceError``.
The ``__init__`` would skip a ``__post_init__`` or a default factory: such a class is refused.
"""

from dataclasses import MISSING, dataclass, fields


def record(cls: type) -> type:
    cls = dataclass(frozen=True, slots=True)(cls)
    fs = fields(cls)
    if hasattr(cls, "__post_init__") or any(f.default_factory is not MISSING for f in fs):
        raise TypeError(f"{cls.__name__}: a record has no __post_init__ and no default factory")
    scope = {f"set_{f.name}": cls.__dict__[f.name].__set__ for f in fs}
    scope.update((f"default_{f.name}", f.default) for f in fs if f.default is not MISSING)
    params = ", ".join(f.name if f.default is MISSING else f"{f.name}=default_{f.name}" for f in fs)
    body = "".join(f"    set_{f.name}(self, {f.name})\n" for f in fs)
    exec(f"def __init__(self, {params}):\n{body}", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = scope["__init__"]
    return cls

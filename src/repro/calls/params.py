"""Parameter specifications for distributed calls (§3.3.1.2, §4.3.1).

A parameter passed from the task-parallel caller to a called data-parallel
program is one of:

* a **global constant** — same value to every copy, input only;
* ``Local(array_id)`` — each copy receives *its own* local section of the
  distributed array, input and/or output (paper: ``{"local", Array_ID}``);
* ``Index()`` — each copy receives its index into the processors array,
  input only (paper: ``"index"``);
* ``StatusVar()`` — a per-copy integer status out-variable; local values
  are merged with a binary associative operator (default max) into the
  call's Status (paper: ``"status"``; at most one per call);
* ``Reduce(type, length, combine, out)`` — a per-copy out-variable of any
  type/length whose local values are merged pairwise with ``combine``
  (paper: ``{"reduce", Type, Length, Mod, Pgm, Variable}``; any number per
  call).

Both the pythonic spec objects and the paper's string/tuple syntax are
accepted; :func:`normalize_parameters` canonicalises, and
:class:`CallPlan` is the one reading of a call's list that the wrapper
executes and the PTN renderer prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.arrays.record import ArrayID
from repro.pcn.defvar import DefVar
from repro.spmd.reduce_ops import resolve_op

# A reduction's declared type and the element type of the buffer each copy
# gets for it: a "char" is a byte.
_REDUCE_DTYPES = {
    "int": np.dtype(np.int64),
    "double": np.dtype(np.float64),
    "char": np.dtype(np.uint8),
    "complex": np.dtype(np.complex128),
}


@dataclass(frozen=True)
class Local:
    """A local-section parameter: ``{"local", Array_ID}``."""

    array_id: ArrayID


@dataclass(frozen=True)
class Index:
    """The per-copy index parameter: ``"index"``."""


@dataclass(frozen=True)
class StatusVar:
    """The per-copy status out-parameter: ``"status"``."""


@dataclass(frozen=True)
class Reduce:
    """A reduction out-parameter: ``{"reduce", Type, Length, ..., Var}``.

    ``combine`` is a binary associative callable (or a name from
    :mod:`repro.spmd.reduce_ops`).  ``out`` optionally receives the merged
    value as a definitional variable; merged values are also returned in
    :class:`repro.calls.api.CallResult`.
    """

    type_name: str
    length: int
    combine: Any
    out: Optional[DefVar] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.type_name not in _REDUCE_DTYPES:
            raise ValueError(
                f"reduce type must be one of {tuple(_REDUCE_DTYPES)}, got "
                f"{self.type_name!r}"
            )
        if self.length < 1:
            raise ValueError(f"reduce length must be >= 1, got {self.length}")
        resolve_op(self.combine)  # validates


@dataclass(frozen=True)
class Constant:
    """A global-constant parameter (input only)."""

    value: Any = field(compare=False)


ParamSpec = Union[Local, Index, StatusVar, Reduce, Constant]


def _normalize_one(spec: Any) -> ParamSpec:
    if isinstance(spec, (Local, Index, StatusVar, Reduce, Constant)):
        return spec
    # Paper string forms.
    if isinstance(spec, str):
        if spec == "index":
            return Index()
        if spec == "status":
            return StatusVar()
        return Constant(spec)
    # Paper tuple forms.
    if isinstance(spec, tuple) and spec and isinstance(spec[0], str):
        tag = spec[0]
        if tag == "local":
            if len(spec) != 2 or not isinstance(spec[1], ArrayID):
                raise ValueError(
                    f'("local", Array_ID) expected, got {spec!r}'
                )
            return Local(spec[1])
        if tag == "reduce":
            # Accept ("reduce", type, length, combine[, out]) and the
            # paper's 6-tuple with separate module/program combine naming.
            if len(spec) == 6:
                _tag, type_name, length, _mod, combine, out = spec
            elif len(spec) == 5:
                _tag, type_name, length, combine, out = spec
            elif len(spec) == 4:
                _tag, type_name, length, combine = spec
                out = None
            else:
                raise ValueError(f"bad reduce spec {spec!r}")
            return Reduce(type_name, int(length), combine, out)
    return Constant(spec)


def normalize_parameters(parameters: Sequence[Any]) -> list[ParamSpec]:
    """Canonicalise a parameter list; enforce the at-most-one-status rule
    (§4.3.1 precondition)."""
    specs = [_normalize_one(p) for p in parameters]
    if sum(1 for s in specs if isinstance(s, StatusVar)) > 1:
        raise ValueError(
            'a distributed call may have at most one "status" parameter '
            "(§4.3.1)"
        )
    return specs


@dataclass(frozen=True)
class CallPlan:
    """One reading of a distributed call's parameter list (§5.2.3, §F).

    The thesis' PTN pass reads the list once and generates the wrappers
    and the combine program from that reading; this is the reading.
    :func:`repro.calls.wrapper.build_wrapper` executes it, the combine
    program is made from its reductions, and :mod:`repro.pcn.ptn` renders
    it.  Every position is decided here by what a copy passes there: its
    bundled value (``constant_at``), its local section of the bundled array
    (``local_at``), its index, its status cell, or a reduction buffer
    (``reduce_at``, of element type ``dtypes[k]``).  ``parms`` is the §F.2
    ``(bundle, reduce lengths)`` value ``do_all`` hands every copy:
    constants by value, Local arrays by ID, None for the other positions.
    """

    specs: tuple[ParamSpec, ...]
    constant_at: tuple[int, ...]
    local_at: tuple[int, ...]
    index_at: tuple[int, ...]
    status_at: Optional[int]
    reduce_at: tuple[int, ...]
    reductions: tuple[Reduce, ...]
    dtypes: tuple[np.dtype, ...]
    parms: tuple[tuple, tuple[int, ...]]

    @classmethod
    def of(cls, parameters: Sequence[Any]) -> "CallPlan":
        """Normalise ``parameters`` (paper or pythonic forms) and plan them."""
        specs = tuple(normalize_parameters(parameters))
        at = {kind: [] for kind in (Constant, Local, Index, StatusVar, Reduce)}
        for i, spec in enumerate(specs):  # normalised: exactly these kinds
            at[type(spec)].append(i)
        reductions = tuple(specs[i] for i in at[Reduce])
        bundle = tuple(
            s.value if isinstance(s, Constant)
            else s.array_id if isinstance(s, Local) else None
            for s in specs
        )
        return cls(
            specs=specs,
            constant_at=tuple(at[Constant]),
            local_at=tuple(at[Local]),
            index_at=tuple(at[Index]),
            status_at=next(iter(at[StatusVar]), None),
            reduce_at=tuple(at[Reduce]),
            reductions=reductions,
            dtypes=tuple(_REDUCE_DTYPES[r.type_name] for r in reductions),
            parms=(bundle, tuple(r.length for r in reductions)),
        )

    @property
    def has_status(self) -> bool:
        return self.status_at is not None

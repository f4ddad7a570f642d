"""PTN-style source-to-source transformation for distributed calls
(§5.2.3, §5.2.4, §F).

The thesis implements distributed calls with a Program Transformation
Notation pass that rewrites every ``am_user:distributed_call`` into a block
calling ``am_util:do_all`` and *generates* two wrapper programs and a
combine program as PCN source.  The runtime machinery of
:mod:`repro.calls.wrapper` reproduces the transformation's *behaviour* as
closures; this module reproduces its *product*: given a call's parameter
list, it renders the transformed block, the first- and second-level
wrapper programs, and the combine program as PCN-syntax text, structured
exactly like the §5.2.4 worked examples.

This serves two purposes: it documents precisely what the runtime wrapper
does (the rendered text and the executed closure are generated from the
same parameter analysis, one :class:`~repro.calls.params.CallPlan`), and
it lets tests pin the transformation against the thesis' printed examples
(xform_ex2/3/4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.arrays.record import ArrayID
from repro.calls.params import CallPlan

_label_counter = itertools.count(1)


@dataclass
class TransformResult:
    """The four artefacts of one transformed distributed call (§F)."""

    call_block: str
    wrapper_first: str
    wrapper_second: str
    combine: str
    wrapper_name: str = ""
    combine_name: str = ""

    def programs(self) -> str:
        """The generated module additions, concatenated."""
        return "\n\n".join(
            [self.wrapper_first, self.wrapper_second, self.combine]
        )


def _array_name(array_id: ArrayID) -> str:
    """The source variable a Local's array ID is rendered as: one name per
    array, as the thesis' examples write ``AA``."""
    return f"A{array_id.creating_processor}_{array_id.serial}"


def _parms_tuple_source(plan: CallPlan) -> str:
    """Render the bundled Parms argument of the do_all call (§F.2).

    Constants appear by their source text, Local parameters by their
    array's variable, Index/Status placeholders as ``_``; reduction
    entries contribute a placeholder plus their Length at the tail (the
    first-level wrapper peels lengths off to declare local buffers)."""
    bundle, lengths = plan.parms
    entries = ["_"] * len(bundle)
    for i in plan.constant_at:
        entries[i] = str(bundle[i])
    for i in plan.local_at:
        entries[i] = _array_name(bundle[i])
    return "{" + ",".join(entries + [str(n) for n in lengths]) + "}"


def transform_distributed_call(
    parameters: Sequence,
    module: str = "xform",
    program: str = "cpgm",
    processors: str = "Processors",
    combine_module: str = "",
    combine_program: str = "",
    status_var: str = "Status",
) -> TransformResult:
    """Apply the §F transformation to one distributed call.

    ``parameters`` uses the same forms as
    :func:`repro.calls.api.distributed_call`, and is planned the same way.
    """
    plan = CallPlan.of(parameters)
    n = next(_label_counter)
    wrapper1 = f"wrapper_{n}"
    wrapper2 = f"wrapper2_{n}"
    combine = f"combine_{n + 1}"
    status_comb = (
        f"{combine_module}:{combine_program}"
        if combine_module
        else "am_util:max"
    )
    return TransformResult(
        call_block=_render_call_block(
            plan, module, processors, wrapper1, combine, status_var
        ),
        wrapper_first=_render_wrapper_first(plan, wrapper1, wrapper2),
        wrapper_second=_render_wrapper_second(plan, program, wrapper2),
        combine=_render_combine(plan, status_comb, combine),
        wrapper_name=wrapper1,
        combine_name=combine,
    )


def _render_call_block(
    plan: CallPlan,
    module: str,
    processors: str,
    wrapper1: str,
    combine: str,
    status_var: str,
) -> str:
    """The transformed call site (§F.1, §F.5): a parallel block running
    do_all and unpacking the merged tuple into Status and the reduction
    variables."""
    lines = [
        "{||",
        f'    am_util:do_all({processors},"{module}",'
        f'"{wrapper1}",',
        f"        {_parms_tuple_source(plan)},",
        f'        "{module}","{combine}",_l1),',
        f"    {status_var} = _l1[0]",
    ]
    for k, spec in enumerate(plan.reductions):
        var = getattr(spec.out, "name", None) or f"RR{k}"
        lines.append(f"    , {var} = _l1[{k + 1}]")
    lines.append("}")
    return "\n".join(lines)


def _reduce_letters(plan: CallPlan) -> list[str]:
    """The suffix of each reduction's local buffer and length names."""
    return [chr(97 + k) for k in range(len(plan.reductions))]


def _render_wrapper_first(
    plan: CallPlan, wrapper1: str, wrapper2: str
) -> str:
    """The first-level wrapper (§F.3): peel reduction lengths off the
    Parms tuple — values needed to *declare* second-level locals — and
    delegate; a bundle that fails to match yields STATUS_INVALID."""
    peeled = ["_l7"] + [f"_l8{c}" for c in _reduce_letters(plan)]
    pattern = ",".join(peeled)
    forward = ",".join(["Index", "_l7", "_l1"] + peeled[1:])
    return "\n".join(
        [
            f"{wrapper1}(Index,Parms,_l1)",
            "{?  Parms ?= {" + pattern + "} ->",
            f"        {wrapper2}({forward}),",
            "    default ->",
            "        _l1 = {1}",
            "}",
        ]
    )


def _render_wrapper_second(plan: CallPlan, program: str, wrapper2: str) -> str:
    """The second-level wrapper (§F.4): declare local status/reduction
    variables, unbundle Parms, find_local every local section, call the
    program, and pack the result tuple.  Positions are filled in by role
    exactly as :func:`repro.calls.wrapper.build_wrapper` fills them."""
    letters = _reduce_letters(plan)
    decls = ["int local_status"] if plan.has_status else []
    decls += [
        f"{spec.type_name} _l7{c}[_l8{c}]"
        for spec, c in zip(plan.reductions, letters)
    ]

    # Every position starts as its unbundled slot, which is what a
    # constant is passed as; the others are filled in by role.
    unbundle = [f"_p{i}" for i in range(len(plan.specs))]
    call_args = list(unbundle)
    for i in plan.local_at:
        call_args[i] = f"_s{i}"
    for i in plan.index_at:
        unbundle[i], call_args[i] = "_", "Index"
    if plan.has_status:
        unbundle[plan.status_at] = "_"
        call_args[plan.status_at] = "local_status"
    for i, c in zip(plan.reduce_at, letters):
        unbundle[i], call_args[i] = "_", f"_l7{c}"
    find_locals = [
        f"        am_user:find_local(_p{i},_s{i},_st{i}),"
        for i in plan.local_at
    ]

    pack = ["_l1[0] = " + ("local_status" if plan.has_status else "0")]
    pack += [f"_l1[{k + 1}] = _l7{c}" for k, c in enumerate(letters)]

    header_parms = ",".join(
        ["Index", "Parms", "_l1"] + [f"_l8{c}" for c in letters]
    )
    lines = [f"{wrapper2}({header_parms})"]
    lines.extend(decls)
    lines.append("{?  Parms ?= {" + ",".join(unbundle) + "} ->")
    lines.append("    {||")
    lines.extend(find_locals)
    lines.append(f"        {program}({','.join(call_args)}),")
    lines.append(f"        make_tuple({1 + len(letters)},_l1),")
    lines.extend(f"        {p}," for p in pack)
    lines.append("    },")
    lines.append("    default ->")
    lines.append("        _l1 = {1}")
    lines.append("}")
    return "\n".join(lines)


def _render_combine(plan: CallPlan, status_comb: str, combine: str) -> str:
    """The generated combine program (§F.6): merge two result tuples,
    status slot by the user's (or default max) combiner, each reduction
    slot by its own combiner."""
    n = 1 + len(plan.reductions)  # the merged tuple's length (§F.6)
    lines = [
        f"{combine}(C_in1,C_in2,C_out)",
        "{?  data(C_in1),tuple(C_in2),"
        f"length(C_in1)=={n},length(C_in2)=={n} ->",
        "    {||",
        f"        make_tuple({n},C_out),",
        f"        {status_comb}(C_in1[0],C_in2[0],C_out[0]),",
    ]
    for k, spec in enumerate(plan.reductions):
        comb = spec.combine if isinstance(spec.combine, str) else getattr(
            spec.combine, "__name__", "combine_it"
        )
        lines.append(
            f"        {comb}(C_in1[{k + 1}],C_in2[{k + 1}],"
            f"C_out[{k + 1}]),"
        )
    lines.append("    },")
    lines.append("    default ->")
    lines.append("        C_out = {1}")
    lines.append("}")
    return "\n".join(lines)

"""Automatic mock synthesis for external functions.

During interpretation every call to a function without a body turns into
versioned stub variables: <callee>@RETURN@<k> for the return value,
<callee>@OUT<i>@<k> for data written through pointer arguments, and
<globalName>@<callee>@<k> for globals the stub is permitted to modify. The
version k is the running call number on the trace.

In a generated test procedure each external function the unit calls is a
C definition in the driver, so a function's stubs are its own and the
driver builds with its unit alone. Three static control variables drive
it: _STUB_testCaseNr (set once per test case), _STUB_retID (reset before
each call of the unit under test, incremented by the stub on every
invocation) and _STUB_retVal (the per-call return schedule, sized by the
function's longest). Output parameters and globals are assigned under
(testCaseNr, retID) guards; a null output pointer is not written.
"""

from __future__ import annotations

from .errors import StubPolicyError, UnsupportedOperation
from .frontend.csyntax import FunctionDef
from .frontend.writer import decl_text, type_text
from .imr import ICall
from .memory import Place, byte_offset
from .replay import StubCallValues
from .symexpr import Const, Ptr, Sym, SymExpr
from .typesys import (
    INT,
    UINT,
    CType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    VoidType,
)

# Calls of one callee on a trace beyond which the trace is marked approximate.
_MAX_STUB_CALLS = 16


def return_symbol(callee: str, k: int, ctype: CType) -> Sym:
    return Sym(f"{callee}@RETURN@{k}", ctype)


def output_symbol(callee: str, arg_index: int, k: int, ctype: CType) -> Sym:
    return Sym(f"{callee}@OUT{arg_index}@{k}", ctype)


def global_symbol(callee: str, global_name: str, k: int, ctype: CType) -> Sym:
    return Sym(f"{global_name}@{callee}@{k}", ctype)


def intercept_call(state, interp, instr: ICall) -> None:
    """Model one external call with fresh stub variables."""
    from .symex import StubCallEvent  # local import to avoid a cycle

    layout = state.layout
    callee = instr.callee
    policy = layout.stub_policies.get(callee)
    if policy is None:
        if callee in layout.config.do_not_stub:
            raise StubPolicyError(
                f"{callee} is on the do-not-stub list (line {instr.line})")
        raise UnsupportedOperation(f"no signature known for {callee}")
    sig = policy.signature
    k = state.stub_counts.get(callee, 0)
    state.stub_counts[callee] = k + 1
    if k >= _MAX_STUB_CALLS:
        state.flags.mark(f"{callee} called more than "
                         f"{_MAX_STUB_CALLS} times on one trace")
    event = StubCallEvent(callee, k, None, [], [], instr.line)

    # output parameters: non-const pointee pointer arguments
    for i, (param, arg) in enumerate(zip(sig.params, instr.args)):
        if not isinstance(param.ctype, PointerType) or param.ctype.const_pointee:
            continue
        pointee = param.ctype.pointee
        if isinstance(pointee, (StructType, VoidType)):
            state.flags.mark(f"{callee} output parameter {i} left unmodeled")
            continue
        target = interp.eval(arg)
        if not isinstance(target, Ptr):
            state.flags.mark(f"{callee} argument {i} is not a pointer value")
            continue
        sym = output_symbol(callee, i, k, pointee)
        place = Place(target.base, byte_offset(target.offset, pointee.size),
                      pointee.size, pointee, hint=f"{callee}@OUT{i}")
        interp.write(place, sym, instr.line)
        event.outs.append((i, sym, target))

    # globals the stub may modify
    for gname in policy.permitted_globals:
        region = layout.regions.by_name.get(gname)
        if region is None:
            continue
        if region.dim != 1 or isinstance(region.elem_type, StructType):
            state.flags.mark(f"stub global {gname} is not scalar; left unmodeled")
            continue
        sym = global_symbol(callee, gname, k, region.elem_type)
        place = Place(Const(region.base_id, UINT), Const(0, UINT),
                      region.elem_size, region.elem_type, hint=gname)
        interp.write(place, sym, instr.line)
        event.globals_written.append((gname, sym))

    # the return value
    ret_value: SymExpr | None = None
    if instr.result is not None and not isinstance(sig.return_type, VoidType):
        event.ret = return_symbol(callee, k, sig.return_type)
        ret_value = event.ret
        if isinstance(sig.return_type, PointerType):
            # a pointer input of its own: any of its base candidates, or null
            ps = layout.regions.pointer_input(event.ret.name, sig.return_type)
            ret_value = Ptr(ps.base, ps.offset, sig.return_type)
        place = interp.resolve_place(instr.result)
        interp.write(place, ret_value, instr.line)

    # an annotated prototype may constrain the stub's behaviour
    if policy.posts:
        overrides = dict(interp.overrides)
        for i, (param, arg) in enumerate(zip(sig.params, instr.args)):
            overrides[param.name] = interp.eval(arg)
        saved_overrides = interp.overrides
        saved_return = interp.return_override
        interp.overrides = overrides
        interp.return_override = ret_value
        try:
            for post in policy.posts:
                from .symexpr import to_bool

                state.add_side(to_bool(interp.eval(post)))
        finally:
            interp.overrides = saved_overrides
            interp.return_override = saved_return

    state.stub_calls.append(event)


# ---------------------------------------------------------------------------
# Stub code generation


def control_names(callee: str) -> tuple[str, str, str]:
    """The stub's test case, call counter and return schedule variables."""
    return (f"{callee}_STUB_testCaseNr", f"{callee}_STUB_retID",
            f"{callee}_STUB_retVal")


class StubSpec:
    def __init__(self, callee: str, signature: FunctionDef):
        self.callee = callee
        self.signature = signature
        # schedule[test case id] = per-call values, index = retID
        self.schedule: dict[int, list[StubCallValues]] = {}
        self.globals_types: dict[str, CType] = {}

    @property
    def max_calls(self) -> int:
        return max((len(calls) for calls in self.schedule.values()), default=0)


def emit_stub(spec: StubSpec) -> str:
    """The stub's C definition in the retID/testCaseNr pattern, with its
    control variables static, for the driver that loads its schedule. The
    globals it sets are the driver's extern declarations of the unit's."""
    sig = spec.signature
    tc_var, id_var, ret_var = control_names(spec.callee)
    ret_t = sig.return_type
    void_ret = isinstance(ret_t, VoidType)
    lines = [f"/* stub for {spec.callee} */"]
    if spec.schedule:  # unreferenced, so a warning, when no test case calls it
        lines.append(f"static unsigned int {tc_var};")
    lines.append(f"static unsigned int {id_var};")
    if not void_ret:
        lines.append(f"static {type_text(ret_t)} {ret_var}[{max(spec.max_calls, 1)}];")
    params = ", ".join(
        decl_text(p.name or f"arg{i}", p.ctype).strip()
        for i, p in enumerate(sig.params)
    ) or "void"
    ret_text = type_text(ret_t)
    sep = "" if ret_text.endswith("*") else " "
    lines.append(f"{ret_text}{sep}{spec.callee}({params})")
    lines.append("{")
    for i, p in enumerate(sig.params):
        lines.append(f"    (void){p.name or f'arg{i}'};")
    if not void_ret:
        lines.append(f"    {decl_text(f'{spec.callee}_RETURN', ret_t)};")
        lines.append(f"    {spec.callee}_RETURN = {ret_var}[{id_var}];")
    for tc_id in sorted(spec.schedule):
        calls = spec.schedule[tc_id]
        guarded: list[str] = []
        for call_idx, call in enumerate(calls):
            body: list[str] = []
            for arg_i, value in sorted(call.outs.items()):
                pname = sig.params[arg_i].name or f"arg{arg_i}"
                pointee = sig.params[arg_i].ctype.pointee
                body.append(f"if ({pname}) *{pname} = {c_literal(value, pointee)};")
            for g, value in sorted(call.globals_set.items()):
                gtype = _global_type(spec, g)
                body.append(f"{g} = {c_literal(value, gtype)};")
            if body:
                guarded.append(f"        if({id_var} == {call_idx}){{")
                guarded.extend(f"            {b}" for b in body)
                guarded.append("        }")
        if guarded:
            lines.append(f"    if({tc_var} == {tc_id}){{")
            lines.extend(guarded)
            lines.append("    }")
    lines.append(f"    {id_var}++;")
    if not void_ret:
        lines.append(f"    return {spec.callee}_RETURN;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _global_type(spec: StubSpec, name: str) -> CType:
    return spec.globals_types.get(name, INT)


def c_literal(value: int | float | None, ctype: CType) -> str:
    """A C literal for a model value, suffixed and range-safe."""
    if value is None:
        value = 0
    if isinstance(ctype, FloatType):
        v = float(value)
        if v == int(v) and abs(v) < 1e15:
            body = f"{v:.1f}"
        else:
            body = float(v).hex()
        return body + ("f" if ctype.width == 32 else "")
    if isinstance(ctype, PointerType):
        return "0" if not value else str(value)
    iv = int(value)  # type: ignore[arg-type]
    if isinstance(ctype, IntType):
        if not ctype.signed:
            suffix = "U" if ctype.width <= 32 else "UL"
            return f"{iv}{suffix}"
        if iv == -2147483648:
            return "(-2147483647 - 1)"
        if iv == -9223372036854775808:
            return "(-9223372036854775807L - 1)"
        if ctype.width > 32:
            return f"{iv}L"
    return str(iv)

"""Command-line interface: flags, exit codes, deterministic outputs."""

import hashlib
import json
import os

import pytest

from conftest import compile_c, data_path, exported_candidates, run_exe

from cunitgen.cli import main


def run_cli(args: list[str]) -> int:
    return main(args)


def tree_digest(root: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestExitCodes:
    def test_full_coverage_exits_zero(self, tmp_path):
        code = run_cli([data_path("alloc_ptr.c"), "--out-dir", str(tmp_path), "-q"])
        assert code == 0

    def test_incomplete_coverage_exits_two(self, tmp_path):
        code = run_cli([data_path("contradiction.c"), "--out-dir", str(tmp_path), "-q"])
        assert code == 2

    def test_unparseable_input_exits_one(self, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int f( {")
        code = run_cli([str(bad), "--out-dir", str(tmp_path), "-q"])
        assert code == 1

    def test_bad_file_costs_only_itself(self, tmp_path, capsys):
        good = tmp_path / "good.c"
        good.write_text("int good(int x) { if (x > 3) return 1; return 0; }\n")
        bad = tmp_path / "bad.c"
        bad.write_text("int bad(int x)\n{ if (x > ) return 1; }\n")
        missing = tmp_path / "missing.c"
        out = tmp_path / "gen"
        code = run_cli([str(bad), str(missing), str(good), "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 2, err
        assert err[0].startswith(f"error: {bad}: line 2: "), err
        assert err[1] == f"error: {missing}: No such file or directory", err
        assert (out / "good_driver.c").exists()

    def test_out_dir_naming_a_file_is_a_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        code = run_cli([data_path("alloc.c"), "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {out}: File exists"]
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("blocked, solver", [("f_driver.c", "builtin"),
                                                 ("f_1.smt2", "smtlib-out")])
    def test_unwritable_artifact_costs_only_its_function(self, tmp_path, capsys,
                                                         blocked, solver):
        src = tmp_path / "two.c"
        src.write_text("int f(int x) { if (x > 3) return 1; return 0; }\n"
                       "int g(int y) { if (y < 2) return 1; return 0; }\n")
        out = tmp_path / "gen"
        (out / blocked).mkdir(parents=True)
        code = run_cli([str(src), "--out-dir", str(out), "--solver", solver])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error [f]: {out / blocked}: Is a directory"]
        assert (out / "g_driver.c").exists()
        assert not (out / "f_coverage.txt").exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_node_budget_below_one_is_a_diagnostic(self, tmp_path, capsys, budget):
        out = tmp_path / "gen"
        code = run_cli([data_path("alloc.c"), "--budget-nodes", budget,
                        "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: solver node budget must be >= 1"]
        assert not out.exists()

    def test_unknown_function_exits_one(self, tmp_path):
        code = run_cli([data_path("alloc.c"), "--function", "nope",
                        "--out-dir", str(tmp_path), "-q"])
        assert code == 1

    @pytest.mark.parametrize("option", [["--coverage", "c2"], ["--jobs", "2"]])
    def test_usage_error_exits_one(self, tmp_path, capsys, option):
        # 2 would mean that coverage is incomplete
        out = tmp_path / "gen"
        code = run_cli([data_path("alloc.c"), *option, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err[0].startswith("usage: cunitgen "), err
        assert err[-1].startswith("cunitgen: error: "), err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert run_cli(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: cunitgen ")

    def test_function_defined_by_two_units_is_generated_once(self, tmp_path, capsys):
        first, second = data_path("tritype_int.c"), data_path("tritype_float.c")
        alone = tmp_path / "alone"
        assert run_cli([first, "--out-dir", str(alone), "-q"]) == 0
        out = tmp_path / "gen"
        code = run_cli([first, second, "--out-dir", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == [f"error [Tritype]: {second}: Tritype is already generated "
                       f"from {first}"]
        # the files are the first unit's, and none was written over
        assert tree_digest(str(out)) == tree_digest(str(alone))


    def test_void_cast_statement(self, tmp_path):
        src = tmp_path / "voidcast.c"
        src.write_text("int f(int x, int k)\n{\n    (void)k;\n"
                       "    if (x > 3)\n        return 1;\n    return 0;\n}\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path), "-q"])
        assert code == 0
        exe = compile_c(str(tmp_path), [str(tmp_path / "f_driver.c"), str(src)])
        assert run_exe(exe)[0] == 0


class TestRobustness:
    def test_float_overflow_is_a_diagnostic(self, tmp_path, capsys):
        src = tmp_path / "fover.c"
        src.write_text("int h(int x) { float f = 1e39; if (x > 0) return (int)f;"
                       " return 0; }\n"
                       "int g(int y) { if (y > 3) return 1; return 0; }\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        # the other function in the unit is still generated
        assert (tmp_path / "g_driver.c").exists()
        # (int)f is undefined, so the path through it dies as 1 / 0 would
        report = json.loads((tmp_path / "h_coverage.json").read_text())
        assert report["test_cases"] == 1
        verdicts = {u["description"].split("[")[1].rstrip("]"): u["verdict"]
                    for u in report["uncovered"] if u["kind"] == "edge"}
        assert verdicts == {"x > 0": "infeasible-proven"}
        exe = compile_c(str(tmp_path), [str(tmp_path / "h_driver.c"), str(src)])
        assert run_exe(exe)[0] == 0

    def nesting_diagnostic(self, tmp_path, capsys, text: str) -> str:
        src = tmp_path / "deep.c"
        src.write_text(text)
        code = run_cli([str(src), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and str(src) in err, err
        return err

    def test_deeply_nested_ifs_are_a_diagnostic(self, tmp_path, capsys):
        depth = 400
        body = "".join(f"if (x > {i}) {{\n" for i in range(depth)) \
            + "r = 1;\n" + "}\n" * depth
        self.nesting_diagnostic(
            tmp_path, capsys, f"int deep(int x) {{\nint r = 0;\n{body}return r;\n}}\n")

    def test_long_sum_is_a_diagnostic(self, tmp_path, capsys):
        cond = " + ".join(["x"] * 600)
        self.nesting_diagnostic(
            tmp_path, capsys,
            f"int sum(int x) {{ if ({cond} > 5) return 1; return 0; }}\n")

    def test_compound_rtt_assign_fails_one_function(self, tmp_path, capsys):
        src = tmp_path / "acc.c"
        src.write_text('#include "rtt_annotations.h"\n'
                       "int f(int x)\n{\n    __rtt_aux(int, acc);\n"
                       "    __rtt_assign(acc += 2);\n"
                       "    if (x > 3) return 1;\n    return 0;\n}\n"
                       "int g(int y) { if (y > 3) return 1; return 0; }\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error [f]: ") and "(line 5)" in err, err
        assert err.count("\n") == 1, err
        assert (tmp_path / "g_driver.c").exists()
        assert not (tmp_path / "f_driver.c").exists()

    def test_union_of_pointer_types(self, tmp_path, capsys):
        src = tmp_path / "pu.c"
        src.write_text("union pu { int *a; char *b; }; union pu g; int x;\n"
                       "int f(void) { g.a = &x; if (g.b == 0) return 1; return 0; }\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path), "-q"])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 2
        report = json.loads((tmp_path / "f_coverage.json").read_text())
        # g.b reads back the pointer stored through g.a, which is never null
        assert [(u["description"], u["verdict"]) for u in report["uncovered"]] \
            == [("n4 -> n2 [__t0 == 0]", "infeasible-proven")]
        exe = compile_c(str(tmp_path), [str(tmp_path / "f_driver.c"), str(src)])
        assert run_exe(exe)[0] == 0

    def test_deep_symbolic_expression_fails_one_function(self, tmp_path, capsys):
        # each assignment wraps the last value: one expression 1,200 deep
        src = tmp_path / "chain.c"
        src.write_text("int chain(int x)\n{\n    int y = x;\n"
                       + "    y = y + 1;\n" * 1200
                       + "    if (y > 5) return 1;\n    return 0;\n}\n"
                       "int g(int y) { if (y > 3) return 1; return 0; }\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error [chain]: ") and err.count("\n") == 1, err
        assert (tmp_path / "g_driver.c").exists()
        assert not (tmp_path / "chain_driver.c").exists()

    def test_source_not_utf8_costs_only_itself(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_bytes(b"int f(int x) { /* \xff */ if (x > 0) return 1; return 0; }\n")
        good = tmp_path / "good.c"
        good.write_text("int g(int y) { if (y > 3) return 1; return 0; }\n")
        code = run_cli([str(bad), str(good), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {bad}: not UTF-8: byte 0xff at offset 18 of {bad}\n"
        assert (tmp_path / "out" / "g_driver.c").exists()

    def test_included_header_not_utf8_is_a_diagnostic(self, tmp_path, capsys):
        (tmp_path / "latin.h").write_bytes(b"/* caf\xe9 */\n#define K 3\n")
        src = tmp_path / "inc.c"
        src.write_text('#include "latin.h"\n'
                       "int h(int x) { if (x > K) return 1; return 0; }\n")
        code = run_cli([str(src), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {src}: not UTF-8: byte 0xe9 at offset 6 of "
                       f"{tmp_path / 'latin.h'}\n")

    def test_include_cycle_is_named(self, tmp_path, capsys):
        (tmp_path / "self.h").write_text('#include "self.h"\nint s;\n')
        (tmp_path / "a.h").write_text('#include "b.h"\n')
        (tmp_path / "b.h").write_text('#include "a.h"\n')
        one = tmp_path / "one.c"
        one.write_text('#include "self.h"\nint f(int x) { return x; }\n')
        two = tmp_path / "two.c"
        two.write_text('#include "a.h"\nint g(int x) { return x; }\n')
        code = run_cli([str(one), str(two), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error: {one}: {tmp_path / 'self.h'}: line 1: "
                       "#include cycle: self.h -> self.h\n"
                       f"error: {two}: {tmp_path / 'b.h'}: line 1: "
                       "#include cycle: a.h -> b.h -> a.h\n")

    def test_diagnostic_in_a_header_names_the_header(self, tmp_path, capsys):
        (tmp_path / "nest.h").write_text("#define K 3\n#include \"missing.h\"\n")
        (tmp_path / "outer.h").write_text('#include "nest.h"\n')
        nest = tmp_path / "nest.c"
        nest.write_text('#include "nest.h"\nint f(int x) { return x + K; }\n')
        outer = tmp_path / "outer.c"
        outer.write_text('\n#include "outer.h"\nint g(int x) { return x; }\n')
        code = run_cli([str(nest), str(outer), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        missing = f"{tmp_path / 'nest.h'}: line 2: include file not found: missing.h"
        assert err == f"error: {nest}: {missing}\nerror: {outer}: {missing}\n"

    def test_parse_error_in_a_header_names_the_header(self, tmp_path, capsys):
        """A token names the file it came from; a macro's expansion, the
        file where the macro is used."""
        (tmp_path / "bad.h").write_text("int k = ;\n")
        (tmp_path / "semi.h").write_text("#define SEMI ;\n")
        (tmp_path / "use.h").write_text("\nint j = SEMI\n")
        files = [tmp_path / name for name in ("m.c", "n.c", "o.c")]
        files[0].write_text('int g;\n\n#include "bad.h"\nint f(int x) { return x; }\n')
        files[1].write_text('#include "semi.h"\nint j = SEMI\n')
        files[2].write_text('#define SEMI ;\n#include "use.h"\n')
        code = run_cli([str(f) for f in files] + ["--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        got = "got ';' (expected expression)"
        assert err == (f"error: {files[0]}: {tmp_path / 'bad.h'}: line 1: {got}\n"
                       f"error: {files[1]}: line 2: {got}\n"
                       f"error: {files[2]}: {tmp_path / 'use.h'}: line 2: {got}\n")


# x * 2654435761 is odd times a multiplicative-hash constant, so the second
# branch is feasible (x = -7) but costs the solver more than its node budget.
HASH_BEHIND_UNKNOWN = """\
int f(int x, int y)
{
    int z = 0;
    if (x > 0) {
        z = 1;
    } else if ((unsigned int)x * 2654435761U == 2893786153U) {
        z = 2;
    }
    if (z == 2) {
        return 1;
    }
    return y;
}
"""


class TestHonestVerdicts:
    def test_unknown_prune_is_no_proof(self, tmp_path):
        src = tmp_path / "f.c"
        src.write_text(HASH_BEHIND_UNKNOWN)
        out = tmp_path / "gen"
        assert run_cli([str(src), "--out-dir", str(out), "-q"]) == 2
        report = json.loads((out / "f_coverage.json").read_text())
        verdicts = {u["description"].split("[")[1].rstrip("]"): u["verdict"]
                    for u in report["uncovered"] if u["kind"] == "edge"}
        assert verdicts["z == 2"] == "budget-exhausted"
        assert "infeasible-proven" not in verdicts.values()
        # the edge is reachable: f(-7, 0) takes it
        main = tmp_path / "main.c"
        main.write_text("int f(int x, int y);\n"
                        "int main(void) { return f(-7, 0) == 1 ? 0 : 1; }\n")
        exe = compile_c(str(tmp_path), [str(main), str(src)])
        assert run_exe(exe)[0] == 0


# A pointer input is set up by the driver before the call, so it can name a
# global or an auto-generated array, never the function's own locals or
# by-value parameters; reads through it must not alias writes to those.
LOOP_THEN_BUFFER = """\
int f(int *buf, int x)
{
    int acc = 0;
    int k;
    for (k = 0; k < 3; k = k + 1)
        acc = acc + k * 7;
    if (buf[1] > x)
        return acc;
    return 0;
}
"""

STUB_BITFIELD_SWITCH = """\
struct pkt { unsigned int kind : 2; unsigned int urgent : 1; int level; };

int probe(int v);

int mw(int *buf, struct pkt p, int i, int x, unsigned int b)
{
    int total = 0;
    int s = probe(x);
    if (buf[i] > s)
        total = total + 1;
    if (p.kind == 1 && p.level < buf[1])
        x = x - 5;
    switch (b & 3) {
    case 0: x = x + buf[2]; break;
    case 1: buf[0] = x; break;
    case 2: x = x - 40; break;
    default: x = -20;
    }
    if (x > 100)
        return 1;
    return 0;
}
"""


# Member reads through an index into a global array, through an index on a
# pointer input and through an explicit dereference: each reads a field other
# than the first through a place the driver sets up as an array.
STRUCT_MEMBER_BASES = """\
struct node { int v; int w; };
struct node tab[2];
int g(int x) { if (x > tab[1].v) { return 1; } return 0; }
int g2(struct node *p, int x) { if (x > p[1].w) { return 1; } return 0; }
int g3(struct node *p, int x) { if (x > (*p).w) { return 1; } return 0; }
"""

# a read of field 0 at an index past 64 / 8: each index offers one cell
WIDE_STRUCT_INDEX = """\
struct s8 { int a; int b; int c; int d; int e; int f; int g; int h; };
int k(struct s8 *p, int i)
{
    if (i >= 8 && i < 10) {
        if (p[i].a > 5) { return 1; }
    }
    return 0;
}
"""

# the assigned values carry side conditions the path must satisfy
ASSIGN_SIDE_CONDITIONS = """\
#include "rtt_annotations.h"
int dv(int x, int y)
{
    __rtt_aux(int, q);
    __rtt_assign(q = x / y);
    if (x > 0) { return 1; }
    return 0;
}
int ix(int *a, int i)
{
    __rtt_aux(int, q);
    __rtt_assign(q = a[i]);
    if (i > 3) { return 1; }
    return 0;
}
"""

# pointers compared with the addresses of scalar globals: m(&g, &h, 0) takes
# both true sides
POINTER_TO_SCALAR_GLOBAL = """\
#include "rtt_annotations.h"
int g;
int h;
int m(int *p, int *q, int x)
{
    __rtt_modifies(h);
    if (p == &g) { *p = 3; }
    if (q != &h && x > 2) { *q = x; }
    return 0;
}
"""


# Pointers stored in a global array, in a global struct and in a struct that
# a pointer parameter points to. Each path returns its own value, so a
# compiled test case that takes another path than generation predicted
# fails the postcondition unexpectedly.
POINTER_IN_ARRAY = """\
#include "rtt_annotations.h"
int *tab[3];
int f(int i)
{
    __rtt_postcondition(__rtt_return == 0);
    if (i >= 0 && i < 3) {
        if (*tab[i] > 3) { return 0; }
        return 1;
    }
    return 2;
}
"""

POINTER_IN_STRUCT = """\
#include "rtt_annotations.h"
struct box { int *p; int n; } b;
int f(void)
{
    __rtt_postcondition(__rtt_return == 0);
    if (b.n > 0) {
        if (*b.p > 3) { return 0; }
        return 1;
    }
    return 2;
}
"""

POINTER_IN_POINTED_STRUCT = """\
#include "rtt_annotations.h"
struct node { int *p; int v; };
int f(struct node *n)
{
    __rtt_postcondition(__rtt_return == 0);
    if (n->v > 0) {
        if (*n->p > 3) { return 0; }
        return 1;
    }
    return 2;
}
"""

# p and q share one array on the p == q side; q's own cells are no input
POINTERS_SHARING_AN_ARRAY = """\
#include "rtt_annotations.h"
int f(int *p, int *q)
{
    __rtt_postcondition(__rtt_return != 1);
    if (p == q) { if (*p > 3) { return 1; } return 2; }
    return 0;
}
"""

# arrays of one element: a declared one, and auto-generated ones of int and
# of a struct under --ptr-array-size 1
ONE_ELEMENT_ARRAYS = """\
struct s2 { int v; int w; };
int a[1];
int f(int *p, struct s2 *q)
{
    if (a[0] > 3 && *p > 2) {
        if (q->w > 5) { return 1; }
    }
    return 0;
}
"""

# each check is the condition replay evaluated, not the first on its line
TWO_POSTS_ON_ONE_LINE = """\
#include "rtt_annotations.h"
int f(int x)
{
    __rtt_postcondition(__rtt_return > 0); __rtt_postcondition(__rtt_return < 3);
    if (x > 2) { return 4; }
    return 1;
}
"""

# a stub that returns a pointer: null, or a pointer into an array of its own
POINTER_FROM_A_STUB = """\
#include "rtt_annotations.h"
int *lookup(int k);
int f(int k)
{
    __rtt_postcondition(__rtt_return == 0);
    int *p = lookup(k);
    if (p == 0) return -1;
    if (*p > 3) return 1;
    return 0;
}
"""

# symex reads g.i as a fresh symbol, not as the bits of 1.5f, so a model for
# the false side need not take it
UNION_REINTERPRETED = """\
#include "rtt_annotations.h"
union u { int i; float f; };
union u g;
int h(int x)
{
    __rtt_postcondition(__rtt_return == 1);
    g.f = 1.5f;
    if (g.i > x) return 1;
    return 0;
}
"""

UNION_INDEX = """\
union u { int i; float f; };
union u g;
int f(int *p) { g.f = 1.5f; return p[g.i + 9]; }
"""


class TestPointerInputsAndLocals:
    def check(self, tmp_path, name: str, text: str, stubs: list[str],
              functions: tuple[str, ...] = (), args: tuple[str, ...] = ()):
        src = tmp_path / f"{name}.c"
        src.write_text(text)
        out = tmp_path / "gen"
        assert run_cli([str(src), "--out-dir", str(out), "-q", *args]) == 0
        for fn in functions or (name,):
            sources = [str(out / f"{fn}_driver.c"), str(src)]
            sources += [str(out / f"{stub}_stub.c") for stub in stubs]
            exe = compile_c(str(out), sources, exe=f"{fn}.out")
            assert run_exe(exe)[0] == 0

    def test_loop_before_buffer_branch(self, tmp_path):
        self.check(tmp_path, "f", LOOP_THEN_BUFFER, [])

    def test_stub_bitfield_and_switch(self, tmp_path):
        self.check(tmp_path, "mw", STUB_BITFIELD_SWITCH, ["probe"])

    def test_member_reads_through_index_and_deref(self, tmp_path):
        self.check(tmp_path, "nodes", STRUCT_MEMBER_BASES, [],
                   functions=("g", "g2", "g3"))

    def test_member_read_at_symbolic_index_of_wide_struct(self, tmp_path):
        self.check(tmp_path, "k", WIDE_STRUCT_INDEX, [])

    def test_pointer_equal_to_scalar_global(self, tmp_path):
        self.check(tmp_path, "m", POINTER_TO_SCALAR_GLOBAL, [])
        # p can only name g or its own array, never the parameter q, so the
        # store through p leaves the read of q exact
        assert "(approximate" not in (tmp_path / "gen" / "m_coverage.txt").read_text()

    def test_pointer_returned_by_a_stub(self, tmp_path):
        self.check(tmp_path, "f", POINTER_FROM_A_STUB, ["lookup"])
        out = tmp_path / "gen"
        assert "branch coverage: 4/4" in (out / "f_coverage.txt").read_text()
        driver = (out / "f_driver.c").read_text()
        assert "lookup_STUB_retVal[0] = lookup_RETURN_0__autogen_array;" in driver
        assert "lookup_RETURN_0__autogen_array[0] = " in driver

    def test_annotated_stub_constrains_its_pointer(self, tmp_path):
        # the prototype's postcondition is about the returned pointer itself
        src = tmp_path / "f.c"
        src.write_text(POINTER_FROM_A_STUB.replace(
            "int *lookup(int k);",
            "int *lookup(int k) { __rtt_postcondition(__rtt_return != 0); }"))
        out = tmp_path / "gen"
        assert run_cli([str(src), "--out-dir", str(out), "-q"]) == 2
        report = (out / "f_coverage.txt").read_text()
        assert "branch coverage: 3/4" in report
        assert "[p == 0]: infeasible-proven" in report

    def test_divergence_on_an_approximate_trace(self, tmp_path):
        src = tmp_path / "h.c"
        src.write_text(UNION_REINTERPRETED)
        out = tmp_path / "gen"
        assert run_cli([str(src), "--out-dir", str(out), "-q"]) == 2
        report = (out / "h_coverage.txt").read_text()
        assert "test cases:      1" in report
        assert "[!(__t0 > x)]: budget-exhausted" in report
        assert "(approximate: reinterpret float as int)" in report
        exe = compile_c(str(out), [str(out / "h_driver.c"), str(src)])
        assert run_exe(exe)[0] == 0

    def test_divergence_with_no_branch_to_prune(self, tmp_path, capsys):
        # the approximate trace has no branch to leave undecided, so each
        # divergence counts and the function ends at the cap instead of
        # replaying the same trace until the iteration bound
        src = tmp_path / "f.c"
        src.write_text(UNION_INDEX)
        out = tmp_path / "gen"
        assert run_cli([str(src), "--out-dir", str(out), "-v"]) == 1
        err = capsys.readouterr().err
        assert err.count("test case dropped") == 3
        assert err.startswith("error [f]: ReplayDivergence")

    def test_pointer_stored_in_an_array(self, tmp_path):
        self.check(tmp_path, "f", POINTER_IN_ARRAY, [])

    def test_pointer_stored_in_a_struct(self, tmp_path):
        self.check(tmp_path, "f", POINTER_IN_STRUCT, [])

    def test_pointer_in_a_struct_behind_a_parameter(self, tmp_path):
        self.check(tmp_path, "f", POINTER_IN_POINTED_STRUCT, [])

    def test_pointers_sharing_an_array(self, tmp_path):
        self.check(tmp_path, "f", POINTERS_SHARING_AN_ARRAY, [])
        driver = (tmp_path / "gen" / "f_driver.c").read_text()
        shared = driver.split("/* test case 1")[0]
        assert "q = p__autogen_array;" in shared
        assert "q__autogen_array" not in shared

    def test_two_postconditions_on_one_line(self, tmp_path):
        self.check(tmp_path, "f", TWO_POSTS_ON_ONE_LINE, [])
        driver = (tmp_path / "gen" / "f_driver.c").read_text()
        assert "(__ctg_ret > 0)" in driver and "(__ctg_ret < 3)" in driver

    def test_one_element_arrays(self, tmp_path):
        self.check(tmp_path, "f", ONE_ELEMENT_ARRAYS, [], args=("--ptr-array-size", "1"))
        driver = (tmp_path / "gen" / "f_driver.c").read_text()
        assert "a[0] = " in driver
        assert "q__autogen_array[0].w = " in driver

    def test_rtt_assign_value_side_conditions(self, tmp_path, capsys):
        # the C macro drops __rtt_assign, so only generation is checked
        src = tmp_path / "asg.c"
        src.write_text(ASSIGN_SIDE_CONDITIONS)
        assert run_cli([str(src), "--out-dir", str(tmp_path), "-q"]) == 0
        assert capsys.readouterr().err == ""


class TestFlags:
    def test_function_filter(self, tmp_path):
        code = run_cli([data_path("alloc.c"), "--function", "alloc",
                        "--out-dir", str(tmp_path), "-q"])
        assert code == 0
        assert (tmp_path / "alloc_driver.c").exists()

    def test_dump_cfg(self, tmp_path):
        run_cli([data_path("fig3.c"), "--dump-cfg", "--out-dir", str(tmp_path), "-q"])
        text = (tmp_path / "select_demo_cfg.txt").read_text()
        assert text.startswith("cfg select_demo")
        assert "[a]" in text

    def test_dump_stct(self, tmp_path):
        texts = []
        for out in (tmp_path / "a", tmp_path / "b"):
            run_cli([data_path("fig3.c"), "--dump-stct", "--out-dir", str(out), "-q"])
            texts.append((out / "select_demo_stct.txt").read_bytes())
        assert texts[0].startswith(b"stct\n")
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("name, body", [
        ("forever", "int i = 0; while (i >= 0) { i = i + 1; } return i;"),
        ("loopn", "int i = 0; while (i < n) { i = i + 1; } return i;"),
    ])
    def test_dump_stct_stays_within_the_depth_bound(self, tmp_path, name, body):
        src = tmp_path / f"{name}.c"
        src.write_text(f"int {name}(int n) {{ {body} }}\n")
        run_cli([str(src), "--dump-stct", "--max-depth", "12",
                 "--out-dir", str(tmp_path), "-q"])
        lines = (tmp_path / f"{name}_stct.txt").read_text().splitlines()
        assert lines[0] == "stct"
        # the root is indented one level, a node at depth d by d + 1 levels
        depths = [(len(line) - len(line.lstrip(" "))) // 2 - 1 for line in lines[1:]]
        assert depths[0] == 0 and max(depths) <= 12

    def test_coverage_c0(self, tmp_path):
        code = run_cli([data_path("tritype_int.c"), "--coverage", "c0",
                        "--out-dir", str(tmp_path), "-q"])
        assert code == 0

    def test_ptr_array_size(self, tmp_path):
        code = run_cli([data_path("table1.c"), "--ptr-array-size", "4",
                        "--out-dir", str(tmp_path), "-q"])
        assert code == 0
        text = (tmp_path / "test_driver.c").read_text()
        assert "char p1__autogen_array[4]" in text

    def test_compat_header_shipped(self, tmp_path):
        run_cli([data_path("alloc.c"), "--out-dir", str(tmp_path), "-q"])
        assert (tmp_path / "rtt_annotations.h").exists()


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            code = run_cli([data_path("alloc.c"), data_path("tritype_int.c"),
                            "--out-dir", str(out), "-q"])
            assert code == 0
        assert tree_digest(str(a)) == tree_digest(str(b))


class TestSmtlibOut:
    def test_exports_for_every_solver_call(self, tmp_path):
        code = run_cli([data_path("table1.c"), "--solver", "smtlib-out",
                        "--out-dir", str(tmp_path), "-q"])
        assert code == 0
        smt_files = sorted(p for p in os.listdir(tmp_path) if p.endswith(".smt2"))
        assert smt_files
        from oracles import parse_smtlib

        for name in smt_files:
            text = (tmp_path / name).read_text()
            assert "(check-sat)" in text
            parse_smtlib(text)  # well-formed for the emitted subset

    def test_external_model_answer_used(self, tmp_path, capsys):
        # pre-answer the first constraint within the domains it states: the
        # generator uses the model from the file instead of searching
        out = tmp_path / "gen"
        assert run_cli([data_path("table1.c"), "--solver", "smtlib-out",
                        "--out-dir", str(out), "-q"]) == 0
        candidates = exported_candidates((out / "test_1.smt2").read_text())
        base = candidates["p1@baseAddress"][0]  # p1's own array
        (out / "test_1.model").write_text(
            f"p1@baseAddress = {base}\n"
            f"p2@baseAddress = {base}\n"
            "p1@offset = 2\n"
            "p2@offset = 9\n"
        )
        capsys.readouterr()
        code = run_cli([data_path("table1.c"), "--solver", "smtlib-out",
                        "--out-dir", str(out), "-v"])
        assert code == 0
        assert "sat (0 search nodes, external model)" in capsys.readouterr().out
        text = (out / "test_driver.c").read_text().split("/* test case 1")[0]
        assert "p1 = p1__autogen_array;" in text
        assert "p2 = p1__autogen_array;" in text
        assert "p1__autogen_offset = 2U;" in text
        assert "p2__autogen_offset = 9U;" in text
        exe = compile_c(str(out), [str(out / "test_driver.c"), data_path("table1.c")])
        assert run_exe(exe)[0] == 0

    def test_answer_outside_the_domains_is_searched(self, tmp_path, capsys):
        # 3000000000 names no region: no candidate of either base
        out = tmp_path / "gen"
        out.mkdir()
        (out / "test_1.model").write_text(
            "p1@baseAddress = 3000000000\n"
            "p2@baseAddress = 3000000000\n"
            "p1@offset = 2\n"
            "p2@offset = 9\n"
        )
        code = run_cli([data_path("table1.c"), "--solver", "smtlib-out",
                        "--out-dir", str(out), "-v"])
        assert code == 0
        assert "external model" not in capsys.readouterr().out
        exe = compile_c(str(out), [str(out / "test_driver.c"), data_path("table1.c")])
        assert run_exe(exe)[0] == 0

    def test_answer_outside_its_region_is_searched(self, tmp_path, capsys):
        # base g is a candidate, but g has one element: offset 5 lies
        # outside it, so the answer is searched; offset 0 is used
        src = tmp_path / "g.c"
        src.write_text("int g;\nint f(int *p) { if (*p > 3) return 1; return 0; }\n")
        out = tmp_path / "gen"
        assert run_cli([str(src), "--solver", "smtlib-out", "--out-dir", str(out),
                        "-q"]) == 0
        text = (out / "f_1.smt2").read_text()
        assert "(bvsgt |*p@read@1| (_ bv3 32))" in text
        g_base = exported_candidates(text)["p@baseAddress"][1]  # p's array, g, null
        cells = "".join(f"p__autogen[{i}] = 0\n" for i in range(10))
        for offset, used in ((5, False), (0, True)):
            (out / "f_1.model").write_text(
                f"p@baseAddress = {g_base}\np@offset = {offset}\n"
                f"*p@read@1 = 4\ng = 4\n{cells}")
            capsys.readouterr()
            assert run_cli([str(src), "--solver", "smtlib-out", "--out-dir", str(out),
                            "-v"]) == 0
            assert ("external model" in capsys.readouterr().out) is used
            driver = (out / "f_driver.c").read_text().split("/* test case 1")[0]
            assert ("p = &g;" in driver) is used
        exe = compile_c(str(out), [str(out / "f_driver.c"), str(src)])
        assert run_exe(exe)[0] == 0

    def test_integer_text_answers_a_float(self, tmp_path, capsys):
        src = tmp_path / "g.c"
        src.write_text("int g(float f) { if (f > 1.5f) return 1; return 0; }\n")
        out = tmp_path / "gen"
        out.mkdir()
        (out / "g_1.model").write_text("f = 2\n")
        code = run_cli([str(src), "--solver", "smtlib-out", "--out-dir", str(out), "-v"])
        assert code == 0
        assert "external model" in capsys.readouterr().out
        assert "f = 2.0f;" in (out / "g_driver.c").read_text()

    def test_malformed_answer_is_a_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "gen"
        out.mkdir()
        (out / "test_1.model").write_text("p1@offset = two\n")
        code = run_cli([data_path("table1.c"), "--solver", "smtlib-out",
                        "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [test]: malformed model value")
        assert "Traceback" not in err

    def test_answer_not_utf8_is_a_diagnostic(self, tmp_path, capsys):
        # f's answer file is Latin-1; g, in the same file, is still generated
        src = tmp_path / "two.c"
        src.write_text("int f(int x) { if (x > 3) return 1; return 0; }\n"
                       "int g(int y) { if (y < 2) return 1; return 0; }\n")
        out = tmp_path / "gen"
        out.mkdir()
        (out / "f_1.model").write_bytes(b"x = 4 /* \xe9 */\n")
        code = run_cli([str(src), "--solver", "smtlib-out", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error [f]: not UTF-8: byte 0xe9 at offset 9 of "
                       f"{out / 'f_1.model'}\n")
        assert (out / "g_driver.c").exists()

"""Stub naming and generated stub code."""

from conftest import compile_c, data_path, read_data, run_exe

from cunitgen.config import Config
from cunitgen.frontend.parser import parse_unit
from cunitgen.pipeline import generate_function
from cunitgen.stubs import StubCallValues, StubSpec, emit_stub
from cunitgen.frontend.csyntax import FunctionDef, Param
from cunitgen.typesys import INT, PointerType, VOID


def outcome_for(name: str, src: str, file_name="<test>", **cfg):
    unit = parse_unit(src, file_name)
    fn = unit.function(name)
    cfg.setdefault("out_dir", "/tmp/ctg-stub")
    out = generate_function(unit, fn, Config(**cfg))
    assert out.status == "ok", out.message
    return out


class TestNames:
    def test_injective_across_callee_kind_version(self):
        from cunitgen.stubs import global_symbol, output_symbol, return_symbol

        names = {
            return_symbol("f", 0, INT).name,
            return_symbol("f", 1, INT).name,
            return_symbol("g", 0, INT).name,
            output_symbol("f", 0, 0, INT).name,
            output_symbol("f", 1, 0, INT).name,
            global_symbol("f", "g1", 0, INT).name,
            global_symbol("f", "g1", 1, INT).name,
        }
        assert len(names) == 7

    def test_version_equals_call_count(self):
        out = outcome_for("test", read_data("table2.c"), "table2.c")
        # every test case that reaches the second call schedules two returns
        deep = [tc for tc in out.test_cases if len(tc.schedule.get("func_ext", [])) == 2]
        assert deep


class TestEmission:
    def test_retid_increment_pattern(self):
        out = outcome_for("test", read_data("table2.c"), "table2.c")
        spec = next(s for s in out.stub_specs if s.callee == "func_ext")
        text = emit_stub(spec)
        assert "func_ext_STUB_retID++;" in text
        assert "func_ext_STUB_retVal[func_ext_STUB_retID]" in text
        assert "func_ext_STUB_testCaseNr" in text

    def test_uncalled_callee_gets_no_stub(self):
        src = ("extern int used(int x); extern int unused(int x);"
               "int f(int a){ return used(a); }")
        out = outcome_for("f", src)
        names = {s.callee for s in out.stub_specs}
        assert names == {"used"}

    def test_schedule_merge_uses_max_call_count(self):
        """Test cases with different call counts share one retVal array."""
        src = ("extern int ext(int x);"
               "int f(int a){ int r = ext(a);"
               " if (a > 0) { r = r + ext(a) + ext(a); } return r; }")
        out = outcome_for("f", src)
        spec = next(s for s in out.stub_specs if s.callee == "ext")
        counts = {len(calls) for calls in spec.schedule.values()}
        assert counts == {1, 3}
        assert spec.max_calls == 3
        text = emit_stub(spec)
        assert "int ext_STUB_retVal[3];" in text

    def test_out_param_write_guarded(self):
        spec = StubSpec(
            "fill",
            FunctionDef("fill", VOID, [Param("dst", PointerType(INT))], None),
        )
        spec.schedule[0] = [StubCallValues(ret=None, outs={0: 42})]
        text = emit_stub(spec)
        assert "*dst = 42;" in text
        assert "if(fill_STUB_testCaseNr == 0){" in text
        assert "if(fill_STUB_retID == 0){" in text

    def test_stub_compiles_and_runs(self, tmp_path):
        out = outcome_for("test", read_data("table2.c"), "table2.c",
                          out_dir=str(tmp_path))
        from cunitgen.cli import ship_compat_header
        from cunitgen.pipeline import write_outputs

        unit = parse_unit(read_data("table2.c"), "table2.c")
        write_outputs(out, unit, Config(out_dir=str(tmp_path)))
        ship_compat_header(str(tmp_path))
        exe = compile_c(str(tmp_path), [
            str(tmp_path / "test_driver.c"),
            data_path("table2.c"),
        ])
        code, stdout = run_exe(exe)
        assert code == 0, stdout

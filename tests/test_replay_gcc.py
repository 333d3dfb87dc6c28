"""Differential check: the CFG interpreter agrees with gcc-compiled code.

The lowered graph executed concretely must produce the same observable
result (return value, global writes) as the original source compiled with
an ordinary C compiler, across a randomized corpus of small inputs.
"""

import ast
import random
import subprocess

import pytest

from conftest import GCC_FLAGS, compile_c, data_path, read_data

from cunitgen.config import Config
from cunitgen.frontend import extract_annotations
from cunitgen.frontend.parser import parse_unit
from cunitgen.imr import lower
from cunitgen import replay
from cunitgen.replay import concrete_replay
from cunitgen.symex import Layout

ARITH_SRC = """
int mash(int a, int b, int c)
{
    int r = a;
    if (a > b) { r = r + b * 3; } else { r = r - c; }
    if ((a & 1) == 1) { r = r ^ c; }
    while (r > 100) { r = r - (b & 15) - 7; }
    switch (c & 3) {
    case 0: r = r + 1; break;
    case 1: r = r + 2; break;
    default: r = r - 1;
    }
    return r;
}
"""

UNSIGNED_SRC = """
unsigned int umix(unsigned int a, unsigned int b)
{
    unsigned int r = a * 31U + b;
    if (a > b) { r = r - b; }
    if (r > 1000U) { r = r % 97U; }
    return r;
}
"""

# Every operator of the scalar table in typesys, with the inputs kept inside
# C's defined range: shift amounts masked to [0, 31], odd divisors, and
# dividends far from INT_MIN.
SCALAR_OPS_SRC = """
int scalar_ops(int a, int b, int c)
{
    char ch = (char)(a * 7);
    short sh = (short)(b * 1000);
    unsigned int u = (unsigned int)a * 2654435761U;
    long l = (long)a * 100000L;
    unsigned long ul = (unsigned long)(b * 3);
    float f = (float)a / 4.0f;
    int s = b & 31;
    int d = c | 1;
    int r = a >> (s & 7);
    r = r + (ch >> 2) + (sh >> (s & 3));
    r = r ^ (int)(u >> s);
    r = r + (int)((unsigned int)b << s);
    r = r + a / d + a % d + (-a) % d;
    r = r + (int)(u / d + u % d) + (int)(a / (u | 1U)) + (int)(a % (u | 1U));
    r = r + (a * 20000000) / d + (u * 3U) % 1000U;
    r = r + ~b + -c + ~ch;
    r = r + ch * sh + (unsigned char)ch;
    if (ch < sh) { r = r + 5; }
    if (u > (unsigned int)b) { r = r + 7; }
    if (u + 1U < (unsigned int)c) { r = r - 11; }
    if (l / d > (long)b * 7L) { r = r - 2; }
    r = r + (int)(l % 1000L) + (int)((u + l) >> 3);
    r = r + (int)(ul ^ (unsigned long)l) + (int)(ul >> (s & 15));
    if (ul * 5UL > (unsigned long)l) { r = r + 13; }
    r = r + (int)f + (int)(-f * 3.0f) + (int)(f / 0.75f);
    if (f > (float)c) { r = r + 17; }
    if (l + 1L == l * 1.0f) { r = r + 19; }
    r = r + (r & 255) * 3 - (r | 16) + (r ^ c);
    return r;
}
"""


def build_replayable(src: str, fn_name: str, file_name: str):
    unit = parse_unit(src, file_name)
    fn = unit.function(fn_name)
    anns = extract_annotations(fn)
    cfg = lower(unit, fn)
    layout = Layout(unit, fn, cfg, anns, Config())
    return cfg, layout, anns, fn


def gcc_reference(tmp_path, src: str, fn_name: str, n_params: int,
                  param_type: str = "int"):
    main = [f'#include <stdio.h>', f"#include <stdlib.h>"]
    params = ", ".join(f"{param_type} p{i}" for i in range(n_params))
    main.append(f"extern {param_type} {fn_name}({params});")
    main.append("int main(int argc, char **argv){ (void)argc;")
    args = []
    for i in range(n_params):
        conv = "strtoul" if param_type.startswith("unsigned") else "atoi"
        main.append(f"    {param_type} p{i} = ({param_type}){conv}(argv[{i + 1}]"
                    + (", 0, 10);" if conv == "strtoul" else ");"))
        args.append(f"p{i}")
    fmt = "%u" if param_type.startswith("unsigned") else "%d"
    main.append(f'    printf("{fmt}\\n", {fn_name}({", ".join(args)}));')
    main.append("    return 0; }")
    src_path = tmp_path / "uut.c"
    src_path.write_text(src)
    main_path = tmp_path / "main.c"
    main_path.write_text("\n".join(main) + "\n")
    return compile_c(str(tmp_path), [str(src_path), str(main_path)], exe="ref")


@pytest.mark.parametrize("src,fn_name,n_params,ptype,lo,hi", [
    (ARITH_SRC, "mash", 3, "int", -50, 150),
    (UNSIGNED_SRC, "umix", 2, "unsigned int", 0, 5000),
    (read_data("tritype_int.c"), "Tritype", 3, "int", -3, 8),
    (SCALAR_OPS_SRC, "scalar_ops", 3, "int", -300, 300),
])
def test_cfg_execution_matches_gcc(tmp_path, src, fn_name, n_params, ptype, lo, hi):
    cfg, layout, anns, fn = build_replayable(src, fn_name, f"{fn_name}.c")
    exe = gcc_reference(tmp_path, src, fn_name, n_params, ptype)
    rng = random.Random(20240817)
    for _ in range(120):
        values = [rng.randint(lo, hi) for _ in range(n_params)]
        model = {p.name: v for p, v in zip(fn.params, values)}
        result = concrete_replay(cfg, layout, anns, model, {})
        proc = subprocess.run([exe, *map(str, values)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        expected = int(proc.stdout.strip())
        got = result.returned
        if ptype.startswith("unsigned"):
            expected &= 0xFFFFFFFF
            got &= 0xFFFFFFFF
        assert got == expected, (values, got, expected)


def test_replay_does_not_import_symexpr():
    """The concrete interpreter shares only typesys with the symbolic side."""
    with open(replay.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported.extend(f"{node.module or ''}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(a.name for a in node.names)
    assert imported
    assert not [m for m in imported if "symexpr" in m.split(".")], imported

"""Tests for the NFIL IR, the verifier, the frontend compiler and the
concrete interpreter (semantics checked against plain Python)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.compiler import compile_nf
from repro.frontend.errors import NFCompileError
from repro.ir.builder import FunctionBuilder
from repro.ir.instructions import BinOpKind, CmpKind
from repro.ir.module import Module
from repro.ir.printer import print_module
from repro.ir.verify import IRVerificationError, verify_module
from repro.perf.interpreter import ConcreteInterpreter, ExecutionError


def compile_and_run(source, args, regions=None, entry="process", constants=None):
    module = Module("test")
    for name, (length, size, initial) in (regions or {}).items():
        module.add_region(name, length, size, initial=initial)
    compile_nf(module, source, constants=constants, entry=entry)
    interpreter = ConcreteInterpreter(module, entry)
    return interpreter.call_function(entry, args), interpreter


class TestBuilderAndVerifier:
    def test_builder_produces_verifiable_function(self):
        module = Module("m")
        builder = FunctionBuilder("f", ["x"])
        entry = builder.block("entry")
        builder.switch_to(entry)
        total = builder.add(builder.param("x"), 1)
        builder.ret(total)
        module.add_function(builder.build())
        verify_module(module)

    def test_verifier_rejects_missing_terminator(self):
        module = Module("m")
        builder = FunctionBuilder("f", [])
        builder.switch_to(builder.block("entry"))
        builder.add(1, 2)
        module.add_function(builder.build())
        with pytest.raises(IRVerificationError, match="missing terminator"):
            verify_module(module)

    def test_verifier_rejects_unknown_region(self):
        module = Module("m")
        builder = FunctionBuilder("f", [])
        builder.switch_to(builder.block("entry"))
        builder.load("nowhere", 0)
        builder.ret(0)
        module.add_function(builder.build())
        with pytest.raises(IRVerificationError, match="undeclared region"):
            verify_module(module)

    def test_verifier_rejects_unknown_call(self):
        module = Module("m")
        builder = FunctionBuilder("f", [])
        builder.switch_to(builder.block("entry"))
        builder.call("ghost", [])
        builder.ret(0)
        module.add_function(builder.build())
        with pytest.raises(IRVerificationError, match="unknown function"):
            verify_module(module)

    def test_verifier_rejects_bad_branch_target(self):
        module = Module("m")
        builder = FunctionBuilder("f", [])
        builder.switch_to(builder.block("entry"))
        builder.jump("nowhere")
        module.add_function(builder.build())
        with pytest.raises(IRVerificationError, match="unknown block"):
            verify_module(module)

    def test_printer_mentions_regions_and_functions(self):
        module = Module("m")
        module.add_region("tbl", 4, 8)
        builder = FunctionBuilder("f", ["x"])
        builder.switch_to(builder.block("entry"))
        builder.ret(builder.param("x"))
        module.add_function(builder.build())
        text = print_module(module)
        assert "@tbl" in text and "func @f" in text

    def test_region_addressing(self):
        module = Module("m")
        region = module.add_region("tbl", 16, 8)
        assert region.index_of(region.address_of(7)) == 7
        assert region.contains_address(region.address_of(15))
        assert not region.contains_address(region.address_of(16))

    def test_regions_do_not_overlap(self):
        module = Module("m")
        a = module.add_region("a", 1024, 64)
        b = module.add_region("b", 1024, 64)
        assert a.base_address + a.size_bytes <= b.base_address


class TestCompilerSemantics:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("a + b", 30),
            ("a - b", (10 - 20) % (1 << 64)),
            ("a * b", 200),
            ("b // a", 2),
            ("b % 7", 6),
            ("a & b", 10 & 20),
            ("a | b", 10 | 20),
            ("a ^ b", 10 ^ 20),
            ("a << 3", 80),
            ("b >> 2", 5),
            ("min(a, b)", 10),
            ("max(a, b)", 20),
        ],
    )
    def test_expressions(self, expression, expected):
        value, _ = compile_and_run(f"def process(a, b):\n    return {expression}\n", [10, 20])
        assert value == expected

    @pytest.mark.parametrize(
        "condition,arg,expected",
        [
            ("x == 5", 5, 1),
            ("x == 5", 6, 0),
            ("x != 5", 6, 1),
            ("x < 10", 3, 1),
            ("x >= 10", 10, 1),
            ("x > 2 and x < 8", 5, 1),
            ("x > 2 and x < 8", 9, 0),
            ("x < 2 or x > 8", 9, 1),
            ("not x == 3", 4, 1),
        ],
    )
    def test_conditions(self, condition, arg, expected):
        source = f"def process(x):\n    if {condition}:\n        return 1\n    return 0\n"
        value, _ = compile_and_run(source, [arg])
        assert value == expected

    def test_while_loop_and_augassign(self):
        source = """
def process(n):
    total = 0
    i = 0
    while i < n:
        total += i
        i += 1
    return total
"""
        value, _ = compile_and_run(source, [10])
        assert value == sum(range(10))

    def test_for_range_with_break_and_continue(self):
        source = """
def process(n):
    total = 0
    for i in range(n):
        if i == 3:
            continue
        if i == 7:
            break
        total += i
    return total
"""
        value, _ = compile_and_run(source, [100])
        assert value == sum(i for i in range(7) if i != 3)

    def test_for_range_two_arguments(self):
        source = """
def process(a, b):
    total = 0
    for i in range(a, b):
        total += i
    return total
"""
        value, _ = compile_and_run(source, [3, 8])
        assert value == sum(range(3, 8))

    def test_region_load_store(self):
        source = """
def process(i, v):
    table[i] = v
    table[i + 1] = table[i] * 2
    return table[i + 1]
"""
        value, interpreter = compile_and_run(source, [2, 21], regions={"table": (8, 8, {})})
        assert value == 42
        assert interpreter.read_region("table", 3) == 42

    def test_helper_function_calls(self):
        source = """
def double(x):
    return x * 2

def process(x):
    return double(double(x)) + 1
"""
        value, _ = compile_and_run(source, [5])
        assert value == 21

    def test_module_level_constants(self):
        source = """
LIMIT = 7

def process(x):
    if x > LIMIT:
        return LIMIT
    return x
"""
        assert compile_and_run(source, [100])[0] == 7
        assert compile_and_run(source, [3])[0] == 3

    def test_ternary_expression(self):
        source = "def process(x):\n    return 1 if x > 5 else 2\n"
        assert compile_and_run(source, [9])[0] == 1
        assert compile_and_run(source, [1])[0] == 2

    def test_nested_subscripts(self):
        source = """
def process(i):
    return table[table[i]]
"""
        value, _ = compile_and_run(
            source, [0], regions={"table": (8, 8, {0: 3, 3: 99})}
        )
        assert value == 99

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unsigned_arithmetic_matches_python(self, a, b):
        source = """
def process(a, b):
    return ((a * 3 + b) ^ (a >> 3)) & 0xFFFFFFFF
"""
        value, _ = compile_and_run(source, [a, b])
        assert value == ((a * 3 + b) ^ (a >> 3)) & 0xFFFFFFFF


class TestCompilerErrors:
    @pytest.mark.parametrize(
        "source,match",
        [
            ("def process(x):\n    y = [1, 2]\n    return 0\n", "unsupported"),
            ("def process(x):\n    return x.attr\n", "unsupported"),
            ("def process(*args):\n    return 0\n", "positional"),
            ("def process(x):\n    while x:\n        break\n    else:\n        pass\n    return 0\n", "while/else"),
            ("def process(x):\n    return unknown_name\n", "undefined name"),
            ("def process(x):\n    return missing_call(x)\n", "unknown function"),
            ("def process(x):\n    for i in x:\n        pass\n    return 0\n", "range"),
            ("def process(x):\n    return x < 1 < 2\n", "chained"),
            ("def process(x):\n    return 1.5\n", "integers only"),
            ("def process(x):\n    return table[0]\n", "unknown memory region"),
        ],
    )
    def test_rejects_unsupported_constructs(self, source, match):
        module = Module("test")
        with pytest.raises(NFCompileError, match=match):
            compile_nf(module, source, entry="process")

    def test_missing_entry_function(self):
        module = Module("test")
        with pytest.raises(NFCompileError, match="entry function"):
            compile_nf(module, "def other(x):\n    return x\n", entry="process")

    def test_break_outside_loop(self):
        module = Module("test")
        with pytest.raises(NFCompileError, match="break outside loop"):
            compile_nf(module, "def process(x):\n    break\n", entry="process")

    def test_error_names_the_nf_source_line_once(self):
        """A hash NF's line numbers are its own source's: the compiler adds
        ``flow_hash16`` without shifting them."""
        source = (
            "def process(src_ip, dst_ip, src_port, dst_port, protocol):\n"
            "    key = src_ip | (src_port << 32)\n"
            "    slot = castan_havoc(key, flow_hash16(key)) & 255\n"
            "    return slot.attr\n"
        )
        with pytest.raises(NFCompileError) as err:
            compile_nf(Module("test"), source, entry="process")
        assert str(err.value) == "unsupported expression Attribute (line 4)"
        assert err.value.lineno == 4


class TestInterpreterGuards:
    def test_out_of_bounds_access_raises(self):
        source = "def process(i):\n    return table[i]\n"
        module = Module("test")
        module.add_region("table", 4, 8)
        compile_nf(module, source, entry="process")
        interpreter = ConcreteInterpreter(module, "process")
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            interpreter.call_function("process", [10])

    def test_reset_restores_initial_state(self):
        source = "def process(i, v):\n    table[i] = v\n    return table[i]\n"
        module = Module("test")
        module.add_region("table", 4, 8, initial={1: 7})
        compile_nf(module, source, entry="process")
        interpreter = ConcreteInterpreter(module, "process")
        interpreter.call_function("process", [1, 99])
        assert interpreter.read_region("table", 1) == 99
        interpreter.reset()
        assert interpreter.read_region("table", 1) == 7

    def test_counters_track_memory_operations(self):
        source = "def process(i):\n    table[i] = 1\n    return table[i] + table[i]\n"
        module = Module("test")
        module.add_region("table", 4, 8)
        compile_nf(module, source, entry="process")
        interpreter = ConcreteInterpreter(module, "process")
        counters = interpreter.call_entry([0])
        assert counters.loads == 2
        assert counters.stores == 1
        assert counters.instructions > 0
        assert counters.cycles > 0

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from astgen import random_flat_program, random_extended_program
from morevqa.lang import (
    EXTENDED,
    FLAT,
    MAX_BLOCK_DEPTH,
    MODES,
    Assign,
    CallExpr,
    CallStmt,
    Compare,
    For,
    If,
    IntLit,
    InterpreterError,
    ListLit,
    ParseError,
    Program,
    Return,
    StringLit,
    Var,
    interpret,
    parse,
    render,
)


def test_parse_single_flat_call():
    program = parse('localize("cat lying on its back")', FLAT)
    assert program == Program(
        (CallStmt("localize", (StringLit("cat lying on its back"),)),)
    )


def test_parse_empty_input_rejected():
    with pytest.raises(ParseError) as err:
        parse("", FLAT)
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("   \n\n# just a comment\n", EXTENDED)


def test_parse_extended_if_ast():
    text = "\n".join(
        [
            'xs = localize("ball")',
            "if xs == []:",
            '    noop()',
            'return xs',
        ]
    )
    program = parse(text, EXTENDED)
    expected = Program(
        (
            Assign("xs", CallExpr("localize", (StringLit("ball"),))),
            If(
                Compare("==", Var("xs"), ListLit(())),
                Program((CallStmt("noop", ()),)),
                None,
            ),
            Return(Var("xs")),
        )
    )
    assert program == expected
    then_branch = program.statements[1].then
    assert len(then_branch.statements) == 1
    assert isinstance(then_branch.statements[0], CallStmt)


def test_flat_mode_rejects_control_flow():
    for text in ("if x == 1:\n    noop()", "for f in xs:\n    noop()", "return 1"):
        with pytest.raises(ParseError):
            parse(text, FLAT)
        parse(text, EXTENDED)  # same text is fine in extended mode


def test_flat_mode_admits_assignment():
    program = parse('x = caption(3)', FLAT)
    assert isinstance(program.statements[0], Assign)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse('noop()\ntrim($)', FLAT)
    assert err.value.line == 2
    assert err.value.col >= 5
    assert "$" in err.value.snippet


@pytest.mark.parametrize("text, col", [
    ("f(\u00b2)", 3),  # a superscript two is a digit to str.isdigit, not to int()
    ("f(\u0663)", 3),  # so is an Arabic-Indic three; literals take ASCII digits only
    ("f(1\u00b2)", 4),
    ("f(" + "9" * 5000 + ")", 3),  # past the int-string conversion limit
    ("f(1e400)", 3),  # overflows to inf, which would render as the name `inf`
    ("f(1, -1e400)", 6),
], ids=["superscript", "arabic-indic", "digit-superscript", "too-long", "inf", "minus-inf"])
def test_bad_number_is_a_parse_error(text, col):
    with pytest.raises(ParseError) as err:
        parse(text, FLAT)
    assert (err.value.line, err.value.col) == (1, col)


_PROGRAM_CHARS = st.sampled_from(
    list('abxz_019 "\\#()[],=<>!:-.eE+\n\t')
    + ["    ", "if ", "for ", "in ", "else", "return ", "true", "\u00b2", "\u00e9"]
)


@given(st.text() | st.lists(_PROGRAM_CHARS, max_size=40).map("".join), st.sampled_from(MODES))
def test_parse_returns_a_program_or_raises_parse_error(text, mode):
    try:
        program = parse(text, mode)
    except ParseError:
        return
    assert isinstance(program, Program)


_CALL_ARGS = ['"a b"', '""', '"q\\"', "-2", "3.5", "1e3", "2.", "1e", "true", "false", "x",
              "[1]", "1 == 2", "#"]
_CALL_LINES = st.builds(
    lambda name, args, pad: f"{name}{pad}({pad}{(pad + ',' + pad).join(args)}{pad}){pad}",
    st.sampled_from(["f", "g_1", "if", "for", "else", "true", "return"]),
    st.lists(st.sampled_from(_CALL_ARGS), max_size=3),
    st.sampled_from(["", " ", "\t"]),
)
_CALL_PIECES = st.sampled_from(["f", "if", "(", ")", ",", " ", *_CALL_ARGS])


@given(_CALL_LINES | st.lists(_CALL_PIECES, max_size=10).map("".join))
def test_trailing_comment_never_changes_a_parse(line):
    # appending a comment keeps a line's Program, or its ParseError, as it was
    try:
        program = parse(line, EXTENDED)
    except ParseError:
        with pytest.raises(ParseError):
            parse(line + "  # c", EXTENDED)
    else:
        assert parse(line + "  # c", EXTENDED) == program


def test_ast_nodes_are_frozen():
    node = parse('f("a", [1, x], y == 2.5)', EXTENDED).statements[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.name = "g"
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.args[0].value = "b"


def test_bad_indentation_rejected():
    with pytest.raises(ParseError):
        parse("if x == 1:\n   noop()", EXTENDED)  # 3 spaces
    with pytest.raises(ParseError):
        parse("noop()\n    noop()", EXTENDED)  # stray indent
    with pytest.raises(ParseError):
        parse("if x == 1:\nnoop()", EXTENDED)  # missing block


def _nested_ifs(depth: int) -> str:
    return "".join("    " * i + "if true:\n" for i in range(depth)) + "    " * depth + "noop()"


@pytest.mark.parametrize("deep, shallow, line", [
    ("x = " + "(" * 17 + "1" + ")" * 17, "x = " + "(" * 10 + "1" + ")" * 10, 1),
    # a deeper block is refused at the line that opens it, long before the
    # parser's recursion could reach Python's limit
    (_nested_ifs(MAX_BLOCK_DEPTH + 1), _nested_ifs(MAX_BLOCK_DEPTH), MAX_BLOCK_DEPTH + 1),
    (_nested_ifs(400), _nested_ifs(4), MAX_BLOCK_DEPTH + 1),
], ids=["expression", "block", "block-400"])
def test_depth_bound_enforced(deep, shallow, line):
    with pytest.raises(ParseError) as err:
        parse(deep, EXTENDED)
    assert "deep" in err.value.message
    assert err.value.line == line
    parse(shallow, EXTENDED)


def test_render_single_call():
    assert render(Program((CallStmt("trim", (StringLit("end"),)),))) == 'trim("end")'


def test_render_nested_blocks_golden():
    program = Program(
        (
            Assign("xs", CallExpr("localize", (StringLit("ball"),))),
            For(
                "f",
                Var("xs"),
                Program(
                    (
                        If(
                            Compare(">", Var("f"), IntLit(3)),
                            Program((CallStmt("verify_action", (Var("f"), StringLit("throwing"))),)),
                            Program((CallStmt("noop", ()),)),
                        ),
                    )
                ),
            ),
            Return(Var("xs")),
        )
    )
    expected = "\n".join(
        [
            'xs = localize("ball")',
            "for f in xs:",
            "    if f > 3:",
            '        verify_action(f, "throwing")',
            "    else:",
            "        noop()",
            "return xs",
        ]
    )
    assert render(program) == expected


def test_round_trip_samples():
    rng = random.Random(7)
    for _ in range(50):
        program = random_flat_program(rng)
        assert parse(render(program), FLAT) == program
    for _ in range(50):
        program = random_extended_program(rng)
        assert parse(render(program), EXTENDED) == program


def test_string_escapes_round_trip():
    program = Program((CallStmt("say", (StringLit('a "b" \\ c\nd\te'),)),))
    assert parse(render(program), FLAT) == program


def test_interpret_return_literal():
    assert interpret(parse("return 2", EXTENDED), {}, {}).value == 2


def test_interpret_for_loop_with_stub_dispatch():
    text = "\n".join(
        [
            'xs = localize("ball")',
            "for f in xs:",
            '    verify_action(f, "throwing")',
            "return xs",
        ]
    )
    seen = []

    def fake_localize(phrase):
        return [3, 8]

    def fake_verify(frame, action):
        seen.append(frame)
        return True

    result = interpret(
        parse(text, EXTENDED), {}, {"localize": fake_localize, "verify_action": fake_verify}
    )
    assert result.value == [3, 8]
    assert seen == [3, 8]
    assert [c[0] for c in result.calls] == ["localize", "verify_action", "verify_action"]


def test_interpret_false_if_keeps_preceding_value():
    text = "\n".join(["x = 5", "if x == 6:", "    x = 7"])
    assert interpret(parse(text, EXTENDED), {}, {}).value == 5


def test_interpret_env_preload_and_unbound():
    assert interpret(parse("return question", EXTENDED), {"question": "q?"}, {}).value == "q?"
    with pytest.raises(InterpreterError) as err:
        interpret(parse("return quesiton", EXTENDED), {"question": "q?"}, {})
    assert err.value.kind == "unbound"
    assert "quesiton" in str(err.value)


def test_interpret_non_list_for_iterable():
    with pytest.raises(InterpreterError) as err:
        interpret(parse("for f in 3:\n    noop()", EXTENDED), {}, {"noop": lambda: None})
    assert err.value.kind == "iterable"


def test_interpret_dispatch_failure_carries_tool_error():
    def broken():
        raise RuntimeError("tool exploded")

    with pytest.raises(InterpreterError) as err:
        interpret(parse("broken()", EXTENDED), {}, {"broken": broken})
    assert err.value.kind == "dispatch"
    assert "tool exploded" in str(err.value)


def test_interpret_unknown_tool():
    with pytest.raises(InterpreterError) as err:
        interpret(parse("mystery()", EXTENDED), {}, {})
    assert err.value.kind == "dispatch"


def test_interpret_step_budget():
    text = "\n".join(
        [
            "for a in xs:",
            "    for b in xs:",
            "        for c in xs:",
            "            tick()",
        ]
    )
    env = {"xs": list(range(30))}
    with pytest.raises(InterpreterError) as err:
        interpret(parse(text, EXTENDED), env, {"tick": lambda: 0})
    assert err.value.kind == "budget"
    # a generous budget lets the same program finish
    interpret(parse(text, EXTENDED), env, {"tick": lambda: 0}, step_budget=120_000)


def test_interpret_strict_bool_condition():
    with pytest.raises(InterpreterError) as err:
        interpret(parse("if 1:\n    noop()", EXTENDED), {}, {"noop": lambda: None})
    assert err.value.kind == "type"


def test_interpret_budget_bounds_dispatched_steps_fuzz():
    from astgen import random_executable_program, stub_dispatch

    rng = random.Random(31)
    dispatch = stub_dispatch()
    for _ in range(100):
        program = random_executable_program(rng)
        try:
            result = interpret(program, {}, dispatch)
        except InterpreterError as err:
            assert err.kind == "budget"
        else:
            assert len(result.calls) <= 10_000


def test_interpret_deterministic_trace():
    from astgen import random_executable_program, stub_dispatch

    rng = random.Random(13)
    program = random_executable_program(rng)
    dispatch = stub_dispatch()
    first = interpret(program, {}, dispatch)
    second = interpret(program, {}, dispatch)
    assert repr(first.calls) == repr(second.calls)
    assert first.value == second.value

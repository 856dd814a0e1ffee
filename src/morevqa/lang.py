"""Tool-call program language: AST, parser, canonical renderer, interpreter.

Two grammar modes exist. Flat mode admits call and assignment statements only
and is what the stage planners emit. Extended mode adds if/else, for loops and
return, enough to express the single-stage programs we execute; bodies are
indentation-delimited at 4 spaces per level and nest at most MAX_BLOCK_DEPTH
blocks deep.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

FLAT = "flat"
EXTENDED = "extended"
MODES = (FLAT, EXTENDED)

MAX_EXPR_DEPTH = 16
MAX_BLOCK_DEPTH = 16
DEFAULT_STEP_BUDGET = 10_000

_KEYWORDS = frozenset({"if", "else", "for", "in", "return", "true", "false"})
_CMP_OPS = ("==", "!=", "<=", ">=", "<", ">")


class ParseError(Exception):
    """Syntax error with a 1-based source position and the offending line."""

    def __init__(self, line: int, col: int, message: str, snippet: str = ""):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message
        self.snippet = snippet


class InterpreterError(Exception):
    """Runtime failure of a program; `kind` names the failure class."""

    def __init__(self, message: str, kind: str = "runtime"):
        super().__init__(message)
        self.kind = kind


# --- AST ---
#
# The planner builds about 20 StringLit, BoolLit, CallStmt and Program nodes
# per item. Like the wire records in `tools`, these four set their slots in a
# hand-written `__init__`, through member descriptors bound below each class,
# instead of the frozen dataclass's `object.__setattr__` per field. Equality,
# hashing, repr and the frozen `__setattr__` stay the dataclass's own.

@dataclass(frozen=True, slots=True, init=False)
class StringLit:
    value: str

    def __init__(self, value: str) -> None:
        _set_string_value(self, value)


_set_string_value = StringLit.value.__set__


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class FloatLit:
    value: float


@dataclass(frozen=True, slots=True, init=False)
class BoolLit:
    value: bool

    def __init__(self, value: bool) -> None:
        _set_bool_value(self, value)


_set_bool_value = BoolLit.value.__set__


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class CallExpr:
    name: str
    args: tuple = ()


@dataclass(frozen=True, slots=True)
class Compare:
    op: str
    lhs: Any
    rhs: Any


@dataclass(frozen=True, slots=True)
class ListLit:
    items: tuple = ()


Expr = Any  # one of the expression node classes above


@dataclass(frozen=True, slots=True, init=False)
class CallStmt:
    name: str
    args: tuple = ()

    def __init__(self, name: str, args: tuple = ()) -> None:
        _set_call_name(self, name)
        _set_call_args(self, args)


_set_call_name = CallStmt.name.__set__
_set_call_args = CallStmt.args.__set__


@dataclass(frozen=True, slots=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then: "Program"
    orelse: "Program | None" = None


@dataclass(frozen=True, slots=True)
class For:
    var: str
    iterable: Expr
    body: "Program"


@dataclass(frozen=True, slots=True)
class Return:
    expr: Expr


Stmt = Any  # one of CallStmt, Assign, If, For, Return


@dataclass(frozen=True, slots=True, init=False)
class Program:
    statements: tuple = ()

    def __init__(self, statements: tuple = ()) -> None:
        _set_program_statements(self, statements)


_set_program_statements = Program.statements.__set__


# --- lexer ---

class _Token(NamedTuple):
    kind: str  # NAME, STRING, INT, FLOAT, OP
    value: Any
    line: int
    col: int


_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE = re.compile(r"\\(.)")

# One token and the blanks after it, its kind named by the group that
# matched. A comment ends the line. BADSTRING matches a string literal up to
# its fault: a backslash that starts no escape, or the end of the line.
# Number literals take ASCII digits only. A name that starts with a non-ASCII
# character is a WIDENAME; `[^\W\d]` also admits a numeric character such as
# a superscript two, which `_lex_line` refuses. Anything else matches nothing
# and is an unknown token.
_TOKEN = re.compile(
    r"""(?:
      (?P<NAME>[A-Za-z_]\w*)
    | (?P<OP>[=!<>]=|[()\[\],=<>:])
    | (?P<STRING>"[^"\\]*(?:\\[\\"ntr][^"\\]*)*")
    | (?P<NUMBER>-?[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
    | (?P<COMMENT>\#.*)
    | (?P<BADSTRING>"[^"\\]*(?:\\[\\"ntr][^"\\]*)*)
    | (?P<WIDENAME>[^\W\d]\w*)
    )[ \t]*""",
    re.VERBOSE,
)


def _number(text: str) -> int | float:
    """The value of a number literal; ValueError for an int longer than the
    int-string conversion limit or a float that overflows to infinity, since
    neither renders back as a number literal."""
    if "." in text or "e" in text or "E" in text:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"float literal {text} overflows")
        return value
    return int(text)


def _lex_line(content: str, line: int, col0: int, raw: str) -> list[_Token]:
    """Tokens of one line whose indentation is already cut off, so that
    `content` starts with a non-blank character at column `col0`."""
    out: list[_Token] = []
    match = _TOKEN.match
    n = len(content)
    i = 0
    while i < n:
        col = col0 + i
        m = match(content, i)
        kind = None if m is None else m.lastgroup
        if kind == "NAME" or kind == "OP":
            value: Any = m[kind]
        elif kind == "STRING":
            value = m[kind][1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
        elif kind == "NUMBER":
            try:
                value = _number(m[kind])
            except ValueError:
                raise ParseError(line, col, "number literal out of range", raw) from None
            kind = "FLOAT" if type(value) is float else "INT"
        elif kind == "COMMENT":
            break
        elif kind == "BADSTRING":
            fault = m.end(kind)
            if fault < n:  # a backslash that starts no escape
                raise ParseError(line, col0 + fault, "bad escape sequence", raw)
            raise ParseError(line, col, "unterminated string literal", raw)
        elif kind == "WIDENAME" and content[i].isalpha():
            kind, value = "NAME", m[kind]
        else:
            raise ParseError(line, col, f"unknown token {content[i]!r}", raw)
        out.append(_Token(kind, value, line, col))
        i = m.end()
    return out


class _Line(NamedTuple):
    level: int
    tokens: list[_Token]
    lineno: int
    raw: str


def _logical_lines(text: str) -> list[_Line]:
    lines: list[_Line] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.lstrip(" ")
        if not body.strip() or body.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(body)
        if body.startswith("\t"):
            raise ParseError(lineno, indent + 1, "tabs are not allowed in indentation", raw)
        if indent % 4 != 0:
            raise ParseError(lineno, indent + 1, "indentation must be a multiple of 4 spaces", raw)
        lines.append(_Line(indent // 4, _lex_line(body, lineno, indent + 1, raw), lineno, raw))
    return lines


# --- parser ---

_LITERAL_NODES = {"STRING": StringLit, "INT": IntLit, "FLOAT": FloatLit}


class _ExprParser:
    def __init__(self, tokens: list[_Token], line: int, raw: str):
        # an end-of-line token spares every lookahead a bounds check
        self.tokens = [*tokens, _Token("EOL", None, line, len(raw) + 1)]
        self.i = 0
        self.line = line
        self.raw = raw

    def _next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind == "EOL":
            raise ParseError(self.line, tok.col, "unexpected end of line", self.raw)
        self.i += 1
        return tok

    def _expect_op(self, value: str) -> None:
        tok = self._next()
        if tok.kind != "OP" or tok.value != value:
            raise ParseError(tok.line, tok.col, f"expected {value!r}", self.raw)

    def parse_full(self) -> Expr:
        expr = self.comparison(1)
        tok = self.tokens[self.i]
        if tok.kind != "EOL":
            raise ParseError(tok.line, tok.col, "unexpected token after expression", self.raw)
        return expr

    def comparison(self, depth: int) -> Expr:
        left = self.atom(depth)
        tok = self.tokens[self.i]
        if tok.kind == "OP" and tok.value in _CMP_OPS:
            self.i += 1
            return Compare(tok.value, left, self.atom(depth + 1))
        return left

    def atom(self, depth: int) -> Expr:
        if depth > MAX_EXPR_DEPTH:
            tok = self.tokens[self.i]
            col = 1 if tok.kind == "EOL" else tok.col
            raise ParseError(tok.line, col, "expression nesting too deep", self.raw)
        tok = self._next()
        kind, value = tok.kind, tok.value
        literal = _LITERAL_NODES.get(kind)
        if literal is not None:
            return literal(value)
        if kind == "NAME":
            if value in _KEYWORDS:
                if value == "true":
                    return BoolLit(True)
                if value == "false":
                    return BoolLit(False)
                raise ParseError(tok.line, tok.col, f"reserved word {value!r} in expression", self.raw)
            nxt = self.tokens[self.i]
            if nxt.kind == "OP" and nxt.value == "(":
                self.i += 1
                return CallExpr(value, self._expr_list(")", depth))
            return Var(value)
        if kind == "OP" and value == "[":
            return ListLit(self._expr_list("]", depth))
        if kind == "OP" and value == "(":
            inner = self.comparison(depth + 1)
            self._expect_op(")")
            return inner
        raise ParseError(tok.line, tok.col, "expected an expression", self.raw)

    def _expr_list(self, closer: str, depth: int) -> tuple:
        tok = self.tokens[self.i]
        if tok.kind == "OP" and tok.value == closer:
            self.i += 1
            return ()
        items: list[Expr] = []
        while True:
            items.append(self.comparison(depth + 1))
            tok = self._next()
            if tok.kind == "OP" and tok.value == closer:
                return tuple(items)
            if not (tok.kind == "OP" and tok.value == ","):
                raise ParseError(tok.line, tok.col, f"expected ',' or {closer!r}", self.raw)


class _BlockParser:
    def __init__(self, lines: list[_Line], mode: str):
        self.lines = lines
        self.mode = mode
        self.pos = 0

    def parse_block(self, level: int) -> list[Stmt]:
        stmts: list[Stmt] = []
        while self.pos < len(self.lines) and self.lines[self.pos].level == level:
            stmts.append(self._statement(level))
        return stmts

    def _require_block(self, level: int, header: _Line) -> Program:
        if self.pos >= len(self.lines) or self.lines[self.pos].level <= level:
            raise ParseError(header.lineno, 1, "expected an indented block", header.raw)
        if self.lines[self.pos].level != level + 1:
            bad = self.lines[self.pos]
            raise ParseError(bad.lineno, 1, "unexpected indentation", bad.raw)
        if level >= MAX_BLOCK_DEPTH:
            col = header.tokens[0].col
            raise ParseError(header.lineno, col, "block nesting too deep", header.raw)
        return Program(tuple(self.parse_block(level + 1)))

    def _statement(self, level: int) -> Stmt:
        line = self.lines[self.pos]
        self.pos += 1
        toks = line.tokens
        head = toks[0]

        if head.kind == "NAME" and head.value == "if":
            self._check_extended(head, line)
            if not (toks[-1].kind == "OP" and toks[-1].value == ":"):
                raise ParseError(line.lineno, toks[-1].col, "expected ':' at end of 'if'", line.raw)
            cond = _ExprParser(toks[1:-1], line.lineno, line.raw).parse_full()
            then = self._require_block(level, line)
            orelse = None
            if (
                self.pos < len(self.lines)
                and self.lines[self.pos].level == level
                and self._is_else(self.lines[self.pos])
            ):
                else_line = self.lines[self.pos]
                self.pos += 1
                orelse = self._require_block(level, else_line)
            return If(cond, then, orelse)

        if head.kind == "NAME" and head.value == "else":
            raise ParseError(head.line, head.col, "'else' without a matching 'if'", line.raw)

        if head.kind == "NAME" and head.value == "for":
            self._check_extended(head, line)
            if (
                len(toks) < 5
                or toks[1].kind != "NAME"
                or toks[1].value in _KEYWORDS
                or toks[2].kind != "NAME"
                or toks[2].value != "in"
            ):
                raise ParseError(head.line, head.col, "expected 'for NAME in EXPR:'", line.raw)
            if not (toks[-1].kind == "OP" and toks[-1].value == ":"):
                raise ParseError(line.lineno, toks[-1].col, "expected ':' at end of 'for'", line.raw)
            iterable = _ExprParser(toks[3:-1], line.lineno, line.raw).parse_full()
            body = self._require_block(level, line)
            return For(toks[1].value, iterable, body)

        if head.kind == "NAME" and head.value == "return":
            self._check_extended(head, line)
            if len(toks) == 1:
                raise ParseError(head.line, head.col, "'return' requires a value", line.raw)
            return Return(_ExprParser(toks[1:], line.lineno, line.raw).parse_full())

        if (
            head.kind == "NAME"
            and head.value not in _KEYWORDS
            and len(toks) >= 2
            and toks[1].kind == "OP"
            and toks[1].value == "="
        ):
            rhs = _ExprParser(toks[2:], line.lineno, line.raw).parse_full()
            return Assign(head.value, rhs)

        expr = _ExprParser(toks, line.lineno, line.raw).parse_full()
        if isinstance(expr, CallExpr):
            return CallStmt(expr.name, expr.args)
        raise ParseError(head.line, head.col, "expected a call statement", line.raw)

    def _check_extended(self, tok: _Token, line: _Line) -> None:
        if self.mode != EXTENDED:
            raise ParseError(
                tok.line, tok.col, f"{tok.value!r} is not allowed in flat mode", line.raw
            )

    @staticmethod
    def _is_else(line: _Line) -> bool:
        toks = line.tokens
        return (
            len(toks) == 2
            and toks[0].kind == "NAME"
            and toks[0].value == "else"
            and toks[1].kind == "OP"
            and toks[1].value == ":"
        )


def parse(text: str, mode: str = FLAT) -> Program:
    """Parse program text in the given mode. Raises ParseError on bad input."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    lines = _logical_lines(text)
    if not lines:
        first = text.split("\n", 1)[0]
        raise ParseError(1, 1, "empty program", first)
    parser = _BlockParser(lines, mode)
    stmts = parser.parse_block(0)
    if parser.pos < len(lines):
        bad = parser.lines[parser.pos]
        raise ParseError(bad.lineno, 1, "unexpected indentation", bad.raw)
    return Program(tuple(stmts))


# --- renderer ---

_NEEDS_ESCAPE = re.compile(r'[\\"\n\t\r]')


def _escape(value: str) -> str:
    if _NEEDS_ESCAPE.search(value) is None:
        return f'"{value}"'
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{out}"'


def render_expr(expr: Expr) -> str:
    if isinstance(expr, StringLit):
        return _escape(expr.value)
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, FloatLit):
        return repr(expr.value)
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, CallExpr):
        return f"{expr.name}({', '.join(map(render_expr, expr.args))})"
    if isinstance(expr, ListLit):
        return f"[{', '.join(map(render_expr, expr.items))}]"
    if isinstance(expr, Compare):
        return f"{_render_operand(expr.lhs)} {expr.op} {_render_operand(expr.rhs)}"
    raise TypeError(f"not an expression node: {expr!r}")


def _render_operand(expr: Expr) -> str:
    text = render_expr(expr)
    # nested comparisons need parentheses to survive reparsing
    return f"({text})" if isinstance(expr, Compare) else text


def _stmt_lines(stmt: Stmt, level: int) -> list[str]:
    pad = "    " * level
    if isinstance(stmt, CallStmt):
        return [f"{pad}{stmt.name}({', '.join(map(render_expr, stmt.args))})"]
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.var} = {render_expr(stmt.expr)}"]
    if isinstance(stmt, Return):
        return [f"{pad}return {render_expr(stmt.expr)}"]
    if isinstance(stmt, If):
        lines = [f"{pad}if {render_expr(stmt.cond)}:"]
        for s in stmt.then.statements:
            lines.extend(_stmt_lines(s, level + 1))
        if stmt.orelse is not None:
            lines.append(f"{pad}else:")
            for s in stmt.orelse.statements:
                lines.extend(_stmt_lines(s, level + 1))
        return lines
    if isinstance(stmt, For):
        lines = [f"{pad}for {stmt.var} in {render_expr(stmt.iterable)}:"]
        for s in stmt.body.statements:
            lines.extend(_stmt_lines(s, level + 1))
        return lines
    raise TypeError(f"not a statement node: {stmt!r}")


def render(program: Program) -> str:
    """Canonical text form; parse(render(p), mode) is structurally p."""
    lines: list[str] = []
    for stmt in program.statements:
        lines.extend(_stmt_lines(stmt, 0))
    return "\n".join(lines)


# --- interpreter ---

@dataclass
class InterpretResult:
    """Final value plus the ordered trace of dispatched calls."""

    value: Any
    calls: list[tuple[str, tuple, Any]]


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def interpret(
    program: Program,
    env: Mapping[str, Any] | None = None,
    dispatch: Mapping[str, Callable[..., Any]] | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> InterpretResult:
    """Execute an extended-mode program against a callable registry.

    Statements run in order; `for` iterates list values; `return`
    short-circuits. The result value is the returned value, or the value of
    the last executed statement. Every dispatched call lands in the trace.
    """
    variables: dict[str, Any] = dict(env or {})
    registry: Mapping[str, Callable[..., Any]] = dispatch or {}
    calls: list[tuple[str, tuple, Any]] = []
    steps = 0

    def tick() -> None:
        nonlocal steps
        steps += 1
        if steps > step_budget:
            raise InterpreterError(f"step budget of {step_budget} exceeded", kind="budget")

    def do_call(name: str, arg_values: tuple) -> Any:
        tick()
        fn = registry.get(name)
        if fn is None:
            raise InterpreterError(f"unknown tool {name!r}", kind="dispatch")
        try:
            result = fn(*arg_values)
        except InterpreterError:
            raise
        except Exception as exc:
            raise InterpreterError(f"tool {name!r} failed: {exc}", kind="dispatch") from exc
        calls.append((name, arg_values, result))
        return result

    def eval_expr(expr: Expr) -> Any:
        if isinstance(expr, (StringLit, IntLit, FloatLit, BoolLit)):
            return expr.value
        if isinstance(expr, Var):
            if expr.name not in variables:
                raise InterpreterError(f"unbound variable {expr.name!r}", kind="unbound")
            return variables[expr.name]
        if isinstance(expr, CallExpr):
            return do_call(expr.name, tuple(eval_expr(a) for a in expr.args))
        if isinstance(expr, ListLit):
            return [eval_expr(a) for a in expr.items]
        if isinstance(expr, Compare):
            lhs = eval_expr(expr.lhs)
            rhs = eval_expr(expr.rhs)
            if expr.op in ("<", "<=", ">", ">="):
                numeric = isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))
                textual = isinstance(lhs, str) and isinstance(rhs, str)
                if not (numeric or textual):
                    raise InterpreterError(
                        f"cannot order {type(lhs).__name__} and {type(rhs).__name__}",
                        kind="type",
                    )
            return _CMP_FUNCS[expr.op](lhs, rhs)
        raise InterpreterError(f"bad expression node {expr!r}", kind="runtime")

    def exec_block(block: Program, last_value: Any) -> Any:
        for stmt in block.statements:
            tick()
            if isinstance(stmt, CallStmt):
                last_value = do_call(stmt.name, tuple(eval_expr(a) for a in stmt.args))
            elif isinstance(stmt, Assign):
                value = eval_expr(stmt.expr)
                variables[stmt.var] = value
                last_value = value
            elif isinstance(stmt, Return):
                raise _ReturnSignal(eval_expr(stmt.expr))
            elif isinstance(stmt, If):
                cond = eval_expr(stmt.cond)
                if not isinstance(cond, bool):
                    raise InterpreterError("if condition must be a boolean", kind="type")
                if cond:
                    last_value = exec_block(stmt.then, last_value)
                elif stmt.orelse is not None:
                    last_value = exec_block(stmt.orelse, last_value)
            elif isinstance(stmt, For):
                iterable = eval_expr(stmt.iterable)
                if not isinstance(iterable, list):
                    raise InterpreterError("for iterable must be a list", kind="iterable")
                for item in iterable:
                    variables[stmt.var] = item
                    last_value = exec_block(stmt.body, last_value)
            else:
                raise InterpreterError(f"bad statement node {stmt!r}", kind="runtime")
        return last_value

    try:
        final = exec_block(program, None)
    except _ReturnSignal as sig:
        return InterpretResult(sig.value, calls)
    return InterpretResult(final, calls)

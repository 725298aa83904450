"""Lexer, parser and lossless syntax tree for the pthread-flavored C subset.

The tree keeps every character of the input: each token stores the
whitespace and comments that precede it, so emitting the tree reproduces
the source exactly.  Rewrites are expressed as span-anchored text edits
applied to the original text, and the patched text is re-parsed from
scratch (parse, edit, re-parse).

Grammar accepted (top level):

    int NAME;                  int NAME = expr;
    pthread_mutex_t NAME = PTHREAD_MUTEX_INITIALIZER;
    void *NAME(void *ARG) { ... }
    int NAME() { ... }

Statements: expression statements, ``int``/``pthread_t`` declarations,
compound blocks, ``if``/``else``, ``while``, ``break``/``continue`` (inside
a ``while`` only), ``return``.  Expressions: integer literals,
identifiers, ``&x``, unary ``-``/``!``, the usual binary operators, ``=``
and ``+=``.  ``//`` and ``/* */`` comments are preserved as trivia.

The tree is built in a single pass over the tokens, with no later walk.
One compiled regular expression splits the text into tokens, each
carrying its leading trivia.  A recursive-descent parser, with precedence
climbing for the binary operators, builds each node once its children
are parsed and sets their parent links then.  A node's span is computed
from its first and last token when first read.  The root indexes its
``Identifier`` nodes by name for ``locate``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .reports import SourceCoord

# Node kinds
TRANSLATION_UNIT = "TranslationUnit"
VAR_DECL = "VarDecl"
MUTEX_DECL = "MutexDecl"
FUNC_DEF = "FuncDef"
COMPOUND_STMT = "CompoundStmt"
EXPR_STMT = "ExprStmt"
IF_STMT = "IfStmt"
WHILE_STMT = "WhileStmt"
RETURN_STMT = "ReturnStmt"
BREAK_STMT = "BreakStmt"
CONTINUE_STMT = "ContinueStmt"
DECL_STMT = "DeclStmt"
CALL_EXPR = "CallExpr"
BINARY_EXPR = "BinaryExpr"
UNARY_EXPR = "UnaryExpr"
ASSIGN_EXPR = "AssignExpr"
IDENTIFIER = "Identifier"
INT_LITERAL = "IntLiteral"
ADDR_OF = "AddrOf"

STATEMENT_KINDS = frozenset({
    EXPR_STMT, DECL_STMT, COMPOUND_STMT, IF_STMT, WHILE_STMT, RETURN_STMT, BREAK_STMT,
    CONTINUE_STMT,
})

# Roles a located statement can play
ROLE_PLAIN = "PlainStatement"
ROLE_IF_CONDITION = "IfCondition"
ROLE_ELSE_IF_CONDITION = "ElseIfCondition"
ROLE_WHILE_CONDITION = "WhileCondition"
ROLE_UNSUPPORTED = "Unsupported"

KEYWORDS = frozenset({
    "int", "void", "return", "if", "else", "while", "break", "continue", "pthread_mutex_t",
    "pthread_t",
})


class ParseError(Exception):
    """Syntax error with the offending position; parsing stops here."""

    def __init__(self, message: str, line: int, column: int, offset: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.offset = offset


class NotFoundError(Exception):
    """No identifier matching a reported coordinate exists in the tree."""


class OverlapError(Exception):
    """Two text edits in one batch cover intersecting spans."""


@dataclass(frozen=True)
class Span:
    """Half-open offset range plus the 1-based coordinates of its ends."""

    start_offset: int
    end_offset: int
    start: SourceCoord
    end: SourceCoord

    def covers(self, coord: SourceCoord) -> bool:
        if coord.line != self.start.line:
            return False
        return self.start.column <= coord.column < max(self.end.column, self.start.column + 1)


class Token:
    __slots__ = ("kind", "text", "leading", "offset", "line", "column")

    def __init__(self, kind: str, text: str, leading: str, offset: int, line: int,
                 column: int):
        self.kind = kind  # "ident" | "number" | "punct" | "eof"
        self.text = text
        self.leading = leading  # whitespace/comments preceding the token, verbatim
        self.offset = offset  # offset of the token text (leading trivia comes before)
        self.line = line
        self.column = column

    @property
    def end(self) -> int:
        return self.offset + len(self.text)

    def __repr__(self) -> str:  # keep failure output short
        return f"Token({self.kind}, {self.text!r}, @{self.line}:{self.column})"


class CstNode:
    """A node: its kind, its children (nodes and tokens) in source order,
    its parent, its span, and the named attributes of its grammar rule.

    The span is computed from the first and last token on first use.
    """

    def __init__(self, kind: str, children: list | None = None,
                 parent: "CstNode | None" = None, span: Span | None = None):
        self.kind = kind
        self.children = [] if children is None else children
        self.parent = parent
        if span is not None:
            self.span = span

    @cached_property
    def span(self) -> Span:
        first = last = self
        while isinstance(first, CstNode):
            first = first.children[0]
        while isinstance(last, CstNode):
            last = last.children[-1]
        return Span(
            first.offset,
            last.end,
            SourceCoord(first.line, first.column),
            SourceCoord(last.line, last.column + len(last.text)),
        )

    def __repr__(self) -> str:
        at = f"@{self.span.start}" if self.children else ""
        return f"<{self.kind}{at}>"

    def tokens(self):
        for child in self.children:
            if isinstance(child, Token):
                yield child
            else:
                yield from child.tokens()

    def walk(self):
        """This node and every node below it, in source order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += [c for c in reversed(node.children) if isinstance(c, CstNode)]

    def child_nodes(self):
        return [c for c in self.children if isinstance(c, CstNode)]

    def root(self) -> "CstNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node


@dataclass
class StatementHandle:
    """A located statement (or condition-owning construct) plus its role."""

    node: CstNode
    parent_kind: str
    role: str
    identifier: CstNode
    reason: str | None = None


@dataclass(frozen=True)
class TextEdit:
    """Span-anchored replacement; zero-width span means insertion.

    ``kind``/``mutex``/``anchor``/``order_col`` are bookkeeping the
    transform engine uses to order and coalesce patches; they do not
    affect how a single edit applies.  ``anchor`` is the source position
    the insertion conceptually attaches to (insertions at one text
    offset are ordered by it), and ``order_col`` breaks remaining ties
    by the column of the access that motivated the edit.
    """

    start: int
    end: int
    replacement: str
    kind: str | None = None
    mutex: str | None = None
    anchor: int = -1
    order_col: int = 0

    @property
    def sort_anchor(self) -> int:
        return self.anchor if self.anchor >= 0 else self.start


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Leading trivia, then at most one token: an identifier, a number, or a
# punctuator (two-character ones first).  ``\w`` is ``str.isalnum`` plus
# ``_``, so non-ASCII letters may appear in names.  No token matched means
# the end of the text or a character that starts no token.
_TOKEN_RE = re.compile(
    r"([ \t\r\n]*(?:/(?:/[^\n]*|\*.*?\*/)[ \t\r\n]*)*)"
    r"(?:([^\W\d]\w*)|(\d+)|(&&|\|\||[=!<>+]=?|[(){};,\-*/%&]))?",
    re.DOTALL,
)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    offset, line, line_start = 0, 1, 0  # offset: where the next leading trivia starts
    check_names = not text.isascii()
    for leading, word, number, punct in _TOKEN_RE.findall(text):
        pos = offset + len(leading)
        if "\n" in leading:
            line += leading.count("\n")
            line_start = offset + leading.rfind("\n") + 1
        column = pos - line_start + 1
        if word:
            # [^\W\d] also matches non-decimal numerals such as '½'
            if check_names and not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", line, column, pos)
            append(Token("ident", word, leading, pos, line, column))
            offset = pos + len(word)
        elif punct:
            if punct == "/" and text.startswith("*", pos + 1):
                # a closed comment would have been trivia
                raise ParseError("unterminated block comment", line, column, pos)
            append(Token("punct", punct, leading, pos, line, column))
            offset = pos + len(punct)
        elif number:
            append(Token("number", number, leading, pos, line, column))
            offset = pos + len(number)
        elif pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", line, column, pos)
        else:
            append(Token("eof", "", leading, pos, line, column))
            return tokens
    raise AssertionError("unreachable: the pattern matches at the end of the text")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binding power of each binary operator, all left-associative; higher binds
# tighter.  Assignment (right-associative) sits below all of them.
_BINARY_PREC = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}


class _Parser:
    """Recursive descent over the token list; ``tok`` is the current token.

    A token is recognised by its text alone: punctuators, numbers and
    identifiers (keywords included) never share a spelling.  Every node is
    built once its children are parsed, and sets their parent links then.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]
        self.loops = 0  # while statements around the current token
        self.identifiers: dict[str, list[CstNode]] = {}

    def take(self) -> Token:
        # Callers check the current token first, so the end token is never taken.
        tok = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return tok

    def fail(self, message: str):
        tok = self.tok
        raise ParseError(message, tok.line, tok.column, tok.offset)

    def expect(self, text: str) -> Token:
        if self.tok.text != text:
            self.fail(f"expected '{text}'")
        return self.take()

    def name(self) -> Token:
        tok = self.tok
        if tok.kind != "ident":
            self.fail("expected an identifier")
        if tok.text in KEYWORDS:
            self.fail(f"'{tok.text}' is a reserved word")
        return self.take()

    # --- top level ---

    def translation_unit(self) -> CstNode:
        children = []
        while self.tok.kind != "eof":
            word = self.tok.text
            if word == "int":
                if self.tokens[self.i + 1].kind == "ident" \
                        and self.tokens[self.i + 2].text == "(":
                    children.append(self.function())
                else:
                    children.append(self.declaration(VAR_DECL))
            elif word == "void":
                children.append(self.function())
            elif word == "pthread_mutex_t":
                children.append(self.mutex_decl())
            else:
                self.fail("expected a declaration or function definition")
        children.append(self.tok)
        tu = CstNode(TRANSLATION_UNIT, children)
        for child in children[:-1]:
            child.parent = tu
        return tu

    def declaration(self, kind: str) -> CstNode:
        """``TYPE NAME [= expr];``, with TYPE the current token."""
        type_tok = self.take()
        name = self.name()
        children = [type_tok, name]
        init = None
        if self.tok.text == "=":
            children.append(self.take())
            init = self.expression()
            children.append(init)
        children.append(self.expect(";"))
        node = CstNode(kind, children)
        if init is not None:
            init.parent = node
        if kind == DECL_STMT:
            node.type_name = type_tok.text
        node.name = name.text
        node.name_token = name
        node.init = init
        return node

    def mutex_decl(self) -> CstNode:
        children = [self.take(), self.name(), self.expect("=")]
        if self.tok.text != "PTHREAD_MUTEX_INITIALIZER":
            self.fail("expected PTHREAD_MUTEX_INITIALIZER")
        children += [self.take(), self.expect(";")]
        node = CstNode(MUTEX_DECL, children)
        node.name_token = children[1]
        node.name = node.name_token.text
        return node

    def function(self) -> CstNode:
        """``int NAME() {...}`` or ``void *NAME(void *[ARG]) {...}``."""
        children = [self.take()]
        pointer = children[0].text == "void"
        if pointer:
            children.append(self.expect("*"))
        name = self.name()
        children += [name, self.expect("(")]
        param = None
        if pointer:
            children += [self.expect("void"), self.expect("*")]
            if self.tok.kind == "ident":
                children.append(self.name())
                param = children[-1].text
        children.append(self.expect(")"))
        body = self.compound()
        children.append(body)
        node = CstNode(FUNC_DEF, children)
        body.parent = node
        node.name = name.text
        node.name_token = name
        node.param = param
        node.body = body
        return node

    # --- statements ---

    def compound(self) -> CstNode:
        lbrace = self.expect("{")
        children = [lbrace]
        statements = []
        while self.tok.text != "}":
            if self.tok.kind == "eof":
                self.fail("unterminated block; expected '}'")
            stmt = self.statement()
            children.append(stmt)
            statements.append(stmt)
        rbrace = self.take()
        children.append(rbrace)
        node = CstNode(COMPOUND_STMT, children)
        for stmt in statements:
            stmt.parent = node
        node.lbrace = lbrace
        node.statements = statements
        node.rbrace = rbrace
        return node

    def statement(self) -> CstNode:
        tok = self.tok
        text = tok.text
        if text == "{":
            return self.compound()
        if text == "if":
            return self.if_stmt()
        if text == "while":
            return self.while_stmt()
        if text == "return":
            return self.return_stmt()
        if text == "int" or text == "pthread_t":
            return self.declaration(DECL_STMT)
        if text == "break" or text == "continue":
            if not self.loops:
                self.fail(f"'{text}' outside a loop")
            return CstNode(BREAK_STMT if text == "break" else CONTINUE_STMT,
                           [self.take(), self.expect(";")])
        if text == "else":
            self.fail("'else' without a matching 'if'")
        if tok.kind == "punct" and text not in ("(", "!", "-", "&"):
            self.fail("expected a statement")
        expr = self.expression()
        node = CstNode(EXPR_STMT, [expr, self.expect(";")])
        expr.parent = node
        node.expr = expr
        return node

    def if_stmt(self) -> CstNode:
        if_token = self.take()
        children = [if_token, self.expect("(")]
        cond = self.expression()
        children += [cond, self.expect(")")]
        then = self.statement()
        children.append(then)
        else_token = els = None
        if self.tok.text == "else":
            else_token = self.take()
            els = self.statement()
            children += [else_token, els]
        node = CstNode(IF_STMT, children)
        cond.parent = then.parent = node
        if els is not None:
            els.parent = node
        node.if_token = if_token
        node.cond = cond
        node.then = then
        node.else_token = else_token
        node.els = els
        return node

    def while_stmt(self) -> CstNode:
        while_token = self.take()
        children = [while_token, self.expect("(")]
        cond = self.expression()
        children += [cond, self.expect(")")]
        self.loops += 1
        body = self.statement()
        self.loops -= 1
        children.append(body)
        node = CstNode(WHILE_STMT, children)
        cond.parent = body.parent = node
        node.while_token = while_token
        node.cond = cond
        node.body = body
        return node

    def return_stmt(self) -> CstNode:
        children = [self.take()]
        expr = None
        if self.tok.text != ";":
            expr = self.expression()
            children.append(expr)
        children.append(self.expect(";"))
        node = CstNode(RETURN_STMT, children)
        if expr is not None:
            expr.parent = node
        node.expr = expr
        return node

    # --- expressions ---

    def expression(self) -> CstNode:
        """A binary expression, or an assignment (right-associative)."""
        target = self.binary(1)
        if self.tok.text == "=" or self.tok.text == "+=":
            if target.kind != IDENTIFIER:
                self.fail("assignment target must be an identifier")
            op = self.take()
            value = self.expression()
            node = CstNode(ASSIGN_EXPR, [target, op, value])
            target.parent = value.parent = node
            node.target = target
            node.op = op.text
            node.value = value
            return node
        return target

    def binary(self, min_prec: int) -> CstNode:
        """Precedence climbing: operators binding at least `min_prec`."""
        left = self.unary()
        prec = _BINARY_PREC.get(self.tok.text, 0)
        while prec >= min_prec:
            op = self.take()
            right = self.binary(prec + 1)
            node = CstNode(BINARY_EXPR, [left, op, right])
            left.parent = right.parent = node
            node.lhs = left
            node.op = op.text
            node.rhs = right
            left = node
            prec = _BINARY_PREC.get(self.tok.text, 0)
        return left

    def unary(self) -> CstNode:
        tok = self.tok
        text = tok.text
        if text == "-" or text == "!":
            self.take()
            operand = self.unary()
            node = CstNode(UNARY_EXPR, [tok, operand])
            operand.parent = node
            node.op = text
            node.operand = operand
            return node
        if text == "&":
            self.take()
            ident = self.identifier()
            node = CstNode(ADDR_OF, [tok, ident])
            ident.parent = node
            node.operand = ident
            return node
        if tok.kind == "number":
            self.take()
            node = CstNode(INT_LITERAL, [tok])
            node.token = tok
            node.value = int(text)
            return node
        if tok.kind == "ident":
            if text in KEYWORDS:
                self.fail(f"'{text}' is a reserved word")
            if self.tokens[self.i + 1].text == "(":
                return self.call()
            return self.identifier()
        self.fail("expected an expression")

    def identifier(self) -> CstNode:
        tok = self.name()
        node = CstNode(IDENTIFIER, [tok])
        node.token = tok
        node.name = tok.text
        self.identifiers.setdefault(tok.text, []).append(node)
        return node

    def call(self) -> CstNode:
        callee = self.identifier()
        children = [callee, self.take()]  # "("
        args = []
        if self.tok.text != ")":
            while True:
                arg = self.expression()
                children.append(arg)
                args.append(arg)
                if self.tok.text != ",":
                    break
                children.append(self.take())
        children.append(self.expect(")"))
        node = CstNode(CALL_EXPR, children)
        callee.parent = node
        for arg in args:
            arg.parent = node
        node.callee = callee
        node.args = args
        return node


def parse_source(text: str) -> CstNode:
    """Parse one translation unit; raises ParseError on the first error.

    The root also carries the source as ``text`` and its ``Identifier``
    nodes by name, in source order, as ``identifiers``.
    """
    parser = _Parser(_tokenize(text))
    tu = parser.translation_unit()
    tu.text = text
    tu.identifiers = parser.identifiers
    return tu


def emit(tree: CstNode) -> str:
    """Concatenate all trivia and token text; inverse of parse_source."""
    return "".join(tok.leading + tok.text for tok in tree.tokens())


# ---------------------------------------------------------------------------
# Locating reported coordinates
# ---------------------------------------------------------------------------


def _classify(identifier: CstNode) -> StatementHandle:
    node: CstNode = identifier
    while node.parent is not None:
        child, node = node, node.parent
        if node.kind == IF_STMT and child is node.cond:
            parent = node.parent
            if parent.kind == COMPOUND_STMT:
                return StatementHandle(node, COMPOUND_STMT, ROLE_IF_CONDITION, identifier)
            if parent.kind == IF_STMT and node is parent.els:
                return StatementHandle(node, IF_STMT, ROLE_ELSE_IF_CONDITION, identifier)
            return StatementHandle(
                node, parent.kind, ROLE_UNSUPPORTED, identifier,
                reason="if condition inside an unbraced branch",
            )
        if node.kind == WHILE_STMT and child is node.cond:
            parent = node.parent
            if parent.kind == COMPOUND_STMT:
                return StatementHandle(node, COMPOUND_STMT, ROLE_WHILE_CONDITION, identifier)
            return StatementHandle(
                node, parent.kind, ROLE_UNSUPPORTED, identifier,
                reason="while condition inside an unbraced branch",
            )
        if child.kind in STATEMENT_KINDS and node.kind == COMPOUND_STMT:
            return StatementHandle(child, COMPOUND_STMT, ROLE_PLAIN, identifier)
    # Ran out of parents: the reference sits outside any function body,
    # which in this grammar means a global initializer.
    return StatementHandle(
        identifier, TRANSLATION_UNIT, ROLE_UNSUPPORTED, identifier,
        reason="reference in a global initializer cannot be locked",
    )


def locate(tree: CstNode, variable: str, at: SourceCoord) -> StatementHandle:
    """Find the statement owning the reference to `variable` at `at`.

    `tree` is a tree from ``parse_source``; its identifier index gives
    the candidates.

    Exact span matches win; otherwise the nearest same-named identifier
    on the same line is used (detector and compiler column conventions
    can drift by a few columns).  Raises NotFoundError when the line has
    no reference to the variable at all.
    """
    candidates = tree.identifiers.get(variable, ())
    exact = [n for n in candidates if n.span.covers(at)]
    if exact:
        return _classify(exact[0])
    same_line = [n for n in candidates if n.span.start.line == at.line]
    if not same_line:
        raise NotFoundError(f"no reference to '{variable}' near {at}")
    best = min(same_line, key=lambda n: (abs(n.span.start.column - at.column), n.span.start.column))
    return _classify(best)


# ---------------------------------------------------------------------------
# Text edits
# ---------------------------------------------------------------------------


def _apply_order(edits: list[TextEdit]) -> list[int]:
    # Zero-width edits sort before wider ones at the same offset so that
    # an insertion at the boundary of a replacement stays outside it.
    return sorted(range(len(edits)), key=lambda i: (edits[i].start, edits[i].end, i))


def check_overlaps(edits: list[TextEdit]) -> TextEdit | None:
    """Return one offending edit if any two spans truly intersect.

    Spans are half-open; zero-width insertions at another edit's
    boundary do not count as overlap.
    """
    max_end = -1
    for i in _apply_order(edits):
        edit = edits[i]
        if edit.start < max_end:
            return edit
        max_end = max(max_end, edit.end)
    return None


def apply_edits(text: str, edits: list[TextEdit]) -> str:
    """Apply non-overlapping edits; insertion ties keep list order."""
    bad = check_overlaps(edits)
    if bad is not None:
        raise OverlapError(f"overlapping edit at offsets {bad.start}..{bad.end}")
    result = text
    for i in reversed(_apply_order(edits)):
        edit = edits[i]
        result = result[: edit.start] + edit.replacement + result[edit.end :]
    return result

"""Parsing, losslessness, spans, locate, and text-edit application."""

import pytest
from hypothesis import given, strategies as st

from racefixer import ParseError, cst, parse_source
from racefixer.cst import NotFoundError, TextEdit, apply_edits, emit, locate
from racefixer.reports import SourceCoord

from conftest import corpus, corpus_files
from genconc import generate_concurrent
from genprog import generate


class TestRoundTrip:
    def test_minimal_decl(self):
        tree = parse_source("int x;\n")
        assert tree.kind == cst.TRANSLATION_UNIT
        decls = tree.child_nodes()
        assert [d.kind for d in decls] == [cst.VAR_DECL]
        assert emit(tree) == "int x;\n"

    def test_two_thread_program_shape(self):
        tree = parse_source(corpus("race_plain.c"))
        kinds = [d.kind for d in tree.child_nodes()]
        assert kinds == [cst.VAR_DECL, cst.FUNC_DEF, cst.FUNC_DEF]
        names = [d.name for d in tree.child_nodes()]
        assert names == ["Global", "Thread1", "main"]

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_corpus_round_trips(self, path):
        text = path.read_text(encoding="utf-8")
        assert emit(parse_source(text)) == text

    def test_generated_programs_round_trip(self):
        for seed in range(200):
            text = generate(seed)
            assert emit(parse_source(text)) == text, f"seed {seed}"

    def test_no_trailing_newline(self):
        text = "int x;"
        assert emit(parse_source(text)) == text


def assert_tree_sound(text):
    """Every node's span runs from its first to its last token, every child
    points back at its parent, token positions agree with a count of
    newlines, and the root indexes every Identifier node."""
    tree = parse_source(text)
    assert tree.parent is None
    index = {}
    for node in tree.walk():
        toks = list(node.tokens())
        first, last = toks[0], toks[-1]
        assert node.span == cst.Span(
            first.offset, last.end, SourceCoord(first.line, first.column),
            SourceCoord(last.line, last.column + len(last.text)))
        assert all(child.parent is node for child in node.child_nodes())
        if node.kind == cst.IDENTIFIER:
            index.setdefault(node.name, []).append(node)
    assert tree.identifiers == index
    for tok in tree.tokens():
        line_start = text.rfind("\n", 0, tok.offset) + 1
        assert (tok.line, tok.column) == (
            text.count("\n", 0, tok.offset) + 1, tok.offset - line_start + 1)


class TestSpans:
    @pytest.mark.parametrize("path", corpus_files()[:6], ids=lambda p: p.name)
    def test_token_spans_match_source(self, path):
        text = path.read_text(encoding="utf-8")
        tree = parse_source(text)
        for tok in tree.tokens():
            assert text[tok.offset : tok.end] == tok.text

    def test_generated_spans_sound(self):
        for seed in range(40):
            assert_tree_sound(generate(seed))

    @pytest.mark.parametrize("group", ["corpus", "genconc"])
    def test_spans_parents_and_index_match_tokens(self, group):
        if group == "corpus":
            texts = [p.read_text(encoding="utf-8") for p in corpus_files()]
        else:
            texts = [generate_concurrent(seed) for seed in range(60)]
        for text in texts:
            assert_tree_sound(text)

    def test_line_and_column_are_one_based(self):
        tree = parse_source("int x;\nint y;\n")
        first, second = tree.child_nodes()
        assert (first.span.start.line, first.span.start.column) == (1, 1)
        assert (second.span.start.line, second.span.start.column) == (2, 1)


def parse_error(text):
    """(message, line, column) of the error parsing `text` raises."""
    with pytest.raises(ParseError) as err:
        parse_source(text)
    exc = err.value
    assert str(exc) == f"{exc.line}:{exc.column}: {exc.message}"
    return exc.message, exc.line, exc.column


class TestParseErrors:
    def test_missing_declarator(self):
        assert parse_error("int = 3;") == ("expected an identifier", 1, 5)

    def test_unterminated_comment(self):
        assert parse_error("/* no end") == ("unterminated block comment", 1, 1)
        assert parse_error("int x; // c\nint y /* no end */ /* end") == (
            "unterminated block comment", 2, 20)

    def test_unterminated_block(self):
        assert parse_error("int main() { return 0;") == (
            "unterminated block; expected '}'", 1, 23)

    def test_stray_else(self):
        assert parse_error("int main() { else x; }") == (
            "'else' without a matching 'if'", 1, 14)

    def test_reserved_word_as_name(self):
        assert parse_error("int while;") == ("'while' is a reserved word", 1, 5)
        assert parse_error("int main() { x = break; }") == (
            "'break' is a reserved word", 1, 18)

    def test_unknown_character(self):
        assert parse_error("int x @ 1;") == ("unexpected character '@'", 1, 7)
        assert parse_error("int x; // c\n/* a\n b */ int y @") == (
            "unexpected character '@'", 3, 13)

    def test_assignment_to_non_identifier(self):
        assert parse_error("int main() { a + b = 1; }") == (
            "assignment target must be an identifier", 1, 20)

    def test_missing_expression(self):
        assert parse_error("int main() { x = ; }") == ("expected an expression", 1, 18)

    def test_break_and_continue_outside_a_loop(self):
        assert parse_error("int main() {\n    break;\n}\n") == (
            "'break' outside a loop", 2, 5)
        assert parse_error("int main() { while (1) { }\n  if (1) continue; }") == (
            "'continue' outside a loop", 2, 10)


def expression_shape(source: str) -> str:
    """The expression statement in `source`, fully parenthesised."""

    def shape(node):
        if node.kind == cst.IDENTIFIER:
            return node.name
        if node.kind == cst.UNARY_EXPR:
            return f"({node.op}{shape(node.operand)})"
        if node.kind == cst.ASSIGN_EXPR:
            return f"({shape(node.target)} {node.op} {shape(node.value)})"
        assert node.kind == cst.BINARY_EXPR
        return f"({shape(node.lhs)} {node.op} {shape(node.rhs)})"

    main = parse_source(f"int main() {{ {source}; }}").child_nodes()[0]
    return shape(main.body.statements[0].expr)


@pytest.mark.parametrize("source,expected", [
    ("a - b - c", "((a - b) - c)"),
    ("a = b = c", "(a = (b = c))"),
    ("a || b && c", "(a || (b && c))"),
    ("!a == b", "((!a) == b)"),
    ("-a * b", "((-a) * b)"),
    ("a < b == c", "((a < b) == c)"),
    ("a + b * c % d", "(a + ((b * c) % d))"),
    ("a += b != c || -!d", "(a += ((b != c) || (-(!d))))"),
])
def test_precedence_and_associativity(source, expected):
    assert expression_shape(source) == expected


class TestJumpStatements:
    def test_break_and_continue_are_statements(self):
        text = "int main() {\n    while (1) { if (1) continue; break; }\n}\n"
        tree = parse_source(text)
        loop = tree.child_nodes()[0].body.statements[0]
        stmts = loop.body.statements
        assert [stmts[0].then.kind, stmts[1].kind] == [cst.CONTINUE_STMT, cst.BREAK_STMT]
        assert stmts[1].span.start == SourceCoord(2, 34)
        assert emit(tree) == text


class TestLocate:
    def test_exact_hit_on_plain_statement(self):
        tree = parse_source(corpus("race_plain.c"))
        handle = locate(tree, "Global", SourceCoord(4, 5))
        assert handle.role == cst.ROLE_PLAIN
        assert handle.node.kind == cst.EXPR_STMT
        assert handle.node.parent.kind == cst.COMPOUND_STMT

    def test_nearby_column_falls_back_to_same_line(self):
        text = (
            "int Global;\n"
            "\n"
            "void *Thread1(void *x) {\n"
            "    // filler line\n"
            "  Global = 42;\n"
            "    return 0;\n"
            "}\n"
            "int main() { return 0; }\n"
        )
        tree = parse_source(text)
        handle = locate(tree, "Global", SourceCoord(5, 10))
        assert handle.role == cst.ROLE_PLAIN
        assert handle.identifier.span.start == SourceCoord(5, 3)

    def test_while_condition_role(self):
        tree = parse_source(corpus("race_while.c"))
        handle = locate(tree, "Count", SourceCoord(4, 12))
        assert handle.role == cst.ROLE_WHILE_CONDITION
        assert handle.node.kind == cst.WHILE_STMT

    def test_if_condition_role(self):
        tree = parse_source(corpus("race_if_else.c"))
        handle = locate(tree, "Flag", SourceCoord(5, 9))
        assert handle.role == cst.ROLE_IF_CONDITION

    def test_else_if_condition_role(self):
        tree = parse_source(corpus("race_else_if.c"))
        handle = locate(tree, "Mode", SourceCoord(7, 16))
        assert handle.role == cst.ROLE_ELSE_IF_CONDITION
        assert handle.node.parent.kind == cst.IF_STMT
        assert cst.chain_head(handle.node) is handle.node.parent

    def test_chain_head_of_a_three_link_chain(self):
        text = ("int g;\nint main() {\n    if (g == 1) {\n    } else if (g == 2) {\n"
                "    } else if (g == 3) {\n    }\n    return 0;\n}\n")
        tree = parse_source(text)
        head = tree.child_nodes()[-1].body.statements[0]
        for coord in (SourceCoord(3, 9), SourceCoord(4, 16), SourceCoord(5, 16)):
            assert cst.chain_head(locate(tree, "g", coord).node) is head

    def test_else_if_whose_chain_sits_in_an_unbraced_branch_is_unsupported(self):
        text = ("int g;\nint main() {\n    while (g) if (g == 1) g = 0;\n"
                "    else if (g == 2) g = 1;\n    return 0;\n}\n")
        tree = parse_source(text)
        handle = locate(tree, "g", SourceCoord(4, 14))
        assert handle.role == cst.ROLE_UNSUPPORTED
        assert handle.reason == "if condition inside an unbraced branch"

    def test_not_found(self):
        tree = parse_source("int x;\n")
        with pytest.raises(NotFoundError):
            locate(tree, "Nope", SourceCoord(1, 1))

    def test_wrong_line_is_not_found(self):
        tree = parse_source(corpus("race_plain.c"))
        with pytest.raises(NotFoundError):
            locate(tree, "Global", SourceCoord(2, 1))

    def test_global_initializer_is_unsupported(self):
        tree = parse_source("int a;\nint b = a;\nint main() { return 0; }\n")
        handle = locate(tree, "a", SourceCoord(2, 9))
        assert handle.role == cst.ROLE_UNSUPPORTED

    def test_unbraced_branch_body_wraps_whole_statement(self):
        tree = parse_source(corpus("unbraced.c"))
        handle = locate(tree, "v", SourceCoord(4, 12))  # body of `if (v) v = 1;`
        assert handle.role == cst.ROLE_PLAIN
        assert handle.node.kind == cst.IF_STMT

    def test_condition_nested_in_unbraced_branch_is_unsupported(self):
        text = "int g;\nint main() {\n    if (1) if (g) g = 1;\n    return 0;\n}\n"
        tree = parse_source(text)
        handle = locate(tree, "g", SourceCoord(3, 16))
        assert handle.role == cst.ROLE_UNSUPPORTED

    def test_equidistant_columns_pick_the_lower(self):
        tree = parse_source("int G;\nint main() {\n    G = G;\n    return 0;\n}\n")
        handle = locate(tree, "G", SourceCoord(3, 7))
        assert handle.identifier.span.start == SourceCoord(3, 5)

    def test_deterministic(self):
        tree = parse_source(corpus("race_plain.c"))
        a = locate(tree, "Global", SourceCoord(11, 5))
        b = locate(tree, "Global", SourceCoord(11, 5))
        assert a.node is b.node and a.role == b.role


class TestApplyEdits:
    def test_no_edits(self):
        assert apply_edits("abc", []) == "abc"

    def test_two_insertions(self):
        edits = [TextEdit(0, "X"), TextEdit(3, "Y")]
        assert apply_edits("abcdef", edits) == "XabcYdef"

    def test_insertion_semantics_at_zero(self):
        assert apply_edits("abc", [TextEdit(0, "x")]) == "xabc"

    def test_same_offset_keeps_list_order(self):
        edits = [TextEdit(1, "A"), TextEdit(1, "B")]
        assert apply_edits("xy", edits) == "xABy"

    def test_unsorted_edits_keep_list_order_per_offset(self):
        edits = [TextEdit(3, "Y"), TextEdit(0, "X"), TextEdit(3, "Z")]
        assert apply_edits("abcdef", edits) == "XabcYZdef"

    @given(st.text(max_size=40), st.data())
    def test_single_insertion_properties(self, text, data):
        pos = data.draw(st.integers(0, len(text)))
        insert = data.draw(st.text(max_size=10))
        result = apply_edits(text, [TextEdit(pos, insert)])
        assert len(result) == len(text) + len(insert)
        assert result[:pos] == text[:pos]
        assert result[pos + len(insert) :] == text[pos:]


def test_emit_after_while_fix_matches_patched_shape(tmp_source):
    # checked in detail by the golden tests; here only that the edited
    # text still parses and emits losslessly
    from racefixer.transform import fix_while, plan_mutex

    tree = parse_source(corpus("race_while.c"))
    handle = locate(tree, "Count", SourceCoord(4, 12))
    plan = plan_mutex("Count", tree)
    patch = fix_while(handle, plan)
    edits = ([plan.decl_insertion] if plan.decl_insertion else []) + patch.edits
    patched = apply_edits(corpus("race_while.c"), edits)
    assert emit(parse_source(patched)) == patched


@pytest.mark.parametrize("text", ["", "// only a comment\n", "/* block */", "\n  \t\n"])
def test_trivia_only_inputs_round_trip(text):
    assert emit(parse_source(text)) == text

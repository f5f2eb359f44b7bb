from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import plank
from plank import (
    ParseFailure,
    RuleDecl,
    SchemeDecl,
    check_ground_subject,
    check_script,
    parse_script,
    parse_term,
    render,
)
from plank.parser import _TOKEN_RE, _Block, _Parser, _Source, _lex
from plank.terms import (
    AssocForm,
    AssocPiece,
    CatchAll,
    Construction,
    DataDecl,
    Diagnostic,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    Script,
    ScopeForm,
    ScopePiece,
    SortCons,
    SortVar,
    Span,
    Var,
    VariableDecl,
)
from conftest import BETA_ETA, CBV_EVAL


class TestParseScript:
    def test_beta_eta_counts(self, ex1):
        schemes = [d for d in ex1.declarations if isinstance(d, SchemeDecl)]
        rules = [d for d in ex1.declarations if isinstance(d, RuleDecl)]
        assert len(schemes) == 2 and len(rules) == 2

    def test_empty_script(self):
        assert parse_script("").declarations == ()

    def test_comments_and_whitespace_only(self):
        assert parse_script("// nothing here\n   \n").declarations == ()

    def test_cbv_eval_counts(self, ex2):
        kinds = {
            DataDecl: 0,
            VariableDecl: 0,
            SchemeDecl: 0,
            RuleDecl: 0,
        }
        for d in ex2.declarations:
            kinds[type(d)] += 1
        assert kinds == {DataDecl: 2, VariableDecl: 1, SchemeDecl: 2, RuleDecl: 4}

    def test_rendering_reparses(self, ex1, ex2):
        for script in (ex1, ex2):
            again = parse_script(render(script))
            assert again == script

    def test_recovery_collects_all_errors(self):
        bad = "L scheme F(;\nL data (L);\nL scheme G(L);"
        with pytest.raises(ParseFailure) as exc:
            parse_script(bad)
        assert len(exc.value.errors) == 2
        # recovery keeps parsing: the last declaration is fine and the error
        # spans stay inside the input
        lines = bad.splitlines()
        for e in exc.value.errors:
            assert 1 <= e.span.start_line <= len(lines)
            assert 1 <= e.span.start_col <= len(lines[e.span.start_line - 1]) + 1

    def test_error_messages_name_position(self):
        with pytest.raises(ParseFailure) as exc:
            parse_script("L bogus Foo(L);")
        err = exc.value.errors[0]
        assert "bogus" in err.message
        assert err.span.start_line == 1


class TestParseTerm:
    def test_application_shape(self):
        term = parse_term("Ap(Lam([x]x), Lam([y]y))")
        assert term == Construction(
            Ident("Ap"),
            (
                ScopePiece(
                    (),
                    Construction(
                        Ident("Lam"), (ScopePiece((Ident("x"),), Var(Ident("x"))),)
                    ),
                ),
                ScopePiece(
                    (),
                    Construction(
                        Ident("Lam"), (ScopePiece((Ident("y"),), Var(Ident("y"))),)
                    ),
                ),
            ),
        )

    def test_bare_variable(self):
        assert parse_term("x") == Var(Ident("x"))

    def test_env_catchall(self):
        term = parse_term("Eval(#A, {#env})")
        assert term == Construction(
            Ident("Eval"),
            (
                ScopePiece((), MetaApp(Ident("#A"))),
                AssocPiece((CatchAll(Ident("#env")),)),
            ),
        )

    def test_separators_inside_assoc(self):
        semi = parse_term("Eval(x, {#env; x : #V})")
        comma = parse_term("Eval(x, {#env, x : #V})")
        assert semi == comma

    def test_not_key_and_empty_assoc(self):
        assert parse_term("F({~a:})") == Construction(
            Ident("F"), (AssocPiece((NotKey(Ident("a")),)),)
        )
        assert parse_term("F({})") == Construction(Ident("F"), (AssocPiece(()),))

    def test_bare_meta_is_nullary(self):
        assert parse_term("#N") == MetaApp(Ident("#N"))
        assert parse_term("#N()") == MetaApp(Ident("#N"))

    def test_duplicate_binders_rejected(self):
        with pytest.raises(ParseFailure):
            parse_term("F([x,x]x)")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseFailure):
            parse_term("x y")


class TestRender:
    def test_variable(self):
        assert render(parse_term("x")) == "x"

    def test_beta_rule_canonical_ascii(self, ex1):
        beta = ex1.rules[0]
        assert render(beta) == "L rule Ap(Lam([x]#M(x)), #N) -> #M(#N);"

    def test_empty_sort_args_elided(self):
        decl = parse_script("L scheme F(L);").declarations[0]
        assert render(decl.sort) == "L"
        assert render(SortCons(Ident("L"))) == "L"

    def test_unicode_round_trip(self, ex1):
        uni = render(ex1, unicode=True)
        assert "→" in uni
        assert parse_script(uni) == ex1

    def test_sort_args_ascii_and_unicode(self):
        decl = parse_script("Box<a> data B(a);").declarations[0]
        assert render(decl.sort) == "Box<a>"
        assert render(decl.sort, unicode=True) == "Box⟨a⟩"
        assert parse_script("Box⟨a⟩ data B(a);").declarations[0] == decl


# One node of each class, built directly, and its text in both spellings,
# recorded before ``render`` became one function over a token table.
_L, _A = SortCons(Ident("L")), SortVar(Ident("a"))
_BOX = SortCons(Ident("Box"), (_A, _L))
_X, _C = Var(Ident("x")), Construction(Ident("C"))
_F = SchemeDecl(_L, Ident("F"), (ScopeForm((_L,), _L),))
PINNED_RENDER = [
    ("sort-var", _A, "a", "a"),
    ("sort-no-args", _L, "L", "L"),
    ("sort-args", SortCons(Ident("Pair"), (_BOX, _L)), "Pair<Box<a, L>, L>", "Pair⟨Box⟨a, L⟩, L⟩"),
    ("form-plain", ScopeForm((), _BOX), "Box<a, L>", "Box⟨a, L⟩"),
    ("form-scope", ScopeForm((_L, _A), _BOX), "[L, a]Box<a, L>", "[L, a]Box⟨a, L⟩"),
    ("form-assoc", AssocForm(_L, _BOX), "{L:Box<a, L>}", "{L:Box⟨a, L⟩}"),
    ("data", DataDecl(_BOX, Ident("D"), (ScopeForm((), _A), AssocForm(_L, _A))),
     "Box<a, L> data D(a, {L:a});", "Box⟨a, L⟩ data D(a, {L:a});"),
    ("scheme", _F, "L scheme F([L]L);", "L scheme F([L]L);"),
    ("scheme-no-forms", SchemeDecl(_L, Ident("K"), ()), "L scheme K();", "L scheme K();"),
    ("variable", VariableDecl(_BOX), "Box<a, L> variable;", "Box⟨a, L⟩ variable;"),
    ("rule", RuleDecl(_L, MetaApp(Ident("#m"), (_X,)), _C), "L rule #m(x) -> C();", "L rule #m(x) → C();"),
    ("var", _X, "x", "x"),
    ("cons-empty", _C, "C()", "C()"),
    ("meta-bare", MetaApp(Ident("#m")), "#m", "#m"),
    ("meta-args", MetaApp(Ident("#m"), (_X, _C)), "#m(x, C())", "#m(x, C())"),
    ("piece-plain", ScopePiece((), _X), "x", "x"),
    ("piece-scope", ScopePiece((Ident("x"), Ident("y")), Construction(
        Ident("Ap"), (ScopePiece((), _X), ScopePiece((), Var(Ident("y")))))),
     "[x, y]Ap(x, y)", "[x, y]Ap(x, y)"),
    ("piece-assoc-empty", AssocPiece(()), "{}", "{}"),
    ("piece-assoc", AssocPiece((MapEntry(Ident("x"), _C), NotKey(Ident("y")), CatchAll(Ident("#e")))),
     "{x : C(), ~y:, #e}", "{x : C(), ¬y:, #e}"),
    ("map-entry", MapEntry(Ident("x"), MetaApp(Ident("#v"))), "x : #v", "x : #v"),
    ("not-key", NotKey(Ident("y")), "~y:", "¬y:"),
    ("catch-all-bare", CatchAll(Ident("#env")), "#env", "#env"),
    ("catch-all-args", CatchAll(Ident("#env"), (_X, _C)), "#env(x, C())", "#env(x, C())"),
    ("cons", Construction(Ident("Eval"), (ScopePiece((Ident("x"),), _X),
                                          AssocPiece((CatchAll(Ident("#e")), NotKey(Ident("z")))))),
     "Eval([x]x, {#e, ~z:})", "Eval([x]x, {#e, ¬z:})"),
    ("script", Script((VariableDecl(_L), _F, RuleDecl(
        _L, Construction(Ident("F"), (ScopePiece((Ident("x"),), MetaApp(Ident("#m"), (_X,))),)),
        MetaApp(Ident("#m"), (_C,))))),
     "L variable;\nL scheme F([L]L);\nL rule F([x]#m(x)) -> #m(C());",
     "L variable;\nL scheme F([L]L);\nL rule F([x]#m(x)) → #m(C());"),
    ("script-empty", Script(), "", ""),
]


@pytest.mark.parametrize("node,ascii_text,unicode_text", [c[1:] for c in PINNED_RENDER],
                         ids=[c[0] for c in PINNED_RENDER])
def test_render_is_pinned(node, ascii_text, unicode_text):
    assert render(node) == str(node) == ascii_text
    assert render(node, unicode=True) == unicode_text


@pytest.mark.parametrize("value", [Ident("x"), None], ids=["ident", "none"])
def test_render_rejects_a_non_node(value):
    with pytest.raises(TypeError, match="cannot render"):
        render(value)


class TestUnicodeAsciiEquivalence:
    def test_scripts_identical(self):
        ascii_text = CBV_EVAL.replace("→", "->")
        assert parse_script(ascii_text) == parse_script(CBV_EVAL)

    def test_negation_spellings(self):
        assert parse_term("F({~a:})") == parse_term("F({¬a:})")


# ---------------------------------------------------------------------------
# Lexer and spans

# Every punctuation token in both spellings, ``->`` beside lone ``-``, CR LF
# line ends, tabs, a comment mid-line and one that ends the input, and three
# characters no token starts with.
LEX_TEXT = (
    "L<A, B> scheme F([A]B, {A:B});\r\n"
    "\tL rule F(Lam([x]#M(x)), {~k:, #env}) -> #M(k_1)  // a -> comment\r\n"
    "F(A) → B ⟨C⟩ ¬ x - > -> ->- -x;\n"
    "_x 9 é #9 Done()\t// trailing comment"
)

# (kind, text, start_line, start_col), recorded before
# the lexer became one compiled pattern.  The end of input sits at the
# trailing comment's first column.
LEX_TOKENS = [
    ('con', 'L', 1, 1),
    ('<', '<', 1, 2),
    ('con', 'A', 1, 3),
    (',', ',', 1, 4),
    ('con', 'B', 1, 6),
    ('>', '>', 1, 7),
    ('var', 'scheme', 1, 9),
    ('con', 'F', 1, 16),
    ('(', '(', 1, 17),
    ('[', '[', 1, 18),
    ('con', 'A', 1, 19),
    (']', ']', 1, 20),
    ('con', 'B', 1, 21),
    (',', ',', 1, 22),
    ('{', '{', 1, 24),
    ('con', 'A', 1, 25),
    (':', ':', 1, 26),
    ('con', 'B', 1, 27),
    ('}', '}', 1, 28),
    (')', ')', 1, 29),
    (';', ';', 1, 30),
    ('con', 'L', 2, 2),
    ('var', 'rule', 2, 4),
    ('con', 'F', 2, 9),
    ('(', '(', 2, 10),
    ('con', 'Lam', 2, 11),
    ('(', '(', 2, 14),
    ('[', '[', 2, 15),
    ('var', 'x', 2, 16),
    (']', ']', 2, 17),
    ('meta', '#M', 2, 18),
    ('(', '(', 2, 20),
    ('var', 'x', 2, 21),
    (')', ')', 2, 22),
    (')', ')', 2, 23),
    (',', ',', 2, 24),
    ('{', '{', 2, 26),
    ('~', '~', 2, 27),
    ('var', 'k', 2, 28),
    (':', ':', 2, 29),
    (',', ',', 2, 30),
    ('meta', '#env', 2, 32),
    ('}', '}', 2, 36),
    (')', ')', 2, 37),
    ('->', '->', 2, 39),
    ('meta', '#M', 2, 42),
    ('(', '(', 2, 44),
    ('var', 'k_1', 2, 45),
    (')', ')', 2, 48),
    ('con', 'F', 3, 1),
    ('(', '(', 3, 2),
    ('con', 'A', 3, 3),
    (')', ')', 3, 4),
    ('->', '→', 3, 6),
    ('con', 'B', 3, 8),
    ('<', '⟨', 3, 10),
    ('con', 'C', 3, 11),
    ('>', '⟩', 3, 12),
    ('~', '¬', 3, 14),
    ('var', 'x', 3, 16),
    ('>', '>', 3, 20),
    ('->', '->', 3, 22),
    ('->', '->', 3, 25),
    ('var', 'x', 3, 30),
    (';', ';', 3, 31),
    ('var', 'x', 4, 2),
    ('meta', '#9', 4, 8),
    ('con', 'Done', 4, 11),
    ('(', '(', 4, 15),
    (')', ')', 4, 16),
    ('eof', '', 4, 18),
]

LEX_ERRORS = [
    "lex.plank:3:18: error[parse]: unexpected character '-'",
    "lex.plank:3:27: error[parse]: unexpected character '-'",
    "lex.plank:3:29: error[parse]: unexpected character '-'",
    "lex.plank:4:1: error[parse]: unexpected character '_'",
    "lex.plank:4:4: error[parse]: unexpected character '9'",
    "lex.plank:4:6: error[parse]: unexpected character 'é'",
]


def _lexed(p: _Parser) -> list[tuple[str, str, Span]]:
    """(kind, text, span) of each token of ``p``, spans resolved from ``p``'s source."""
    return [(k, t, p.source.resolve(i)) for i, (k, t) in enumerate(zip(p.kinds, p.texts))]


def test_lexer_tokens_and_errors_are_pinned():
    p = _Parser(LEX_TEXT, "lex.plank")
    tokens = _lexed(p)
    assert [(kind, text, span.start_line, span.start_col)
            for kind, text, span in tokens] == LEX_TOKENS
    assert all(span.file == "lex.plank" for _, _, span in tokens)
    assert [e.format() for e in p.errors] == LEX_ERRORS


def test_lexer_shares_one_ident_per_word():
    p = _Parser("F(x, x, F(x))", "f")
    words = [t for k, t in zip(p.kinds, p.texts) if k in ("con", "var")]
    assert words == ["F", "x", "x", "F", "x"]
    assert all(type(w) is str for w in words)
    assert words[0] is words[3] and words[1] is words[2] is words[4]


@given(st.text(alphabet="aqZ09_#é-/>( ", max_size=5))
@example("#")
@example("//")
@example("_a")
def test_a_word_token_is_exactly_a_checked_spelling(text):
    # The lexer keeps each word as it stands, with no second check, because
    # its word tokens are exactly the spellings ``Ident`` accepts.
    kinds = _lex(text)[0]
    word = _TOKEN_RE.findall(text) == [text] and kinds[0] in ("con", "var", "meta")
    assert word == bool(plank.terms._SPELLING.fullmatch(text))


# The lexer as it was when each token was a record: one compiled pattern run
# with ``finditer``, one named group per token class, the line and column
# kept as it goes.  The oracle of ``test_lexer_agrees_with_the_record_lexer``.
_REF_PUNCT = {c: c for c in "()[]{},;:<>~"} | {"⟨": "<", "⟩": ">", "¬": "~", "→": "->"}
_REF_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<arrow>->)"
    r"|(?P<punct>[()\[\]{},;:<>⟨⟩~¬→])|(?P<word>[#A-Za-z][A-Za-z0-9_]*)|(?P<other>.)"
)


def _reference_lex(text: str, file: str) -> tuple[list[tuple[str, str, Span]], list[Diagnostic]]:
    tokens, errors = [], []
    words: dict[str, tuple[str, Ident]] = {}
    line, line_start, group, m = 1, 0, None, None
    for m in _REF_TOKEN_RE.finditer(text):
        group = m.lastgroup
        if group == "blank" or group == "comment":
            continue
        if group == "nl":
            line += 1
            line_start = m.end()
            continue
        span = Span(file, line, m.start() - line_start + 1)
        if group == "word":
            word = m.group()
            hit = words.get(word)
            if hit is None:
                first = word[0]
                kind = "meta" if first == "#" else "con" if first.isupper() else "var"
                hit = words[word] = (kind, Ident(word))
            tokens.append((hit[0], hit[1], span))
        elif group == "punct":
            ch = m.group()
            tokens.append((_REF_PUNCT[ch], ch, span))
        elif group == "arrow":
            tokens.append(("->", "->", span))
        else:
            errors.append(Diagnostic("parse", span, f"unexpected character {m.group()!r}"))
    end = m.start() if group == "comment" else len(text)
    tokens.append(("eof", "", Span(file, line, end - line_start + 1)))
    return tokens, errors


# Every token class in both spellings, each blank, a comment opener and a
# lone slash, and characters no token starts with.
_LEX_ALPHABET = [*"()[]{},;:<>~⟨⟩¬→", "->", "-", ">", "x", "Ab", "#m", "k_1", "#",
                 " ", "\r", "\t", "\n", "\f", "//", "/", "_", "9", "é", "rule"]


@given(st.lists(st.sampled_from(_LEX_ALPHABET), max_size=40).map("".join),
       st.sampled_from(["", "// c", "//", "\n// c", " // c\n"]))
@example("x ", "// c")
@example("x //c", "\n")
@example("a//b", "")
@example("x\r\n\t// ->", "")
@example("", "")
@example("// c", "")
@example("x é// c", "")
@example("xé", "")
@example("// c\n_", "")
@settings(max_examples=300, deadline=None)
def test_lexer_agrees_with_the_record_lexer(text, end):
    text += end
    tokens, errors = _reference_lex(text, "d.plank")
    p = _Parser(text, "d.plank")
    assert _lexed(p) == tokens
    assert [type(t) for t in p.texts] == [type(t) for _, t, _ in tokens]
    assert [e.format() for e in p.errors] == [e.format() for e in errors]


class TestSpan:
    def test_repr_and_str(self):
        span = Span("f.plank", 2, 3)
        assert repr(span) == "Span(file='f.plank', start_line=2, start_col=3)"
        assert str(span) == "f.plank:2:3"

    def test_equality_and_hash(self):
        span = Span("f.plank", 2, 3)
        assert span == Span("f.plank", 2, 3)
        assert span != Span("f.plank", 2, 4)
        assert span != Span("g.plank", 2, 3)
        assert hash(span) == hash(Span("f.plank", 2, 3))
        assert hash(span) == hash(("f.plank", 2, 3))
        assert len({span, Span("f.plank", 2, 3), Span("f.plank", 1, 3)}) == 2

    def test_fields_cannot_be_assigned(self):
        span = Span("f.plank", 2, 3)
        with pytest.raises(AttributeError):
            span.start_col = 9
        assert span.start_col == 3

    def test_terms_at_different_offsets_are_equal(self):
        near = parse_term("Lam([x]Ap(x, #M))")
        far = parse_term("\n\n    Lam( [x]  Ap(x,\t#M) )")
        assert near.span == far.span == 0
        assert near.source.resolve(near.span) != far.source.resolve(far.span)
        assert near == far and hash(near) == hash(far)

    def test_exported(self):
        assert plank.Span is Span


# ---------------------------------------------------------------------------
# Random round-trip ASTs (seeded; the acceptance suite runs the large count)

_CONS = ["A", "Bb", "Wrap", "C1"]
_VARS = ["x", "y", "z2", "foo"]
_METAS = ["#M", "#n1", "#env"]


def random_term(rng: random.Random, depth: int):
    pick = rng.random()
    if depth <= 0 or pick < 0.25:
        if rng.random() < 0.6:
            return Var(Ident(rng.choice(_VARS)))
        return MetaApp(
            Ident(rng.choice(_METAS)),
            tuple(random_term(rng, 0) for _ in range(rng.randrange(2))),
        )
    pieces = []
    for _ in range(rng.randrange(3)):
        kind = rng.random()
        if kind < 0.55:
            binders = tuple(
                Ident(v) for v in rng.sample(_VARS, rng.randrange(3))
            )
            pieces.append(ScopePiece(binders, random_term(rng, depth - 1)))
        else:
            entries = []
            for _ in range(rng.randrange(3)):
                e = rng.random()
                if e < 0.5:
                    entries.append(
                        MapEntry(Ident(rng.choice(_VARS)), random_term(rng, depth - 1))
                    )
                elif e < 0.75:
                    entries.append(NotKey(Ident(rng.choice(_VARS))))
                else:
                    entries.append(
                        CatchAll(
                            Ident(rng.choice(_METAS)),
                            tuple(random_term(rng, 0) for _ in range(rng.randrange(2))),
                        )
                    )
            pieces.append(AssocPiece(tuple(entries)))
    return Construction(Ident(rng.choice(_CONS)), tuple(pieces))


def _nodes(node):
    yield node
    for f in node._fields:
        value = getattr(node, f)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, plank.terms._Node):
                yield from _nodes(child)


def _scattered(text: str, rng: random.Random) -> str:
    """``text`` with blanks, newlines and comments drawn between its tokens."""
    out = []
    for tok in re.findall(r"[#A-Za-z][A-Za-z0-9_]*|\S", text):
        out.append(rng.choice(["", "", " ", "\n", "\t ", "\r\n", " // a, b ]\n", "//\n  "]))
        if out[-1] == "" and len(out) > 1 and tok[0] not in "()[]{},;:~":
            out[-1] = " "
        out.append(tok)
    return "".join(out)


def test_spans_point_at_their_names():
    rng = random.Random(20261019)
    for _ in range(200):
        term = random_term(rng, 3)
        text = _scattered(render(term), rng)
        lines = [0] + [m.end() for m in re.finditer("\n", text)]
        parsed = parse_term(text)
        assert parsed == term and hash(parsed) == hash(term), text
        for node in _nodes(parsed):
            name = {Var: "name", Construction: "head", MetaApp: "meta"}.get(type(node))
            if name:
                span = node.source.resolve(node.span)
                offset = lines[span.start_line - 1] + span.start_col - 1
                assert text.startswith(getattr(node, name), offset), (text, node)


# Declarations with every sort and form kind, to go before a random rule.
_SKELETON = parse_script("Box<a> data B(a, [a]Box<a>, {a:L}); L variable;"
                         "L scheme G({L:Box<L>}, [L, L]L); L data One();").declarations
_ENDS = ["", "\n", "// end", "\r\n// end", "\t//"]


def _positions_as_eagerly_resolved(parsed, text, file) -> set[int]:
    """Every node of ``parsed`` but the script keeps its first token's index
    within a block of 256 tokens, an ``int`` in ``range(256)``, and that
    ``_Block``; the blocks share the parse's one ``_Source``, and token
    ``block.base + span`` resolves to the span the reference lexer gives
    that token.  Returns the first tokens' indices."""
    tokens, _ = _reference_lex(text, file)
    sources, firsts = set(), set()
    for node in _nodes(parsed):
        if isinstance(node, Script):
            continue
        block = node.source
        assert type(block) is _Block and type(node.span) is int and node.span in range(256), node
        assert type(block.source) is _Source and block.base % 256 == 0, node
        sources.add(block.source)
        token = block.base + node.span
        firsts.add(token)
        kind, word, span = tokens[token]
        assert node.source.resolve(node.span) == block.source.resolve(token) == span
        first = _Parser(render(node), file)
        assert first.kinds[0] == kind and (kind not in ("con", "var", "meta")
                                            or first.texts[0] == word), (text, node)
    assert len(sources) == 1
    return firsts


def _spread(start: int, size, draw, pad, odd, placed) -> list:
    """Items of a list whose first starts at token ``start``: ``draw()``s,
    then ``odd`` and ``pad``s to fill, so that the item of each ``(token,
    item)`` of ``placed`` starts at that token.  ``size`` counts an item's
    tokens and the comma after it: 2 for ``pad`` and 5 for ``odd``."""
    items, n = [], start
    for target, item in placed:
        while n + size(drawn := draw()) <= target - 6:
            items.append(drawn)
            n += size(drawn)
        if (target - n) % 2:
            items.append(odd)
            n += size(odd)
        items += [pad] * ((target - n) // size(pad))
        items.append(item)
        n = target + size(item)
    return items


# Nodes for the first tokens around block boundaries: a term of each kind
# that starts with its own token, and each kind of association entry.
_X, _Y, _L, _A = Ident("x"), Ident("y"), SortCons(Ident("L")), SortVar(Ident("a"))
_PAD = ScopePiece((), Var(_X))
_STARTS = [ScopePiece((), Construction(Ident("A"), (_PAD,))), _PAD,
           ScopePiece((), MetaApp(Ident("#M"), (Var(_X),))), ScopePiece((_Y,), Var(_X))]
_ENTRIES = [MapEntry(_Y, Var(_X)), NotKey(_Y), CatchAll(Ident("#e"), ())]
_SKELETON_FORMS = [f for d in _SKELETON if isinstance(d, (DataDecl, SchemeDecl)) for f in d.forms]


def _long_term(rng: random.Random, start: int, j: int):
    """A construction with random pieces that, put at token ``start``, runs
    past token 1023: an association list at 255, whose entry starts at 256,
    a piece at 512, a list at 766, whose entry starts at 767, and a piece
    at 1023, the pieces and entries chosen by ``j``."""
    def size(piece):
        return len(_reference_lex(render(Construction(Ident("Wrap"), (piece,))), "")[0]) - 3

    placed = [(255, AssocPiece((_ENTRIES[j % 3],))), (512, _STARTS[j % 4]),
              (766, AssocPiece((_ENTRIES[(j + 1) % 3],))), (1023, _STARTS[(j + 1) % 4])]
    return Construction(Ident("Wrap"), tuple(_spread(
        start + 2, size, lambda: ScopePiece((), random_term(rng, 3)), _PAD, _STARTS[0], placed)))


def _wide_scheme(rng: random.Random):
    """``L scheme Wide(...)`` whose forms, drawn from ``_SKELETON``'s, run
    past token 1023, with a form of each kind and sorts on both sides of
    the boundaries: ``[L, a]L`` at 255, ``{a:L}`` at 511, ``Box<a>`` at 767
    and ``a`` at 1023."""
    def size(form):
        return len(_reference_lex(render(SchemeDecl(_L, Ident("Wide"), (form,))), "")[0]) - 6

    box = ScopeForm((), SortCons(Ident("Box"), (_A,)))
    placed = [(255, ScopeForm((_L, _A), _L)), (511, AssocForm(_A, _L)), (767, box),
              (1023, ScopeForm((), _A))]
    return SchemeDecl(_L, Ident("Wide"), tuple(_spread(
        4, size, lambda: rng.choice(_SKELETON_FORMS), ScopeForm((), _L), box, placed)))


def test_positions_resolve_to_the_spans_of_their_first_tokens():
    rng = random.Random(20261020)
    for i in range(150):
        term = random_term(rng, 3)
        text = _scattered(render(term, unicode=bool(i % 2)), rng) + rng.choice(_ENDS)
        _positions_as_eagerly_resolved(parse_term(text, file="t.plank"), text, "t.plank")
        rule = RuleDecl(SortCons(Ident("L")), term, random_term(rng, 2))
        script = Script(_SKELETON + (rule,))
        # unicode spells the arrow as one character, which ``_scattered`` keeps whole
        text = _scattered(render(script, unicode=True), rng) + rng.choice(_ENDS)
        parsed = parse_script(text, file="s.plank")
        assert parsed == script
        _positions_as_eagerly_resolved(parsed, text, "s.plank")
    # Inputs of five blocks, with first tokens on both sides of each boundary.
    lhs = len(_reference_lex(render(Script(_SKELETON)), "")[0]) + 1  # less eof, plus ``L rule``
    for j in range(12):
        term = _long_term(rng, 0, j)
        text = _scattered(render(term), rng) + rng.choice(_ENDS)
        parsed = parse_term(text, file="t.plank")
        assert parsed == term
        assert {255, 256, 512, 766, 767, 1023} <= _positions_as_eagerly_resolved(
            parsed, text, "t.plank")
        for script, at in ((Script(_SKELETON + (RuleDecl(_L, _long_term(rng, lhs, j),
                                                           random_term(rng, 2)),)),
                            {255, 256, 512, 766, 767, 1023}),
                           (Script((_wide_scheme(rng),)), {255, 256, 511, 512, 767, 1023})):
            text = _scattered(render(script, unicode=True), rng) + rng.choice(_ENDS)
            parsed = parse_script(text, file="s.plank")
            assert parsed == script
            assert at <= _positions_as_eagerly_resolved(parsed, text, "s.plank")


# One script per diagnostic source: lexer, parser, environment builder,
# rule inference, declaration and rule checks, and a ground subject.
_DIAGNOSED = [
    "L data A(); é L scheme F(L);",
    "L data A(; L scheme F([x, x]A);",
    "L data A(); L data A(L); Box<L> data B();",
    "L data A(); L scheme F(L); L rule F(#M) -> #N;",
    "L data Lam([L]L); L scheme F(L, L); L rule F(Lam([x]#M(x)), #M) -> A();",
    "L data A(); L<L> data B(); L scheme F(L); L variable; L rule F(B()) -> x;",
    "L data A(); L variable; L scheme F({L:L}); L rule F({~k:, x : #V}) -> F({~x:});",
]


def test_every_diagnostic_holds_a_resolved_span():
    errors = []
    for text in _DIAGNOSED:
        try:
            checked = check_script(parse_script("\r\n\t" + text, file="d.plank"))
        except ParseFailure as exc:
            errors += exc.errors
            continue
        errors += checked.errors
        subject = parse_term("\n  F(y, Q())" if "F(L, L)" in text else "A(x)")
        errors += check_ground_subject(checked.gamma, subject)[2]
    for bad in ("F(x) G", "F([x, x]x)", "F(~)", "F(é)"):
        with pytest.raises(ParseFailure) as exc:
            parse_term(bad)
        errors += exc.value.errors
    # The lexer's error, which ``parse_term`` raises before it parses.
    assert errors[-1].format() == "<term>:1:3: error[parse]: unexpected character 'é'"
    tags = {e.rule for e in errors}
    assert {"parse", "DuplicateConstructor", "NonVariableSortParameter", "MetaFormConflict",
            "UnboundMetaOnRhs", "SS-Cons", "SMP-Data", "SAP-Not", "SMC-Cons"} <= tags, tags
    assert all(type(e.span) is Span for e in errors)


def test_parse_term_accepts_150_nested_levels():
    # A level is six parser frames deep (``term``, ``listed``, ``piece``, for
    # ``Lam`` and for ``Ap``), 900 in all; a seventh would pass the limit.
    assert sys.getrecursionlimit() == 1000
    depth = 150
    term = parse_term("Lam([x]Ap(z, " * depth + "x" + "))" * depth)
    for _ in range(depth):
        term = term.args[0].body.args[1].body
    assert term == Var(Ident("x"))


def test_random_round_trip_sample():
    rng = random.Random(20240811)
    for _ in range(200):
        term = random_term(rng, 3)
        again = parse_term(render(term))
        assert again == term, render(term)
        uni = parse_term(render(term, unicode=True))
        assert uni == term, render(term, unicode=True)

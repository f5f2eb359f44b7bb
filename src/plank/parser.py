"""Text to AST and back for plank scripts and terms.

Accepts both the Unicode spellings (``→``, ``⟨⟩``, ``¬``) and their ASCII
equivalents (``->``, ``<>``, ``~``).  Whitespace is insignificant and ``//``
starts a line comment.  Script files conventionally use the ``.plank``
extension and one declaration per ``;``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    AssocForm,
    AssocPiece,
    Association,
    CatchAll,
    Category,
    Construction,
    DataDecl,
    Declaration,
    Form,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    Piece,
    RuleDecl,
    SchemeDecl,
    ScopeForm,
    ScopePiece,
    Script,
    Sort,
    SortCons,
    SortVar,
    Span,
    Term,
    Var,
    VariableDecl,
    ident_category,
    render,
)

__all__ = [
    "ParseError",
    "ParseFailure",
    "parse_script",
    "parse_term",
    "render",
]


@dataclass(frozen=True)
class ParseError:
    """A single syntax diagnostic."""

    span: Span
    message: str
    expected: tuple[str, ...] = ()

    def format(self) -> str:
        return f"{self.span}: error[parse]: {self.message}"


class ParseFailure(Exception):
    """Raised when parsing fails; carries every recovered diagnostic."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(e.message for e in errors) or "parse failure")
        self.errors = errors


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {
    "(": "(",
    ")": ")",
    "[": "[",
    "]": "]",
    "{": "{",
    "}": "}",
    ",": ",",
    ";": ";",
    ":": ":",
    "<": "<",
    ">": ">",
    "⟨": "<",
    "⟩": ">",
    "~": "~",
    "¬": "~",
    "→": "->",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "con", "var", "meta", "->", "(", ... or "eof"
    text: str
    span: Span


def _lex(text: str, file: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, col, i = 1, 1, 0
    n = len(text)

    def here(width: int = 1) -> Span:
        return Span(file, line, col, line, col + max(width - 1, 0))

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("->", "->", here(2)))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, here()))
            i += 1
            col += 1
            continue
        if ch == "#" or ch.isascii() and ch.isalpha():
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] == "_")):
                j += 1
            word = text[i:j]
            span = Span(file, line, col, line, col + (j - i) - 1)
            kind = {
                Category.CONSTRUCTOR: "con",
                Category.VARIABLE: "var",
                Category.META: "meta",
            }[ident_category(word)]
            tokens.append(_Token(kind, word, span))
            col += j - i
            i = j
            continue
        errors.append(ParseError(here(), f"unexpected character {ch!r}"))
        i += 1
        col += 1

    tokens.append(_Token("eof", "", Span(file, line, col, line, col)))
    return tokens, errors


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = ("data", "scheme", "variable", "rule")


class _Parser:
    def __init__(self, tokens: list[_Token], file: str):
        self.tokens = tokens
        self.pos = 0
        self.file = file

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = (), span: Span | None = None):
        raise ParseFailure([ParseError(span or self.peek().span, message, expected)])

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text or 'end of input'!r}", (what,))
        return self.next()

    def span_from(self, start: Span) -> Span:
        prev = self.tokens[max(self.pos - 1, 0)].span
        return Span(self.file, start.start_line, start.start_col, prev.end_line, prev.end_col)

    # -- sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return SortVar(Ident(tok.text), span=tok.span)
        if tok.kind != "con":
            self.fail(f"expected a sort, found {tok.text or 'end of input'!r}", ("sort",))
        self.next()
        args: tuple[Sort, ...] = ()
        if self.peek().kind == "<":
            self.next()
            items = [self.sort()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.sort())
            self.expect(">", "'>'")
            args = tuple(items)
        return SortCons(Ident(tok.text), args, span=self.span_from(tok.span))

    def form(self) -> Form:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            binders = []
            if self.peek().kind != "]":
                binders.append(self.sort())
                while self.peek().kind == ",":
                    self.next()
                    binders.append(self.sort())
            self.expect("]", "']'")
            body = self.sort()
            return ScopeForm(tuple(binders), body, span=self.span_from(tok.span))
        if tok.kind == "{":
            self.next()
            key = self.sort()
            self.expect(":", "':'")
            value = self.sort()
            self.expect("}", "'}'")
            return AssocForm(key, value, span=self.span_from(tok.span))
        return ScopeForm((), self.sort(), span=tok.span)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Var(Ident(tok.text), span=tok.span)
        if tok.kind == "meta":
            self.next()
            args: tuple[Term, ...] = ()
            if self.peek().kind == "(":
                args = self.term_args()
            return MetaApp(Ident(tok.text), args, span=self.span_from(tok.span))
        if tok.kind == "con":
            self.next()
            pieces: list[Piece] = []
            if self.peek().kind == "(":
                self.next()
                if self.peek().kind != ")":
                    pieces.append(self.piece())
                    while self.peek().kind == ",":
                        self.next()
                        pieces.append(self.piece())
                self.expect(")", "')'")
            return Construction(Ident(tok.text), tuple(pieces), span=self.span_from(tok.span))
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}", ("term",))

    def term_args(self) -> tuple[Term, ...]:
        self.expect("(", "'('")
        args: list[Term] = []
        if self.peek().kind != ")":
            args.append(self.term())
            while self.peek().kind == ",":
                self.next()
                args.append(self.term())
        self.expect(")", "')'")
        return tuple(args)

    def piece(self) -> Piece:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            binders: list[Ident] = []
            if self.peek().kind != "]":
                binders.append(Ident(self.expect("var", "a binder variable").text))
                while self.peek().kind == ",":
                    self.next()
                    binders.append(Ident(self.expect("var", "a binder variable").text))
            self.expect("]", "']'")
            if len(set(binders)) != len(binders):
                self.fail("binders in one scope must be pairwise distinct", span=tok.span)
            body = self.term()
            return ScopePiece(tuple(binders), body, span=self.span_from(tok.span))
        if tok.kind == "{":
            self.next()
            entries: list[Association] = []
            if self.peek().kind != "}":
                entries.append(self.association())
                while self.peek().kind in (",", ";"):
                    self.next()
                    entries.append(self.association())
            self.expect("}", "'}'")
            return AssocPiece(tuple(entries), span=self.span_from(tok.span))
        body = self.term()
        return ScopePiece((), body, span=body.span)

    def association(self) -> Association:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            key = self.expect("var", "a key variable")
            self.expect(":", "':'")
            return NotKey(Ident(key.text), span=self.span_from(tok.span))
        if tok.kind == "meta":
            self.next()
            args: tuple[Term, ...] = ()
            if self.peek().kind == "(":
                args = self.term_args()
            return CatchAll(Ident(tok.text), args, span=self.span_from(tok.span))
        if tok.kind == "var":
            self.next()
            self.expect(":", "':'")
            value = self.term()
            return MapEntry(Ident(tok.text), value, span=self.span_from(tok.span))
        self.fail(
            f"expected an association entry, found {tok.text or 'end of input'!r}",
            ("'~'", "meta-variable", "key variable"),
        )

    # -- declarations ----------------------------------------------------------

    def declaration(self) -> Declaration:
        start = self.peek().span
        sort = self.sort()
        kw = self.peek()
        if kw.kind != "var" or kw.text not in _KEYWORDS:
            self.fail(
                f"expected 'data', 'scheme', 'variable', or 'rule', found {kw.text or 'end of input'!r}",
                _KEYWORDS,
            )
        self.next()
        if kw.text == "variable":
            self.expect(";", "';'")
            return VariableDecl(sort, span=self.span_from(start))
        if kw.text == "rule":
            lhs = self.term()
            if self.peek().kind != "->":
                self.fail(f"expected '->', found {self.peek().text or 'end of input'!r}", ("'->'",))
            self.next()
            rhs = self.term()
            self.expect(";", "';'")
            return RuleDecl(sort, lhs, rhs, span=self.span_from(start))
        name = Ident(self.expect("con", "a constructor name").text)
        self.expect("(", "'('")
        forms: list[Form] = []
        if self.peek().kind != ")":
            forms.append(self.form())
            while self.peek().kind == ",":
                self.next()
                forms.append(self.form())
        self.expect(")", "')'")
        self.expect(";", "';'")
        cls = DataDecl if kw.text == "data" else SchemeDecl
        return cls(sort, name, tuple(forms), span=self.span_from(start))


def parse_script(text: str, file: str = "<input>") -> Script:
    """Parse a whole script.

    Raises ParseFailure carrying one ParseError per syntax violation; after an
    error the parser recovers at the next declaration boundary (``;``).
    """
    tokens, errors = _lex(text, file)
    p = _Parser(tokens, file)
    decls: list[Declaration] = []
    while p.peek().kind != "eof":
        try:
            decls.append(p.declaration())
        except ParseFailure as exc:
            errors.extend(exc.errors)
            while p.peek().kind not in (";", "eof"):
                p.next()
            if p.peek().kind == ";":
                p.next()
    if errors:
        raise ParseFailure(errors)
    return Script(tuple(decls))


def parse_term(text: str, file: str = "<term>") -> Term:
    """Parse a single term; the whole input must be consumed."""
    tokens, errors = _lex(text, file)
    if errors:
        raise ParseFailure(errors)
    p = _Parser(tokens, file)
    try:
        t = p.term()
        if p.peek().kind != "eof":
            p.fail(f"trailing input after term: {p.peek().text!r}")
    except ParseFailure as exc:
        raise ParseFailure(exc.errors) from None
    return t

"""Text to AST and back for plank scripts and terms.

Accepts both the Unicode spellings (``→``, ``⟨⟩``, ``¬``) and their ASCII
equivalents (``->``, ``<>``, ``~``).  Whitespace is insignificant and ``//``
starts a line comment.  Script files conventionally use the ``.plank``
extension and one declaration per ``;``.

The lexer is one compiled pattern run with ``finditer``, one named group
per token class.  A column is the character offset from the start of the
line plus one, so a tab or a carriage return counts as one column.  A
comment does not advance the column: input that ends in a comment without
a newline reports end of input at the comment's first column.  Each
distinct word becomes one ``Ident`` per call, and its token kind follows
from its first character.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .terms import (
    AssocForm,
    AssocPiece,
    Association,
    CatchAll,
    Construction,
    DataDecl,
    Declaration,
    Diagnostic,
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
    render,
)

__all__ = [
    "ParseFailure",
    "parse_script",
    "parse_term",
    "render",
]


class ParseFailure(Exception):
    """Raised when parsing fails; carries every recovered diagnostic, each
    tagged ``parse``."""

    def __init__(self, errors: list[Diagnostic]):
        super().__init__("; ".join(e.message for e in errors) or "parse failure")
        self.errors = errors


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {c: c for c in "()[]{},;:<>~"} | {"⟨": "<", "⟩": ">", "¬": "~", "→": "->"}

# One alternative per token class, tried in order; ``other`` is any single
# character no class accepts (``.`` stops only at ``\n``, which ``nl`` takes).
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|(?P<blank>[ \t\r]+)|(?P<comment>//[^\n]*)|(?P<arrow>->)"
    r"|(?P<punct>[()\[\]{},;:<>⟨⟩~¬→])|(?P<word>[#A-Za-z][A-Za-z0-9_]*)|(?P<other>.)"
)


class _Token(NamedTuple):
    kind: str  # "con", "var", "meta", "->", "(", ... or "eof"
    text: str  # an Ident for "con", "var" and "meta"
    span: Span


def _lex(text: str, file: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    errors: list[Diagnostic] = []
    words: dict[str, tuple[str, Ident]] = {}
    line, line_start, group, m = 1, 0, None, None
    for m in _TOKEN_RE.finditer(text):
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
            tokens.append(_Token(hit[0], hit[1], span))
        elif group == "punct":
            ch = m.group()
            tokens.append(_Token(_PUNCT[ch], ch, span))
        elif group == "arrow":
            tokens.append(_Token("->", "->", span))
        else:
            errors.append(Diagnostic("parse", span, f"unexpected character {m.group()!r}"))
    # A comment does not advance the column, so input that ends in one puts
    # end of input at the comment's first column.
    end = m.start() if group == "comment" else len(text)
    tokens.append(_Token("eof", "", Span(file, line, end - line_start + 1)))
    return tokens, errors


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = ("data", "scheme", "variable", "rule")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, span: Span | None = None):
        raise ParseFailure([Diagnostic("parse", span or self.peek().span, message)])

    def expect(self, kind: str, what: str | None = None) -> _Token:
        """The next token, which must be of ``kind``; ``what`` names it in the
        error, by default the quoted punctuation ``kind`` itself."""
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what or repr(kind)}, found {tok.text or 'end of input'!r}")
        return self.next()

    def listed(self, item: Callable[[], object], close: str, seps: tuple[str, ...] = (",",)
               ) -> list:
        """Zero or more ``item``s separated by any of ``seps``, then ``close``."""
        items = []
        if self.peek().kind != close:
            items.append(item())
            while self.peek().kind in seps:
                self.next()
                items.append(item())
        self.expect(close)
        return items

    # -- sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return SortVar(tok.text, span=tok.span)
        if tok.kind != "con":
            self.fail(f"expected a sort, found {tok.text or 'end of input'!r}")
        self.next()
        args: tuple[Sort, ...] = ()
        if self.peek().kind == "<":
            self.next()
            items = [self.sort()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.sort())
            self.expect(">")
            args = tuple(items)
        return SortCons(tok.text, args, span=tok.span)

    def form(self) -> Form:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            binders = self.listed(self.sort, "]")
            body = self.sort()
            return ScopeForm(tuple(binders), body, span=tok.span)
        if tok.kind == "{":
            self.next()
            key = self.sort()
            self.expect(":")
            value = self.sort()
            self.expect("}")
            return AssocForm(key, value, span=tok.span)
        return ScopeForm((), self.sort(), span=tok.span)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Var(tok.text, span=tok.span)
        if tok.kind == "meta":
            self.next()
            args: tuple[Term, ...] = ()
            if self.peek().kind == "(":
                args = self.term_args()
            return MetaApp(tok.text, args, span=tok.span)
        if tok.kind == "con":
            self.next()
            pieces: list[Piece] = []
            if self.peek().kind == "(":
                self.next()
                pieces = self.listed(self.piece, ")")
            return Construction(tok.text, tuple(pieces), span=tok.span)
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def term_args(self) -> tuple[Term, ...]:
        self.expect("(")
        return tuple(self.listed(self.term, ")"))

    def piece(self) -> Piece:
        tok = self.peek()
        if tok.kind == "[":
            self.next()
            binders = self.listed(lambda: self.expect("var", "a binder variable").text, "]")
            if len(set(binders)) != len(binders):
                self.fail("binders in one scope must be pairwise distinct", span=tok.span)
            body = self.term()
            return ScopePiece(tuple(binders), body, span=tok.span)
        if tok.kind == "{":
            self.next()
            entries = self.listed(self.association, "}", (",", ";"))
            return AssocPiece(tuple(entries), span=tok.span)
        body = self.term()
        return ScopePiece((), body, span=body.span)

    def association(self) -> Association:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            key = self.expect("var", "a key variable")
            self.expect(":")
            return NotKey(key.text, span=tok.span)
        if tok.kind == "meta":
            self.next()
            args: tuple[Term, ...] = ()
            if self.peek().kind == "(":
                args = self.term_args()
            return CatchAll(tok.text, args, span=tok.span)
        if tok.kind == "var":
            self.next()
            self.expect(":")
            value = self.term()
            return MapEntry(tok.text, value, span=tok.span)
        self.fail(f"expected an association entry, found {tok.text or 'end of input'!r}")

    # -- declarations ----------------------------------------------------------

    def recover(self) -> None:
        """Skip past the next ``;`` after which a declaration can start: end
        of input, or a sort name followed by ``<`` or a keyword.

        A ``;`` inside a sort's ``<...>`` is therefore not a boundary, while
        an unclosed ``(`` swallows nothing past the next declaration.
        """
        while True:
            tok = self.next()
            if tok.kind == "eof":
                return
            if tok.kind != ";":
                continue
            head = self.peek()
            if head.kind == "eof":
                return
            after = self.tokens[self.pos + 1]  # the last token is eof, so there is one
            if head.kind in ("con", "var") and (after.kind == "<" or after.text in _KEYWORDS):
                return

    def declaration(self) -> Declaration:
        start = self.peek().span
        sort = self.sort()
        kw = self.peek()
        if kw.kind != "var" or kw.text not in _KEYWORDS:
            self.fail(
                f"expected 'data', 'scheme', 'variable', or 'rule', found {kw.text or 'end of input'!r}"
            )
        self.next()
        if kw.text == "variable":
            self.expect(";")
            return VariableDecl(sort, span=start)
        if kw.text == "rule":
            lhs = self.term()
            if self.peek().kind != "->":
                self.fail(f"expected '->', found {self.peek().text or 'end of input'!r}")
            self.next()
            rhs = self.term()
            self.expect(";")
            return RuleDecl(sort, lhs, rhs, span=start)
        name = self.expect("con", "a constructor name").text
        self.expect("(")
        forms = self.listed(self.form, ")")
        self.expect(";")
        cls = DataDecl if kw.text == "data" else SchemeDecl
        return cls(sort, name, tuple(forms), span=start)


def parse_script(text: str, file: str = "<input>") -> Script:
    """Parse a whole script.

    Raises ParseFailure carrying one ``parse`` Diagnostic per syntax
    violation, lexer and parser errors together in source order; after an
    error the parser recovers at the next declaration boundary (see
    ``_Parser.recover``).
    """
    tokens, errors = _lex(text, file)
    p = _Parser(tokens)
    decls: list[Declaration] = []
    while p.peek().kind != "eof":
        try:
            decls.append(p.declaration())
        except ParseFailure as exc:
            errors.extend(exc.errors)
            p.recover()
    if errors:
        errors.sort(key=lambda e: (e.span.start_line, e.span.start_col))
        raise ParseFailure(errors)
    return Script(tuple(decls))


def parse_term(text: str, file: str = "<term>") -> Term:
    """Parse a single term; the whole input must be consumed."""
    tokens, errors = _lex(text, file)
    if errors:
        raise ParseFailure(errors)
    p = _Parser(tokens)
    t = p.term()
    if p.peek().kind != "eof":
        p.fail(f"trailing input after term: {p.peek().text!r}")
    return t

"""Text to AST and back for plank scripts and terms.

Accepts both the Unicode spellings (``→``, ``⟨⟩``, ``¬``) and their ASCII
equivalents (``->``, ``<>``, ``~``).  Whitespace is insignificant and ``//``
starts a line comment.  Script files conventionally use the ``.plank``
extension and one declaration per ``;``.

The lexer builds no record per token.  It keeps each token's kind, text
and start offset in three parallel lists, and a table of the offsets at
which lines start.  Each node keeps a ``Pos``: its first token's offset
and the parse's one ``(file, line starts)`` pair.  The line and column are
found in that table only when a diagnostic or a reader asks.  A column is
the character offset from the start of the line plus one, so a tab or a
carriage return counts as one column.  A comment does not advance the
column: input that ends in a comment without a newline reports end of
input at the comment's first column.  Each distinct word becomes one
``Ident`` per call, and its token kind follows from its first character.
"""

from __future__ import annotations

import re
from typing import Callable

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
    Pos,
    RuleDecl,
    SchemeDecl,
    ScopeForm,
    ScopePiece,
    Script,
    Sort,
    SortCons,
    SortVar,
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

# The kind and text of each punctuation spelling; ``_lex`` adds each word it
# meets to a copy.
_PUNCT = {c: (k, c) for c, k in [*zip("()[]{},;:<>~⟨⟩¬", "()[]{},;:<>~<>~"),
                                 ("→", "->"), ("->", "->")]}

# A comment, or one token: an arrow, a word, or any other single character
# but a blank (punctuation, or a character no token starts with).
# ``finditer`` steps over the blanks and newlines between matches.
_TOKEN_RE = re.compile(r"//[^\n]*|->|[#A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")


def _lex(text: str) -> tuple[list[str], list[str], list[int], list[int]]:
    """The kinds, texts and start offsets of the tokens, the last one ``eof``;
    then the offsets of the characters no token accepts."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    bad: list[int] = []
    seen: dict[str, tuple[str, str]] = dict(_PUNCT)
    m = None
    for m in _TOKEN_RE.finditer(text):
        tok = m[0]
        hit = seen.get(tok)
        if hit is None:
            if tok.startswith("//"):
                continue
            first = tok[0]
            if first != "#" and not (first.isascii() and first.isalpha()):
                bad.append(m.start())
                continue
            kind = "meta" if first == "#" else "con" if first.isupper() else "var"
            hit = seen[tok] = (kind, Ident(tok))
        kinds.append(hit[0])
        texts.append(hit[1])
        starts.append(m.start())
    # A comment does not advance the column, so input that ends in one puts
    # end of input at the comment's first column.
    comment = m is not None and m.end() == len(text) and m[0].startswith("//")
    kinds.append("eof")
    texts.append("")
    starts.append(m.start() if comment else len(text))
    return kinds, texts, starts, bad


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = ("data", "scheme", "variable", "rule")


class _Parser:
    """One text's tokens and the index ``pos`` of the next one, which never
    passes ``eof``.  Token ``i`` has kind ``kinds[i]``, text ``texts[i]`` (an
    ``Ident`` for a word, ``""`` for ``eof``) and starts at offset
    ``starts[i]``; ``source`` pairs the file name with the offsets at which
    its lines start, for every ``Pos`` of the parse.  A node's ``Pos`` is
    made with ``tuple.__new__``, which runs no Python frame."""

    def __init__(self, text: str, file: str):
        self.kinds, self.texts, self.starts, bad = _lex(text)
        self.source = (file, (0, *[m.end() for m in re.finditer("\n", text)]))
        self.pos = 0
        self.errors = [Diagnostic("parse", Pos(o, self.source).resolve(),
                                  f"unexpected character {text[o]!r}") for o in bad]

    def fail(self, message: str, i: int | None = None):
        """Raise a ``parse`` diagnostic at token ``i``, by default the next one."""
        at = Pos(self.starts[self.pos if i is None else i], self.source)
        raise ParseFailure([Diagnostic("parse", at.resolve(), message)])

    def expected(self, what: str):
        self.fail(f"expected {what}, found {self.texts[self.pos] or 'end of input'!r}")

    def expect(self, kind: str, what: str | None = None) -> int:
        """The index of the next token, which must be of ``kind``; ``what``
        names it in the error, by default the quoted punctuation ``kind``."""
        i = self.pos
        if self.kinds[i] != kind:
            self.expected(what or repr(kind))
        self.pos = i + 1
        return i

    def listed(self, item: Callable[[], object], close: str, seps: tuple[str, ...] = (",",)
               ) -> list:
        """Zero or more ``item``s separated by any of ``seps``, then ``close``."""
        items = []
        kinds = self.kinds
        if kinds[self.pos] != close:
            items.append(item())
            while kinds[self.pos] in seps:
                self.pos += 1
                items.append(item())
        self.expect(close)
        return items

    # -- sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        i = self.pos
        kinds = self.kinds
        if kinds[i] == "var":
            self.pos = i + 1
            return SortVar(self.texts[i], span=tuple.__new__(Pos, (self.starts[i], self.source)))
        if kinds[i] != "con":
            self.expected("a sort")
        self.pos = i + 1
        args: tuple[Sort, ...] = ()
        if kinds[i + 1] == "<":
            self.pos = i + 2
            items = [self.sort()]
            while kinds[self.pos] == ",":
                self.pos += 1
                items.append(self.sort())
            self.expect(">")
            args = tuple(items)
        return SortCons(self.texts[i], args, span=tuple.__new__(Pos, (self.starts[i], self.source)))

    def form(self) -> Form:
        i = self.pos
        kind = self.kinds[i]
        if kind == "[":
            self.pos = i + 1
            binders = self.listed(self.sort, "]")
            return ScopeForm(tuple(binders), self.sort(),
                             span=tuple.__new__(Pos, (self.starts[i], self.source)))
        if kind == "{":
            self.pos = i + 1
            key = self.sort()
            self.expect(":")
            value = self.sort()
            self.expect("}")
            return AssocForm(key, value, span=tuple.__new__(Pos, (self.starts[i], self.source)))
        body = self.sort()
        return ScopeForm((), body, span=body.span)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        i = self.pos
        kinds = self.kinds
        kind = kinds[i]
        if kind == "var":
            self.pos = i + 1
            return Var(self.texts[i], span=tuple.__new__(Pos, (self.starts[i], self.source)))
        if kind != "con" and kind != "meta":
            self.expected("a term")
        self.pos = i + 1
        items: list = []
        if kinds[i + 1] == "(":
            self.pos = i + 2
            items = self.listed(self.piece if kind == "con" else self.term, ")")
        cls = Construction if kind == "con" else MetaApp
        return cls(self.texts[i], tuple(items),
                   span=tuple.__new__(Pos, (self.starts[i], self.source)))

    def piece(self) -> Piece:
        i = self.pos
        kind = self.kinds[i]
        if kind == "[":
            self.pos = i + 1
            binders = self.listed(lambda: self.texts[self.expect("var", "a binder variable")],
                                  "]")
            if len(set(binders)) != len(binders):
                self.fail("binders in one scope must be pairwise distinct", i)
            return ScopePiece(tuple(binders), self.term(),
                              span=tuple.__new__(Pos, (self.starts[i], self.source)))
        if kind == "{":
            self.pos = i + 1
            entries = self.listed(self.association, "}", (",", ";"))
            return AssocPiece(tuple(entries),
                              span=tuple.__new__(Pos, (self.starts[i], self.source)))
        body = self.term()
        return ScopePiece((), body, span=body.span)

    def association(self) -> Association:
        i = self.pos
        kind = self.kinds[i]
        if kind == "~":
            self.pos = i + 1
            key = self.expect("var", "a key variable")
            self.expect(":")
            return NotKey(self.texts[key], span=tuple.__new__(Pos, (self.starts[i], self.source)))
        if kind == "meta":
            meta = self.term()
            return CatchAll(meta.meta, meta.args, span=meta.span)
        if kind == "var":
            self.pos = i + 1
            self.expect(":")
            return MapEntry(self.texts[i], self.term(),
                            span=tuple.__new__(Pos, (self.starts[i], self.source)))
        self.expected("an association entry")

    # -- declarations ----------------------------------------------------------

    def recover(self) -> None:
        """Skip past the next ``;`` after which a declaration can start: end
        of input, or a sort name followed by ``<`` or a keyword.

        A ``;`` inside a sort's ``<...>`` is therefore not a boundary, while
        an unclosed ``(`` swallows nothing past the next declaration.
        """
        kinds, texts, i = self.kinds, self.texts, self.pos
        while kinds[i] != "eof":
            i += 1
            if kinds[i - 1] == ";" and kinds[i] in ("con", "var") and (
                    kinds[i + 1] == "<" or texts[i + 1] in _KEYWORDS):
                break
        self.pos = i

    def declaration(self) -> Declaration:
        sort = self.sort()
        i = self.pos
        kw = self.texts[i]
        if self.kinds[i] != "var" or kw not in _KEYWORDS:
            self.expected("'data', 'scheme', 'variable', or 'rule'")
        self.pos = i + 1
        if kw == "variable":
            self.expect(";")
            return VariableDecl(sort, span=sort.span)
        if kw == "rule":
            lhs = self.term()
            self.expect("->")
            rhs = self.term()
            self.expect(";")
            return RuleDecl(sort, lhs, rhs, span=sort.span)
        name = self.texts[self.expect("con", "a constructor name")]
        self.expect("(")
        forms = self.listed(self.form, ")")
        self.expect(";")
        cls = DataDecl if kw == "data" else SchemeDecl
        return cls(sort, name, tuple(forms), span=sort.span)


def parse_script(text: str, file: str = "<input>") -> Script:
    """Parse a whole script.

    Raises ParseFailure carrying one ``parse`` Diagnostic per syntax
    violation, lexer and parser errors together in source order; after an
    error the parser recovers at the next declaration boundary (see
    ``_Parser.recover``).
    """
    p = _Parser(text, file)
    errors = p.errors
    decls: list[Declaration] = []
    while p.kinds[p.pos] != "eof":
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
    p = _Parser(text, file)
    if p.errors:
        raise ParseFailure(p.errors)
    t = p.term()
    if p.kinds[p.pos] != "eof":
        p.fail(f"trailing input after term: {p.texts[p.pos]!r}")
    return t

"""Text to AST and back for plank scripts and terms.

Accepts both the Unicode spellings (``→``, ``⟨⟩``, ``¬``) and their ASCII
equivalents (``->``, ``<>``, ``~``).  Whitespace is insignificant and ``//``
starts a line comment.  Script files conventionally use the ``.plank``
extension and one declaration per ``;``.

The lexer runs no Python code per token: one ``findall`` gives the token
strings, each distinct one is classified once, and ``map`` looks up the
kinds and texts, two parallel lists.  A node's position is a token index,
its first token's, which the parse's one ``_Source`` resolves, as Go's
``go/token`` resolves a ``Pos`` through its ``FileSet``: each node keeps
the bare ``int`` and the shared source.  The first position resolved
finds the tokens' offsets and the lines' starts, by a second pass that
reads what the lexer dropped.  A column is the character offset from the
start of the line plus one, so a tab or a carriage return counts as one
column.  A comment does not advance the column: input that ends in a
comment without a newline reports end of input at the comment's first
column.  Each distinct word becomes one ``Ident`` per call, and its token
kind follows from its first character.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from functools import cached_property

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

# The kind of each punctuation spelling, whose text is itself; ``_lex`` adds
# each word it meets to a copy.
_KIND = dict([*zip("()[]{},;:<>~⟨⟩¬", "()[]{},;:<>~<>~"), ("→", "->"), ("->", "->")])

# A comment, or one token: an arrow, a word, or any other single character
# but a blank (punctuation, or a character no token starts with).
# ``findall`` steps over the blanks and newlines between matches.
_TOKEN_RE = re.compile(r"//[^\n]*|->|[#A-Za-z][A-Za-z0-9_]*|[^ \t\r\n]")


def _lex(text: str) -> tuple[list[str], list[str], dict[str, str | None]]:
    """The kinds and texts of the tokens, the last one ``eof``, and the
    spellings that make no token: a comment, mapped to ``""``, and a
    character no token accepts, to None.  No Python code runs per token,
    only per distinct one."""
    toks = _TOKEN_RE.findall(text)
    kind, texts, dropped = dict(_KIND), dict(zip(_KIND, _KIND)), {}
    for w in set(toks).difference(kind):
        first = w[0]
        if w.startswith("//"):
            dropped[w] = ""
        elif first != "#" and not (first.isascii() and first.isalpha()):
            dropped[w] = None
        else:
            kind[w] = "meta" if first == "#" else "con" if first.isupper() else "var"
            texts[w] = Ident(w)
    if dropped:
        toks = list(filter(kind.__contains__, toks))
    return [*map(kind.__getitem__, toks), "eof"], [*map(texts.__getitem__, toks), ""], dropped


def _offsets(text: str, dropped: dict) -> tuple[list[int], list[int], tuple[int, ...]]:
    """With ``_lex``'s ``dropped`` spellings, the start offsets of the tokens,
    ``eof`` last; of the characters no token accepts; and of the lines."""
    starts, bad = [], []
    m = None
    for m in _TOKEN_RE.finditer(text):
        if m[0] not in dropped:
            starts.append(m.start())
        elif dropped[m[0]] is None:
            bad.append(m.start())
    # A comment does not advance the column, so input that ends in one puts
    # end of input at the comment's first column.
    starts.append(m.start() if m is not None and m.end() == len(text) and dropped.get(m[0]) == ""
                  else len(text))
    return starts, bad, (0, *[m.end() for m in re.finditer("\n", text)])


class _Source:
    """One parse's file and text, which each node of the parse shares; it
    resolves a node's token index to a ``Span``, as a ``go/token``
    ``FileSet`` resolves a ``Pos``.  The tokens' offsets and the lines'
    starts are found once, when the first position is resolved."""

    def __init__(self, file: str, text: str, dropped: dict[str, str | None]):
        self.file, self.text, self.dropped = file, text, dropped

    @cached_property
    def offsets(self) -> tuple[list[int], list[int], tuple[int, ...]]:
        return _offsets(self.text, self.dropped)

    def resolve(self, token: int) -> Span:
        """Where token ``token`` starts."""
        return self.at(self.offsets[0][token])

    def at(self, offset: int) -> Span:
        """Where the character at ``offset`` is."""
        lines = self.offsets[2]
        line = bisect_right(lines, offset)
        return Span(self.file, line, offset - lines[line - 1] + 1)


# ---------------------------------------------------------------------------
# Parser

_KEYWORDS = ("data", "scheme", "variable", "rule")


class _Parser:
    """One text's tokens and the index ``pos`` of the next one, which never
    passes ``eof``.  Token ``i`` has kind ``kinds[i]`` and text
    ``texts[i]`` (an ``Ident`` for a word, ``""`` for ``eof``).  A node's
    position is its first token's index, passed with the parse's one
    ``source``, which resolves it when it is read, as a ``go/token``
    ``FileSet`` resolves a ``Pos``."""

    def __init__(self, text: str, file: str):
        self.kinds, self.texts, dropped = _lex(text)
        self.source = source = _Source(file, text, dropped)
        self.pos = 0
        self.errors = [] if None not in dropped.values() else [
            Diagnostic("parse", source.at(o), f"unexpected character {text[o]!r}")
            for o in source.offsets[1]]

    def fail(self, message: str, i: int | None = None):
        """Raise a ``parse`` diagnostic at token ``i``, by default the next one."""
        at = self.source.resolve(self.pos if i is None else i)
        raise ParseFailure([Diagnostic("parse", at, message)])

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
        i = self.pos
        if kinds[i] != close:
            self.expected(repr(close))
        self.pos = i + 1
        return items

    # -- sorts ---------------------------------------------------------------

    def sort(self) -> Sort:
        i = self.pos
        kinds = self.kinds
        if kinds[i] == "var":
            self.pos = i + 1
            return SortVar(self.texts[i], i, self.source)
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
        return SortCons(self.texts[i], args, i, self.source)

    def form(self) -> Form:
        i = self.pos
        kind = self.kinds[i]
        if kind == "[":
            self.pos = i + 1
            binders = self.listed(self.sort, "]")
            return ScopeForm(tuple(binders), self.sort(), i, self.source)
        if kind == "{":
            self.pos = i + 1
            key = self.sort()
            self.expect(":")
            value = self.sort()
            self.expect("}")
            return AssocForm(key, value, i, self.source)
        body = self.sort()
        return ScopeForm((), body, body.span, body.source)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        i = self.pos
        kinds = self.kinds
        kind = kinds[i]
        if kind == "var":
            self.pos = i + 1
            return Var(self.texts[i], i, self.source)
        if kind != "con" and kind != "meta":
            self.expected("a term")
        self.pos = i + 1
        items: list = []
        if kinds[i + 1] == "(":
            self.pos = i + 2
            items = self.listed(self.piece if kind == "con" else self.term, ")")
        cls = Construction if kind == "con" else MetaApp
        return cls(self.texts[i], tuple(items), i, self.source)

    def piece(self) -> Piece:
        i = self.pos
        kind = self.kinds[i]
        if kind == "[":
            self.pos = i + 1
            binders = self.listed(lambda: self.texts[self.expect("var", "a binder variable")],
                                  "]")
            if len(set(binders)) != len(binders):
                self.fail("binders in one scope must be pairwise distinct", i)
            return ScopePiece(tuple(binders), self.term(), i, self.source)
        if kind == "{":
            self.pos = i + 1
            entries = self.listed(self.association, "}", (",", ";"))
            return AssocPiece(tuple(entries), i, self.source)
        body = self.term()
        return ScopePiece((), body, body.span, body.source)

    def association(self) -> Association:
        i = self.pos
        kind = self.kinds[i]
        if kind == "~":
            self.pos = i + 1
            key = self.expect("var", "a key variable")
            self.expect(":")
            return NotKey(self.texts[key], i, self.source)
        if kind == "meta":
            meta = self.term()
            return CatchAll(meta.meta, meta.args, meta.span, meta.source)
        if kind == "var":
            self.pos = i + 1
            self.expect(":")
            return MapEntry(self.texts[i], self.term(), i, self.source)
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
            return VariableDecl(sort, sort.span, sort.source)
        if kw == "rule":
            lhs = self.term()
            self.expect("->")
            rhs = self.term()
            self.expect(";")
            return RuleDecl(sort, lhs, rhs, sort.span, sort.source)
        name = self.texts[self.expect("con", "a constructor name")]
        self.expect("(")
        forms = self.listed(self.form, ")")
        self.expect(";")
        cls = DataDecl if kw == "data" else SchemeDecl
        return cls(sort, name, tuple(forms), sort.span, sort.source)


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

"""Abstract syntax for plank scripts and terms, plus binding-aware helpers.

A term is either a construction ``c(P1, ..., Pn)`` whose pieces may bind
variables or carry association lists, a variable occurrence ``v``, or a
meta-application ``#m(T1, ..., Tn)``.  Identifiers fall into three lexical
categories: constructors start with an uppercase letter, variables with a
lowercase letter, and meta-variables with ``#``.

Every name is an exact ``str``.  ``Ident`` checks outside text and returns
it unchanged; the lexer's word pattern accepts exactly the spellings it
checks, and ``fresh_var`` only appends digits to a checked hint, so
neither checks again.  Names key every dict and set of the checker and the
engine, and in CPython 3.11 only exact-``str`` keys get the compact keys
table whose lookups skip rich comparison, and only exact strings are
compact objects (a ``str`` subclass instance keeps its characters in a
second block: 102 B against 54 B for a five-letter name).  Such a table
has one trap.  Freed tables of the minimum size go to a free list of 80,
which a full collection empties, and a table made by copying a non-empty
dict never takes one from it: ``dict(d)`` copies ``d``, and ``d | e``
copies ``d`` and, when ``d`` is empty, ``e`` too.  So a copy per binder
scope leaves the list full of tables that no dict uses but that the traced
peak counts.  Where a walk enters a scope on the bench's paths
(``checker._Check.piece``, ``rewrite._inst``) it copies the outer scope,
which is often empty, and then adds the binders with ``update``;
``rewrite.contract`` uses the valuation's own dict unless it must draw a
name.

AST nodes, like the package's other records (``_Record``), are slotted
classes whose ``__init__`` stores each field once.  They are immutable
after construction and safe to share, by rule and not by the runtime: a
lint in the tests rejects every store to a field of a built record.
Equality, hashing and ``repr`` read a class's ``_fields``: records of one
class are equal when those are, the hash is that of their tuple, and the
``repr`` is ``Class(field=value, ...)``.  ``SortCons`` alone spells out
its comparison of ``name`` and ``args``, because checking compares sorts
at every construction; its hash stays ``_Record``'s.  A parsed node's
position is two slots, the last two ``__init__`` arguments: ``span``, its
first token's index within a block of 256 tokens, an ``int`` from 0 to 255
that CPython caches, and ``source``, that block, a ``_Block`` of the parser
whose one ``_Source`` resolves the index to a line and column only when
read, as Go's ``go/token`` resolves a ``Pos`` through its ``FileSet``.  A
node's position is none of its fields, so it takes no part in equality,
hashing or ``repr``; a node the engine builds has neither.
``Diagnostic``, the one diagnostic type of the parser, the environment
builder and the checker, holds a resolved ``Span``, a ``namedtuple``: the
runtime rejects a store to its fields, which a ``_Record`` could do only by
a ``__setattr__`` guard that slows every store.  Aliases such as ``Term``
are ``X | Y`` unions, and no module imports ``typing``.

``free_vars`` and ``non_assoc_vars`` share one traversal, ``_names``, that
collects names by the role they play in a term: ``VAR`` for a variable
occurrence, ``KEY`` for the key of a map or absence entry, and ``META``
for a meta-application or catch-all; ``env``'s rule sort walk collects
them as it goes and calls ``_names`` only on what it skips.
``all_idents`` is the engine's name query, asked whenever a fresh name
must avoid every name of a term.  Each construction and meta-application
keeps its answer, so a query walks only the nodes that no earlier query
reached: on a term that shares its subterms, the nodes a rewrite step
built.  The sets one query builds from a node's own names (its binders,
keys and variable children) are hash-consed (Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006): a frozenset takes at least 216 B,
three times a construction, and equal subterms, such as the identity chain's
81 copies of ``Lam([y]y)``, would each keep a copy.  The memo lives for that
query only, so no table outlives it.  ``alpha_equal`` compares nameless
forms (de Bruijn levels), in which an association list reads as the matcher
and contraction read it: each run of plain entries between absence entries
and catch-alls is a map, in which a later entry overrides an earlier one
with the same key.

A plain argument is a ``ScopePiece`` with no binders.  Every walk, here
and in the other modules, passes its scope through one unchanged: it
copies or extends a scope only for a piece that binds.

Every walk here, ``render`` included, is a plain function that takes its
state as arguments, so no call builds a reference cycle and all it leaves
behind is freed by reference counting.  Each walk dispatches once on a
node's exact class (``cls is C``; node classes are final: a test checks
that none is subclassed) and calls itself on the children in a loop: in
CPython 3.11 a call from ``map`` or ``str.join`` re-enters the interpreter,
which is slower and takes a second recursion level.  ``rewrite._subst``
still ``map``s a meta-application's arguments and a list's entries.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat
from operator import attrgetter


_SPELLING = re.compile(r"[A-Za-z][A-Za-z0-9_]*|#[A-Za-z0-9_]*")


class Ident(str):
    """An identifier: a letter, or ``#`` for a meta-variable, then letters,
    digits and underscores.  ``Ident(text)`` checks outside text and
    returns it as an exact ``str``, so no instance of this class exists (see
    the module docstring); a malformed spelling raises ValueError.  The
    class names the type of a name in annotations."""

    def __new__(cls, text: str) -> str:
        if not _SPELLING.fullmatch(text):
            raise ValueError(f"not a valid identifier: {text!r}")
        return str(text)


class Span(namedtuple("Span", ("file", "start_line", "start_col"))):
    """Where a node starts in its source; line and column are 1-based."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class _Record:
    """Base of the records (see the module docstring).  ``_fields`` names a
    class's fields in order, and ``_key``, made once per class, reads them
    in one C call.  ``GlobalEnv`` and ``RuleEnv``, which their builders fill
    in after ``__init__``, and the results ``ScriptCheck``, ``Valuation`` and
    ``NormalizeResult`` set ``__hash__`` to None; no module stores to a
    field of any other record."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" in cls.__dict__:
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(map(getattr, repeat(self), self._fields)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Diagnostic(_Record):
    """``FILE:LINE:COL: error[RULE]: MESSAGE``; ``rule`` names the violated
    sorting rule (``SA-Map``), environment condition or ``parse``."""

    __slots__ = _fields = ("rule", "span", "message")

    def __init__(self, rule: str, span: Span | None, message: str):
        self.rule = rule
        self.span = span
        self.message = message

    def format(self, default_file: str = "<input>") -> str:
        where = str(self.span) if self.span else f"{default_file}:1:1"
        return f"{where}: error[{self.rule}]: {self.message}"


def _err(rule: str, node: "Node", message: str) -> Diagnostic:
    """A diagnostic at the start of a node: its token index within its
    block, resolved now through that block, as ``go/token`` resolves a
    ``Pos`` through its ``FileSet``."""
    span = node.span
    return Diagnostic(rule, None if span is None else node.source.resolve(span), message)


class _Node(_Record):
    """Base of the AST node classes; ``str`` renders a node.  A parsed
    node's ``span`` is its first token's index within a block of 256 and its
    ``source`` that ``_Block``, which resolves it; neither is a field."""

    __slots__ = ("span", "source")

    def __str__(self) -> str:
        return render(self)


# ---------------------------------------------------------------------------
# Sorts and argument forms


class SortCons(_Node):
    """An applied sort constructor ``s<S1, ..., Sn>``; ``s<>`` prints as ``s``."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: Ident, args: tuple[Sort, ...] = (), span: int | None = None,
                 source: _Block | None = None):
        self.name = name
        self.args = args
        self.span = span
        self.source = source

    def __eq__(self, other: object) -> bool:
        if other.__class__ is SortCons:
            return self.name == other.name and self.args == other.args
        return NotImplemented

    __hash__ = _Record.__hash__


class SortVar(_Node):
    """A sort variable, written with a lowercase name."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: Ident, span: int | None = None, source: _Block | None = None):
        self.name = name
        self.span = span
        self.source = source


Sort = SortCons | SortVar


class ScopeForm(_Node):
    """Argument form ``[S1, ..., Sn]S``; a plain argument has no binder sorts."""

    __slots__ = _fields = ("binder_sorts", "body_sort")

    def __init__(self, binder_sorts: tuple[Sort, ...], body_sort: Sort, span: int | None = None,
                 source: _Block | None = None):
        self.binder_sorts = binder_sorts
        self.body_sort = body_sort
        self.span = span
        self.source = source


class AssocForm(_Node):
    """Argument form ``{S:S'}`` for association-list arguments."""

    __slots__ = _fields = ("key_sort", "value_sort")

    def __init__(self, key_sort: Sort, value_sort: Sort, span: int | None = None,
                 source: _Block | None = None):
        self.key_sort = key_sort
        self.value_sort = value_sort
        self.span = span
        self.source = source


Form = ScopeForm | AssocForm


# ---------------------------------------------------------------------------
# Terms, pieces, associations


class Construction(_Node):
    """``c(P1, ..., Pn)``.  Arity against the declared forms is the checker's job."""

    _fields = ("head", "args")
    __slots__ = _fields + ("_idents",)

    def __init__(self, head: Ident, args: tuple[Piece, ...] = (), span: int | None = None,
                 source: _Block | None = None):
        self.head = head
        self.args = args
        self.span = span
        self.source = source
        self._idents = None


class Var(_Node):
    __slots__ = _fields = ("name",)

    def __init__(self, name: Ident, span: int | None = None, source: _Block | None = None):
        self.name = name
        self.span = span
        self.source = source


class MetaApp(_Node):
    """``#m(T1, ..., Tn)``; a bare ``#m`` is the zero-argument application."""

    _fields = ("meta", "args")
    __slots__ = _fields + ("_idents",)

    def __init__(self, meta: Ident, args: tuple[Term, ...] = (), span: int | None = None,
                 source: _Block | None = None):
        self.meta = meta
        self.args = args
        self.span = span
        self.source = source
        self._idents = None


Term = Construction | Var | MetaApp


class ScopePiece(_Node):
    """``[v1, ..., vn]T``; binders are pairwise distinct and scope over the body."""

    __slots__ = _fields = ("binders", "body")

    def __init__(self, binders: tuple[Ident, ...], body: Term, span: int | None = None,
                 source: _Block | None = None):
        self.binders = binders
        self.body = body
        self.span = span
        self.source = source


class AssocPiece(_Node):
    """``{A1, ..., An}``: an ordered association list."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[Association, ...], span: int | None = None,
                 source: _Block | None = None):
        self.entries = entries
        self.span = span
        self.source = source


Piece = ScopePiece | AssocPiece


class MapEntry(_Node):
    """``v : T`` maps a variable key to a term."""

    __slots__ = _fields = ("key", "value")

    def __init__(self, key: Ident, value: Term, span: int | None = None,
                 source: _Block | None = None):
        self.key = key
        self.value = value
        self.span = span
        self.source = source


class NotKey(_Node):
    """``~v:`` asserts the key is absent; only meaningful in patterns."""

    __slots__ = _fields = ("key",)

    def __init__(self, key: Ident, span: int | None = None, source: _Block | None = None):
        self.key = key
        self.span = span
        self.source = source


class CatchAll(_Node):
    """``#m(...)`` inside an association list: the remainder of the map."""

    __slots__ = _fields = ("meta", "args")

    def __init__(self, meta: Ident, args: tuple[Term, ...] = (), span: int | None = None,
                 source: _Block | None = None):
        self.meta = meta
        self.args = args
        self.span = span
        self.source = source


Association = MapEntry | NotKey | CatchAll


# ---------------------------------------------------------------------------
# Declarations and scripts


class DataDecl(_Node):
    __slots__ = _fields = ("sort", "name", "forms")

    def __init__(self, sort: Sort, name: Ident, forms: tuple[Form, ...], span: int | None = None,
                 source: _Block | None = None):
        self.sort = sort
        self.name = name
        self.forms = forms
        self.span = span
        self.source = source


class SchemeDecl(_Node):
    __slots__ = _fields = ("sort", "name", "forms")

    def __init__(self, sort: Sort, name: Ident, forms: tuple[Form, ...], span: int | None = None,
                 source: _Block | None = None):
        self.sort = sort
        self.name = name
        self.forms = forms
        self.span = span
        self.source = source


class VariableDecl(_Node):
    __slots__ = _fields = ("sort",)

    def __init__(self, sort: Sort, span: int | None = None, source: _Block | None = None):
        self.sort = sort
        self.span = span
        self.source = source


class RuleDecl(_Node):
    __slots__ = _fields = ("sort", "lhs", "rhs")

    def __init__(self, sort: Sort, lhs: Term, rhs: Term, span: int | None = None,
                 source: _Block | None = None):
        self.sort = sort
        self.lhs = lhs
        self.rhs = rhs
        self.span = span
        self.source = source


Declaration = DataDecl | SchemeDecl | VariableDecl | RuleDecl


class Script(_Node):
    __slots__ = _fields = ("declarations",)

    def __init__(self, declarations: tuple[Declaration, ...] = (), span: int | None = None,
                 source: _Block | None = None):
        self.declarations = declarations
        self.span = span
        self.source = source

    @property
    def rules(self) -> tuple[RuleDecl, ...]:
        return tuple(d for d in self.declarations if d.__class__ is RuleDecl)


Node = Script | Declaration | Term | Piece | Association | Sort | Form


# ---------------------------------------------------------------------------
# Rendering

_ASCII = {"->": "->", "<": "<", ">": ">", "~": "~"}
_UNI = {"->": "→", "<": "⟨", ">": "⟩", "~": "¬"}


def render(node: Node, *, unicode: bool = False) -> str:
    """Render a node to its canonical text.

    The default spelling is pure ASCII (``->``, ``<``/``>``, ``~``); with
    ``unicode=True`` the arrow, angle-bracket, and negation glyphs are used.
    Parsing the result yields a term alpha-equal to the input.
    """
    _render_into(node, out := [""], _UNI if unicode else _ASCII)
    return "".join(out)


def _render_into(n: Node, out: list[str], tok: dict[str, str]) -> None:
    # Appends ``n``'s text to ``out`` (never empty), pieces and entries in their
    # parent's frame; ``close`` replaces the last ``sep`` or ends the last piece.
    cls = n.__class__
    if cls is Var or cls is SortVar:
        out.append(n.name)
        return
    if cls is Construction:
        out += n.head, "("
        kids, sep, close = n.args, ", ", ")"
    elif cls is AssocPiece:
        out.append("{")
        kids, sep, close = n.entries, ", ", "}"
    elif cls is MetaApp or cls is CatchAll or cls is SortCons:
        head, bra, ket = (n.name, tok["<"], tok[">"]) if cls is SortCons else (n.meta, "(", ")")
        out += (head, bra) if n.args else (head,)
        kids, sep, close = n.args, ", ", ket if n.args else ""
    elif cls is ScopePiece or cls is MapEntry:
        kids, sep, close = (n,), "", ""
    elif cls is NotKey:
        kids, sep, close = (), "", tok["~"] + n.key + ":"
    elif cls is ScopeForm:
        for i, s in enumerate(n.binder_sorts):
            out.append(", " if i else "[")
            _render_into(s, out, tok)
        out.append("]" if n.binder_sorts else "")
        kids, sep, close = (n.body_sort,), "", ""
    elif cls is AssocForm:
        out.append("{")
        kids, sep, close = (n.key_sort, n.value_sort), ":", "}"
    elif cls is DataDecl or cls is SchemeDecl:
        _render_into(n.sort, out, tok)
        out += " data " if cls is DataDecl else " scheme ", n.name, "("
        kids, sep, close = n.forms, ", ", ");"
    elif cls is VariableDecl:
        kids, sep, close = (n.sort,), "", " variable;"
    elif cls is RuleDecl:
        _render_into(n.sort, out, tok)
        out.append(" rule ")
        kids, sep, close = (n.lhs, n.rhs), f" {tok['->']} ", ";"
    elif cls is Script:
        kids, sep, close = n.declarations, "\n", ""
    else:
        raise TypeError(f"cannot render {cls.__name__}")
    for k in kids:
        if k.__class__ is ScopePiece:
            if k.binders:
                out += "[", ", ".join(k.binders), "]"
            k = k.body
        elif k.__class__ is MapEntry:
            out += k.key, " : "
            k = k.value
        _render_into(k, out, tok)
        out.append(sep)
    out[-1] = close if kids else out[-1] + close


# ---------------------------------------------------------------------------
# Binding-aware utilities


# Roles a name can play in a term, for ``_names``.
VAR, KEY, META = 1, 2, 4


def _names(x: Term | CatchAll | AssocPiece, roles: int, assoc: bool,
           bound: frozenset[Ident], out: set[Ident]) -> set[Ident]:
    """Add to ``out`` the names playing any of ``roles`` in ``x``; return ``out``.

    A variable or key inside the scope of a binder of the same name, or in
    ``bound``, is left out; without ``assoc`` association lists are skipped
    whole.
    """
    cls = x.__class__
    if cls is Var:
        if roles & VAR and x.name not in bound:
            out.add(x.name)
        return out
    if cls is MetaApp or cls is CatchAll:
        if roles & META:
            out.add(x.meta)
        for a in x.args:
            _names(a, roles, assoc, bound, out)
        return out
    for p in x.args if cls is Construction else (x,):
        if p.__class__ is ScopePiece:
            _names(p.body, roles, assoc, bound | set(p.binders) if p.binders else bound, out)
        elif assoc:
            for e in p.entries:
                if e.__class__ is CatchAll:
                    _names(e, roles, assoc, bound, out)
                elif roles & KEY and e.key not in bound:
                    out.add(e.key)
                if e.__class__ is MapEntry:
                    _names(e.value, roles, assoc, bound, out)
    return out


def free_vars(t: Term | AssocPiece) -> set[Ident]:
    """Variables and keys of ``t``, a term or a catch-all's captured list,
    outside the scope of a binder of their name."""
    return _names(t, VAR | KEY, True, frozenset(), set())


def non_assoc_vars(t: Term) -> set[Ident]:
    """Free variables of ``t`` that occur outside association lists.

    Binder positions and bound occurrences do not count, so the result
    does not depend on binder names.
    """
    return _names(t, VAR, False, frozenset(), set())


def all_idents(t: Term) -> frozenset[Ident]:
    """Every variable name occurring anywhere in ``t`` (binders, keys, bodies).

    The set is built once per construction or meta-application, from its
    children's sets, and kept on that object; equal sets that one query
    builds are one object (see ``_idents``).
    """
    return _idents(t, {})


def _idents(t: Term, memo: dict[frozenset[Ident], frozenset[Ident]]) -> frozenset[Ident]:
    # The set lives in the term's ``_idents`` field, which equality, hashing,
    # ``repr`` and rendering never read; terms are immutable, so it never goes
    # stale.  One plain slot store keeps it; ``__init__`` sets it to None, as an
    # unset slot would raise and clear an AttributeError on every first query.
    # A ``Var`` keeps nothing.  The recursion stays here, not in ``all_idents``,
    # so one query is one call of it.  One pass over the pieces, inline, merges
    # each child's set as it meets the child, so it takes one frame per term
    # level and builds no list of children; a child's set is reused when it
    # holds every name met so far.  The set a node builds from its loose names
    # (binders, keys, variable children) is hash-consed through ``memo``, the
    # query's own ``{set: set}`` table: the node keeps the first equal set the
    # query built, as a frozenset costs 216 B or more.  A reused child's set
    # is kept already, and a union of two children's sets is rare enough on
    # the bench that looking it up costs more than it saves.  A catch-all's
    # arguments, met only in rules, are merged plainly.
    if t.__class__ is Var:
        return frozenset((t.name,))
    names = t._idents
    if names is not None:
        return names
    loose: list[Ident] = []
    names = frozenset()
    for k in t.args:
        if k.__class__ is ScopePiece:
            if k.binders:
                loose.extend(k.binders)
            k = k.body
        elif k.__class__ is AssocPiece:
            for e in k.entries:
                if e.__class__ is CatchAll:
                    for a in e.args:
                        names = names | _idents(a, memo)
                    continue
                loose.append(e.key)
                if e.__class__ is MapEntry:
                    v = e.value
                    if v.__class__ is Var:
                        loose.append(v.name)
                        continue
                    s = _idents(v, memo)
                    if len(s) > len(names):
                        names, s = s, names
                    if not s <= names:
                        names = names | s
            continue
        if k.__class__ is Var:
            loose.append(k.name)
            continue
        s = _idents(k, memo)
        if len(s) > len(names):
            names, s = s, names
        if not s <= names:
            names = names | s
    if not names.issuperset(loose):
        names = names.union(loose)
        names = memo.setdefault(names, names)
    t._idents = names
    return names


def fresh_var(hint: Ident, avoid: Iterable[Ident]) -> Ident:
    """A variable name not in ``avoid``: ``hint`` itself when available,
    otherwise ``hint`` suffixed with the smallest positive integer.  A
    suffix of digits keeps a checked ``hint`` well spelled, so the name
    is returned as an exact ``str`` without a second check."""
    taken = avoid if isinstance(avoid, (set, frozenset)) else set(avoid)
    if hint not in taken:
        return hint
    i = 1
    while f"{hint}{i}" in taken:
        i += 1
    return f"{hint}{i}"


def alpha_equal(a: Term | AssocPiece, b: Term | AssocPiece) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    Free variables and meta-variables compare by name.  Absence entries and
    catch-alls compare in order; each run of plain entries around them is a
    map, a later entry overriding an earlier one, as the matcher reads a
    subject list and contraction merges a right side's.  A pattern naming a
    key twice needs both entries to match, so there ``alpha_equal`` is
    coarser than matching; the engine compares only subject fragments.
    """
    return _nameless(a, {}, 0) == _nameless(b, {}, 0)


def _nameless(x: Node, levels: dict[Ident, int], depth: int):
    """``x``'s de Bruijn-level form, under the ``depth`` binders ``levels`` maps
    to their levels: a bound name is its binder's level, an ``int``, which no
    free name equals; a scope piece is ``(arity, body)``; a list is its absence
    entries and catch-alls in order, between dicts of the plain entries' runs.
    A construction walks its scope pieces inline and adds each one's arity and
    body straight to its own form, so the form nests one container per term
    level, as deep as ``==`` then compares it: an ``int`` is always followed
    by one body, and a list piece's form is a list that starts with a dict."""
    cls = x.__class__
    if cls is Var:
        return levels.get(x.name, x.name)
    if cls is ScopePiece:
        if x.binders:
            levels = levels | dict(zip(x.binders, range(depth, depth + len(x.binders))))
        return len(x.binders), _nameless(x.body, levels, depth + len(x.binders))
    if cls is Construction:
        form = [cls, x.head]
        for p in x.args:
            if p.__class__ is AssocPiece:
                form.append(_nameless(p, levels, depth))
            elif p.binders:
                n = len(p.binders)
                inner = levels | dict(zip(p.binders, range(depth, depth + n)))
                form += n, _nameless(p.body, inner, depth + n)
            else:
                form += 0, _nameless(p.body, levels, depth)
        return form
    if cls is AssocPiece:
        form: list = [{}]
        for e in x.entries:
            if e.__class__ is MapEntry:
                form[-1][levels.get(e.key, e.key)] = _nameless(e.value, levels, depth)
            else:
                form += (_nameless(e, levels, depth), {})
        return form
    if cls is NotKey:
        return cls, levels.get(x.key, x.key)
    form = [cls, x.meta]
    for a in x.args:
        form.append(_nameless(a, levels, depth))
    return form

from __future__ import annotations

import sys
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

import plank.terms
from plank import (
    RewriteStep,
    alpha_equal,
    free_vars,
    fresh_var,
    non_assoc_vars,
    parse_term,
    render,
)
from plank.terms import (
    AssocForm,
    AssocPiece,
    CatchAll,
    Construction,
    DataDecl,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    RuleDecl,
    SchemeDecl,
    ScopeForm,
    ScopePiece,
    Script,
    SortCons,
    SortVar,
    Var,
    VariableDecl,
    _ASCII,
    _UNI,
    all_idents,
)
from test_checker import BINDERS, _random_rule
from test_regression import GENERATED, _engine, _subjects


def t(text):
    return parse_term(text)


class TestIdent:
    @pytest.mark.parametrize("bad", ["", "3x", "_x", "#-", "x-y", "é"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Ident(bad)

    def test_equality_is_text_equality(self):
        assert Ident("x") == "x"
        assert Ident("x") != Ident("y")
        assert len({Ident("x"), Ident("x")}) == 1


class TestKeptNames:
    """``all_idents`` keeps each construction's names on the object."""

    def test_a_shared_node_is_walked_once(self):
        # 16 levels of x = Ap(x, x): 65,535 constructions as a tree, 16 objects.
        x = Var(Ident("x"))
        for _ in range(16):
            x = Construction(Ident("Ap"), (ScopePiece((), x), ScopePiece((), x)))
        calls = []
        terms_file = plank.terms.__file__

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == terms_file:
                calls.append(frame.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            names = all_idents(x)
        finally:
            sys.setprofile(outer)
        assert names == {"x"}
        assert calls.count("all_idents") == 1
        assert len(calls) < 1000

    def test_a_deep_term(self):
        t = Var(Ident("x"))
        for i in range(900):
            t = Construction(Ident("Lam"), (ScopePiece((Ident(f"v{i % 3}"),), t),))
        assert all_idents(t) == {"x", "v0", "v1", "v2"}

    def test_equal_sets_one_query_builds_are_one_object(self):
        # The identity chain of 80 holds 81 copies of Lam([y]y), each of which
        # builds {y}; one query keeps one of those sets, and a second query,
        # on a term no query reached, builds its own.
        def lams(text):
            term, found = t(text), []
            all_idents(term)
            while term.head == "Ap":
                found.append(term.args[0].body)
                term = term.args[1].body
            return found + [term]

        chain = "Lam([y]y)"
        for _ in range(80):
            chain = f"Ap(Lam([y]y), {chain})"
        first, second = lams(chain), lams(chain)
        assert len(first) == 81 and all(lam.head == "Lam" for lam in first)
        assert len({id(lam._idents) for lam in first}) == 1
        assert len({id(lam._idents) for lam in second}) == 1
        assert first[0]._idents == second[0]._idents == {"y"}
        assert first[0]._idents is not second[0]._idents

    def test_kept_names_take_no_part_in_equality_or_printing(self):
        text = "Eval(Ap(Lam([x]Ap(x, #M(y))), z), {z : Lam([y]y), w : F({#E(u), ~v:})})"
        kept, fresh = t(text), t(text)
        assert all_idents(kept) is all_idents(kept)
        assert all_idents(kept) == {"x", "y", "z", "w", "u", "v"}
        assert kept == fresh and hash(kept) == hash(fresh)
        assert repr(kept) == repr(fresh)
        assert render(kept) == render(fresh) == str(kept)


class TestAlphaEqual:
    def test_binder_renaming(self):
        assert alpha_equal(t("Lam([x]x)"), t("Lam([y]y)"))
        assert not alpha_equal(t("Lam([x, y]x)"), t("Lam([x]x)"))

    def test_free_names_differ(self):
        assert not alpha_equal(t("x"), t("y"))

    def test_beta_lhs_renamed(self):
        a = t("Ap(Lam([x]#M(x)), #N)")
        b = t("Ap(Lam([z]#M(z)), #N)")
        assert alpha_equal(a, b)

    def test_meta_names_matter(self):
        assert not alpha_equal(t("#M(x)"), t("#N(x)"))

    def test_bound_vs_free_mixup(self):
        assert not alpha_equal(t("Lam([x]x)"), t("Lam([y]x)"))
        assert not alpha_equal(t("Lam([x]y)"), t("Lam([y]y)"))

    def test_assoc_entries_in_order(self):
        # Plain entries compare as maps: their order does not count, and a
        # later entry overrides an earlier one with the same key.
        assert alpha_equal(t("F({a : One(), b : Two()})"), t("F({b : Two(), a : One()})"))
        assert not alpha_equal(t("F({a : One(), b : Two()})"), t("F({a : Two(), b : One()})"))
        assert alpha_equal(t("F({a : One(), b : Two(), a : Two()})"), t("F({b : Two(), a : Two()})"))
        assert not alpha_equal(t("F({a : One(), b : Two(), a : Two()})"),
                               t("F({a : One(), b : Two()})"))
        # A bound key is its binder, wherever it stands.
        assert alpha_equal(t("F([a, b]G({a : a, b : One()}))"), t("F([c, d]G({d : One(), c : c}))"))
        assert not alpha_equal(t("F([a, b]G({a : a, b : One()}))"),
                               t("F([c, d]G({c : One(), d : d}))"))
        # Absence entries and catch-alls compare in order, and a plain entry
        # stays on its side of each: on a right side a catch-all's entries
        # override the plain entries before it and yield to those after it.
        assert alpha_equal(t("F({a : One(), b : Two(), #e, c : One(), d : Two()})"),
                           t("F({b : Two(), a : One(), #e, d : Two(), c : One()})"))
        assert alpha_equal(t("F({~a:, b : One(), c : Two()})"), t("F({~a:, c : Two(), b : One()})"))
        assert not alpha_equal(t("F({~a:, #e, b : One()})"), t("F({b : One(), ~a:, #e})"))
        assert not alpha_equal(t("F({#e, b : One()})"), t("F({b : One(), #e})"))
        assert not alpha_equal(t("F({b : One(), #e, b : Two()})"), t("F({#e, b : Two()})"))
        assert not alpha_equal(t("F({~a:, ~b:})"), t("F({~b:, ~a:})"))
        assert not alpha_equal(t("F({~a:, #e})"), t("F({#e, ~a:})"))

    def test_not_key_and_catchall(self):
        assert alpha_equal(t("F({~a:, #env})"), t("F({~a:, #env})"))
        assert not alpha_equal(t("F({~a:})"), t("F({~b:})"))

    def test_bound_assoc_keys(self):
        assert alpha_equal(t("F([a]G({a : a}))"), t("F([b]G({b : b}))"))
        assert not alpha_equal(t("F([a]G({a : a}))"), t("F([b]G({a : b}))"))


class TestFreeVars:
    def test_fully_bound(self):
        assert free_vars(t("Lam([x]x)")) == set()

    def test_mixed(self):
        assert free_vars(t("Ap(x, Lam([y]x))")) == {"x"}

    def test_assoc_keys_count(self):
        assert free_vars(t("Eval(x, {#env; x : #V})")) == {"x"}
        assert free_vars(t("F({a : b, ~c:})")) == {"a", "b", "c"}

    def test_bound_keys_do_not(self):
        assert free_vars(t("F([a]G({a : a}))")) == set()


class TestNonAssocVars:
    def test_lookup_lhs(self):
        # The key occurrence does not count; the first argument does.
        assert non_assoc_vars(t("Eval(x, {#env; x : #V})")) == {"x"}

    def test_assoc_only(self):
        assert non_assoc_vars(t("F({x : #V})")) == set()

    def test_binder_under_scope(self):
        assert non_assoc_vars(t("Apply(Lam([x]#B(x)), #V, {#env})")) == set()

    def test_subset_of_all_occurrences(self):
        term = t("Apply(Lam([x]Ap(x, y)), z, {a : b})")
        assert non_assoc_vars(term) <= free_vars(term)


class TestFreshVar:
    def brute_force(self, hint, avoid):
        # Independent oracle: first candidate in hint, hint1, hint2, ... that
        # is free.
        candidates = [hint] + [f"{hint}{i}" for i in range(1, 100)]
        return next(c for c in candidates if c not in avoid)

    def test_no_collision(self):
        assert fresh_var(Ident("z"), set()) == "z"

    def test_single_collision(self):
        assert fresh_var(Ident("z"), {"z"}) == "z1"
        assert fresh_var(Ident("z"), {"z"}) == self.brute_force("z", {"z"})

    def test_double_collision(self):
        assert fresh_var(Ident("z"), {"z", "z1"}) == "z2"
        assert fresh_var(Ident("z"), {"z", "z1"}) == self.brute_force("z", {"z", "z1"})


# ---------------------------------------------------------------------------
# Property tests

_VARS = ["x", "y", "z"]
_CONS = ["Lam", "Ap", "Pair"]
_METAS = ["#M", "#N"]


def _terms(depth=3):
    leaf = st.one_of(
        st.sampled_from(_VARS).map(lambda v: parse_term(v)),
        st.sampled_from(_METAS).map(lambda m: parse_term(m)),
    )

    def extend(children):
        # List keys come from _VARS, so an enclosing scope may bind them.
        entries = st.lists(
            st.tuples(st.sampled_from(_VARS), children).map(
                lambda p: MapEntry(Ident(p[0]), p[1])
            ),
            max_size=3,
        )
        pieces = st.lists(
            st.one_of(
                children.map(lambda b: ScopePiece((), b)),
                st.tuples(st.sampled_from(_VARS), children).map(
                    lambda p: ScopePiece((Ident(p[0]),), p[1])
                ),
                entries.map(lambda es: AssocPiece(tuple(es))),
            ),
            min_size=0,
            max_size=3,
        )
        return st.tuples(st.sampled_from(_CONS), pieces).map(
            lambda p: Construction(Ident(p[0]), tuple(p[1]))
        )

    return st.recursive(leaf, extend, max_leaves=depth * 4)


def _rename_apart(term, salt):
    """A distinct alpha-variant: rename every binder, and the variables and
    keys it binds, consistently."""

    def go(x, env):
        if isinstance(x, Var):
            return Var(env.get(x.name, x.name))
        if isinstance(x, Construction):
            return Construction(x.head, tuple(piece(p, env) for p in x.args))
        return type(x)(x.meta, tuple(go(a, env) for a in x.args))

    def piece(p, env):
        if isinstance(p, ScopePiece):
            env2 = dict(env)
            fresh = []
            for b in p.binders:
                nb = Ident(f"{b}{salt}")
                env2[b] = nb
                fresh.append(nb)
            return ScopePiece(tuple(fresh), go(p.body, env2))
        return AssocPiece(tuple(MapEntry(env.get(e.key, e.key), go(e.value, env))
                                for e in p.entries))

    return go(term, {})


def _permute_entries(term, rnd):
    """``term`` with the entries of every list whose keys are distinct
    shuffled by ``rnd``; a list with a repeated key is left as it is."""

    def go(x):
        if isinstance(x, Construction):
            return Construction(x.head, tuple(piece(p) for p in x.args))
        return x

    def piece(p):
        if isinstance(p, ScopePiece):
            return ScopePiece(p.binders, go(p.body))
        entries = [MapEntry(e.key, go(e.value)) for e in p.entries]
        if len({e.key for e in entries}) == len(entries):
            rnd.shuffle(entries)
        return AssocPiece(tuple(entries))

    return go(term)


@given(_terms())
@settings(max_examples=200, deadline=None)
def test_alpha_equal_reflexive(term):
    assert alpha_equal(term, term)


@given(_terms())
@settings(max_examples=200, deadline=None)
def test_alpha_equal_on_renamed_variants(term):
    a = _rename_apart(term, "_a")
    b = _rename_apart(term, "_b")
    # symmetric and transitive across the cluster of variants
    assert alpha_equal(term, a) and alpha_equal(a, term)
    assert alpha_equal(a, b)
    assert alpha_equal(term, b)


@given(_terms(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_alpha_equal_ignores_the_order_of_distinct_keys(term, rnd):
    permuted = _permute_entries(term, rnd)
    assert alpha_equal(term, permuted) and alpha_equal(permuted, term)
    assert alpha_equal(_rename_apart(term, "_a"), permuted)


@given(_terms())
@settings(max_examples=200, deadline=None)
def test_alpha_equal_preserves_free_vars(term):
    assert free_vars(term) == free_vars(_rename_apart(term, "_r"))


@given(st.sampled_from(_VARS), st.sets(st.sampled_from(["x", "y", "z", "x1", "y1", "z1"])))
def test_fresh_var_avoids(hint, avoid):
    assert fresh_var(Ident(hint), avoid) not in avoid


@given(_terms())
@settings(max_examples=200, deadline=None)
def test_non_assoc_vars_bounded(term):
    assert non_assoc_vars(term) <= all_idents(term)
    assert non_assoc_vars(term) <= free_vars(term)


def _rebuilt(x):
    """``x`` built anew field by field, ``type(x)(*fields)``: no span, and
    no name set kept by ``all_idents``."""
    if isinstance(x, tuple):
        return tuple(map(_rebuilt, x))
    if not isinstance(x, plank.terms._Node):
        return x
    return type(x)(*(_rebuilt(getattr(x, f)) for f in x._fields))


def _same_record(a, b):
    # Equality, hash and ``repr`` read the compared fields and nothing else,
    # and the hash is the one of their tuple, so the order of a set of
    # records does not depend on how they are built.
    assert a == b and b == a
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in a._fields))
    assert repr(a) == repr(b)


@given(_terms())
@settings(max_examples=100, deadline=None)
def test_equality_and_hash_are_field_based(term):
    h = hash(term)
    before = _rebuilt(term)
    all_idents(term)
    after = _rebuilt(term)
    assert hash(term) == h
    for copy in (before, after):
        _same_record(copy, term)
    if isinstance(term, Construction):
        assert term._idents is not None and before._idents is None is after._idents


def _sorts():
    # Nested sorts with 0-2 arguments; a parsed sort's position is drawn
    # too, since equality and hashing must not read it.
    span = st.one_of(st.none(), st.integers(0, 9))
    leaf = st.one_of(
        st.builds(SortVar, st.sampled_from(["a", "b"]).map(Ident), span),
        st.builds(SortCons, st.sampled_from(["L", "T"]).map(Ident), st.just(()), span),
    )
    return st.recursive(leaf, lambda children: st.builds(
        SortCons, st.sampled_from(["L", "T"]).map(Ident),
        st.lists(children, max_size=2).map(tuple), span), max_leaves=6)


@given(_sorts())
@settings(max_examples=100, deadline=None)
def test_sort_equality_and_hash_are_field_based(sort):
    _same_record(_rebuilt(sort), sort)


def _changed(sort, how):
    """``sort`` with only its root's name, or only its arity, changed; a
    sort variable's arity change makes it the constructor of its name."""
    name = Ident(sort.name + "x")
    if sort.__class__ is SortVar:
        return SortVar(name) if how == "name" else SortCons(sort.name)
    if how == "name":
        return SortCons(name, sort.args)
    return SortCons(sort.name, sort.args[:-1] if sort.args else (SortVar(Ident("a")),))


@given(_sorts(), st.sampled_from(["name", "arity"]),
       st.lists(st.tuples(st.sampled_from(["L", "T"]).map(Ident),
                          st.one_of(st.none(), _sorts()), st.booleans()), max_size=2))
@settings(max_examples=200, deadline=None)
def test_sorts_that_differ_in_one_place_are_unequal(sort, how, context):
    changed = _changed(sort, how)
    # Both go into the same constructors, beside the same sibling if there
    # is one, so an outer pair differs only in a nested argument.
    for name, sibling, first in context:
        def put(s):
            return SortCons(name, (s,) if sibling is None else
                            (s, sibling) if first else (sibling, s))
        sort, changed = put(sort), put(changed)
    assert sort != changed and changed != sort and not sort == changed


def test_a_sort_constructor_equals_only_a_sort_constructor():
    cons = SortCons(Ident("L"))
    assert cons == SortCons(Ident("L"), (), 3)
    assert cons != SortVar(Ident("L")) and SortVar(Ident("L")) != cons
    assert cons != "L" and "L" != cons
    assert cons != ("L", ()) and ("L", ()) != cons
    assert SortCons(Ident("L"), (cons,)) != ("L", (cons,))


@given(st.lists(st.integers(0, 3), max_size=4), st.integers(0, 5))
def test_records_with_equal_fields_are_equal(position, rule_index):
    a = RewriteStep(tuple(position), rule_index)
    _same_record(a, RewriteStep(tuple(position), rule_index))
    assert a != RewriteStep(tuple(position), rule_index + 1)


def _recursive_render(n, tok):
    """The renderer that joins its children's strings at every level, as
    ``render`` did before it appended to one buffer."""
    cls = n.__class__
    if cls is Var or cls is SortVar:
        return n.name
    if cls is Construction:
        return n.head + "(" + ", ".join(map(_recursive_render, n.args, repeat(tok))) + ")"
    if cls is ScopePiece:
        body = _recursive_render(n.body, tok)
        if not n.binders:
            return body
        return "[" + ", ".join(n.binders) + "]" + body
    if cls is MetaApp or cls is CatchAll:
        if not n.args:
            return n.meta
        return n.meta + "(" + ", ".join(map(_recursive_render, n.args, repeat(tok))) + ")"
    if cls is AssocPiece:
        return "{" + ", ".join(map(_recursive_render, n.entries, repeat(tok))) + "}"
    if cls is MapEntry:
        return n.key + " : " + _recursive_render(n.value, tok)
    if cls is NotKey:
        return tok["~"] + n.key + ":"
    if cls is SortCons:
        if not n.args:
            return n.name
        args = ", ".join(map(_recursive_render, n.args, repeat(tok)))
        return n.name + tok["<"] + args + tok[">"]
    if cls is ScopeForm:
        body = _recursive_render(n.body_sort, tok)
        if not n.binder_sorts:
            return body
        return "[" + ", ".join(map(_recursive_render, n.binder_sorts, repeat(tok))) + "]" + body
    if cls is AssocForm:
        key, value = _recursive_render(n.key_sort, tok), _recursive_render(n.value_sort, tok)
        return "{" + key + ":" + value + "}"
    if cls is DataDecl or cls is SchemeDecl:
        kind = "data" if cls is DataDecl else "scheme"
        forms = ", ".join(map(_recursive_render, n.forms, repeat(tok)))
        return f"{_recursive_render(n.sort, tok)} {kind} {n.name}({forms});"
    if cls is VariableDecl:
        return f"{_recursive_render(n.sort, tok)} variable;"
    if cls is RuleDecl:
        lhs, rhs = _recursive_render(n.lhs, tok), _recursive_render(n.rhs, tok)
        return f"{_recursive_render(n.sort, tok)} rule {lhs} {tok['->']} {rhs};"
    assert cls is Script
    return "\n".join(map(_recursive_render, n.declarations, repeat(tok)))


def _with_parts(node):
    """``node`` and, for a construction, its pieces and their list entries."""
    nodes = [node]
    for p in node.args if node.__class__ is Construction else ():
        nodes += [p, *p.entries] if p.__class__ is AssocPiece else [p]
    return nodes


@st.composite
def _rendered_nodes(draw):
    """Nodes of every kind: a ground subject of a generated signature under
    0-3 binders; a ``_random_rule`` rule (absence entries, catch-alls), its
    sides and its script; or declarations whose forms take sort parameters."""
    kind = draw(st.sampled_from(["subject", "rule", "declaration"]))
    if kind == "subject":
        gamma = _engine(GENERATED[draw(st.sampled_from(sorted(GENERATED)))])[0]
        subject = draw(_subjects(gamma))
        binders = draw(st.lists(st.sampled_from(_VARS).map(Ident), max_size=3, unique=True))
        return _with_parts(Construction(Ident("Bind"), (ScopePiece(tuple(binders), subject),)))
    if kind == "rule":
        rule = _random_rule(draw(st.randoms(use_true_random=False)))
        return [rule, rule.sort, *_with_parts(rule.lhs), *_with_parts(rule.rhs),
                Script(BINDERS.declarations + (rule,))]
    a, b = draw(_sorts()), draw(_sorts())
    decl = DataDecl(a, Ident("C"), (ScopeForm((a, b), b), ScopeForm((), a), AssocForm(b, a)))
    return [decl, SchemeDecl(b, Ident("F"), ()), VariableDecl(a), Script((decl,)), Script()]


@given(_rendered_nodes())
@settings(max_examples=100, deadline=None)
def test_render_agrees_with_a_recursive_renderer(nodes):
    # One buffer joined once spells every node as string joins at every
    # level do, in both spellings, and a rendered term parses back.
    for node in nodes:
        for tok, unicode in ((_ASCII, False), (_UNI, True)):
            text = render(node, unicode=unicode)
            assert text == _recursive_render(node, tok)
            if node.__class__ in (Construction, Var, MetaApp):
                assert alpha_equal(parse_term(text), node), text

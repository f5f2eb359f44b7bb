from __future__ import annotations

import dataclasses
import sys

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
    AssocPiece,
    Construction,
    Ident,
    MapEntry,
    ScopePiece,
    Var,
    all_idents,
)


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

        sys.setprofile(profile)
        try:
            names = all_idents(x)
        finally:
            sys.setprofile(None)
        assert names == {"x"}
        assert calls.count("all_idents") == 1
        assert len(calls) < 1000

    def test_a_deep_term(self):
        t = Var(Ident("x"))
        for i in range(900):
            t = Construction(Ident("Lam"), (ScopePiece((Ident(f"v{i % 3}"),), t),))
        assert all_idents(t) == {"x", "v0", "v1", "v2"}

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
    if not dataclasses.is_dataclass(x):
        return x
    return type(x)(*(_rebuilt(getattr(x, f.name)) for f in dataclasses.fields(x)
                     if f.init and not f.kw_only))


def _same_record(a, b):
    # Equality, hash and ``repr`` read the compared fields and nothing else,
    # and the hash is the one of their tuple, as for a frozen dataclass, so
    # the order of a set of records does not depend on how they are built.
    assert a == b and b == a
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)
                                            if f.compare))
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


@given(st.lists(st.integers(0, 3), max_size=4), st.integers(0, 5))
def test_records_with_equal_fields_are_equal(position, rule_index):
    a = RewriteStep(tuple(position), rule_index)
    _same_record(a, RewriteStep(tuple(position), rule_index))
    assert a != RewriteStep(tuple(position), rule_index + 1)

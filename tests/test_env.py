from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from plank import build_global_env, check_script, infer_rule_env, parse_script
from plank.checker import _Check
from plank.env import ConSig, MetaForm, apply_form_subst, instantiated_forms, match_sort
from plank.terms import (
    AssocForm,
    CatchAll,
    Ident,
    MapEntry,
    MetaApp,
    RuleDecl,
    ScopeForm,
    ScopePiece,
    SortCons,
    SortVar,
    Var,
    non_assoc_vars,
)
from test_checker import BINDERS, _random_rule

L = SortCons(Ident("L"))


def LL():
    return ScopeForm((L,), L)


def plain(s=L):
    return ScopeForm((), s)


class TestBuildGlobalEnv:
    def test_beta_eta_env(self, ex1):
        gamma, errors = build_global_env(ex1)
        assert errors == []
        assert gamma.con == {
            "Lam": ConSig(L, (LL(),)),
            "Ap": ConSig(L, (plain(), plain())),
        }
        assert gamma.fun == {"Lam", "Ap"}
        assert gamma.rank == {"L": 0}
        assert gamma.hasvar == set()

    def test_cbv_eval_env(self, ex2):
        gamma, errors = build_global_env(ex2)
        assert errors == []
        assert gamma.fun == {"Eval", "Apply"}
        assert gamma.hasvar == {"L"}
        assert gamma.con["Lam"] == ConSig(L, (LL(),))
        assert gamma.con["Ap"] == ConSig(L, (plain(), plain()))
        assert gamma.con["Eval"] == ConSig(L, (plain(), AssocForm(L, L)))
        assert gamma.con["Apply"] == ConSig(L, (plain(), plain(), AssocForm(L, L)))

    def test_empty_script(self):
        gamma, errors = build_global_env(parse_script(""))
        assert errors == []
        assert not gamma.con and not gamma.fun and not gamma.hasvar and not gamma.rank

    def test_order_independence(self, ex2):
        # Permuting declarations yields the same environment.
        base, _ = build_global_env(ex2)
        decls = list(ex2.declarations)
        for perm in itertools.islice(itertools.permutations(decls), 0, 24, 3):
            gamma, errors = build_global_env(type(ex2)(tuple(perm)))
            assert errors == []
            assert gamma.con == base.con
            assert gamma.fun == base.fun
            assert gamma.hasvar == base.hasvar
            assert gamma.rank == base.rank

    def test_conflicting_redeclaration(self):
        gamma, errors = build_global_env(parse_script("L data A(); L data A(L);"))
        assert [e.rule for e in errors] == ["DuplicateConstructor"]
        assert gamma.con["A"] == ConSig(L, ())  # first declaration wins

    def test_identical_redeclaration_is_idempotent(self):
        _, errors = build_global_env(parse_script("L data A(); L data A();"))
        assert errors == []

    def test_non_variable_sort_parameter(self):
        _, errors = build_global_env(parse_script("Box<L> data B(L);"))
        assert [e.rule for e in errors] == ["NonVariableSortParameter"]
        _, errors = build_global_env(parse_script("Pair<a, a> data P(a);"))
        assert [e.rule for e in errors] == ["NonVariableSortParameter"]

    def test_sorts_with_data(self, ex1, ex2):
        g1, _ = build_global_env(ex1)
        g2, _ = build_global_env(ex2)
        assert g1.sorts_with_data == set()
        assert g2.sorts_with_data == {"L"}
        # A name declared both data and scheme counts as a scheme.
        g3, _ = build_global_env(parse_script("L data C(L); L scheme C(L); M data D(L);"))
        assert g3.sorts_with_data == {"M"}


class TestInstantiatedForms:
    def test_monomorphic_forms_are_returned_as_declared(self, ex2):
        gamma, _ = build_global_env(ex2)
        sig = gamma.con["Lam"]
        assert instantiated_forms(sig, L) is sig.forms
        assert instantiated_forms(sig, SortCons(Ident("M"))) is None

    def test_polymorphic_forms_are_instantiated(self):
        gamma, _ = build_global_env(parse_script("Box<a> data B(a, [a]Box<a>);"))
        box = SortCons(Ident("Box"), (L,))
        assert instantiated_forms(gamma.con["B"], box) == (plain(L), ScopeForm((L,), box))

    def test_repeated_sort_variable_needs_equal_arguments(self):
        gamma, errors = build_global_env(parse_script("P<a, a> scheme F(a, [a]a);"))
        assert errors == []
        M = SortCons(Ident("M"))
        pair = SortCons(Ident("P"), (L, L))
        assert instantiated_forms(gamma.con["F"], pair) == (plain(L), ScopeForm((L,), L))
        assert instantiated_forms(gamma.con["F"], SortCons(Ident("P"), (L, M))) is None

    def test_association_form_is_instantiated(self):
        gamma, errors = build_global_env(parse_script("M<a> data Box({L:a});"))
        assert errors == []
        m = SortCons(Ident("M"), (L,))
        assert instantiated_forms(gamma.con["Box"], m) == (AssocForm(L, L),)


_GROUND = (L, SortCons(Ident("M")))
_A, _B = SortVar(Ident("a")), SortVar(Ident("b"))


def _sorts(leaves):
    """Sorts over ``leaves`` and one binary sort constructor ``P``."""
    return st.recursive(st.sampled_from(leaves), lambda inner: st.builds(
        lambda args: SortCons(Ident("P"), tuple(args)), st.lists(inner, min_size=1, max_size=2)),
        max_leaves=4)


_RESULTS = st.one_of(_sorts(_GROUND), st.sampled_from(
    [SortCons(Ident("P"), args) for args in ((_A,), (_A, _A), (_A, _B))]))
_FORMS = st.lists(st.one_of(
    st.builds(lambda bs, body: ScopeForm(tuple(bs), body),
              st.lists(_sorts(_GROUND + (_A, _B)), max_size=2), _sorts(_GROUND + (_A, _B))),
    st.builds(AssocForm, _sorts(_GROUND + (_A,)), _sorts(_GROUND + (_A, _B)))), max_size=3)


@given(st.data())
def test_instantiated_forms_substitute_the_matched_sorts(data):
    # The forms at an expected sort equal to the declared one are returned as
    # declared; everywhere the answer is the matched substitution applied.
    sig = ConSig(data.draw(_RESULTS), tuple(data.draw(_FORMS)))
    expected = data.draw(st.one_of(st.just(sig.result), _sorts(_GROUND + (_A, _B))))
    subst = match_sort(sig.result, expected)
    want = None if subst is None else tuple(apply_form_subst(f, subst) for f in sig.forms)
    assert instantiated_forms(sig, expected) == want


class TestInferRuleEnv:
    def test_beta_rule(self, ex1):
        gamma, _ = build_global_env(ex1)
        beta = ex1.rules[0]
        delta, errors = infer_rule_env(gamma, beta)
        assert errors == []
        # oracle: hand derivation from con(Lam) = (L, [[L]L]) and
        # con(Ap) = (L, [L, L])
        assert delta.meta == {
            "#M": MetaForm((L,), L),
            "#N": MetaForm((), L),
        }
        assert delta.var == {"x": L}

    def test_eta_rule(self, ex1):
        gamma, _ = build_global_env(ex1)
        eta = ex1.rules[1]
        delta, errors = infer_rule_env(gamma, eta)
        assert errors == []
        assert delta.meta == {"#M": MetaForm((), L)}
        assert delta.var == {"x": L}

    def test_lookup_rule(self, ex2):
        gamma, _ = build_global_env(ex2)
        lookup = ex2.rules[2]
        delta, errors = infer_rule_env(gamma, lookup)
        assert errors == []
        assert delta.var == {"x": L}
        assert delta.meta == {
            "#env": MetaForm((), AssocForm(L, L)),
            "#V": MetaForm((), L),
        }

    def test_apply_rule_fresh_rhs_variable(self, ex2):
        gamma, _ = build_global_env(ex2)
        apply_rule = ex2.rules[3]
        delta, errors = infer_rule_env(gamma, apply_rule)
        assert errors == []
        # z only occurs on the right side; its sort is demanded by position
        assert delta.var == {"x": L, "z": L}
        assert delta.meta["#B"] == MetaForm((L,), L)
        assert delta.meta["#env"] == MetaForm((), AssocForm(L, L))

    def test_unbound_meta_on_rhs(self, ex2):
        gamma, _ = build_global_env(ex2)
        script = parse_script("L rule Eval(#F, {#env}) -> Apply(#F, #Z, {#env});")
        delta, errors = infer_rule_env(gamma, script.rules[0])
        assert [e.rule for e in errors] == ["UnboundMetaOnRhs"]
        assert "#Z" not in delta.meta

    def test_meta_form_conflict_across_lhs(self, ex1):
        gamma, _ = build_global_env(ex1)
        rule = parse_script("L rule Ap(Lam([x]#M(x)), #M()) -> #M();").rules[0]
        _, errors = infer_rule_env(gamma, rule)
        # one conflict per inconsistent occurrence (the second lhs use and the
        # nullary rhs use both disagree with (L) => L)
        assert {e.rule for e in errors} == {"MetaFormConflict"}

    def test_meta_form_conflict_on_rhs_arity(self, ex1):
        gamma, _ = build_global_env(ex1)
        rule = parse_script("L rule Ap(Lam([x]#M(x)), #N) -> #M(#N, #N);").rules[0]
        _, errors = infer_rule_env(gamma, rule)
        assert [e.rule for e in errors] == ["MetaFormConflict"]

    def test_same_sorts_different_arg_names_ok(self, ex1):
        gamma, _ = build_global_env(ex1)
        rule = parse_script("L rule Ap(Lam([x]#M(x)), Lam([y]#M(y))) -> Lam([z]#M(z));").rules[0]
        delta, errors = infer_rule_env(gamma, rule)
        assert errors == []
        assert delta.meta["#M"] == MetaForm((L,), L)

    def test_polymorphic_instantiation(self):
        script = parse_script(
            "L data One();"
            "Box<a> data B(a);"
            "L scheme Get(Box<L>);"
            "L rule Get(B(#X)) -> #X;"
        )
        gamma, errors = build_global_env(script)
        assert errors == []
        delta, errors = infer_rule_env(gamma, script.rules[0])
        assert errors == []
        # form [a] instantiated at Box<L> gives the argument sort L
        assert delta.meta == {"#X": MetaForm((), L)}

    def test_accepted_rules_recheck(self, ex1, ex2):
        # Every inferred environment makes the rule derivable by the checker.
        for script in (ex1, ex2):
            gamma, _ = build_global_env(script)
            for rule in script.rules:
                delta, errors = infer_rule_env(gamma, rule)
                assert errors == []
                lhs_keys = frozenset(non_assoc_vars(rule.lhs))
                _Check(gamma, delta, True, errors).pattern(rule.lhs, rule.sort, lhs_keys)
                rhs_keys = frozenset(non_assoc_vars(rule.rhs))
                _Check(gamma, delta, False, errors).term(rule.rhs, rule.sort, rhs_keys, {})
                assert errors == []

    def test_rhs_meta_in_delta(self, ex1, ex2):
        for script in (ex1, ex2):
            result = check_script(script)
            assert result.ok
            for rule, delta in zip(script.rules, result.rule_envs):
                for m in meta_vars(rule.rhs):
                    assert m in delta.meta


# ---------------------------------------------------------------------------
# The names inference collects for the rule's check, against name walks kept
# here as the reference


def _reference_names(x, bound, lists, metas, free):
    """Add the meta-variables of ``x`` to ``metas`` and its variables outside
    the scope of a binder of their name to ``free``; keys are no variables,
    and without ``lists`` association lists are skipped whole."""
    if isinstance(x, Var):
        if x.name not in bound:
            free.add(x.name)
    elif isinstance(x, (MetaApp, CatchAll)):
        metas.add(x.meta)
        for a in x.args:
            _reference_names(a, bound, lists, metas, free)
    else:
        for p in x.args:
            if isinstance(p, ScopePiece):
                _reference_names(p.body, bound | set(p.binders), lists, metas, free)
            elif lists:
                for e in p.entries:
                    if isinstance(e, CatchAll):
                        _reference_names(e, bound, lists, metas, free)
                    elif isinstance(e, MapEntry):
                        _reference_names(e.value, bound, lists, metas, free)
    return metas, free


def meta_vars(t):
    """Every meta-variable name occurring in ``t``, catch-alls included."""
    return _reference_names(t, frozenset(), True, set(), set())[0]


def _free(t, lists):
    return _reference_names(t, frozenset(), lists, set(), set())[1]


def _assert_collected_as_named(gamma, rule):
    delta, errors = infer_rule_env(gamma, rule)
    assert delta.lhs_keys == _free(rule.lhs, False) == non_assoc_vars(rule.lhs)
    assert delta.rhs_keys == _free(rule.rhs, False) == non_assoc_vars(rule.rhs)
    assert delta.pattern_vars == _free(rule.lhs, True)
    unbound = [e.message.split()[1] for e in errors if e.rule == "UnboundMetaOnRhs"]
    assert unbound == sorted(meta_vars(rule.rhs) - meta_vars(rule.lhs))


# Rules over ``BINDERS`` at which the sort walk stops early, each with names
# in the part it skips, outside and inside association lists.
STOPPING_RULES = [
    # an undeclared head
    "L rule K(Q(x, [y]#M(y, u), {v : #P}), {x : #X}) -> Q(w, #X, {w : #R(s)});",
    # a construction at a sort its head does not have
    "L rule K(Cb(x, {v : #P}), {v : #X}) -> Lb(w, #X);",
    # more arguments than forms
    "L rule K(Lam([y]y, x, {v : #P}, #N), {x : #X}) -> Lam([y]#X, w, {u : #R});",
    # a scope piece at an association form, and a list at a scope form
    "L rule K({x : #X, #e}, [y]#M(u)) -> K({w : #X}, [y]#Q(t));",
    # more binders than the form declares: the extra binder hides u
    "L rule K(Lam([y, u]K(Q(u, v), {x : u, #e(u)})), {u : #X}) -> Lam([y, w]K(s, {w : #N(t)}));",
    # fewer binders than the form declares
    "B rule F([]Lb([a]#M(a, b)), c) -> Lb([]#M(c, d));",
    # right-side metas with no meta-form, and with another arity or sort
    "L rule K(#N, {#e}) -> K(#Z(x, K(y, {})), {#e(z)});",
    "L rule K(Lam([y]#M(y)), {x : #N}) -> K(#M(x, Lam([z]#P(v))), {x : #N(w)});",
    "B rule F([y]#M(y), #N) -> Lb([a]#N(a));",
    # left-side metas applied to non-variables, and to a free variable
    "L rule K(#M(Lam([y]x), K(u, {u : #Q})), {#e(K(v, {}))}) -> #M(w, w);",
    "L rule K(Lam([y]#M(y, x)), {x : #N}) -> #M(x, x);",
]


@pytest.mark.parametrize("text", STOPPING_RULES)
def test_collected_names_where_the_sort_walk_stops(text):
    gamma = build_global_env(BINDERS)[0]
    rule = parse_script(text).rules[0]
    _assert_collected_as_named(gamma, rule)


def test_collected_names_of_random_rules():
    gamma = build_global_env(BINDERS)[0]
    rng = random.Random(26)
    for _ in range(1500):
        _assert_collected_as_named(gamma, _random_rule(rng))

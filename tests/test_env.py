from __future__ import annotations

import itertools

import pytest

from plank import build_global_env, check_script, infer_rule_env, parse_script
from plank.checker import CheckState, TermContext, check_term
from plank.env import ConSig, MetaForm, instantiated_forms
from plank.terms import (
    AssocForm,
    Ident,
    RuleDecl,
    ScopeForm,
    SortCons,
    SortVar,
    non_assoc_vars,
)

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
                lhs_state = CheckState(
                    gamma, delta, frozenset(non_assoc_vars(rule.lhs)), TermContext.PAT, {}, []
                )
                assert check_term(lhs_state, rule.lhs, rule.sort) == []
                rhs_state = CheckState(
                    gamma, delta, frozenset(non_assoc_vars(rule.rhs)), TermContext.CON, {}, []
                )
                assert check_term(rhs_state, rule.rhs, rule.sort) == []

    def test_rhs_meta_in_delta(self, ex1, ex2):
        from plank.terms import meta_vars

        for script in (ex1, ex2):
            result = check_script(script)
            assert result.ok
            for rule, delta in zip(script.rules, result.rule_envs):
                for m in meta_vars(rule.rhs):
                    assert m in delta.meta

from __future__ import annotations

import math

import pytest

from plank import (
    NormalStatus,
    alpha_equal,
    check_ground_subject,
    check_script,
    contract,
    match_term,
    normalize,
    parse_script,
    parse_term,
    prepare_rules,
    render,
    rewrite_step,
    substitute,
)
from plank.rewrite import (
    Abstraction,
    EngineError,
    Valuation,
    format_step,
)
from plank.terms import AssocPiece, Ident, MapEntry, MetaApp, NotKey, Var, all_idents, free_vars

from conftest import (
    BETA_ETA,
    CBV_EVAL,
    CLASHING_CASES,
    CLASHING_NAMES,
    IN_VALUE,
    NONLINEAR,
    REACH_TWO,
    UNTAKEN,
)


def t(text):
    return parse_term(text)


SIGNATURE = "L data Lam([L]L); L data A(L); L data Done(); L variable;"

# A catch-all met twice, a variable met twice and a variable that is free
# under a binder.
BRANCH_RULES = (
    "L scheme F({L:L}, {L:L}); L scheme G(L, L); L scheme H(L);"
    "L rule F({#e}, {#e}) -> Done(); L rule G(x, x) -> Done(); L rule H(Lam([y]x)) -> Done();"
)


def checked_normalize(text, subject, fuel=100):
    """Normalize ``subject`` under the rules of the checked script ``text``;
    the subject and the result must both be well sorted."""
    script = parse_script(text)
    checked = check_script(script)
    assert checked.ok, [e.format() for e in checked.errors]
    term = t(subject)
    assert check_ground_subject(checked.gamma, term)[2] == []
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, term, fuel)
    assert check_ground_subject(checked.gamma, result.term)[2] == []
    return result


def strip_not_keys(term):
    """Replay helper: drop absence entries before contracting a pattern."""
    from plank.terms import AssocPiece, Construction, MapEntry, NotKey, ScopePiece

    def go(x):
        if isinstance(x, Construction):
            return Construction(x.head, tuple(piece(p) for p in x.args))
        return x

    def piece(p):
        if isinstance(p, ScopePiece):
            return ScopePiece(p.binders, go(p.body))
        entries = []
        for e in p.entries:
            if isinstance(e, NotKey):
                continue
            if isinstance(e, MapEntry):
                entries.append(MapEntry(e.key, go(e.value)))
            else:
                entries.append(e)
        return AssocPiece(tuple(entries))

    return go(term)


def replay(pattern, valuation, subject):
    return contract(strip_not_keys(pattern), valuation, free_vars(subject))


def captured(*entries):
    """A catch-all's binding with no parameters: the list of ``entries``,
    each a ``(key, term text)`` pair."""
    return Abstraction((), AssocPiece(tuple(MapEntry(Ident(k), t(v)) for k, v in entries)))


class TestMatchTerm:
    def test_beta_redex(self, ex1):
        beta = ex1.rules[0].lhs
        subject = t("Ap(Lam([x]x), Lam([y]y))")
        val = match_term(beta, subject)
        assert val is not None
        m = val.meta_bind["#M"]
        assert len(m.params) == 1 and m.body == Var(m.params[0])
        n = val.meta_bind["#N"]
        assert n.params == () and n.body == t("Lam([y]y)")

    def test_eta_absence(self, ex1):
        eta = ex1.rules[1].lhs
        # x occurs where #M() forbids it
        assert match_term(eta, t("Lam([x]Ap(x, x))")) is None
        # and matches when it does not
        val = match_term(eta, t("Lam([x]Ap(Lam([y]y), x))"))
        assert val is not None
        assert alpha_equal(val.meta_bind["#M"].body, t("Lam([y]y)"))

    def test_env_lookup(self, ex2):
        lookup = ex2.rules[2].lhs
        subject = t("Eval(a, {a : One(), b : Two()})")
        val = match_term(lookup, subject)
        assert val is not None
        assert val.var_bind == {"x": "a"}
        assert val.meta_bind["#V"].body == t("One()")
        assert val.meta_bind["#env"] == captured(("b", "Two()"))

    def test_head_mismatch(self, ex1):
        beta = ex1.rules[0].lhs
        assert match_term(beta, t("Lam([x]x)")) is None

    def test_bound_variable_occurrence_matches_same_binder(self, ex1):
        eta = ex1.rules[1].lhs  # Lam([x]Ap(#M(), x))
        assert match_term(eta, t("Lam([u]Ap(Lam([v]v), u))")) is not None
        # second argument must be exactly the binder
        assert match_term(eta, t("Lam([u]Ap(Lam([v]v), w))")) is None

    def test_free_pattern_variable_must_not_capture(self, ex2):
        lookup = ex2.rules[2].lhs  # Eval(x, {#env; x : #V})
        # the subject variable is bound inside the fragment: no match
        subject = t("Eval(Lam([a]a), {b : One()})")
        assert match_term(lookup, subject) is None

    def test_nonlinear_meta_requires_equal_fragments(self):
        pattern = t("Ap(#M(), #M())")
        assert match_term(pattern, t("Ap(Lam([x]x), Lam([y]y))")) is not None
        assert match_term(pattern, t("Ap(Lam([x]x), Ap(x, x))")) is None

    @pytest.mark.parametrize("subject,fires", [
        # The second list must capture the same entries up to alpha.
        ("F({a : A(b)}, {a : A(b)})", True),
        ("F({a : Lam([u]u)}, {a : Lam([v]v)})", True),
        ("F({a : A(b)}, {a : A(c)})", False),
        # x met twice must meet one name.
        ("G(a, b)", False),
        # x may not capture the subject's binder z.
        ("H(Lam([z]z))", False),
        ("H(Lam([z]w))", True),
    ])
    def test_nonlinear_and_capturing_patterns(self, subject, fires):
        result = checked_normalize(SIGNATURE + BRANCH_RULES, subject)
        assert render(result.term) == ("Done()" if fires else subject)
        assert len(result.steps) == fires

    @pytest.mark.parametrize("subject,fires", [
        # A key bound in each capture meets its partner through the renaming
        # of the catch-all's parameters.
        ("F([x]G({x : A()}), [x]G({x : A()}))", True),
        ("F([x]G({x : A()}), [y]G({x : A()}))", False),
        # The captures are maps: entry order does not count, values do.
        ("H(G({x : A(), y : B()}), G({y : B(), x : A()}))", True),
        ("H(G({x : A(), y : B()}), G({y : A(), x : B()}))", False),
        # A meta-variable met twice compares its two lists the same way.
        ("K(G({x : A(), y : B()}), G({y : B(), x : A()}))", True),
        ("K(G({x : A(), y : B()}), G({y : A(), x : B()}))", False),
    ])
    def test_nonlinear_catchall_compares_captures_as_maps(self, subject, fires):
        script = (
            "L data A(); L data B(); L data Done(); L variable; L data G({L:L});"
            "L scheme F([L]L, [L]L); L scheme H(L, L); L scheme K(L, L);"
            "L rule F([a]G({#r(a)}), [b]G({#r(b)})) -> Done();"
            "L rule H(G({#s}), G({#s})) -> Done(); L rule K(#m, #m) -> Done();"
        )
        result = checked_normalize(script, subject)
        assert render(result.term) == ("Done()" if fires else subject)
        assert len(result.steps) == fires

    def test_match_replay_reproduces_subject(self, ex1, ex2):
        cases = [
            (ex1.rules[0].lhs, t("Ap(Lam([x]x), Lam([y]y))")),
            (ex1.rules[1].lhs, t("Lam([x]Ap(Lam([y]y), x))")),
            (ex2.rules[2].lhs, t("Eval(a, {a : One(), b : Two()})")),
            (ex2.rules[3].lhs, t("Apply(Lam([x]x), Lam([y]y), {c : One()})")),
        ]
        for pattern, subject in cases:
            val = match_term(pattern, subject)
            assert val is not None
            # Lists compare as maps, so a catch-all that precedes a named
            # key need not give back the subject's entry order.
            assert alpha_equal(replay(pattern, val, subject), subject)


class TestMatchAssoc:
    """Association pieces through ``match_term``; each key is resolved by a
    variable occurrence outside the list."""

    def test_resolved_key(self):
        out = match_term(t("E(x, {#env; x : #V})"), t("E(a, {a : One()})"))
        assert out is not None
        assert out.meta_bind["#V"].body == t("One()")
        assert out.meta_bind["#env"] == captured()

    def test_not_key_present_fails(self):
        assert match_term(t("E(x, {~x:})"), t("E(a, {a : One()})")) is None

    def test_not_key_absent_succeeds(self):
        assert match_term(t("E(x, {~x:})"), t("E(a, {})")) is not None
        # without a catch-all any leftover entry blocks the match
        assert match_term(t("E(x, {~x:})"), t("E(a, {b : One()})")) is None

    def test_empty_catchall(self):
        out = match_term(t("E({#env})"), t("E({})"))
        assert out is not None
        assert out.meta_bind["#env"] == captured()

    def test_two_catchalls_raise_for_an_unchecked_pattern(self):
        # The checker reports such a pattern (SAP-All); match_term keeps a
        # guard of its own for callers that skip the checker.
        with pytest.raises(EngineError, match="more than one catch-all"):
            match_term(t("E({#e1, #e2})"), t("E({a : One()})"))

    def test_no_catchall_requires_exact(self):
        assert match_term(t("E(x, {x : #V})"), t("E(a, {a : One(), b : Two()})")) is None

    def test_remainder_in_subject_order(self):
        out = match_term(t("E(x, {#env; x : #V})"),
                         t("E(b, {a : One(), b : Two(), c : Three()})"))
        assert out is not None
        assert [e.key for e in out.meta_bind["#env"].body.entries] == ["a", "c"]

    @pytest.mark.parametrize("subject,fires", [
        ("F({a : A(a)}, {b : A(c)}, b)", True),
        ("F({c : A(a)}, {b : A(c)}, b)", False),
    ])
    def test_a_list_waits_for_a_key_bound_by_a_later_list(self, subject, fires):
        # The first list's key y is bound only once the second list, keyed
        # by x from the third argument, has been matched.
        rule = "L scheme F({L:L}, {L:L}, L); L rule F({~y:, #r}, {x : A(y)}, x) -> Done();"
        result = checked_normalize(SIGNATURE + rule, subject)
        assert render(result.term) == ("Done()" if fires else subject)

    @pytest.mark.parametrize("rule,subject,fires", [
        ("F({~k:}, {a : W(k)}, a)", "F({}, {p : W(q)}, p)", True),
        ("F({~k:}, {a : W(k)}, a)", "F({q : B()}, {p : W(q)}, p)", False),
    ])
    def test_an_absence_key_waits_for_a_later_list(self, rule, subject, fires):
        script = ("L data A(); L data B(); L data W(L); L variable; "
                  f"L scheme F({{L:L}}, {{L:L}}, L); L rule {rule} -> A();")
        result = checked_normalize(script, subject)
        assert render(result.term) == ("A()" if fires else subject)

    @pytest.mark.parametrize("rule,subject,fires", [
        ("F({~y:, x : W(y)}, x)", "F({p : W(q)}, p)", True),
        ("F({~y:, x : W(y)}, x)", "F({p : W(q), q : B()}, p)", False),
        # With a catch-all only the absence of q can block the match.
        ("F({~y:, #r, x : W(y)}, x)", "F({p : W(q), r : B()}, p)", True),
        ("F({~y:, #r, x : W(y)}, x)", "F({p : W(q), q : B()}, p)", False),
    ])
    def test_an_absence_key_waits_for_a_value_of_its_own_list(self, rule, subject, fires):
        # y is bound only by x's value in the same list, so its absence is
        # checked once every list has been matched.
        script = ("L data A(); L data B(); L data W(L); L variable; "
                  f"L scheme F({{L:L}}, L); L rule {rule} -> A();")
        result = checked_normalize(script, subject)
        assert render(result.term) == ("A()" if fires else subject)

    @pytest.mark.parametrize("pattern", ["E({x : #V})", "E({~x:, #env})"])
    def test_a_key_bound_nowhere_raises_for_an_unchecked_pattern(self, pattern):
        # The checker reports such a key (SA-Map, SAP-Not); the matcher
        # names it rather than fail on a missing binding.
        with pytest.raises(EngineError, match="KeyNotElsewhere"):
            match_term(t(pattern), t("E({a : One()})"))


class TestSubstitute:
    def test_simple(self):
        assert substitute(t("x"), {Ident("x"): t("Lam([y]y)")}) == t("Lam([y]y)")

    def test_capture_avoided(self):
        out = substitute(t("Lam([y]x)"), {Ident("x"): t("y")})
        assert out == t("Lam([y1]y)")
        assert alpha_equal(out, t("Lam([z]y)"))

    def test_duplicate_occurrences(self):
        out = substitute(t("Ap(x, x)"), {Ident("x"): t("One()")})
        assert out == t("Ap(One(), One())")

    def test_shadowed_binder_blocks(self):
        out = substitute(t("Lam([x]x)"), {Ident("x"): t("One()")})
        assert out == t("Lam([x]x)")

    def test_key_substitution(self):
        out = substitute(t("F({x : x})"), {Ident("x"): t("w")})
        assert out == t("F({w : w})")

    @pytest.mark.parametrize("body,expected", [
        ("F({y : x})", "F({y : w})"),  # a key that is not substituted stays
        ("F(#M(x, y))", "F(#M(w, y))"),
        ("F({~x:, ~y:})", "F({~w:, ~y:})"),
    ])
    def test_through_keys_meta_arguments_and_absence_entries(self, body, expected):
        assert render(substitute(t(body), {Ident("x"): t("w")})) == expected

    def test_key_cannot_become_construction(self):
        with pytest.raises(EngineError):
            substitute(t("F({x : One()})"), {Ident("x"): t("One()")})

    def test_shares_the_subtrees_it_leaves_unchanged(self):
        # A construction is shared once its name set is kept and holds no
        # substituted name and no name of a replacement; the rest is copied.
        body = t("F(G(a, K()), H(b, Lam([y]y)))")
        all_idents(body)
        assert substitute(body, {Ident("c"): t("d")}) is body
        out = substitute(body, {Ident("a"): t("d")})
        assert render(out) == "F(G(d, K()), H(b, Lam([y]y)))"
        g, h = body.args[0].body, body.args[1].body
        assert out is not body and out.args[0].body is not g
        assert out.args[0].body.args[1].body is g.args[1].body
        assert out.args[1].body is h

    def test_shares_nothing_for_a_replacement_without_a_name_set(self):
        body = t("F(G(a), H(b))")
        all_idents(body)
        out = substitute(body, {Ident("a"): t("K(d)")})
        assert render(out) == "F(G(K(d)), H(b))"
        assert out.args[1].body is not body.args[1].body

    def test_a_binder_named_like_a_replacement_is_not_shared(self):
        # The copy renames every binder that clashes with a replacement,
        # even where the substituted name does not occur, so such a binder
        # is never shared.
        body = t("F(Lam([y]x), Lam([y]y))")
        all_idents(body)
        out = substitute(body, {Ident("x"): t("y")})
        assert render(out) == "F(Lam([y1]y), Lam([y1]y1))"
        assert substitute(body, {Ident("x"): t("z")}).args[1].body is body.args[1].body

    def test_capture_freedom_property(self):
        body = t("Lam([y]Ap(x, y))")
        repl = t("Ap(y, z)")
        out = substitute(body, {Ident("x"): repl})
        assert free_vars(out) <= (free_vars(body) - {"x"}) | free_vars(repl)


class TestContract:
    def test_beta_identity(self):
        val = Valuation(meta_bind={
            Ident("#M"): Abstraction((Ident("p"),), t("p")),
            Ident("#N"): Abstraction((), t("Lam([y]y)")),
        })
        assert contract(t("#M(#N)"), val) == t("Lam([y]y)")

    def test_apply_rule_contraction(self, ex2):
        rhs = ex2.rules[3].rhs  # Eval(#B(z), {#env, z : #V})
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("p")),
                Ident("#V"): Abstraction((), t("Lam([y]y)")),
                Ident("#env"): captured(),
            },
        )
        out = contract(rhs, val)
        assert out == t("Eval(z, {z : Lam([y]y)})")

    def test_nullary_meta(self):
        val = Valuation(meta_bind={Ident("#M"): Abstraction((), t("One()"))})
        assert contract(t("#M()"), val) == t("One()")

    def test_fresh_variable_avoids_collisions(self, ex2):
        rhs = ex2.rules[3].rhs
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("p")),
                Ident("#V"): Abstraction((), t("z")),
                Ident("#env"): captured(("z1", "One()")),
            },
        )
        out = contract(rhs, val, avoid={Ident("z")})
        # the rhs-fresh z collides with the avoid set, the valuation image,
        # and a spliced key; z2 is the first free name
        assert out == t("Eval(z2, {z1 : One(), z2 : z})")

    def test_consistent_fresh_choice_across_occurrences(self, ex2):
        rhs = ex2.rules[3].rhs
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("Ap(p, p)")),
                Ident("#V"): Abstraction((), t("One()")),
                Ident("#env"): captured(),
            },
        )
        out = contract(rhs, val)
        assert out == t("Eval(Ap(z, z), {z : One()})")

    def test_catchall_splice_and_override(self):
        rhs = parse_term("E({#env, z : #V})")
        val = Valuation(meta_bind={
            Ident("#V"): Abstraction((), t("New()")),
            Ident("#env"): captured(("a", "One()"), ("b", "Two()")),
        })
        out = contract(rhs, val, avoid=set())
        assert out == t("E({a : One(), b : Two(), z : New()})")

    def test_missing_binding_raises(self):
        with pytest.raises(EngineError):
            contract(t("#M(#N)"), Valuation())

    def test_rhs_binders_freshened_against_images(self):
        val = Valuation(meta_bind={Ident("#M"): Abstraction((Ident("p"),), t("Ap(p, x)"))})
        out = contract(t("Lam([x]#M(x))"), val)
        # the binder x would capture the image's free x; it is renamed
        assert alpha_equal(out, t("Lam([w]Ap(w, x))"))
        assert out == t("Lam([x1]Ap(x1, x))")


    def test_avoid_read_only_when_a_fresh_name_is_drawn(self, ex2):
        class Unreadable:
            def __iter__(self):
                raise AssertionError("avoid was read")

        class Counted:
            reads = 0

            def __iter__(self):
                Counted.reads += 1
                return iter([Ident("z")])

        # Rule 2's right side #V draws no name: avoid stays unread.
        val = Valuation(meta_bind={Ident("#V"): Abstraction((), t("Lam([y]y)"))})
        assert contract(ex2.rules[2].rhs, val, avoid=Unreadable()) == t("Lam([y]y)")
        # Rule 3's right side draws the fresh z: avoid is read, once.
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("p")),
                Ident("#V"): Abstraction((), t("One()")),
                Ident("#env"): captured(),
            },
        )
        with pytest.raises(AssertionError, match="avoid was read"):
            contract(ex2.rules[3].rhs, val, avoid=Unreadable())
        assert contract(ex2.rules[3].rhs, val, avoid=Counted()) == t("Eval(z1, {z1 : One()})")
        assert Counted.reads == 1


class TestBoundKeys:
    """Association keys bound inside the redex are matched under the binder."""

    SIGNATURE = "L data Lam([L]L); L data E({L:L}); L data G({L:L}); L data One(); L variable;"
    SPLICE = "L scheme H(L); L rule H(Lam([x]E({#rest(x)}))) -> Lam([w]G({#rest(w)}));"

    @pytest.mark.parametrize("rule,subject,expected,steps", [
        # #rest takes no parameter, so it may not capture the bound key y.
        ("L scheme F(L); L rule F(Lam([x]E({#rest}))) -> G({#rest});",
         "F(Lam([y]E({y : One()})))", "F(Lam([y]E({y : One()})))", 0),
        # The captured key follows its binder to the right side's w.
        (SPLICE, "H(Lam([y]E({y : One()})))", "Lam([w]G({w : One()}))", 1),
        (SPLICE, "H(Lam([y]E({y : y})))", "Lam([w]G({w : w}))", 1),
        # The pattern key x finds the subject key bound by the same binder.
        ("L scheme F(L); L rule F(Lam([x]E({x : #V}))) -> #V;",
         "F(Lam([x]E({x : One()})))", "One()", 1),
        # ~x: sees the bound key y and blocks the rule.
        ("L scheme N(L); L rule N(Lam([x]E({~x:, #rest}))) -> One();",
         "N(Lam([y]E({y : One()})))", "N(Lam([y]E({y : One()})))", 0),
    ], ids=["unparameterised-catchall", "spliced-key", "spliced-key-and-value",
            "named-key", "absent-key"])
    def test_bound_key(self, rule, subject, expected, steps):
        result = checked_normalize(self.SIGNATURE + rule, subject)
        assert render(result.term) == expected
        assert len(result.steps) == steps


class TestSubjectBinderNames:
    """A subject binder keeps its own name in the matcher unless the attempt
    used that name already; no binder is taken for another or for a free
    name of the same spelling."""

    @pytest.mark.parametrize("label,subject,expected,steps", CLASHING_CASES,
                             ids=[c[0] for c in CLASHING_CASES])
    def test_reused_names(self, label, subject, expected, steps):
        result = checked_normalize(CLASHING_NAMES, subject)
        assert render(result.term) == expected
        assert len(result.steps) == steps


class TestRewriteStep:
    def test_beta_at_root(self, ex1_checked, ex1_rules):
        hit = rewrite_step(ex1_checked.gamma, ex1_rules, t("Ap(Lam([x]x), Lam([y]y))"))
        assert hit is not None
        term, step = hit
        assert term == t("Lam([y]y)")
        assert step.position == () and step.rule_index == 0

    def test_eta_blocked_on_occurrence(self, ex1_checked, ex1_rules):
        assert rewrite_step(ex1_checked.gamma, ex1_rules, t("Lam([y]y)")) is None

    def test_data_head_has_no_redex(self, ex1_checked, ex1_rules):
        assert rewrite_step(ex1_checked.gamma, ex1_rules, t("One()")) is None

    def test_leftmost_outermost_order(self, ex1_checked, ex1_rules):
        # the root redex fires before the inner one
        subject = t("Ap(Lam([x]x), Ap(Lam([y]y), Lam([z]z)))")
        term, step = rewrite_step(ex1_checked.gamma, ex1_rules, subject)
        assert step.position == ()
        assert term == t("Ap(Lam([y]y), Lam([z]z))")

    def test_descends_into_assoc_values(self, ex2_checked, ex2_rules):
        subject = t("Eval(a, {b : Eval(Lam([x]x), {})})")
        hit = rewrite_step(ex2_checked.gamma, ex2_rules, subject)
        assert hit is not None
        term, step = hit
        assert step.position == (1, 0)
        assert alpha_equal(term, t("Eval(a, {b : Lam([x]x)})"))


class TestNormalize:
    def test_double_beta(self, ex1_checked, ex1_rules):
        res = normalize(ex1_checked.gamma, ex1_rules, t("Ap(Lam([x]Ap(x,x)), Lam([y]y))"), 10)
        assert res.status is NormalStatus.NORMAL_FORM
        assert len(res.steps) == 2
        assert res.term == t("Lam([y]y)")

    def test_cbv_evaluation(self, ex2_checked, ex2_rules):
        res = normalize(ex2_checked.gamma, ex2_rules,
                        t("Eval(Ap(Lam([x]x), Lam([y]y)), {})"), 50)
        assert res.status is NormalStatus.NORMAL_FORM
        assert alpha_equal(res.term, t("Lam([y]y)"))

    def test_rule_free_data_term(self, ex2_checked, ex2_rules):
        res = normalize(ex2_checked.gamma, ex2_rules, t("Lam([q]q)"), 1)
        assert res.status is NormalStatus.NORMAL_FORM
        assert res.steps == []
        assert res.term == t("Lam([q]q)")

    def test_fuel_exhaustion(self, ex1_checked, ex1_rules):
        omega = t("Ap(Lam([x]Ap(x,x)), Lam([x]Ap(x,x)))")
        res = normalize(ex1_checked.gamma, ex1_rules, omega, 5)
        assert res.status is NormalStatus.FUEL_EXHAUSTED
        assert len(res.steps) == 5

    def test_fuel_that_is_exactly_enough(self):
        # The last step uses up the fuel; the term it leaves is normal.
        result = checked_normalize(SIGNATURE + BRANCH_RULES, "G(a, a)", fuel=1)
        assert result.status is NormalStatus.NORMAL_FORM
        assert render(result.term) == "Done()" and len(result.steps) == 1

    def test_determinism(self, ex2_checked, ex2_rules):
        subject = t("Eval(Ap(Ap(Lam([x]x), Lam([y]y)), Lam([z]z)), {})")
        a = normalize(ex2_checked.gamma, ex2_rules, subject, 100)
        b = normalize(ex2_checked.gamma, ex2_rules, subject, 100)
        assert alpha_equal(a.term, b.term)
        assert len(a.steps) == len(b.steps)
        assert [s.position for s in a.steps] == [s.position for s in b.steps]

    def test_association_order_irrelevance(self, ex2_checked, ex2_rules):
        a = t("Eval(k, {k : Lam([x]x), b : One(), c : Two()})")
        b = t("Eval(k, {c : Two(), k : Lam([x]x), b : One()})")
        ra = normalize(ex2_checked.gamma, ex2_rules, a, 10)
        rb = normalize(ex2_checked.gamma, ex2_rules, b, 10)
        assert alpha_equal(ra.term, rb.term)  # the lookup result drops the env

    def test_blocked_scheme_left_in_place(self, ex2_checked, ex2_rules):
        res = normalize(ex2_checked.gamma, ex2_rules,
                        t("Ap(Eval(a, {}), Eval(Lam([x]x), {}))"), 10)
        assert res.status is NormalStatus.NORMAL_FORM
        assert alpha_equal(res.term, t("Ap(Eval(a, {}), Lam([x]x))"))


class TestPrepareRules:
    def test_contraction_side_catchalls_fine(self):
        script = parse_script(
            "L data One(); L variable;"
            "L scheme F({L:L}, {L:L});"
            "L rule F({#e1}, {#e2}) -> F({#e1, #e2}, {});"
        )
        result = check_script(script)
        assert result.ok, [e.format() for e in result.errors]
        rules = prepare_rules(result.gamma, script.rules, result.rule_envs)
        assert len(rules) == 1

    @pytest.mark.parametrize("source,reaches", [
        (BETA_ETA, [1, math.inf]),
        (CBV_EVAL, [1, 1, 1, 1]),
        (NONLINEAR, [math.inf, 0]),
        (REACH_TWO, [2, 0]),
        (IN_VALUE, [2, 0]),
        (UNTAKEN, [math.inf, 0]),
        (SIGNATURE + BRANCH_RULES, [math.inf, 1, 2]),
        (SIGNATURE + "L scheme S([L]L); L rule S([x]Lam([x]#M(x))) -> Done();", [math.inf]),
        (SIGNATURE + "L scheme S([L]L); L rule S([x]Lam([y]#M(y, x))) -> Done();", [1]),
    ], ids=["beta-eta", "cbv", "nonlinear-meta", "reach-two", "in-value", "untaken-catch-all",
            "branch-rules", "shadowed-binder", "every-binder-taken"])
    def test_pattern_reach(self, source, reaches):
        # How far below a node each pattern looks, counted as positions
        # count: a scope body one level and an association value two, so
        # W in F({x : W(#v)}, x) stands at depth 2.  η's #M() does not take
        # x, K(#m, #m) and F({#e}, {#e}) use a meta-variable twice, and under
        # S([x]Lam([x]...)) no meta-variable can take the outer x.  A variable
        # met twice, as in G(x, x), compares names only.
        script = parse_script(source)
        result = check_script(script)
        assert result.ok, [e.format() for e in result.errors]
        rules = prepare_rules(result.gamma, script.rules, result.rule_envs)
        assert [r.reach for r in rules] == reaches

    @pytest.mark.parametrize("unicode,arrow", [(False, "->"), (True, "→")],
                             ids=["ascii", "unicode"])
    def test_trace_format(self, ex1_checked, ex1_rules, unicode, arrow):
        # The header spells the rule's arrow as the rest of the trace does.
        term, step = rewrite_step(
            ex1_checked.gamma, ex1_rules, t("Ap(Lam([x]x), Lam([y]y))")
        )
        line = format_step(1, step, ex1_rules[step.rule_index], term, unicode=unicode)
        assert line.splitlines()[0] == (
            f"step 1 at [] by rule 0 (L rule Ap(Lam([x]#M(x)), #N) {arrow} #M(#N))"
        )
        assert line.splitlines()[1] == "Lam([y]y)"

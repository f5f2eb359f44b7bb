from __future__ import annotations

import functools
import random
import sys
from collections import Counter
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import plank.rewrite

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
from plank.terms import (
    AssocPiece,
    CatchAll,
    Construction,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    ScopePiece,
    Var,
    all_idents,
    free_vars,
    fresh_var,
)

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
from test_parser import _VARS, _nodes, random_term

REWRITE_FILE = plank.rewrite.__file__


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
    return contract(strip_not_keys(pattern), valuation, avoid=free_vars(subject))


# Every rule pattern of the corpus scripts, for the replay property.
CORPUS_PATTERNS = [
    rule.lhs
    for text in (BETA_ETA, CBV_EVAL, NONLINEAR, REACH_TWO, IN_VALUE, UNTAKEN, CLASHING_NAMES,
                 SIGNATURE + BRANCH_RULES)
    for rule in parse_script(text).rules
]

# The free names of the drawn fragments, which pattern variables map to,
# and the keys of the drawn captures: no capture holds a key the pattern
# names, so every absence key is absent.
_FREE = [Ident("a"), Ident("b"), Ident("c")]
_KEYS = [Ident("k"), Ident("l")]


def _lists(keys, values):
    """Association lists of distinct keys, as subjects hold them."""
    return st.dictionaries(keys, values, max_size=3).map(
        lambda d: AssocPiece(tuple(MapEntry(k, v) for k, v in d.items())))


def _fragments(names):
    """Ground terms whose free variables and binders are among ``names``."""
    leaves = st.sampled_from([*map(Var, names), Construction(Ident("One"))])

    def grow(kids):
        return st.one_of(
            st.lists(kids, min_size=1, max_size=2).map(
                lambda ts: Construction(Ident("G"), tuple(ScopePiece((), x) for x in ts))),
            st.tuples(st.sampled_from(names), kids).map(
                lambda b: Construction(Ident("Lam"), (ScopePiece((b[0],), b[1]),))),
            _lists(st.sampled_from(names), kids).map(
                lambda p: Construction(Ident("E"), (p,))),
        )

    return st.recursive(leaves, grow, max_leaves=6)


@functools.cache
def _abstractions(arity, catchall):
    """Abstractions over ``p0``, ``p1``, ...: terms, or a catch-all's lists."""
    params = tuple(Ident(f"p{i}") for i in range(arity))
    body = _fragments((*params, *_FREE))
    if catchall:
        body = _lists(st.sampled_from([*_KEYS, *params]), body)
    return body.map(lambda b: Abstraction(params, b))


def _valuation(data, pattern):
    """A drawn valuation of every meta-variable, catch-all and free variable
    of ``pattern``."""
    meta_bind = {}
    for n in _nodes(pattern):
        if isinstance(n, (MetaApp, CatchAll)) and n.meta not in meta_bind:
            meta_bind[n.meta] = data.draw(_abstractions(len(n.args), isinstance(n, CatchAll)))
    var_bind = {w: data.draw(st.sampled_from(_FREE)) for w in sorted(free_vars(pattern))}
    return Valuation(meta_bind, var_bind)


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
        # Outside every binder too: alpha-equal fragments that are not the
        # same object match, and different ones fail undoably.
        pattern, undone = t("K(#m, #m)"), []
        val = match_term(pattern, t("K(Lam([x]x), Lam([y]y))"), _undone=undone)
        assert val is not None and undone == []
        assert val.meta_bind["#m"] == Abstraction((), t("Lam([x]x)"))
        assert match_term(pattern, t("K(A(), B())"), _undone=undone) is None
        assert undone == [True]

    @pytest.mark.parametrize("inner,fragment,undone", [
        # A u in the fragment is the second u, which #q does not take.
        ("#q", "A(u)", True),
        ("#q", "A(w)", False),
        ("E({#q})", "E({k : A(u)})", True),
        ("E({#q})", "E({u : A()})", True),
        ("E({#q})", "E({k : A(w)})", False),
    ])
    def test_an_argument_free_meta_under_a_binder_is_renamed_and_checked(
            self, inner, fragment, undone):
        flags = []
        subject = t(f"Q(Lam([u]u), Lam([u]{fragment}))")
        val = match_term(t(f"Q(Lam([a]#p(a)), Lam([b]{inner}))"), subject, _undone=flags)
        assert (val is None, flags) == (undone, [True] if undone else [])
        if not undone:
            body = subject.args[1].body.args[0].body
            expected = body if inner == "#q" else body.args[0]
            assert val.meta_bind["#q"] == Abstraction((), expected)

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

    @given(st.sampled_from(CORPUS_PATTERNS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_match_replay_reproduces_subject(self, pattern, data):
        # The subject instantiates a corpus pattern with a drawn valuation,
        # its binders drawn fresh, so the pattern matches it.
        val = _valuation(data, pattern)
        avoid = {*_FREE, *_KEYS, *(p for ab in val.meta_bind.values() for p in ab.params)}
        subject = contract(strip_not_keys(pattern), val, avoid)
        got = match_term(pattern, subject)
        assert got is not None, (render(pattern), render(subject))
        # Lists compare as maps, so a catch-all that precedes a named key
        # need not give back the subject's entry order.
        assert alpha_equal(replay(pattern, got, subject), subject), (
            render(pattern), render(subject))


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

    def test_a_catchall_that_takes_the_whole_list_binds_that_list(self):
        subject = t("E({a : One(), b : Two()})")
        out = match_term(t("E({#env})"), subject)
        assert out.meta_bind["#env"].body is subject.args[0]

    def test_a_repeated_subject_key_is_overridden_by_the_later_entry(self):
        # The list has two entries but one key, so no catch-all takes it as
        # it is: the later entry overrides in the capture and in a lookup.
        subject = t("E(a, {a : A(), a : B()})")
        whole = match_term(t("E(x, {#env})"), subject)
        assert whole.meta_bind["#env"] == captured(("a", "B()"))
        assert whole.meta_bind["#env"].body is not subject.args[1]
        named = match_term(t("E(x, {#env; x : #V})"), subject)
        assert named.meta_bind["#V"].body == t("B()")
        assert named.meta_bind["#env"] == captured()
        assert match_term(t("E(x, {x : #V})"), subject).meta_bind["#V"].body == t("B()")

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

    def test_a_list_pattern_does_not_match_a_scope_argument(self):
        assert match_term(t("E({#env})"), t("E(One())")) is None

    def test_an_absence_entry_in_a_subject_list_raises(self):
        # The checker reports one in a subject (SAP-Not), and no contractum
        # holds one; the matcher names it rather than file it as a key.
        with pytest.raises(EngineError, match="only plain entries, got ~a:"):
            match_term(t("E({#env})"), t("E({~a:})"))

    @pytest.mark.parametrize("pattern", ["E({x : #V})", "E({~x:, #env})"])
    def test_a_key_bound_nowhere_raises_for_an_unchecked_pattern(self, pattern):
        # The checker reports such a key (SA-Map, SAP-Not); the matcher
        # names it rather than fail on a missing binding.
        with pytest.raises(EngineError, match="KeyNotElsewhere"):
            match_term(t(pattern), t("E({a : One()})"))

    @pytest.mark.parametrize("pattern, subject", [
        ("F(#M(x))", "F(One())"),  # no binder in scope
        ("Lam([y]#M(x))", "Lam([y]One())"),
        ("E({#env(x)})", "E({a : One()})"),
    ])
    def test_a_meta_argument_bound_nowhere_raises_for_an_unchecked_pattern(self, pattern,
                                                                          subject):
        # The checker reports it (SMP-Meta, SAP-All), with or without a
        # binder in scope.
        with pytest.raises(EngineError, match="must be a bound variable"):
            match_term(t(pattern), t(subject))


class TestSubstitute:
    def test_simple(self):
        assert substitute(t("x"), {Ident("x"): t("Lam([y]y)")}) == t("Lam([y]y)")

    def test_capture_avoided(self):
        out = substitute(t("Lam([y]x)"), {Ident("x"): t("y")})
        assert out == t("Lam([y1]y)")
        assert alpha_equal(out, t("Lam([z]y)"))
        # The mapping is only read, so a read-only one serves as it is.
        binding = MappingProxyType({Ident("x"): t("y")})
        assert substitute(t("Lam([y]x)"), binding) == out
        assert dict(binding) == {Ident("x"): t("y")}

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

    def test_a_binder_rename_has_its_own_free_name_memo(self):
        # The memo maps each substituted name to its replacement's free
        # names.  Renaming the binder y to y1 is a substitution of its own:
        # there y maps to y1, not to z, so the inner binder z stays.
        out = substitute(t("F([u]y, Lam([y]Ap(x, Lam([z]y))))"),
                         {Ident("x"): t("y"), Ident("y"): t("z")})
        assert render(out) == "F([u]z, Lam([y1]Ap(y, Lam([z]y1))))"

    def test_two_names_bound_to_one_replacement(self):
        r = t("Ap(a, b)")
        out = substitute(t("F([a]Ap(x, y), [b]x)"), {Ident("x"): r, Ident("y"): r})
        assert render(out) == "F([a1]Ap(Ap(a, b), Ap(a, b)), [b1]Ap(a, b))"
        first, second = out.args[0].body.args
        assert first.body is r and second.body is r and out.args[1].body is r

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

    def test_shares_an_unchanged_subtree_without_a_name_set(self):
        # ``K(d)`` keeps no name set, so no construction is passed over
        # unwalked; ``H(b)`` comes back from its walk as the same object,
        # and its plain argument is kept as it is.
        body = t("F(G(a), H(b))")
        all_idents(body)
        out = substitute(body, {Ident("a"): t("K(d)")})
        assert render(out) == "F(G(K(d)), H(b))"
        assert out.args[1] is body.args[1]

    def test_a_binder_named_like_a_replacement_is_renamed_only_over_a_substituted_name(self):
        # A binder that clashes with a replacement is renamed only where a
        # substituted name occurs free in its body; elsewhere its scope is
        # shared as it is.
        body = t("F(Lam([y]x), Lam([y]y))")
        all_idents(body)
        out = substitute(body, {Ident("x"): t("y")})
        assert render(out) == "F(Lam([y1]y), Lam([y]y))"
        assert out.args[1].body is body.args[1].body
        assert substitute(body, {Ident("x"): t("z")}).args[1].body is body.args[1].body

    def test_a_hidden_parameter_renames_no_binder_below_it(self):
        # The inner u hides the u that a takes, so #M's parameter is None,
        # which names no variable.  Substituting u for it renames no u
        # binder, as none holds it free.
        script = ("L data Lam([L]L); L scheme W(L, L); L variable;"
                  "L rule W(z, Lam([a]Lam([b]#M(a)))) -> #M(z);")
        result = checked_normalize(script, "W(u, Lam([u]Lam([u]Lam([u]u))))")
        assert render(result.term) == "Lam([u]u)"

    def test_capture_freedom_property(self):
        body = t("Lam([y]Ap(x, y))")
        repl = t("Ap(y, z)")
        out = substitute(body, {Ident("x"): repl})
        assert free_vars(out) <= (free_vars(body) - {"x"}) | free_vars(repl)

    def test_sharing_is_sound_on_random_terms(self):
        # Against a reference that copies every node: the same term up to
        # alpha and the same text, with or without a binder that clashes,
        # and no shared subtree that holds a substituted name free where it
        # stands.
        rng = random.Random(1711)
        outcomes = {"raised": 0, "no clash": 0, "clash": 0, "shared": 0}
        for i in range(1500):
            body = random_term(rng, 4)
            sub = {Ident(w): Var(Ident(rng.choice(_VARS))) if rng.random() < 0.4
                   else random_term(rng, 2) for w in rng.sample(_VARS, rng.randrange(1, 3))}
            if i % 2:
                all_idents(body)
            if i % 3:
                for r in sub.values():
                    if not isinstance(r, Var):
                        all_idents(r)
            try:
                out = substitute(body, sub)
            except EngineError:
                # A key stands where a non-variable is substituted.
                with pytest.raises(EngineError):
                    _copy_subst(body, sub)
                outcomes["raised"] += 1
                continue
            ref = _copy_subst(body, sub)
            assert alpha_equal(out, ref), (render(body), render(out), render(ref))
            assert render(out) == render(ref)
            binders = {b for n in _nodes(body) if isinstance(n, ScopePiece) for b in n.binders}
            clashes = not binders.isdisjoint(set().union(*map(free_vars, sub.values())))
            outcomes["clash" if clashes else "no clash"] += 1
            shared = _shared_subtrees(out, body, set(sub))
            for n, names in shared:
                assert _free_names(n).isdisjoint(names), (render(body), render(n))
            outcomes["shared"] += any(isinstance(n, Construction) for n, _ in shared)
        assert min(outcomes.values()) >= 100, outcomes


def _copy_subst(x, sub):
    """Capture-avoiding substitution that builds every node anew, the
    reference for ``substitute``.  Under a scope it substitutes only the
    names free in the body, and it renames binders as ``substitute`` does:
    each binder that such a name's replacement has free, in order, to the
    first name that is no name of the scope's body, binders or remaining
    substitution and none drawn before."""
    if isinstance(x, Var):
        return sub[x.name] if x.name in sub else Var(x.name)
    if isinstance(x, Construction):
        return Construction(x.head, tuple(_copy_subst(p, sub) for p in x.args))
    if isinstance(x, ScopePiece):
        inner = {w: r for w, r in sub.items() if w not in x.binders and w in free_vars(x.body)}
        clash = set().union(*map(free_vars, inner.values()))
        avoid = clash | all_idents(x.body) | set(x.binders) | set(inner)
        binders, body = [], x.body
        for b in x.binders:
            if b in clash:
                b2 = fresh_var(b, avoid)
                avoid.add(b2)
                body, b = _copy_subst(body, {b: Var(b2)}), b2
            binders.append(b)
        return ScopePiece(tuple(binders), _copy_subst(body, inner))
    if isinstance(x, (MetaApp, CatchAll)):
        return type(x)(x.meta, tuple(_copy_subst(a, sub) for a in x.args))
    if isinstance(x, AssocPiece):
        return AssocPiece(tuple(_copy_subst(e, sub) for e in x.entries))
    key = sub.get(x.key, Var(x.key))
    if not isinstance(key, Var):
        raise EngineError(f"non-variable for key {x.key}")
    if isinstance(x, MapEntry):
        return MapEntry(key.name, _copy_subst(x.value, sub))
    return NotKey(key.name)


def _shared_subtrees(out, body, names):
    """Each node of ``out`` that is a node of ``body`` itself, with the
    names of ``names`` that no binder of ``out`` above it shadows."""
    inside, found, todo = {id(n) for n in _nodes(body)}, [], [(out, names)]
    while todo:
        n, names = todo.pop()
        if id(n) in inside:
            found.append((n, names))
        if isinstance(n, ScopePiece):
            names = names - set(n.binders)
        for f in n._fields:
            v = getattr(n, f)
            todo.extend((c, names) for c in (v if isinstance(v, tuple) else (v,))
                        if isinstance(c, plank.terms._Node))
    return found


def _free_names(n):
    """The free variables and keys of any node of a term."""
    if isinstance(n, ScopePiece):
        n = Construction(Ident("X"), (n,))
    elif isinstance(n, (MapEntry, NotKey, CatchAll)):
        n = AssocPiece((n,))
    return free_vars(n)


def _frames(names, call):
    """``call()`` and the number of calls it made of each function of
    ``plank.rewrite`` named in ``names``, as a ``Counter``."""
    calls = Counter()

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename == REWRITE_FILE and code.co_name in names:
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, calls


class TestFramesPerLevel:
    """Substitution, contraction and matching spend at most one frame on a
    node, and none on a plain argument.  For an argument-free meta-variable
    or catch-all outside every binder the matcher spends no ``bind_meta``
    call, and contraction one ``_inst`` frame, which returns the fragment
    and substitutes nothing."""

    def test_substitute(self):
        # F, G and H: a plain argument costs nothing, and a variable under
        # one is looked up in place.
        body, k = t("F(G(a), H(b))"), t("K(d)")
        out, n = _frames({"_subst"}, lambda: substitute(body, {Ident("a"): k}))
        assert render(out) == "F(G(K(d)), H(b))"
        assert n == {"_subst": 3}

    def test_contract(self):
        # Call-by-value beta: Eval(#B(z), {#env, z : #V}) costs Eval, #B(z),
        # z, the list, #env and #V.
        rule = parse_script(CBV_EVAL).rules[3]
        subject = t("Apply(Lam([x]Ap(x, x)), Lam([y]y), {w : Lam([v]v)})")
        val = match_term(rule.lhs, subject)
        out, n = _frames({"_inst"}, lambda: contract(rule.rhs, val, all_idents(subject)))
        assert render(out) == "Eval(Ap(z, z), {w : Lam([v]v), z : Lam([y]y)})"
        assert n == {"_inst": 6}

    def test_contract_argument_free_metas(self):
        # Apply(Eval(#F, {#env}), Eval(#A, {#env}), {#env}) costs Apply,
        # each Eval, its #F or #A, each list and each #env, and no
        # substitution.
        rule = parse_script(CBV_EVAL).rules[1]
        subject = t("Eval(Ap(Lam([x]x), y), {w : Lam([v]v)})")
        val = match_term(rule.lhs, subject)
        out, n = _frames({"_inst", "substitute", "_subst"},
                         lambda: contract(rule.rhs, val, all_idents(subject)))
        assert render(out) == ("Apply(Eval(Lam([x]x), {w : Lam([v]v)}), "
                               "Eval(y, {w : Lam([v]v)}), {w : Lam([v]v)})")
        assert n == {"_inst": 11}

    def test_match_term(self):
        # F, G, a, H and b, each matched by ``term``; ``piece`` is not called.
        pattern, subject = t("F(G(a), H(b))"), t("F(G(a), H(b))")
        val, n = _frames({"term", "piece"}, lambda: match_term(pattern, subject))
        assert val is not None and n == {"term": 5}

    def test_match_argument_free_metas(self):
        # Eval, Ap, #F and #A through ``term``, the list through ``piece``;
        # #F, #A and #env are recorded without ``bind_meta``.
        rule = parse_script(CBV_EVAL).rules[1]  # Eval(Ap(#F, #A), {#env})
        subject = t("Eval(Ap(Lam([x]x), y), {w : Lam([v]v)})")
        val, n = _frames({"term", "piece", "bind_meta", "_record_meta"},
                         lambda: match_term(rule.lhs, subject))
        assert val is not None
        assert n == {"term": 4, "piece": 1, "_record_meta": 3}


class TestContract:
    def test_beta_identity(self):
        val = Valuation(meta_bind={
            Ident("#M"): Abstraction((Ident("p"),), t("p")),
            Ident("#N"): Abstraction((), t("Lam([y]y)")),
        })
        assert contract(t("#M(#N)"), val, avoid={Ident("p"), Ident("y")}) == t("Lam([y]y)")

    def test_apply_rule_contraction(self, ex2):
        rhs = ex2.rules[3].rhs  # Eval(#B(z), {#env, z : #V})
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("p")),
                Ident("#V"): Abstraction((), t("Lam([y]y)")),
                Ident("#env"): captured(),
            },
        )
        out = contract(rhs, val, avoid={Ident("p"), Ident("y")})
        assert out == t("Eval(z, {z : Lam([y]y)})")

    def test_nullary_meta(self):
        val = Valuation(meta_bind={Ident("#M"): Abstraction((), t("One()"))})
        assert contract(t("#M()"), val, avoid=set()) == t("One()")

    def test_an_argument_free_meta_contracts_to_its_fragment_itself(self, ex2):
        rule = ex2.rules[2]  # Eval(x, {#env; x : #V}) -> #V
        subject = t("Eval(a, {b : One(), a : Lam([y]y)})")
        val = match_term(rule.lhs, subject)
        fragment = subject.args[1].entries[1].value
        assert contract(rule.rhs, val, all_idents(subject)) is fragment

    def test_fresh_variable_avoids_collisions(self, ex2):
        rhs = ex2.rules[3].rhs
        val = Valuation(
            meta_bind={
                Ident("#B"): Abstraction((Ident("p"),), t("p")),
                Ident("#V"): Abstraction((), t("z")),
                Ident("#env"): captured(("z1", "One()")),
            },
        )
        # the subject Apply(Lam([p]p), z, {z1 : One()}) holds z, the
        # valuation's image, and z1, a spliced key: the rhs-fresh z collides
        # with both, and z2 is the first free name
        out = contract(rhs, val, avoid={Ident("p"), Ident("z"), Ident("z1")})
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
        out = contract(rhs, val, avoid={Ident("p")})
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
            contract(t("#M(#N)"), Valuation(), avoid=set())

    def test_an_arity_mismatch_raises(self):
        # The checker gives a meta-variable one meta-form on both sides
        # (SMP-Meta, SMC-Meta), so only a hand-built valuation differs.
        val = Valuation(meta_bind={Ident("#M"): Abstraction((), t("One()"))})
        with pytest.raises(EngineError, match="arity mismatch instantiating #M"):
            contract(t("#M(x)"), val, avoid=set())

    def test_an_absence_entry_on_a_right_side_raises(self):
        # The checker reports it (SAP-Not); contraction has nothing to build.
        with pytest.raises(EngineError, match="absence entry cannot be contracted"):
            contract(t("E({~a:})"), Valuation(), avoid=set())

    def test_rhs_binders_freshened_against_images(self):
        val = Valuation(meta_bind={Ident("#M"): Abstraction((Ident("p"),), t("Ap(p, x)"))})
        # the subject Lam([p]Ap(p, x)) holds the image's free x, which the
        # binder x would capture; it is renamed
        out = contract(t("Lam([x]#M(x))"), val, avoid={Ident("p"), Ident("x")})
        assert alpha_equal(out, t("Lam([w]Ap(w, x))"))
        assert out == t("Lam([x1]Ap(x1, x))")

    def test_fresh_name_avoids_every_name_of_a_matched_subject(self, ex2):
        # A valuation that a match returns holds only names of its subject,
        # so the subject's names are the whole avoid set.
        subject = t("Apply(Lam([z]Ap(z, z1)), z, {z1 : Lam([z2]z2)})")
        rule = ex2.rules[3]  # Apply(Lam([x]#B(x)), #V, {#env}) -> Eval(#B(z), {#env, z : #V})
        val = match_term(rule.lhs, subject)
        assert val is not None
        out = contract(rule.rhs, val, avoid=all_idents(subject))
        drawn = out.args[1].entries[-1].key
        assert drawn not in all_idents(subject)
        assert out == t("Eval(Ap(z3, z1), {z1 : Lam([z2]z2), z3 : z})")


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

    @pytest.mark.parametrize("subject,result,steps", [
        ("Ap({x : Ap(Lam([y]y), y)}, z)", "Ap({x : y}, z)", [((0, 0), 0)]),
        ("Lam({x : Ap(Lam([y]y), y)})", "Lam({x : y})", [((0, 0), 0)]),
        ("Ap()", "Ap()", []),
    ], ids=["list-for-scope", "list-for-binder-scope", "missing-argument"])
    def test_an_ill_sorted_subject_only_fails_to_match(self, ex1_checked, ex1_rules, subject,
                                                       result, steps):
        # Outside the engine's contract, but no reason for a traceback: a
        # piece of the wrong form, or a missing one, where a rule's guard
        # looks is a failed match, and the search goes on below it.
        res = normalize(ex1_checked.gamma, ex1_rules, t(subject))
        assert render(res.term) == result
        assert [(s.position, s.rule_index) for s in res.steps] == steps

    def test_fuel_must_be_positive(self, ex1_checked, ex1_rules):
        with pytest.raises(ValueError, match="fuel must be positive"):
            normalize(ex1_checked.gamma, ex1_rules, t("Ap(Lam([x]x), Lam([y]y))"), fuel=0)

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
    def test_a_pattern_that_is_no_construction_raises(self):
        # The checker reports it (SMP-Fun); the index by head needs a head.
        script = parse_script(SIGNATURE + "L rule x -> Done();")
        checked = check_script(script)
        assert "SMP-Fun" in {e.rule for e in checked.errors}
        with pytest.raises(EngineError, match="rule 0 pattern is not a construction"):
            prepare_rules(checked.gamma, script.rules, checked.rule_envs)

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
        (BETA_ETA, [1, 2]),
        (CBV_EVAL, [1, 1, 1, 1]),
        (NONLINEAR, [0, 0]),
        (REACH_TWO, [2, 0]),
        (IN_VALUE, [1, 0]),
        (UNTAKEN, [1, 0]),
        (SIGNATURE + BRANCH_RULES, [0, 1, 2]),
        (SIGNATURE + "L scheme S([L]L); L rule S([x]Lam([x]#M(x))) -> Done();", [1]),
        (SIGNATURE + "L scheme S([L]L); L rule S([x]Lam([y]#M(y, x))) -> Done();", [1]),
    ], ids=["beta-eta", "cbv", "nonlinear-meta", "reach-two", "in-value", "untaken-catch-all",
            "branch-rules", "shadowed-binder", "every-binder-taken"])
    def test_pattern_reach(self, source, reaches):
        # How far below a node each pattern looks, counted in tree levels:
        # a scope body and an association value one level each, so W in
        # F({x : W(#v)}, x) stands at depth 1 and the x of η's
        # Lam([x]Ap(#M(), x)) at depth 2.  The reach is structural: a
        # meta-variable or catch-all counts nothing, whether it may reject a
        # fragment (η's #M() does not take x, K(#m, #m) and F({#e}, {#e}) use
        # one twice, under S([x]Lam([x]...)) none can take the outer x) or
        # not.  A variable met twice, as in G(x, x), compares names only.
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

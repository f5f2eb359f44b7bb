from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from plank import (
    build_global_env,
    check_script,
    normalize,
    parse_script,
    parse_term,
    prepare_rules,
    render,
)
from plank.checker import _Check, check_declaration, check_ground_subject, check_sort
from plank.env import MetaForm, RuleEnv, infer_rule_env
from plank.terms import (
    AssocForm,
    AssocPiece,
    CatchAll,
    Construction,
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
    non_assoc_vars,
)
from conftest import CBV_EVAL
from test_regression import (
    CHECK_TAGS,
    REPO,
    _assert_sorted_as,
    _diagnostic_tags,
    _draw_construction,
    _draw_term,
)

L = SortCons(Ident("L"))


def walker(gamma, in_pat, *, var=None, meta=None, v=(), bound=()):
    """A walker of one judgment over ``gamma``, with the key set ``v`` and
    the binders in scope that its methods take after a node and a sort; its
    methods append their diagnostics to ``check.errors``."""
    delta = RuleEnv(dict(var or {}), dict(meta or {}))
    return (_Check(gamma, delta, in_pat, []), frozenset(Ident(x) for x in v),
            {Ident(b): delta.var[b] for b in bound})


@pytest.fixture(scope="module")
def g1(ex1):
    return build_global_env(ex1)[0]


@pytest.fixture(scope="module")
def g2(ex2):
    return build_global_env(ex2)[0]


class TestCheckScript:
    def test_corpus_accepted(self, ex1_checked, ex2_checked):
        assert ex1_checked.ok
        assert ex2_checked.ok
        assert len(ex1_checked.rule_envs) == 2
        assert len(ex2_checked.rule_envs) == 4

    def test_missing_variable_decl_rejected_at_lookup(self):
        mutated = CBV_EVAL.replace("L variable;\n", "")
        script = parse_script(mutated, file="ex2.plank")
        result = check_script(script)
        assert not result.ok
        smp_var = [e for e in result.errors if e.rule == "SMP-Var"]
        assert smp_var, [e.format() for e in result.errors]
        # the spec pins the free x of the lookup rule as the offender
        lookup_line = 1 + mutated[: mutated.index("L rule Eval(x,")].count("\n")
        assert any(e.span and e.span.start_line == lookup_line for e in smp_var)
        # the apply rule's contraction key z is the only other casualty
        assert {e.rule for e in result.errors} == {"SMP-Var", "SMC-Var"}

    def test_rule_with_unbound_rhs_meta(self):
        rule = "L rule Eval(#F, {#env}) -> Apply(#F, #A, {#env});"
        result = check_script(parse_script(CBV_EVAL + rule))
        assert [e.rule for e in result.errors] == ["UnboundMetaOnRhs"]

    def test_multiple_catchalls_rejected(self):
        # Matching would not determine which entries each catch-all takes;
        # a contraction may splice any number of them.
        result = check_script(parse_script(
            "L data One(); L variable;"
            "L scheme F({L:L}, {L:L});"
            "L rule F({#e1, #e2}, {}) -> F({#e1, #e2}, {});"
        ))
        assert [e.rule for e in result.errors] == ["SAP-All"]
        assert "MultipleCatchAll" in result.errors[0].message

    def test_errors_carry_known_tags(self):
        bad = parse_script(
            "L data One(); L scheme F([L]L); L rule F([x]#M(x, x)) -> One();"
        )
        result = check_script(bad)
        # Exactly the tags the source emits, so a deleted check takes its tag along.
        emitted = set().union(*(_diagnostic_tags(path.read_text("utf-8"))
                                for path in (REPO / "src" / "plank").glob("*.py")))
        assert CHECK_TAGS | {"parse"} == emitted
        assert result.errors and all(e.rule in CHECK_TAGS for e in result.errors)

    def test_diagnostic_format(self):
        script = parse_script("L data One(); L scheme F(L); L rule F(x) -> One();",
                              file="demo.plank")
        result = check_script(script)
        line = result.errors[0].format("demo.plank")
        assert line.startswith("demo.plank:1:")
        assert "error[SMP-Var]:" in line


@st.composite
def _declaration_scripts(draw):
    """Scripts of data, scheme and variable declarations over a few names
    and sorts: names repeat, with the same or another signature, and some
    sorts are or hold sort variables."""
    decls = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["data", "scheme", "variable"]))
        sort = draw(st.sampled_from(["L", "M", "Box<L>", "Box<a>", "a", "b"]))
        if kind == "variable":
            decls.append(f"{sort} variable;")
        else:
            name, form = draw(st.sampled_from("ABF")), draw(st.sampled_from(["", "L", "[L]L"]))
            decls.append(f"{sort} {kind} {name}({form});")
    return parse_script(" ".join(decls))


class TestCheckDeclaration:
    def test_data_decl_ok(self, g2, ex2):
        lam = ex2.declarations[0]
        errors = []
        check_declaration(g2, lam, errors)
        assert errors == []

    def test_data_name_in_scheme_set(self, g2):
        decl = parse_script("L data Ap(L, L);").declarations[0]
        gamma = g2
        gamma_fun_backup = set(gamma.fun)
        gamma.fun.add(Ident("Ap"))
        try:
            errors = []
            check_declaration(gamma, decl, errors)
            assert [e.rule for e in errors] == ["SD-Data"]
        finally:
            gamma.fun.clear()
            gamma.fun.update(gamma_fun_backup)

    @given(script=_declaration_scripts())
    @settings(max_examples=100, deadline=None)
    def test_gamma_records_every_scheme_and_named_variable_sort(self, script):
        # SD-Fun and SD-Var's premise that a named sort has variables hold by
        # construction of gamma, so ``check_declaration`` does not test them.
        gamma = build_global_env(script)[0]
        unnamed = 0
        for d in script.declarations:
            if isinstance(d, SchemeDecl):
                assert d.name in gamma.fun, render(d)
            elif isinstance(d, VariableDecl):
                if isinstance(d.sort, SortCons):
                    assert d.sort.name in gamma.hasvar, render(d)
                else:
                    unnamed += 1
        errors = check_script(script).errors
        assert sum(e.rule == "SD-Var" for e in errors) == unnamed

    def test_data_that_is_also_a_scheme(self):
        errors = check_script(parse_script("L data A(); L scheme A();", file="d.plank")).errors
        assert [e.format() for e in errors] == [
            "d.plank:1:1: error[SD-Data]: constructor A is declared as data but is a scheme"]

    def test_variable_decl_needs_named_sort(self, g2):
        decl = parse_script("a variable;").declarations[0]
        errors = []
        check_declaration(g2, decl, errors)
        assert [e.rule for e in errors] == ["SD-Var"]

    def test_redeclarations(self):
        # An identical redeclaration is idempotent; a conflicting one is one
        # DuplicateConstructor, with no follow-on from the declaration check.
        base = "L data One(); L scheme F(L); L data A(L); "
        assert check_script(parse_script(base + "L data A(L); L scheme F(L);")).errors == []
        for again in ("L data A(L, L);", "L data A([L]L);", "L scheme F(L, L);",
                      "L scheme F({L:L});"):
            errors = check_script(parse_script(base + again, file="r.plank")).errors
            assert [e.format() for e in errors] == [
                f"r.plank:1:{len(base) + 1}: error[DuplicateConstructor]: constructor "
                f"{again.split()[2].split('(')[0]} already declared with a different signature"
            ], again

    def test_sorts_are_checked_where_some_sort_has_two_ranks(self):
        # Rank is fixed at a sort's first use; every later use at another
        # arity is SS-Cons, in declaration order, rule sorts included.
        text = ("L data One(); L<L> data Two(L, Box); Box<L> data B(L<L>); Box scheme G(L);"
                "L variable; L rule G(x) -> x; L<L> rule G(x) -> x;")
        errors = check_script(parse_script(text, file="r.plank")).errors
        assert [e.format() for e in errors] == [f"r.plank:1:{line}" for line in (
            "15: error[NonVariableSortParameter]: result sort parameters of data constructor "
            "Two must be distinct sort variables",
            "38: error[NonVariableSortParameter]: result sort parameters of data constructor "
            "B must be distinct sort variables",
            "15: error[SS-Cons]: sort L applied to 1 argument(s) but has rank 0",
            "38: error[SS-Cons]: sort Box applied to 1 argument(s) but has rank 0",
            "52: error[SS-Cons]: sort L applied to 1 argument(s) but has rank 0",
            "94: error[SMP-Fun]: construction G has sort Box, which does not match the "
            "expected sort L",
            "105: error[SS-Cons]: sort L applied to 1 argument(s) but has rank 0",
            "115: error[SMP-Fun]: construction G has sort Box, which does not match the "
            "expected sort L<L>")]


class TestCheckSort:
    def test_monomorphic_ok(self, g1):
        errors = []
        check_sort(g1, L, errors)
        assert errors == []

    def test_sort_variable_ok(self, g1):
        errors = []
        check_sort(g1, SortVar(Ident("a")), errors)
        assert errors == []

    def test_rank_mismatch(self, g1):
        errors = []
        check_sort(g1, SortCons(Ident("L"), (L,)), errors)
        assert [e.rule for e in errors] == ["SS-Cons"]

    def test_nested_rank_checking(self):
        gamma, _ = build_global_env(parse_script("Box<a> data B(a); L data One();"))
        errors = []
        check_sort(gamma, SortCons(Ident("Box"), (L,)), errors)
        assert errors == []
        check_sort(gamma, SortCons(Ident("Box"), (SortCons(Ident("Box"), ()),)), errors)
        assert [e.rule for e in errors] == ["SS-Cons"]


class TestCheckTerm:
    def test_repeated_meta_args_rejected(self, g2):
        check, v, bound = walker(
            g2, True,
            var={"x": L}, meta={"#M": MetaForm((L, L), L)}, bound=("x",),
        )
        check.term(parse_term("#M(x, x)"), L, v, bound)
        assert [e.rule for e in check.errors] == ["SMP-Meta"]
        assert "distinct" in check.errors[0].message

    def test_meta_argument_of_another_sort_rejected(self, g2):
        # Inference reports such a rule as MetaFormConflict first, so only a
        # direct caller reaches this.
        check, v, bound = walker(
            g2, True,
            var={"x": L}, meta={"#M": MetaForm((SortCons(Ident("B")),), L)}, bound=("x",),
        )
        check.term(parse_term("#M(x)"), L, v, bound)
        assert [e.format() for e in check.errors] == [
            "<term>:1:4: error[SMP-Meta]: argument x of #M has L, expected B"]

    def test_beta_rhs_checks_in_con(self, g1):
        check, v, bound = walker(
            g1, False,
            var={"x": L},
            meta={"#M": MetaForm((L,), L), "#N": MetaForm((), L)},
        )
        check.term(parse_term("#M(#N)"), L, v, bound)
        assert check.errors == []

    def test_substituted_variable_ok_at_hasvar_sort(self, g2):
        check, v, bound = walker(
            g2, False,
            var={"z": L}, meta={"#B": MetaForm((L,), L)},
        )
        check.term(parse_term("#B(z)"), L, v, bound)
        assert check.errors == []

    def test_substituted_construction_rejected_at_hasvar_sort(self, g2):
        check, v, bound = walker(g2, False, meta={"#B": MetaForm((L,), L)})
        check.term(parse_term("#B(Lam([y]y))"), L, v, bound)
        assert [e.rule for e in check.errors] == ["SMS-Cons"]

    def test_substituted_construction_ok_without_hasvar(self, g1):
        check, v, bound = walker(g1, False, meta={"#M": MetaForm((L,), L)})
        check.term(parse_term("#M(Lam([y]y))"), L, v, bound)
        assert check.errors == []

    def test_pattern_top_must_be_scheme(self, g2):
        check, v, bound = walker(g2, True)
        check.pattern(parse_term("Lam([x]x)"), L, v)
        assert [e.rule for e in check.errors] == ["SMP-Fun"]

    def test_scheme_inside_pattern_rejected_with_data(self, g2):
        check, v, bound = walker(g2, True, meta={"#A": MetaForm((), L)})
        check.term(parse_term("Eval(#A, {#env})"), L, v, bound)
        assert check.errors and check.errors[0].rule == "SMP-Data"

    def test_scheme_inside_pattern_tolerated_without_data(self, g1):
        # a pure scheme signature has no data patterns at all
        check, v, bound = walker(g1, True, meta={"#M": MetaForm((L,), L)},
                   bound=("x",), var={"x": L})
        check.term(parse_term("Lam([y]Ap(#M(y), x))"), L, v, bound)
        assert check.errors == []

    def test_free_variable_needs_hasvar_even_without_data(self, g1):
        check, v, bound = walker(g1, True, var={"x": L})
        check.term(parse_term("x"), L, v, bound)
        assert [e.rule for e in check.errors] == ["SMP-Var"]

    def test_unknown_constructor_in_con(self, g1):
        check, v, bound = walker(g1, False)
        check.term(parse_term("Zap()"), L, v, bound)
        assert [e.rule for e in check.errors] == ["SMC-Cons"]

    @pytest.mark.parametrize("in_pat,tag", [(True, "SMP-Var"), (False, "SMC-Var")])
    def test_a_node_that_is_no_term_is_not_taken_for_a_variable(self, g1, in_pat, tag):
        # A parsed term that is neither a construction nor a meta-application
        # is a variable; only a hand-built node reaches the variable guard.
        check, v, bound = walker(g1, in_pat)
        check.term(CatchAll(Ident("#e")), L, v, bound)
        assert [(e.rule, e.message) for e in check.errors] == [(tag, "expected a variable, got #e")]


class TestCheckPiece:
    def test_scope_piece_ok(self, g1):
        check, v, bound = walker(g1, True, meta={"#M": MetaForm((L,), L)})
        check.piece(parse_term("F([x]#M(x))").args[0], ScopeForm((L,), L), v, bound)
        assert check.errors == []

    def test_binder_arity_mismatch(self, g1):
        check, v, bound = walker(g1, True)
        piece = parse_term("F([x,y]x)").args[0]
        check.piece(piece, ScopeForm((L,), L), v, bound)
        assert [e.rule for e in check.errors] == ["SP-Bind"]
        assert "BinderArityMismatch" in check.errors[0].message

    def test_assoc_piece_ok(self, g2):
        check, v, bound = walker(
            g2, True,
            var={"x": L},
            meta={"#env": MetaForm((), AssocForm(L, L)), "#V": MetaForm((), L)},
            v=("x",),
        )
        piece = parse_term("E({#env; x : #V})").args[0]
        check.piece(piece, AssocForm(L, L), v, bound)
        assert check.errors == []

    def test_shadowed_binder_is_freshened(self, g1):
        check, v, bound = walker(g1, True, meta={"#M": MetaForm((L, L), L)},
                   var={"x": L}, bound=("x",))
        # inner [x] shadows the outer one; both arguments of the meta name
        # the inner binder
        piece = parse_term("F([x]#M(x, x))").args[0]
        check.piece(piece, ScopeForm((L,), L), v, bound)
        assert [e.rule for e in check.errors] == ["SMP-Meta"]  # still not distinct

    def test_piece_kind_mismatch(self, g2):
        check, v, bound = walker(g2, True)
        check.piece(parse_term("F([x]x)").args[0], AssocForm(L, L), v, bound)
        check.piece(parse_term("F({})").args[0], ScopeForm((), L), v, bound)
        assert [e.rule for e in check.errors] == ["SP-Bind", "SP-Assoc"]


class TestCheckAssociation:
    def setup_walker(self, g2, in_pat, v=("x",)):
        return walker(
            g2, in_pat,
            var={"x": L, "y": L},
            meta={"#env": MetaForm((), AssocForm(L, L)), "#V": MetaForm((), L)},
            v=v,
        )

    def test_map_entry_ok(self, g2):
        check, v, bound = self.setup_walker(g2, True)
        entry = parse_term("E({x : #V})").args[0].entries[0]
        check.association(entry, AssocForm(L, L), v, bound)
        assert check.errors == []

    def test_key_not_elsewhere(self, g2):
        check, v, bound = self.setup_walker(g2, True)
        entry = parse_term("E({y : #V})").args[0].entries[0]
        check.association(entry, AssocForm(L, L), v, bound)
        assert [e.rule for e in check.errors] == ["SA-Map"]
        assert "KeyNotElsewhere" in check.errors[0].message

    def test_not_key_in_contraction(self, g2):
        check, v, bound = self.setup_walker(g2, False)
        entry = parse_term("E({~x:})").args[0].entries[0]
        check.association(entry, AssocForm(L, L), v, bound)
        assert [e.rule for e in check.errors] == ["SAP-Not"]
        assert "NotKeyInContraction" in check.errors[0].message

    def test_not_key_ok_in_pattern(self, g2):
        check, v, bound = self.setup_walker(g2, True)
        entry = parse_term("E({~x:})").args[0].entries[0]
        check.delta.pattern_vars = frozenset({Ident("x")})
        check.association(entry, AssocForm(L, L), v, bound)
        assert check.errors == []
        check.delta.pattern_vars = frozenset()
        check.association(entry, AssocForm(L, L), v, bound)
        assert [e.rule for e in check.errors] == ["SAP-Not"]

    def test_not_key_waits_for_the_whole_pattern(self, g2):
        # A key that is no binder in scope may be bound by any variable of
        # the pattern, which the rule's environment collects before the check.
        check, v, bound = self.setup_walker(g2, True)
        entry = parse_term("E({~y:})").args[0].entries[0]
        check.delta.pattern_vars = frozenset({Ident("x"), Ident("y")})
        check.association(entry, AssocForm(L, L), v, bound)
        assert check.errors == []
        check.delta.pattern_vars = frozenset({Ident("x")})
        check.association(entry, AssocForm(L, L), v, bound)
        assert [e.rule for e in check.errors] == ["SAP-Not"]
        assert "KeyNotElsewhere" in check.errors[0].message

    def test_catchall_in_pattern_and_contraction(self, g2):
        for in_pat in (True, False):
            check, v, bound = self.setup_walker(g2, in_pat)
            entry = parse_term("E({#env})").args[0].entries[0]
            check.association(entry, AssocForm(L, L), v, bound)
            assert check.errors == []

    def test_catchall_args_in_contraction_are_substitutions(self, g2):
        check, v, bound = walker(
            g2, False,
            var={"x": L},
            meta={"#env": MetaForm((L,), AssocForm(L, L))},
            v=("x",),
        )
        entry = parse_term("E({#env(Lam([y]y))})").args[0].entries[0]
        check.association(entry, AssocForm(L, L), v, bound)
        assert [e.rule for e in check.errors] == ["SMS-Cons"]

    def test_value_extends_v(self, g2):
        # the value's own non-association variables may justify nested keys
        check, v, bound = walker(
            g2, False,
            var={"x": L, "y": L}, meta={"#V": MetaForm((), L)}, v=("x",),
        )
        entry = parse_term("E({x : Ap(y, F({y : #V}))})").args[0].entries[0]
        check.association(entry, AssocForm(L, L), v, bound)
        # F is undeclared: the only error is the unknown constructor, not SA-Map
        assert [e.rule for e in check.errors] == ["SMC-Cons"]


class TestKeys:
    """A key's sort needs the 'variable' declaration even where a bound
    variable of that sort is waived (a sort with no data constructors):
    substitution renames keys, and only at a 'variable' sort does the
    checker keep what is substituted a variable."""

    SIG = "S scheme Mk(); L data A(); L data H({S:L}); L scheme F([S]L); L scheme G(L);"

    @pytest.mark.parametrize("rule,tags", [
        ("L rule F([x]#B(x)) -> G(#B(Mk()));", []),
        ("L rule F([x]H({x : #V})) -> G(#V);", ["SMP-Var"]),
        ("L rule F([x]H({~x:, #e(x)})) -> A();", ["SMP-Var"]),
        ("L rule G(#V) -> F([x]H({x : #V}));", ["SMC-Var"]),
    ], ids=["bound-variable-waived", "pattern-key", "absent-key", "contraction-key"])
    def test_a_bound_key_needs_a_variable_sort(self, rule, tags):
        result = check_script(parse_script(self.SIG + rule))
        assert [e.rule for e in result.errors] == tags

    def test_a_bound_subject_key_needs_a_variable_sort(self):
        gamma = build_global_env(parse_script(self.SIG))[0]
        _, _, errors = check_ground_subject(gamma, parse_term("F([y]H({y : A()}))"))
        assert [e.rule for e in errors] == ["SMC-Var"]
        _, _, errors = check_ground_subject(
            build_global_env(parse_script(self.SIG + "S variable;"))[0],
            parse_term("F([y]H({y : A()}))"))
        assert errors == []


class TestGroundSubject:
    def test_eval_subject(self, g2):
        sort, delta, errors = check_ground_subject(g2, parse_term("Eval(a, {a : Lam([y]y)})"))
        assert errors == []
        assert sort == L
        assert delta.var == {"a": L}

    def test_meta_rejected(self, g2):
        _, _, errors = check_ground_subject(g2, parse_term("Eval(#A, {})"))
        assert errors and errors[0].rule == "SMC-Meta"

    def test_ill_sorted_subject(self, g2):
        _, _, errors = check_ground_subject(g2, parse_term("Eval(Lam([y]y))"))
        assert [e.rule for e in errors] == ["SMC-Cons"]

    @pytest.mark.parametrize("text,message", [
        ("x", "a subject term must be a declared construction"),
        ("Zap()", "constructor Zap is not declared"),
        ("Nil()", "cannot determine a ground sort for Nil: its declared sort List<a> is "
                  "polymorphic"),
    ])
    def test_subject_without_a_ground_sort(self, text, message):
        gamma, _ = build_global_env(parse_script("L data Lam([L]L);\nList<a> data Nil();\n"))
        sort, delta, errors = check_ground_subject(gamma, parse_term(text))
        assert (sort, delta.var, delta.meta) == (None, {}, {})
        assert [e.format() for e in errors] == [f"<term>:1:1: error[SMC-Cons]: {message}"]

    def test_a_name_past_an_arity_error_takes_its_next_sort(self):
        # The check sorts a subject's free names as it meets them and stops at
        # Lb's extra argument, so x first takes the sort A of Box's second
        # argument; no SMC-Var follows at 1:27 for the x skipped inside Lb.
        gamma, _ = build_global_env(parse_script(
            "A data Ca(); A variable; B data Cb(); B data Lb([A]B); B variable; "
            "S data Box({A:B}, A);"))
        sort, delta, errors = check_ground_subject(
            gamma, parse_term("Box({y : Lb([b]x, Cb())}, x)"))
        assert sort == SortCons(Ident("S"))
        assert delta.var == {"y": SortCons(Ident("A")), "x": SortCons(Ident("A"))}
        assert [e.format() for e in errors] == [
            "<term>:1:10: error[SMC-Cons]: constructor Lb expects 1 argument(s), got 2"]

    def test_unique_sort_for_ground_con_terms(self, g2, ex2):
        # any accepted ground subject has exactly the head's declared sort
        for text in ("Lam([x]x)", "Ap(Lam([x]x), Lam([y]y))", "Eval(a, {})"):
            sort, _, errors = check_ground_subject(g2, parse_term(text))
            assert errors == []
            assert sort == L


# ---------------------------------------------------------------------------
# Binder names: verdicts hold up to renaming of binders

BINDERS = parse_script("""\
A data Ca();
A variable;
B data Cb();
B data Lb([A]B);
B variable;
L data Done();
L data Lam([L]L);
L variable;
B scheme F([A]B, B);
L scheme K(L, {L:L});
""")

_FORMS = {d.name: d.forms for d in BINDERS.declarations if hasattr(d, "forms")}
_DATA = {"A": ["Ca"], "B": ["Cb", "Lb"], "L": ["Done", "Lam"]}
_SCHEME = {"B": "F", "L": "K"}


def _tags(rule):
    """Diagnostic tags of one rule, given as text or as a declaration."""
    if isinstance(rule, str):
        rule = parse_script(rule).rules[0]
    result = check_script(Script(BINDERS.declarations + (rule,)))
    return Counter(e.rule for e in result.errors)


def _random_rule(rng):
    """A rule over ``BINDERS`` whose binders, free variables, keys and meta
    arguments are all drawn from x, y, z; often ill-sorted."""

    def name():
        return Ident(rng.choice("xyz"))

    def term(sort, depth, pat):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            return Var(name())
        if r < 0.55:
            args = tuple(Var(name()) if pat or rng.random() < 0.7
                         else term(rng.choice("ABL"), depth - 1, pat)
                         for _ in range(rng.randint(0, 2)))
            return MetaApp(Ident(rng.choice(["#M", "#N"] if pat else ["#M"])), args)
        heads = list(_DATA[sort])
        if not pat and sort in _SCHEME:
            heads.append(_SCHEME[sort])
        if rng.random() < 0.1:
            heads = [h for hs in _DATA.values() for h in hs]
        return construction(rng.choice(heads), depth - 1, pat)

    def construction(head, depth, pat):
        pieces = []
        for f in _FORMS[head]:
            if isinstance(f, ScopeForm):
                k = len(f.binder_sorts) if rng.random() < 0.95 else 0
                pieces.append(ScopePiece(tuple(name() for _ in range(k)),
                                         term(f.body_sort.name, depth, pat)))
                continue
            entries = []
            for _ in range(rng.randint(0, 3)):
                r = rng.random()
                if r < 0.5:
                    entries.append(MapEntry(name(), term("L", depth, pat)))
                elif r < 0.7:
                    entries.append(NotKey(name()))
                else:
                    args = tuple(Var(name()) for _ in range(rng.randint(0, 1)))
                    entries.append(CatchAll(Ident("#E"), args))
            pieces.append(AssocPiece(tuple(entries)))
        return Construction(Ident(head), tuple(pieces))

    sort = rng.choice("BL")
    return RuleDecl(SortCons(Ident(sort)), construction(_SCHEME[sort], 3, True),
                    term(sort, 3, False))


def _rename_apart(t):
    """``t`` with every binder renamed to a new name b1, b2, ..."""
    count = [0]

    def go(x, env):
        if isinstance(x, Var):
            return Var(env.get(x.name, x.name))
        if isinstance(x, MetaApp):
            return MetaApp(x.meta, tuple(go(a, env) for a in x.args))
        return Construction(x.head, tuple(piece(p, env) for p in x.args))

    def piece(p, env):
        if isinstance(p, ScopePiece):
            inner = dict(env)
            for b in p.binders:
                count[0] += 1
                inner[b] = Ident(f"b{count[0]}")
            return ScopePiece(tuple(inner[b] for b in p.binders), go(p.body, inner))
        entries = []
        for e in p.entries:
            if isinstance(e, MapEntry):
                entries.append(MapEntry(env.get(e.key, e.key), go(e.value, env)))
            elif isinstance(e, NotKey):
                entries.append(NotKey(env.get(e.key, e.key)))
            else:
                entries.append(CatchAll(e.meta, tuple(go(a, env) for a in e.args)))
        return AssocPiece(tuple(entries))

    return go(t, {})


class TestBinderNames:
    FREE_BESIDE_BINDER = "B rule F([x]#M(x), x) -> x;"
    KEY_BESIDE_BINDER = "L rule K(Lam([y]Lam([z]#M(z))), {y : #X}) -> Done();"

    def test_free_variable_keeps_its_sort_beside_a_binder(self):
        for rule in (self.FREE_BESIDE_BINDER, "B rule F([y]#M(y), x) -> x;"):
            assert _tags(rule) == Counter(), rule

    def test_engine_fires_the_rule_with_a_free_variable_beside_a_binder(self):
        script = parse_script(render(BINDERS) + "\n" + self.FREE_BESIDE_BINDER)
        checked = check_script(script)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        out = normalize(checked.gamma, rules, parse_term("F([x]Cb(), b)"))
        assert render(out.term) == "b"

    def test_a_binder_does_not_make_a_key_occur_elsewhere(self):
        variant = "L rule K(Lam([w]Lam([z]#M(z))), {y : #X}) -> Done();"
        for rule in (self.KEY_BESIDE_BINDER, variant):
            assert _tags(rule) == Counter({"SA-Map": 1}), rule

    def test_a_subject_key_need_not_occur_elsewhere(self):
        # KeyNotElsewhere is a formation condition on rule sides only: a
        # rewrite can drop a key's last other occurrence.
        gamma = build_global_env(BINDERS)[0]
        for text in ("K(Lam([y]Lam([z]z)), {y : Done()})", "K(Lam([w]Lam([z]z)), {y : Done()})"):
            _, _, errors = check_ground_subject(gamma, parse_term(text))
            assert errors == [], text

    def test_diagnostic_tags_do_not_depend_on_binder_names(self):
        rng = random.Random(0)
        for _ in range(1000):
            rule = _random_rule(rng)
            apart = RuleDecl(rule.sort, _rename_apart(rule.lhs), _rename_apart(rule.rhs))
            assert _tags(rule) == _tags(apart), render(rule)

    def test_the_rule_check_adds_no_name_to_the_inferred_env(self):
        # A rule's check reads each name's sort from the inferred environment;
        # inference walks on where the check stops, so the check meets no name
        # that inference did not sort first.
        gamma = build_global_env(BINDERS)[0]
        rng = random.Random(0)
        for _ in range(1000):
            rule = _random_rule(rng)
            result = check_script(Script(BINDERS.declarations + (rule,)))
            assert result.rule_envs[-1].var == infer_rule_env(gamma, rule)[0].var, render(rule)


# ---------------------------------------------------------------------------
# Checker and engine agree: accepted rules run on instances of their patterns


def _accepted_script(rng):
    """1-3 ``_random_rule`` rules that ``check_script`` accepts after
    ``BINDERS``, and the check's result."""
    while True:
        rules = tuple(_random_rule(rng) for _ in range(rng.randint(1, 3)))
        checked = check_script(Script(BINDERS.declarations + rules))
        if checked.ok:
            return rules, checked


def _instance(draw, gamma, env, pattern):
    """A subject that instantiates ``pattern``, a rule's left side with
    environment ``env``.  A meta-application becomes a fragment over only
    the binders it takes, the same one wherever it takes the same ones; a
    catch-all becomes 0-2 entries under keys that no other name uses; an
    absence entry is dropped, as a subject holds none."""
    fragments = {}

    def fragment(meta, args, sort):
        scope = dict(zip((a.name for a in args), env.meta[meta].arg_sorts))
        return _draw_term(draw, gamma, sort, 2, scope, free="")

    def go(t):
        if t.__class__ is Var:
            return t
        if t.__class__ is MetaApp:
            key = (t.meta, t.args)
            if key not in fragments:
                fragments[key] = fragment(t.meta, t.args, env.meta[t.meta].result)
            return fragments[key]
        pieces = []
        for p in t.args:
            if p.__class__ is ScopePiece:
                pieces.append(ScopePiece(p.binders, go(p.body)))
                continue
            entries = []
            for e in p.entries:
                if e.__class__ is MapEntry:
                    entries.append(MapEntry(e.key, go(e.value)))
                elif e.__class__ is CatchAll:
                    value_sort = env.meta[e.meta].result.value_sort
                    entries += [MapEntry(Ident(k), fragment(e.meta, e.args, value_sort))
                                for k in draw(st.lists(st.sampled_from("uvw"), max_size=2,
                                                       unique=True))]
            pieces.append(AssocPiece(tuple(entries)))
        return Construction(t.head, tuple(pieces))

    return go(pattern)


@given(st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_accepted_rules_keep_instances_of_their_patterns_sorted(seed, data):
    # The checker's formation rules exist so that rewriting is well defined:
    # on an accepted script, no engine precondition fails (an EngineError
    # would escape ``normalize``), and every term of the run is well sorted
    # at the subject's sort.  Instantiated patterns make the rules fire.
    rules, checked = _accepted_script(random.Random(seed))
    gamma = checked.gamma
    i = data.draw(st.integers(0, len(rules) - 1))
    subject = _instance(data.draw, gamma, checked.rule_envs[i], rules[i].lhs)
    sort = rules[i].sort
    _assert_sorted_as(gamma, subject, sort)
    normalize(gamma, prepare_rules(gamma, rules, checked.rule_envs), subject, fuel=15,
              on_step=lambda t, _: _assert_sorted_as(gamma, t, sort))


@given(st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_accepted_rules_keep_drawn_subjects_sorted(seed, data):
    # The same agreement on subjects drawn from the accepted script's
    # signature alone, binders that shadow names free elsewhere included.
    # The root is a rule's head, at its ground sort, so that a rule can fire
    # there; a root drawn among all constructors seldom led to a step.
    rules, checked = _accepted_script(random.Random(seed))
    gamma = checked.gamma
    head = data.draw(st.sampled_from(sorted({r.lhs.head for r in rules})))
    subject = _draw_construction(data.draw, gamma, head, 4, {})
    sort, _, errors = check_ground_subject(gamma, subject)
    assert errors == [], render(subject)
    normalize(gamma, prepare_rules(gamma, rules, checked.rule_envs), subject, fuel=15,
              on_step=lambda t, _: _assert_sorted_as(gamma, t, sort))

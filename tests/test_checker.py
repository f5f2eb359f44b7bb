from __future__ import annotations

import random
from collections import Counter

import pytest

from plank import (
    build_global_env,
    check_script,
    normalize,
    parse_script,
    parse_term,
    prepare_rules,
    render,
)
from plank.checker import (
    CheckState,
    TermContext,
    check_association,
    check_declaration,
    check_ground_subject,
    check_piece,
    check_sort,
    check_term,
)
from plank.env import MetaForm, RuleEnv
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
    ScopeForm,
    ScopePiece,
    Script,
    SortCons,
    SortVar,
    Var,
    non_assoc_vars,
)
from conftest import CBV_EVAL

L = SortCons(Ident("L"))


def state(gamma, tc, *, var=None, meta=None, v=(), bound=()):
    delta = RuleEnv(dict(var or {}), dict(meta or {}))
    return CheckState(gamma, delta, frozenset(Ident(x) for x in v), tc,
                      {Ident(b): delta.var[b] for b in bound}, [])


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
        tags = {
            "SH", "SD-Data", "SD-Fun", "SD-Var", "SD-Rule", "SS-Cons", "SS-Var",
            "SMP-Fun", "SMP-Data", "SMP-Meta", "SMP-Var", "SMC-Cons", "SMC-Meta",
            "SMC-Var", "SMS-Cons", "SMS-Meta", "SMS-Var", "SP-Bind", "SP-Assoc",
            "SA-Map", "SAP-Not", "SAP-All", "SAC-All", "DuplicateConstructor",
            "RankMismatch", "NonVariableSortParameter", "MetaFormConflict",
            "UnboundMetaOnRhs", "UnresolvedVariableSort",
        }
        assert result.errors and all(e.rule in tags for e in result.errors)

    def test_diagnostic_format(self):
        script = parse_script("L data One(); L scheme F(L); L rule F(x) -> One();",
                              file="demo.plank")
        result = check_script(script)
        line = result.errors[0].format("demo.plank")
        assert line.startswith("demo.plank:1:")
        assert "error[SMP-Var]:" in line


class TestCheckDeclaration:
    def test_data_decl_ok(self, g2, ex2):
        lam = ex2.declarations[0]
        assert check_declaration(g2, lam) == []

    def test_data_name_in_scheme_set(self, g2):
        decl = parse_script("L data Ap(L, L);").declarations[0]
        gamma = g2
        gamma_fun_backup = set(gamma.fun)
        gamma.fun.add(Ident("Ap"))
        try:
            errors = check_declaration(gamma, decl)
            assert [e.rule for e in errors] == ["SD-Data"]
        finally:
            gamma.fun.clear()
            gamma.fun.update(gamma_fun_backup)

    def test_variable_decl_needs_named_sort(self, g2):
        decl = parse_script("a variable;").declarations[0]
        errors = check_declaration(g2, decl)
        assert [e.rule for e in errors] == ["SD-Var"]


class TestCheckSort:
    def test_monomorphic_ok(self, g1):
        assert check_sort(g1, L) == []

    def test_sort_variable_ok(self, g1):
        assert check_sort(g1, SortVar(Ident("a"))) == []

    def test_rank_mismatch(self, g1):
        errors = check_sort(g1, SortCons(Ident("L"), (L,)))
        assert [e.rule for e in errors] == ["SS-Cons"]

    def test_nested_rank_checking(self):
        gamma, _ = build_global_env(parse_script("Box<a> data B(a); L data One();"))
        ok = SortCons(Ident("Box"), (L,))
        assert check_sort(gamma, ok) == []
        bad = SortCons(Ident("Box"), (SortCons(Ident("Box"), ()),))
        assert [e.rule for e in check_sort(gamma, bad)] == ["SS-Cons"]


class TestCheckTerm:
    def test_repeated_meta_args_rejected(self, g2):
        st = state(
            g2, TermContext.IN_PAT,
            var={"x": L}, meta={"#M": MetaForm((L, L), L)}, bound=("x",),
        )
        errors = check_term(st, parse_term("#M(x, x)"), L)
        assert [e.rule for e in errors] == ["SMP-Meta"]
        assert "distinct" in errors[0].message

    def test_meta_argument_of_another_sort_rejected(self, g2):
        # Inference reports such a rule as MetaFormConflict first, so only a
        # direct caller reaches this.
        st = state(
            g2, TermContext.IN_PAT,
            var={"x": L}, meta={"#M": MetaForm((SortCons(Ident("B")),), L)}, bound=("x",),
        )
        errors = check_term(st, parse_term("#M(x)"), L)
        assert [e.format() for e in errors] == [
            "<term>:1:4: error[SMP-Meta]: argument x of #M has L, expected B"]

    def test_beta_rhs_checks_in_con(self, g1):
        st = state(
            g1, TermContext.CON,
            var={"x": L},
            meta={"#M": MetaForm((L,), L), "#N": MetaForm((), L)},
        )
        assert check_term(st, parse_term("#M(#N)"), L) == []

    def test_substituted_variable_ok_at_hasvar_sort(self, g2):
        st = state(
            g2, TermContext.CON,
            var={"z": L}, meta={"#B": MetaForm((L,), L)},
        )
        assert check_term(st, parse_term("#B(z)"), L) == []

    def test_substituted_construction_rejected_at_hasvar_sort(self, g2):
        st = state(g2, TermContext.CON, meta={"#B": MetaForm((L,), L)})
        errors = check_term(st, parse_term("#B(Lam([y]y))"), L)
        assert [e.rule for e in errors] == ["SMS-Cons"]

    def test_substituted_construction_ok_without_hasvar(self, g1):
        st = state(g1, TermContext.CON, meta={"#M": MetaForm((L,), L)})
        assert check_term(st, parse_term("#M(Lam([y]y))"), L) == []

    def test_pattern_top_must_be_scheme(self, g2):
        st = state(g2, TermContext.PAT)
        errors = check_term(st, parse_term("Lam([x]x)"), L)
        assert [e.rule for e in errors] == ["SMP-Fun"]

    def test_scheme_inside_pattern_rejected_with_data(self, g2):
        st = state(g2, TermContext.IN_PAT, meta={"#A": MetaForm((), L)})
        errors = check_term(st, parse_term("Eval(#A, {#env})"), L)
        assert errors and errors[0].rule == "SMP-Data"

    def test_scheme_inside_pattern_tolerated_without_data(self, g1):
        # a pure scheme signature has no data patterns at all
        st = state(g1, TermContext.IN_PAT, meta={"#M": MetaForm((L,), L)},
                   bound=("x",), var={"x": L})
        assert check_term(st, parse_term("Lam([y]Ap(#M(y), x))"), L) == []

    def test_free_variable_needs_hasvar_even_without_data(self, g1):
        st = state(g1, TermContext.IN_PAT, var={"x": L})
        errors = check_term(st, parse_term("x"), L)
        assert [e.rule for e in errors] == ["SMP-Var"]

    def test_unknown_constructor_in_con(self, g1):
        st = state(g1, TermContext.CON)
        errors = check_term(st, parse_term("Zap()"), L)
        assert [e.rule for e in errors] == ["SMC-Cons"]


class TestCheckPiece:
    def test_scope_piece_ok(self, g1):
        st = state(g1, TermContext.IN_PAT, meta={"#M": MetaForm((L,), L)})
        assert check_piece(st, parse_term("F([x]#M(x))").args[0], ScopeForm((L,), L)) == []

    def test_binder_arity_mismatch(self, g1):
        st = state(g1, TermContext.IN_PAT)
        piece = parse_term("F([x,y]x)").args[0]
        errors = check_piece(st, piece, ScopeForm((L,), L))
        assert [e.rule for e in errors] == ["SP-Bind"]
        assert "BinderArityMismatch" in errors[0].message

    def test_assoc_piece_ok(self, g2):
        st = state(
            g2, TermContext.IN_PAT,
            var={"x": L},
            meta={"#env": MetaForm((), AssocForm(L, L)), "#V": MetaForm((), L)},
            v=("x",),
        )
        piece = parse_term("E({#env; x : #V})").args[0]
        assert check_piece(st, piece, AssocForm(L, L)) == []

    def test_shadowed_binder_is_freshened(self, g1):
        st = state(g1, TermContext.IN_PAT, meta={"#M": MetaForm((L, L), L)},
                   var={"x": L}, bound=("x",))
        # inner [x] shadows the outer one; both arguments of the meta name
        # the inner binder
        piece = parse_term("F([x]#M(x, x))").args[0]
        errors = check_piece(st, piece, ScopeForm((L,), L))
        assert [e.rule for e in errors] == ["SMP-Meta"]  # still not distinct

    def test_piece_kind_mismatch(self, g2):
        st = state(g2, TermContext.IN_PAT)
        scope = parse_term("F([x]x)").args[0]
        assert [e.rule for e in check_piece(st, scope, AssocForm(L, L))] == ["SP-Bind"]
        assoc = parse_term("F({})").args[0]
        assert [e.rule for e in check_piece(st, assoc, ScopeForm((), L))] == ["SP-Assoc"]


class TestCheckAssociation:
    def setup_state(self, g2, tc, v=("x",)):
        return state(
            g2, tc,
            var={"x": L, "y": L},
            meta={"#env": MetaForm((), AssocForm(L, L)), "#V": MetaForm((), L)},
            v=v,
        )

    def test_map_entry_ok(self, g2):
        st = self.setup_state(g2, TermContext.IN_PAT)
        entry = parse_term("E({x : #V})").args[0].entries[0]
        assert check_association(st, entry, L, L) == []

    def test_key_not_elsewhere(self, g2):
        st = self.setup_state(g2, TermContext.IN_PAT)
        entry = parse_term("E({y : #V})").args[0].entries[0]
        errors = check_association(st, entry, L, L)
        assert [e.rule for e in errors] == ["SA-Map"]
        assert "KeyNotElsewhere" in errors[0].message

    def test_not_key_in_contraction(self, g2):
        st = self.setup_state(g2, TermContext.CON)
        entry = parse_term("E({~x:})").args[0].entries[0]
        errors = check_association(st, entry, L, L)
        assert [e.rule for e in errors] == ["SAP-Not"]
        assert "NotKeyInContraction" in errors[0].message

    def test_not_key_ok_in_pattern(self, g2):
        st = self.setup_state(g2, TermContext.IN_PAT)
        entry = parse_term("E({~x:})").args[0].entries[0]
        assert check_association(st, entry, L, L) == []

    def test_not_key_waits_for_the_whole_pattern(self, g2):
        # A key that is no binder in scope may be bound by any variable of
        # the pattern, so the rule's check looks it up at the end.
        st = self.setup_state(g2, TermContext.IN_PAT)
        entry = parse_term("E({~y:})").args[0].entries[0]
        assert check_association(st, entry, L, L) == []
        assert st.absent == [entry]

    def test_catchall_in_pattern_and_contraction(self, g2):
        for tc in (TermContext.IN_PAT, TermContext.CON):
            st = self.setup_state(g2, tc)
            entry = parse_term("E({#env})").args[0].entries[0]
            assert check_association(st, entry, L, L) == []

    def test_catchall_args_in_contraction_are_substitutions(self, g2):
        st = state(
            g2, TermContext.CON,
            var={"x": L},
            meta={"#env": MetaForm((L,), AssocForm(L, L))},
            v=("x",),
        )
        entry = parse_term("E({#env(Lam([y]y))})").args[0].entries[0]
        errors = check_association(st, entry, L, L)
        assert [e.rule for e in errors] == ["SMS-Cons"]

    def test_value_extends_v(self, g2):
        # the value's own non-association variables may justify nested keys
        st = state(
            g2, TermContext.CON,
            var={"x": L, "y": L}, meta={"#V": MetaForm((), L)}, v=("x",),
        )
        entry = parse_term("E({x : Ap(y, F({y : #V}))})").args[0].entries[0]
        errors = check_association(st, entry, L, L)
        # F is undeclared: the only error is the unknown constructor, not SA-Map
        assert [e.rule for e in errors] == ["SMC-Cons"]


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
        gamma = build_global_env(script)[0]
        rules = prepare_rules(gamma, script.rules)
        out = normalize(gamma, rules, parse_term("F([x]Cb(), b)"))
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

from __future__ import annotations

import pytest

from plank import check_script, parse_script, prepare_rules

# The two corpus scripts, verbatim (unicode arrows and all).

BETA_ETA = """\
L scheme Lam([L]L);
L scheme Ap(L,L);
L rule Ap(Lam([x]#M(x)), #N) →  #M(#N);
L rule Lam([x]Ap(#M(), x)) →  #M();
"""

CBV_EVAL = """\
L data Lam([L]L);
L data Ap(L, L);
L variable;

L scheme Eval(L, {L:L});
L rule Eval(Lam([x]#B(x)), {#env})
  → Lam([x]#B(x));
L rule Eval(Ap(#F, #A), {#env})
  → Apply(Eval(#F, {#env}),
            Eval(#A, {#env}), {#env});
L rule Eval(x, {#env; x : #V}) → #V;
L scheme Apply(L, L, {L:L});
L rule Apply(Lam([x]#B(x)), #V, {#env})
  → Eval(#B(z), {#env, z : #V});
"""

# Rules that the search resumed after a step must retry at an ancestor
# beyond one level above it: a non-linear meta-variable, a pattern that
# reaches two levels down, once through two scopes and once into an
# association value, and a catch-all under a binder it does not take.

NONLINEAR = """\
L data A(L);
L data B();
L scheme K(L, L);
L scheme I(L);
L rule K(#m, #m) -> B();
L rule I(#x) -> #x;
"""

REACH_TWO = """\
L data G(L);
L data H(L);
L data B();
L scheme F(L);
L scheme I(L);
L rule F(G(H(#x))) -> #x;
L rule I(#x) -> #x;
"""

IN_VALUE = """\
L variable;
L data W(L);
L data B();
L scheme F({L:L}, L);
L scheme I(L);
L rule F({x : W(#v)}, x) -> #v;
L rule I(#x) -> #x;
"""

UNTAKEN = """\
L variable;
L data A(L);
L data B();
L data Env({L:L});
L scheme Drop([L]L);
L scheme I(L);
L rule Drop([x]Env({#e})) -> Env({#e});
L rule I(#x) -> B();
"""


@pytest.fixture(scope="session")
def ex1():
    return parse_script(BETA_ETA, file="ex1.plank")


@pytest.fixture(scope="session")
def ex2():
    return parse_script(CBV_EVAL, file="ex2.plank")


@pytest.fixture(scope="session")
def ex1_checked(ex1):
    result = check_script(ex1)
    assert result.ok, [e.format() for e in result.errors]
    return result


@pytest.fixture(scope="session")
def ex2_checked(ex2):
    result = check_script(ex2)
    assert result.ok, [e.format() for e in result.errors]
    return result


@pytest.fixture(scope="session")
def ex1_rules(ex1, ex1_checked):
    return prepare_rules(ex1_checked.gamma, ex1.rules, ex1_checked.rule_envs)


@pytest.fixture(scope="session")
def ex2_rules(ex2, ex2_checked):
    return prepare_rules(ex2_checked.gamma, ex2.rules, ex2_checked.rule_envs)

# The matcher names a subject binder by its own name, so each subject here
# reuses a name where it could take one binder for another, or a binder for
# a free name: the outermost of three binders named u, a free z beside a
# binder z whose key a pattern variable names, and a binder j beside a free
# j in the other argument of a non-linear meta-variable.  Each is
# (label, subject, rendered normal form, steps).

CLASHING_NAMES = """\
L variable;
L data Lam([L]L);
L data E({L:L});
L data G(L, L);
L data A();
L data Done();
L scheme S(L);
L scheme T(L);
L scheme P(L, L);
L scheme N(L, L);
L scheme K(L, L);
L rule S(Lam([a]Lam([b]Lam([c]#M(a))))) -> Done();
L rule T(Lam([a]Lam([b]Lam([c]#M(c))))) -> Lam([d]#M(d));
L rule P(x, Lam([y]E({x : #V}))) -> #V;
L rule N(x, Lam([y]E({~x:, #e(y)}))) -> Lam([w]E({#e(w)}));
L rule K(Lam([a]#m(a)), Lam([b]#m(b))) -> Done();
"""

CLASHING_CASES = [
    ("triple-shadow", "S(Lam([u]Lam([u]Lam([u]u))))", "S(Lam([u]Lam([u]Lam([u]u))))", 0),
    ("outermost-taken", "S(Lam([u]Lam([v]Lam([w]u))))", "Done()", 1),
    ("innermost-taken", "T(Lam([u]Lam([u]Lam([u]u))))", "Lam([d]d)", 1),
    ("bound-key", "P(z, Lam([z]E({z : A()})))", "P(z, Lam([z]E({z : A()})))", 0),
    ("free-key", "P(z, Lam([y]E({z : A()})))", "A()", 1),
    ("bound-absent-key", "N(z, Lam([z]E({z : A()})))", "Lam([w]E({w : A()}))", 1),
    ("free-present-key", "N(z, Lam([y]E({z : A()})))", "N(z, Lam([y]E({z : A()})))", 0),
    ("nonlinear-capture", "K(Lam([k]G(k, j)), Lam([j]G(j, j)))",
     "K(Lam([k]G(k, j)), Lam([j]G(j, j)))", 0),
    ("nonlinear-free", "K(Lam([k]G(k, j)), Lam([i]G(i, j)))", "Done()", 1),
    ("nonlinear-reused", "K(Lam([j]G(j, j)), Lam([j]G(j, j)))", "Done()", 1),
]

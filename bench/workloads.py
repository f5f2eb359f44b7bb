"""Inputs for the plank benchmark, built from a seed, and their references.

A workload is a list of cases.  A case is what one ``plank check`` or
``plank normalize`` invocation receives: a script text, and for normalize a
term text and a step budget.  Each case carries its expected outcome.

A workload function takes the run's random stream, seeded from ``--seed``,
and draws a fresh renaming for every case: a permutation of the
single-letter variable names (binders and association keys), for ``church``
and ``script`` a two-letter suffix on every sort and constructor name, and
for the call-by-value script the entry order of the association lists on
rule right-hand sides.  The benchmark calls it anew for every batch and
every untimed pass, so, but for chance repeats, each input is new to the
process that runs it: a cache that earlier inputs filled does not serve it,
just as in one CLI run.  A renaming leaves every size alone: step counts,
rendered lengths and verdicts do not depend on it.

The expected normal forms are built here in de Bruijn form, and results are
compared in that form, so the check does not rest on ``plank.alpha_equal``.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, replace

from plank.terms import AssocPiece, CatchAll, MapEntry, MetaApp, NotKey, Var

# The two corpus scripts, copied from ``tests/conftest.py`` so that the
# benchmark's inputs stay fixed when the tests change.

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

DEFAULT_FUEL = 10000  # the CLI's default --max-steps

CHURCH_SIZES = (4, 6, 8)
CHAIN_LENGTH = 80
LET_DEPTH = 10
OMEGA_FUEL = 40
OMEGA_RENDERED_LEN = 3117  # ASCII rendering after 40 steps
SCRIPT_COPIES = 25  # corpus copy pairs in the generated script: 325 declarations
CORPUS_COUNTS = (4 + 9, 2 + 4)  # declarations and rules of BETA_ETA plus CBV_EVAL

# Mutations of the corpus scripts and the diagnostic tags each must raise.
MUTANTS = (
    ("no-variable-decl", CBV_EVAL.replace("L variable;\n", ""),
     frozenset({"SMP-Var", "SMC-Var"})),
    ("unbound-rhs-meta", CBV_EVAL + "L rule Eval(#F, {#env}) → Apply(#F, #A, {#env});\n",
     frozenset({"UnboundMetaOnRhs"})),
    ("data-headed-pattern", CBV_EVAL + "L rule Lam([x]#B(x)) → Lam([x]#B(x));\n",
     frozenset({"SMP-Fun"})),
    ("undeclared-constructor", BETA_ETA + "L rule Ap(#M, #N) → Zap();\n",
     frozenset({"SMC-Cons"})),
)


@dataclass(frozen=True)
class Case:
    """One CLI invocation and its expected outcome.

    With ``term`` None the case is ``plank check``: ``errors`` holds the
    expected diagnostic tags (empty for a script that checks), and ``counts``
    the declarations and rules a checking script reports.  Otherwise it
    is ``plank normalize``: the result must have ``status``, and match
    ``normal_form`` (de Bruijn form) and ``rendered_len`` where they are set.
    """

    label: str
    script: str
    term: str | None = None
    fuel: int = DEFAULT_FUEL
    status: str = "NormalForm"
    normal_form: tuple | None = None
    rendered_len: int | None = None
    errors: frozenset[str] = frozenset()
    counts: tuple[int, int] | None = None  # (declarations, rules) of a script that checks


# ---------------------------------------------------------------------------
# De Bruijn form: bound variables become indices, so alpha-equivalent terms
# have equal forms.


def de_bruijn(t, scope: tuple[str, ...] = ()) -> tuple:
    """The de Bruijn form of a plank term; ``scope`` lists binders, innermost last."""
    if isinstance(t, Var):
        return _ref(t.name, scope)
    if isinstance(t, MetaApp):
        return ("meta", t.meta, tuple(de_bruijn(a, scope) for a in t.args))
    pieces = []
    for p in t.args:
        if isinstance(p, AssocPiece):
            pieces.append(("assoc", tuple(_entry(e, scope) for e in p.entries)))
        else:
            pieces.append(("scope", len(p.binders), de_bruijn(p.body, scope + p.binders)))
    return ("con", t.head, tuple(pieces))


def _ref(name: str, scope: tuple[str, ...]) -> tuple:
    for depth, binder in enumerate(reversed(scope)):
        if binder == name:
            return ("bound", depth)
    return ("free", name)


def _entry(e, scope: tuple[str, ...]) -> tuple:
    if isinstance(e, MapEntry):
        return ("map", _ref(e.key, scope), de_bruijn(e.value, scope))
    if isinstance(e, NotKey):
        return ("not", _ref(e.key, scope))
    assert isinstance(e, CatchAll)
    return ("all", e.meta, tuple(de_bruijn(a, scope) for a in e.args))


def _con(head: str, *pieces: tuple) -> tuple:
    return ("con", head, pieces)


def _plain(body: tuple) -> tuple:
    return ("scope", 0, body)


def _bind(body: tuple) -> tuple:
    return ("scope", 1, body)


def church_normal_form(k: int, lam: str = "Lam", ap: str = "Ap") -> tuple:
    """The Church numeral k, ``Lam([f]Lam([x]f(...f(x))))``, in de Bruijn form."""
    body = ("bound", 0)
    for _ in range(k):
        body = _con(ap, _plain(("bound", 1)), _plain(body))
    return _con(lam, _bind(_con(lam, _bind(body))))


def identity_normal_form(lam: str = "Lam") -> tuple:
    return _con(lam, _bind(("bound", 0)))


# ---------------------------------------------------------------------------
# Term texts, written with fixed single-letter names that a renaming permutes.

IDENTITY = "Lam([y]y)"


def church(n: int) -> str:
    body = "x"
    for _ in range(n):
        body = f"Ap(f, {body})"
    return f"Lam([f]Lam([x]{body}))"


def church_mult(n: int) -> str:
    mult = "Lam([m]Lam([n]Lam([g]Ap(m, Ap(n, g)))))"
    return f"Ap(Ap({mult}, {church(n)}), {church(n)})"


def identity_chain(n: int) -> str:
    """``Eval(Ap(I, Ap(I, ... Ap(I, I))), {})`` with n applications."""
    t = IDENTITY
    for _ in range(n):
        t = f"Ap({IDENTITY}, {t})"
    return f"Eval({t}, {{}})"


def let_chain(depth: int) -> str:
    """``let a = I in let b = I in ... a``, as nested beta-redexes under Eval."""
    binders = string.ascii_lowercase[:depth]
    body = binders[0]
    for v in reversed(binders):
        body = f"Ap(Lam([{v}]{body}), {IDENTITY})"
    return f"Eval({body}, {{}})"


def omega() -> str:
    w = "Lam([x]Ap(x, x))"
    return f"Eval(Ap({w}, {w}), {{}})"


# ---------------------------------------------------------------------------
# Renaming


_VARIABLE = re.compile(r"(?<![#A-Za-z0-9_])[a-z][A-Za-z0-9_]*")
_UPPER = re.compile(r"(?<![#A-Za-z0-9_])[A-Z][A-Za-z0-9_]*")


class Disguise:
    """A seeded renaming of script and term texts that keeps their sizes.

    Single-letter variables go through one permutation of a-z; with a
    non-empty ``tag``, every sort and constructor name gets it as a suffix.
    """

    def __init__(self, rng: random.Random, tag: str = ""):
        letters = list(string.ascii_lowercase)
        shuffled = letters[:]
        rng.shuffle(shuffled)
        self.perm = dict(zip(letters, shuffled))
        self.tag = tag
        self.flip_extend = rng.random() < 0.5
        self.flip_lookup = rng.random() < 0.5

    def text(self, s: str) -> str:
        s = _VARIABLE.sub(lambda m: self.perm.get(m.group(), m.group()), s)
        if self.tag:
            s = _UPPER.sub(lambda m: m.group() + self.tag, s)
        return s

    def cbv_script(self, base: str = CBV_EVAL) -> str:
        """The call-by-value script with its association entries reordered."""
        if self.flip_extend:
            base = base.replace("{#env, z : #V}", "{z : #V, #env}")
        if self.flip_lookup:
            base = base.replace("{#env; x : #V}", "{x : #V; #env}")
        return self.text(base)

    def name(self, constructor: str) -> str:
        return constructor + self.tag


# ---------------------------------------------------------------------------
# Workloads


TAGS = tuple(a + b for a in string.ascii_lowercase for b in string.ascii_lowercase)


def mult_case(d: Disguise, n: int) -> Case:
    """Church ``mult n n`` under the beta/eta script, both renamed by ``d``."""
    return Case(f"mult-{n}", d.text(BETA_ETA), d.text(church_mult(n)),
                normal_form=church_normal_form(n * n, d.name("Lam"), d.name("Ap")))


def church_cases(rng: random.Random) -> list[Case]:
    return [mult_case(Disguise(rng, rng.choice(TAGS)), n) for n in CHURCH_SIZES]


def cbv_cases(rng: random.Random) -> list[Case]:
    """The call-by-value inputs.  Constructor names keep their length, so the
    rendered size of the fuel-exhausted omega stays the pinned 3,117 chars."""
    d, e, f = Disguise(rng), Disguise(rng), Disguise(rng)
    return [
        Case(f"chain-{CHAIN_LENGTH}", d.cbv_script(), d.text(identity_chain(CHAIN_LENGTH)),
             normal_form=identity_normal_form()),
        Case(f"let-{LET_DEPTH}", e.cbv_script(), e.text(let_chain(LET_DEPTH)),
             normal_form=identity_normal_form()),
        Case(f"omega-{OMEGA_FUEL}", f.cbv_script(), f.text(omega()), fuel=OMEGA_FUEL,
             status="FuelExhausted", rendered_len=OMEGA_RENDERED_LEN),
    ]


def script_cases(rng: random.Random) -> list[Case]:
    """One generated script of renamed corpus copies, mutants, and two probes.

    Every corpus copy gets its own name tag.  The probes normalize small
    terms, showing that renamed rules still compute; they keep the engine's
    share of this workload to a few percent.
    """
    tags = rng.sample(TAGS, 2 * SCRIPT_COPIES)
    beta = [Disguise(rng, tag) for tag in tags[:SCRIPT_COPIES]]
    cbv = [Disguise(rng, tag) for tag in tags[SCRIPT_COPIES:]]
    big = "\n".join(b.text(BETA_ETA) + c.cbv_script() for b, c in zip(beta, cbv))
    counts = (SCRIPT_COPIES * CORPUS_COUNTS[0], SCRIPT_COPIES * CORPUS_COUNTS[1])
    cases = [Case("generated", big, counts=counts)]
    cases += [Case(label, Disguise(rng, rng.choice(TAGS)).cbv_script(text), errors=errors)
              for label, text, errors in MUTANTS]
    d = Disguise(rng, rng.choice(TAGS))
    cases += [
        replace(mult_case(Disguise(rng, rng.choice(TAGS)), 2), label="probe-mult-2"),
        Case("probe-chain-3", d.cbv_script(), d.text(identity_chain(3)),
             normal_form=identity_normal_form(d.name("Lam"))),
    ]
    return cases


WORKLOADS = {
    "church": church_cases,
    "cbv": cbv_cases,
    "script": script_cases,
}

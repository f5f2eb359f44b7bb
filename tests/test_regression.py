"""Pins that keep refactors of the checker and the engine honest.

* Spans take no part in equality or hashing, so the checker needs no
  span-stripping copies of sorts and forms.
* Rendered normal forms, (position, rule) sequences and ``--trace`` text
  on fixed inputs are byte-identical to the recorded ones, including every
  fresh name, and every intermediate term passes ``check_ground_subject``.
  So are the diagnostics, traces, statuses, step sequences and renders of
  every benchmark case at seeds 0-5, pinned as one digest per workload and
  seed.
* ``normalize`` resumes each search at the last redex, by the argument
  stated in ``plank.rewrite``'s module docstring.  Its (position, rule)
  sequences, results and statuses equal those of a naive pre-order search
  that tries every rule everywhere, on the benchmark inputs, on hand-built
  cases of each exception to the reach bound and on generated well-sorted
  subjects.  Every intermediate term of a generated run is well sorted at
  the subject's sort, a bare variable as the checker takes one below the
  root.  A rule whose argument-head guard a construction fails never
  matches there.  Church mult 12 12 takes at most 34 match attempts, and
  mult 4, 6 and 8 together at most 62.  ``normalize`` calls
  ``rewrite_step`` once per step and once more, and ``match_term`` once
  per attempt, so the benchmark's tracer sees them.
* Every substitution made while normalizing the pinned inputs, which
  shares each subtree its kept name set allows, equals and renders as the
  substitution into a copy that keeps no set and so shares nothing.
* A right side's list that is one catch-all without arguments stands
  for the captured list as it is, which equals its rebuild by key on
  every call-by-value pin.
* The names ``all_idents`` keeps on each term object agree with a plain
  walk of the tree on every intermediate term.
* ``check_script`` infers each rule environment once, with one sort walk
  per side, and a ground subject's check runs no sort walk.  The check
  builds one walker per rule side or subject, and only ``_check_rule`` and
  ``check_ground_subject`` build one.  ``normalize`` indexes the rules by
  head once, and the lexer classifies each distinct word once, runs no
  Python code per token, and
  finds the tokens' offsets once per parse, only when a position is read.
  Parsing and checking 325 declarations runs fewer than 20,400 Python
  frames.
* On generated subjects, ``check_ground_subject`` gives the sort,
  environment and diagnostics of sorting every name first and checking
  second.  On a subject made ill-formed, the verdicts and the diagnostics
  that stop the check agree, and the rest do wherever none stops it.
* The matcher walks no name set and copies no fragment: the engine walks
  a term's names only when it draws a fresh name, and finds each right
  side's free variables once per rule.  Parsing,
  checking, normalizing and rendering leave no reference cycle at all, no
  nested function in the package recurses, and no walk recurses through a
  comprehension.  ``alpha_equal`` and ``substitute`` reach 275 and 400
  nested scopes under the default recursion limit, and ``normalize`` a
  redex under 450 levels of ``Lam([x]Ap(z, .))`` and one 4,999 levels down.
* The ``--trace`` text of a run whose fresh names collide with the
  subject's names is byte-identical to the recorded one.
* Renaming a subject's binders, so that they shadow each other and take
  names free elsewhere, changes neither the step chosen nor its result up
  to alpha and to the fresh names the step draws, and on generated
  subjects neither a run's steps nor its status.  ``alpha_equal`` agrees
  with the benchmark's de Bruijn forms.  A parameter that an inner binder
  hides is None, and no module spells an ``Ident`` past its check.
* Full diagnostics of ill-sorted rules whose binders are all distinct from
  each other and from free names, and of malformed scripts, are
  byte-identical to the recorded ones.
* Every exported name, and every name the benchmark's traced run wraps,
  still resolves, no module imports a name it never uses, and every record
  field is read somewhere in the package.
* Every attribute that a plain class's ``__init__`` stores on ``self`` is
  read somewhere in the package, so no dead state outlives a refactor.
* No module stores to a field of a built record outside its ``__init__``:
  records are immutable by this rule, not by the runtime.  No module
  imports ``dataclasses`` (``test_cli`` checks that importing
  ``plank.cli`` loads neither it, ``inspect`` nor ``typing``), and every
  method of a package class is compiled from its own source file.
* Every ``raise EngineError`` names the checker or environment diagnostic
  that rules it out on checked input.
* No node class of ``plank.terms`` is subclassed, and ``rewrite`` and
  ``terms`` test a node's class by identity, never with ``isinstance``.
"""

from __future__ import annotations

import ast
import functools
import gc
import hashlib
import importlib
import importlib.util
import io
import pkgutil
import random
import re
import sys
import tokenize
import tracemalloc
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import plank
import plank.checker
import plank.env
import plank.rewrite
import plank.terms
from plank.cli import main
from plank import (
    ParseFailure,
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
from plank.checker import _Check
from plank.env import ConSig, MetaForm, RuleEnv, _SortWalk, decl_sorts, infer_rule_env
from plank.rewrite import NormalStatus, format_step
from plank.terms import (
    AssocPiece,
    CatchAll,
    Construction,
    Ident,
    MapEntry,
    MetaApp,
    NotKey,
    ScopeForm,
    ScopePiece,
    SortVar,
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

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Span-blind equality


def _decl(text):
    return parse_script(text).declarations[0]


def test_equality_and_hashing_ignore_spans():
    near = _decl("Pair<L, L> data C([L]L, {L:L});")
    far = _decl("\n\n      Pair<L, L>   data C( [L]L ,{ L : L });")
    near_term = parse_term("Lam([x]Ap(x, #M))")
    far_term = parse_term("\n   Lam( [x] Ap(x,#M) )")
    pairs = [
        (near.sort, far.sort),
        (near.forms[0], far.forms[0]),
        (near.forms[1], far.forms[1]),
        (near_term, far_term),
        (ConSig(near.sort, near.forms), ConSig(far.sort, far.forms)),
        (MetaForm((near.sort,), near.forms[1]), MetaForm((far.sort,), far.forms[1])),
        (MetaForm((near.sort,), near.forms[0].body_sort),
         MetaForm((far.sort,), far.forms[0].body_sort)),
    ]
    # Each pair starts at the same token of its own parse, but not at the
    # same line and column.
    for a, b in pairs[:4]:
        assert a.span == b.span
        assert a.source.resolve(a.span) != b.source.resolve(b.span)
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Golden outputs


def _church(n):
    body = "x"
    for _ in range(n):
        body = f"Ap(f, {body})"
    return f"Lam([f]Lam([x]{body}))"


def _mult(n):
    mult = "Lam([m]Lam([n]Lam([g]Ap(m, Ap(n, g)))))"
    return f"Ap(Ap({mult}, {_church(n)}), {_church(n)})"


def _identity_chain(n):
    t = "Lam([y]y)"
    for _ in range(n):
        t = f"Ap(Lam([y]y), {t})"
    return f"Eval({t}, {{}})"


_OMEGA = "Eval(Ap(Lam([x]Ap(x, x)), Lam([x]Ap(x, x))), {})"


def _ap_g(k):
    return "Ap(g, " * k + "x" + ")" * k


# Recorded before the name traversals were merged; fresh names included.
GOLDEN = [
    ("mult-3", BETA_ETA, _mult(3), 10000, "NormalForm",
     f"Lam([g]Lam([x]{_ap_g(9)}))",
     [((0,), 0), ((), 0), ((0,), 0), ((0, 0, 0), 0), ((0, 0), 0),
      ((0, 0, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1, 1, 1), 0)]),
    ("mult-4", BETA_ETA, _mult(4), 10000, "NormalForm",
     f"Lam([g]Lam([x]{_ap_g(16)}))",
     [((0,), 0), ((), 0), ((0,), 0), ((0, 0, 0), 0), ((0, 0), 0),
      ((0, 0, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0), 0), ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0), 0),
      ((0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 0)]),
    ("chain-10", CBV_EVAL, _identity_chain(10), 10000, "NormalForm",
     "Lam([x]x)",
     [((), 1), ((0,), 0), ((), 3), ((), 2)] * 10 + [((), 0)]),
    ("omega-12", CBV_EVAL, _OMEGA, 12, "FuelExhausted",
     "Eval(Ap(z2, z2), {z : Eval(Lam([x]Ap(x, x)), {}), "
     "z1 : Eval(z, {z : Eval(Lam([x]Ap(x, x)), {})}), "
     "z2 : Eval(z1, {z : Eval(Lam([x]Ap(x, x)), {}), "
     "z1 : Eval(z, {z : Eval(Lam([x]Ap(x, x)), {})})})})",
     [((), 1), ((0,), 0), ((), 3), ((), 1), ((0,), 2), ((0,), 0), ((), 3),
      ((), 1), ((0,), 2), ((0,), 2), ((0,), 0), ((), 3)]),
]


@pytest.mark.parametrize("label,source,term,fuel,status,rendered,steps", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_normal_forms(label, source, term, fuel, status, rendered, steps):
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
    assert result.status.value == status
    assert render(result.term) == rendered
    assert [(s.position, s.rule_index) for s in result.steps] == steps


def _let_chain(depth):
    binders = "abcdefghij"[:depth]
    body = binders[0]
    for v in reversed(binders):
        body = f"Ap(Lam([{v}]{body}), Lam([y]y))"
    return f"Eval({body}, {{}})"


@pytest.mark.parametrize("source,term,fuel", [
    (BETA_ETA, _mult(3), 10000),
    (CBV_EVAL, _identity_chain(10), 10000),
    (CBV_EVAL, _let_chain(4), 10000),
    (CBV_EVAL, _OMEGA, 12),
], ids=["mult-3", "chain-10", "let-4", "omega-12"])
def test_every_intermediate_term_is_well_sorted(source, term, fuel):
    # Subject reduction: a well-sorted subject stays well-sorted at every
    # step, including the call-by-value steps that leave an environment
    # entry whose key no longer occurs anywhere else.
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    seen = [parse_term(term)]
    result = normalize(checked.gamma, rules, seen[0], fuel=fuel,
                       on_step=lambda t, _step: seen.append(t))
    assert len(seen) == len(result.steps) + 1 > 1
    for step, t in enumerate(seen):
        _, _, errors = check_ground_subject(checked.gamma, t)
        assert [e.format() for e in errors] == [], (step, render(t))


def _pin(text):
    """Short texts as they are, long ones as their sha256 digest."""
    return text if len(text) <= 100 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# Recorded before terms kept their name sets: status, step count, rendered
# normal form, (position, rule_index) sequence and ASCII --trace text.
# omega-40's trace was re-pinned when the matcher kept the subject's binder
# names: contraction's fresh binders then avoid fewer names (x2 became x1),
# and every traced term stayed alpha-equal to the one recorded before.
ENGINE_PINS = [
    ("mult-4", BETA_ETA, _mult(4), 10000, "NormalForm", 11,
     f"Lam([g]Lam([x]{_ap_g(16)}))",
     "sha256:e67b931069e1d4d1a88d03e8e6b47b525a2c270ed03a6ee63af4f918ca252722",
     "sha256:300464ce08102963782f38b17ec7f1fbc2a9e08502bb3d2ca36162f8574a1fe1"),
    ("mult-6", BETA_ETA, _mult(6), 10000, "NormalForm", 15,
     f"Lam([g]Lam([x]{_ap_g(36)}))",
     "sha256:8e9cbce085e4c6686950526d084fe1e4d577414563a393bc29fc81c89c05b94f",
     "sha256:5e0724c01a05278b5f27189bc0785c66eca9e1d96564457e9781ed31fd8c7aec"),
    ("mult-8", BETA_ETA, _mult(8), 10000, "NormalForm", 19,
     f"Lam([g]Lam([x]{_ap_g(64)}))",
     "sha256:9684c208407ffb29496b70ba38b976d5acefcc1589d404b6a4b72a5afd81d993",
     "sha256:a4b2066e763d07bc695a9d92cce33f59467802e880429fa7574d8b29bc210d41"),
    ("chain-80", CBV_EVAL, _identity_chain(80), 10000, "NormalForm", 321,
     "Lam([x]x)",
     "sha256:136619c655485b067ad57e84090b4c825d2162f2fd19d30c26dd8977608a769f",
     "sha256:3869959359672add413964b6758ae9d9d3cc81344dccb73c100d2de873c69a5e"),
    ("let-10", CBV_EVAL, _let_chain(10), 10000, "NormalForm", 32,
     "Lam([x]x)",
     "sha256:729cc5fea8bb8fa95be5d644c4da1fd5dc34151c579bcd57003b72387f000fab",
     "sha256:4075750c1532163fb5b5cdcb4d5f66348c58d758e86f44cfe0c901367c051226"),
    ("omega-40", CBV_EVAL, _OMEGA, 40, "FuelExhausted", 40,
     "sha256:cbcc9211ae15194162c411d5233e8e43398ed13dee23a89f0e64ba97f08c8e94",
     "sha256:5cd25f8ad20a2c1a363c3450cf59b37720b993fe1f041e600e109907c5b5b315",
     "sha256:cc19f17a2755ec7186b1345d948be76172401d8ae9f7d7d1bb7fdc427f20da00"),
]


@pytest.mark.parametrize("label,source,term,fuel,status,count,rendered,steps,trace",
                         ENGINE_PINS, ids=[p[0] for p in ENGINE_PINS])
def test_engine_outputs_are_pinned(label, source, term, fuel, status, count, rendered,
                                   steps, trace):
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    records = []

    def log_step(t, step):  # as ``plank normalize --trace`` prints it
        records.append(format_step(len(records) + 1, step, rules[step.rule_index], t) + "\n")

    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel, on_step=log_step)
    assert result.status.value == status
    assert len(result.steps) == count
    assert _pin(render(result.term)) == _pin(rendered)
    assert _pin(repr([(s.position, s.rule_index) for s in result.steps])) == steps
    assert _pin("".join(records)) == trace


# ---------------------------------------------------------------------------
# Benchmark outputs


@functools.cache
def _bench_workloads():
    """``bench/workloads.py``, loaded as a module of its own; the file is only read."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(module)
    return module


def _case_outputs(case) -> list[str]:
    """What the CLI reports on one benchmark case, ``--trace`` included: the
    formatted diagnostics and, for a subject that checks, each traced step,
    the status, the (position, rule) sequence and the rendered result."""
    script = parse_script(case.script, file="script.plank")
    checked = check_script(script)
    out = [case.label, *(e.format("script.plank") for e in checked.errors)]
    if case.term is None or not checked.ok:
        return out
    term = parse_term(case.term, file="<term>")
    _, _, errors = check_ground_subject(checked.gamma, term)
    out += [e.format("<term>") for e in errors]
    if errors:
        return out
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    first = len(out)

    def log_step(t, step):
        out.append(format_step(len(out) - first + 1, step, rules[step.rule_index], t))

    result = normalize(checked.gamma, rules, term, fuel=case.fuel, on_step=log_step)
    return out + [result.status.value, repr([(s.position, s.rule_index) for s in result.steps]),
                  render(result.term)]


# Short sha256 digests of ``_case_outputs`` over each workload's cases at
# seeds 0-5, recorded before plain arguments stopped opening a scope.
BENCH_DIGESTS = {
    ("church", 0): "d630ceeffd036e12",
    ("church", 1): "f78713bb15e32471",
    ("church", 2): "a9561427e1cdb6e7",
    ("church", 3): "f405bacffe73d429",
    ("church", 4): "c6a62f62506cda38",
    ("church", 5): "4dd5cfe98b04a8e8",
    ("cbv", 0): "3b1612b95ea0469a",
    ("cbv", 1): "fe1a8bff4e075b45",
    ("cbv", 2): "dd4c6468b5200d62",
    ("cbv", 3): "54b15874b29f2cd1",
    ("cbv", 4): "6b86403b76bb04f5",
    ("cbv", 5): "a77804468d5a56ad",
    ("script", 0): "7c26a72bbce1ffae",
    ("script", 1): "47969ea46c757fa4",
    ("script", 2): "189b2fb0cd504e95",
    ("script", 3): "cf617557b8650e2a",
    ("script", 4): "da3206f9192df2a6",
    ("script", 5): "3a684a8f51ff5b27",
}


@pytest.mark.parametrize("workload,seed", sorted(BENCH_DIGESTS))
def test_benchmark_outputs_are_pinned(workload, seed):
    cases = _bench_workloads().WORKLOADS[workload](random.Random(seed))
    text = "\0".join("\n".join(_case_outputs(c)) for c in cases)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == BENCH_DIGESTS[workload, seed], f"workload {workload}, seed {seed}"


# Every tag a diagnostic of the checker or of the environments can carry.
CHECK_TAGS = {
    "SD-Data", "SD-Var", "SS-Cons", "SMP-Fun", "SMP-Data", "SMP-Meta", "SMP-Var",
    "SMC-Cons", "SMC-Meta", "SMC-Var", "SMS-Cons", "SMS-Meta", "SMS-Var",
    "SP-Bind", "SP-Assoc", "SA-Map", "SAP-Not", "SAP-All", "SAC-All",
    "DuplicateConstructor", "NonVariableSortParameter", "MetaFormConflict",
    "UnboundMetaOnRhs",
}

# Hand-written seeds for the edited corpus below: a signature of three
# sorts, one with a parameter, whose rules pass a variable of one sort to a
# meta-variable that takes another (SMS-Var); and one script with the tags
# that edits of the others rarely reach.
PIN_SORTS = """\
A data Ca();
A variable;
B data Cb();
B data Lb([A]B);
B variable;
Box<a> data Bx(a);
B scheme F([A]B, Box<B>);
B rule F([x]#M(x), Bx(y)) -> #M(y);
B rule F([x]#M(x), Bx(#N)) -> Lb([y]#M(y));
"""
PIN_RARE = """\
L data One();
L variable;
a variable;
L scheme One();
L scheme F({L:L}, {L:L});
L scheme G([L]L);
Box<a> data Bx(a);
Box scheme H(L);
L rule F({#e1, #e2}, {}) -> F({#e1, #e2}, {});
L rule G({}) -> One();
L rule F({#e}, {}) -> F({~y:}, {});
L rule G([x]#M(x)) -> G([y]#M(#M(y)));
"""
_TOKEN = re.compile(r"\s+|#?[A-Za-z][A-Za-z0-9_]*|->|\S")
_WORD = re.compile(r"#?[A-Za-z]")


def _edited_scripts(seeds, count, seed):
    """The ``seeds``, then ``count`` copies of them with one to three edits
    each, drawn from ``random.Random(seed)``: a word replaced by a word of
    any seed, a variable or meta-variable by a rule side of any seed, a
    declaration of any seed inserted after a ';', or one token dropped or
    repeated."""
    rng = random.Random(seed)
    tokened = [_TOKEN.findall(s) for s in seeds]
    words = sorted({t for ts in tokened for t in ts if _WORD.match(t)})
    decls = sorted({d.strip() + ";" for s in seeds for d in s.split(";")[:-1]})
    sides = sorted({render(x) for s in seeds for r in parse_script(s).rules
                    for x in (r.lhs, r.rhs)})
    yield from seeds
    for _ in range(count):
        tokens = list(rng.choice(tokened))
        for _ in range(rng.randint(1, 3)):
            move, i = rng.random(), rng.randrange(len(tokens))
            if move < 0.5:
                tokens[rng.choice([j for j, t in enumerate(tokens) if _WORD.match(t)])] = \
                    rng.choice(words)
            elif move < 0.65:
                at = [j for j, t in enumerate(tokens) if _WORD.match(t) and not t[0].isupper()]
                if at:
                    tokens[rng.choice(at)] = rng.choice(sides)
            elif move < 0.8:
                tokens.insert(rng.choice([j + 1 for j, t in enumerate(tokens) if t == ";"]),
                              " " + rng.choice(decls))
            elif move < 0.9:
                del tokens[i]
            else:
                tokens.insert(i, tokens[i])
        yield "".join(tokens)


def _sort_names(s):
    """The name of every sort constructor in ``s``."""
    if isinstance(s, SortVar):
        return set()
    return {s.name}.union(*map(_sort_names, s.args))


def test_checker_outputs_are_pinned():
    # Recorded before the checker's walks became methods of one class per
    # rule side: the formatted diagnostics, every rule environment, and
    # ``check_ground_subject`` on every rule side, of the edited copies of
    # the corpus that parse.
    seeds = [BETA_ETA, CBV_EVAL, NONLINEAR, REACH_TWO, IN_VALUE, UNTAKEN, CLASHING_NAMES,
             PIN_SORTS, PIN_RARE]
    lines, parsed, flagged, tags = [], 0, 0, set()
    for text in _edited_scripts(seeds, 1500, 0):
        try:
            script = parse_script(text, file="c.plank")
        except ParseFailure:
            continue
        checked = check_script(script)
        parsed += 1
        flagged += bool(checked.errors)
        tags.update(e.rule for e in checked.errors)
        lines += [e.format() for e in checked.errors]
        lines += [f"{env.var!r} {env.meta!r}" for env in checked.rule_envs]
        for rule in script.rules:
            for side in (rule.lhs, rule.rhs):
                sort, env, errors = check_ground_subject(checked.gamma, side)
                lines.append(f"{sort!r} {env.var!r} {[e.format() for e in errors]}")
        # ``check_sort`` reads a rank for every sort of a declaration.
        for d in script.declarations:
            for s in decl_sorts(d):
                assert _sort_names(s) <= checked.gamma.rank.keys(), text
    assert parsed >= 300 and flagged >= 200 and tags == CHECK_TAGS
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "3edabe1ab915dfb3"



# ---------------------------------------------------------------------------
# Shared substitution


def _unkept_copy(x):
    """``x`` rebuilt node by node, so that no construction of it keeps a name
    set and a substitution into it shares nothing."""
    if isinstance(x, Var):
        return Var(x.name)
    if isinstance(x, Construction):
        return Construction(x.head, tuple(map(_unkept_copy, x.args)))
    if isinstance(x, (MetaApp, CatchAll)):
        return type(x)(x.meta, tuple(map(_unkept_copy, x.args)))
    if isinstance(x, ScopePiece):
        return ScopePiece(x.binders, _unkept_copy(x.body))
    if isinstance(x, AssocPiece):
        return AssocPiece(tuple(map(_unkept_copy, x.entries)))
    if isinstance(x, MapEntry):
        return MapEntry(x.key, _unkept_copy(x.value))
    return NotKey(x.key)


def _replay_substitutions(monkeypatch, check_subject: bool) -> int:
    """Normalize the pinned cases and two clashing ones, with or without
    ``check_ground_subject`` first, and check every substitution made
    against a replay; return how many replacements that are not variables
    kept a name set when substituted."""
    calls = []
    with_sets = 0
    original = plank.rewrite.substitute

    def recording(body, binding):
        nonlocal with_sets
        with_sets += sum(not isinstance(r, Var) and r._idents is not None for r in binding.values())
        out = original(body, binding)
        calls.append((body, dict(binding), out))
        return out

    monkeypatch.setattr(plank.rewrite, "substitute", recording)
    sharing = set()
    clashing = [("beta-clash", BETA_ETA, "Ap(Lam([x]Ap(Lam([y]y), x)), y)", 10),
                ("cbv-colliding", CBV_EVAL, COLLIDING_TERM, 100)]
    cases = ENGINE_PINS + clashing
    for label, source, term, fuel, *_ in cases:
        script = parse_script(source)
        checked = check_script(script)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        calls.clear()
        subject = parse_term(term)
        if check_subject:
            check_ground_subject(checked.gamma, subject)
        normalize(checked.gamma, rules, subject, fuel=fuel)
        assert calls, label
        for body, binding, out in calls:
            copy = original(_unkept_copy(body), {w: _unkept_copy(r) for w, r in binding.items()})
            again = original(body, binding)
            assert copy == out == again, label
            assert render(copy) == render(out) == render(again), label
            if binding and isinstance(body, Construction):
                kept = set(map(id, _subterms(body)))
                if any(id(x) in kept for x in _subterms(out)):
                    sharing.add(label)
    assert sharing == {c[0] for c in cases} - {"chain-80", "omega-40"}
    return with_sets


def test_shared_substitution_equals_a_full_copy(monkeypatch):
    # Every substitution made while normalizing the pinned cases, and two
    # whose binders clash with a replacement's free name, shares the
    # subtrees whose kept name sets allow it.  Replayed on copies that keep
    # no set, so that it shares nothing, and again on the originals, whose
    # later steps have kept more sets, it gives an equal result that renders
    # byte for byte alike, binder names included.  Some subtree is shared in
    # every case but chain-80, which substitutes only into variables, and ω,
    # whose body holds its binder everywhere.  beta-clash shares ``Lam([y]y)``,
    # whose binder clashes with the replacement but which holds no x.
    _replay_substitutions(monkeypatch, check_subject=False)


def test_shared_substitution_of_a_checked_subject_equals_a_full_copy(monkeypatch):
    # ``plank normalize`` and the benchmark check the subject first, which
    # keeps a name set on each of its constructions, which is what the guard
    # reads.  Then some replacements keep one too, though the guard does not
    # read theirs.
    assert _replay_substitutions(monkeypatch, check_subject=True) > 0


def test_a_lone_catch_all_list_equals_its_merged_rebuild(monkeypatch):
    # Contraction gives a right side's list that holds only a catch-all
    # without arguments, such as each ``{#env}`` of the call-by-value rules,
    # as the list the catch-all captured.  On every call-by-value pin that
    # list equals the rebuild every other list gets: entry by entry through
    # a dict by key, where a later key overrides an earlier one in its first
    # position.
    lone = []
    original = plank.rewrite._inst

    def recording(t, rho, val, fresh):
        out = original(t, rho, val, fresh)
        if (isinstance(t, AssocPiece) and len(t.entries) == 1
                and isinstance(t.entries[0], CatchAll) and not t.entries[0].args):
            assert out is val.meta_bind[t.entries[0].meta].body
            lone.append(out)
        return out

    monkeypatch.setattr(plank.rewrite, "_inst", recording)
    for label, source, term, fuel, *_ in ENGINE_PINS:
        if source != CBV_EVAL:
            continue
        script = parse_script(source)
        checked = check_script(script)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        lone.clear()
        normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
        assert lone, label
        for out in lone:
            assert out == AssocPiece(tuple({e.key: e for e in out.entries}.values())), label


# The β rule alone: η would contract the drawn ``Lam([x]Ap(A, x))`` forms,
# which the nameless reference below does not.
BETA = "".join(BETA_ETA.splitlines(keepends=True)[:3])


def _beta_term(rng, depth):
    """A term over the names x, y and z: a name, a scope or an application."""
    r = rng.random()
    if depth <= 0 or r < 0.4:
        return rng.choice("xyz")
    if r < 0.7:
        return f"Lam([{rng.choice('xyz')}]{_beta_term(rng, depth - 1)})"
    return f"Ap({_beta_term(rng, depth - 1)}, {_beta_term(rng, depth - 1)})"


def _db_shift(t, d, cutoff=0):
    """De Bruijn form ``t`` with each index ``cutoff`` or more raised by ``d``."""
    if t[0] == "bound":
        return ("bound", t[1] + d) if t[1] >= cutoff else t
    if t[0] == "free":
        return t
    return ("con", t[1], tuple(("scope", n, _db_shift(b, d, cutoff + n)) for _, n, b in t[2]))


def _db_subst(t, j, s):
    """De Bruijn form ``t`` with ``s`` put for index ``j``."""
    if t[0] == "bound":
        return s if t[1] == j else t
    if t[0] == "free":
        return t
    return ("con", t[1], tuple(("scope", n, _db_subst(b, j + n, _db_shift(s, n)))
                               for _, n, b in t[2]))


def _db_beta_step(t):
    """De Bruijn form ``t`` after its leftmost-outermost β-step, or None."""
    if t[0] != "con":
        return None
    if t[1] == "Ap" and t[2][0][2][:2] == ("con", "Lam"):
        body, arg = t[2][0][2][2][0][2], t[2][1][2]
        return _db_shift(_db_subst(body, 0, _db_shift(arg, 1)), -1)
    for i, (_, n, b) in enumerate(t[2]):
        r = _db_beta_step(b)
        if r is not None:
            return ("con", t[1], t[2][:i] + (("scope", n, r),) + t[2][i + 1:])
    return None


def _db_beta_normalize(t, fuel):
    """``(term, steps, status)`` of a nameless leftmost-outermost β run."""
    steps = 0
    while True:
        after = _db_beta_step(t)
        if after is None:
            return t, steps, "NormalForm"
        if steps == fuel:
            return t, steps, "FuelExhausted"
        t, steps = after, steps + 1


def test_beta_runs_that_rename_binders_agree_with_a_nameless_normalizer(monkeypatch):
    # Each subject puts a redex under binders x, y and z whose function
    # binds x and y again, so a β-step often substitutes for x under a y
    # that the argument holds free, and ``_subst`` renames that binder.
    gamma, rules = _engine(BETA)
    de_bruijn = _bench_workloads().de_bruijn
    renames = 0

    def counting(hint, avoid):
        nonlocal renames
        renames += sys._getframe(1).f_code.co_name == "_subst"
        return fresh_var(hint, avoid)

    monkeypatch.setattr(plank.rewrite, "fresh_var", counting)
    rng = random.Random(37)
    draws, renamed = 3000, 0
    for _ in range(draws):
        a, b = _beta_term(rng, 2), _beta_term(rng, 2)
        subject = parse_term(f"Lam([x]Lam([y]Lam([z]Ap(Lam([x]Lam([y]{b})), {a}))))")
        renames = 0
        result = normalize(gamma, rules, subject, fuel=30)
        renamed += renames > 0
        assert (de_bruijn(result.term), len(result.steps), result.status.value) == \
            _db_beta_normalize(de_bruijn(subject), 30), render(subject)
    assert renamed >= draws // 10, renamed


# ---------------------------------------------------------------------------
# Resumed search


def _naive_step(rules, term):
    """The leftmost-outermost step of ``term`` with nothing skipped: a
    pre-order walk over positions that tries every rule at every
    construction in declaration order.  The reference for ``rewrite_step``,
    which shares none of its search."""
    todo = [((), term)]
    while todo:
        pos, sub = todo.pop()
        if not isinstance(sub, Construction):
            continue
        for rule in rules:
            val = match_term(rule.decl.lhs, sub)
            if val is not None:
                new = contract(rule.decl.rhs, val, all_idents(term))
                return _put(term, pos, new), (pos, rule.index)
        children = []
        for i, p in enumerate(sub.args):
            if isinstance(p, ScopePiece):
                children.append((pos + (i,), p.body))
                continue
            children += [(pos + (i, j), e.value) for j, e in enumerate(p.entries)
                         if isinstance(e, MapEntry)]
        todo += reversed(children)
    return None


def _put(term, pos, new):
    """``term`` with ``new`` at position ``pos``."""
    if not pos:
        return new
    args = list(term.args)
    p = args[pos[0]]
    if isinstance(p, ScopePiece):
        args[pos[0]] = ScopePiece(p.binders, _put(p.body, pos[1:], new))
    else:
        entries = list(p.entries)
        e = entries[pos[1]]
        entries[pos[1]] = MapEntry(e.key, _put(e.value, pos[2:], new))
        args[pos[0]] = AssocPiece(tuple(entries))
    return Construction(term.head, tuple(args))


def _restart_normalize(rules, term, fuel):
    """``normalize`` with every step taken by ``_naive_step``: the reference
    for the search that resumes at the last redex."""
    steps = []
    for _ in range(fuel):
        hit = _naive_step(rules, term)
        if hit is None:
            return term, steps, "NormalForm"
        term, step = hit
        steps.append(step)
    return term, steps, "NormalForm" if _naive_step(rules, term) is None else "FuelExhausted"


# Each hand-built case makes a redex at an ancestor farther above the last
# step than one level: η at a Lam three levels up once a step drops the
# binder's last free occurrence, η at the root once the second of two
# steps drops it (its undoable failure there outlives the first step and
# the move right to the second redex), η at the root and at a Lam inside
# it, which hold their retry sets at once and are both above the reach
# bound when the first step makes the inner redex, K(#m, #m) once a step
# three levels down makes its arguments equal, a pattern of reach 2 at the
# grandparent, one of reach 2 once a step in an association value, two
# position indices down, builds the W it looks for, and a catch-all that
# does not take x once a step four levels down drops x.  The last two find
# a redex right of the last one's path: in the next argument, in the next
# entry of the same association list, and at the first entry of the next
# list.
RESUMED = [(f"mult-{n}", BETA_ETA, _mult(n), 10000, None) for n in range(2, 9)] + [
    ("chain-80", CBV_EVAL, _identity_chain(80), 10000, None),
    ("let-10", CBV_EVAL, _let_chain(10), 10000, None),
    ("omega-40", CBV_EVAL, _OMEGA, 40, None),
    ("eta-three-up", BETA_ETA, "Lam([x]Ap(Ap(z, Ap(Lam([u]z), x)), x))", 10000,
     [((0, 0, 1), 0), ((), 1)]),
    ("eta-after-two-steps", BETA_ETA,
     "Lam([x]Ap(Ap(Ap(Lam([y]w), x), Ap(Lam([y]w), x)), x))", 10000,
     [((0, 0, 0), 0), ((0, 0, 1), 0), ((), 1)]),
    ("eta-inside-eta", BETA_ETA,
     "Lam([x]Ap(Ap(f, Lam([y]Ap(Ap(Ap(Lam([u]w), y), Ap(Lam([u]w), x)), y))), x))", 10000,
     [((0, 0, 1, 0, 0, 0), 0), ((0, 0, 1), 1), ((0, 0, 1, 1), 0), ((), 1)]),
    ("nonlinear-meta", NONLINEAR, "K(A(A(I(B()))), A(A(B())))", 10000,
     [((0, 0, 0), 1), ((), 0)]),
    ("reach-two", REACH_TWO, "F(G(I(H(B()))))", 10000, [((0, 0), 1), ((), 0)]),
    ("in-value", IN_VALUE, "F({p : I(W(B()))}, p)", 10000, [((0, 0), 1), ((), 0)]),
    ("untaken-catch-all", UNTAKEN, "Drop([x]Env({v : A(A(I(x)))}))", 10000,
     [((0, 0, 0, 0, 0), 1), ((), 0)]),
    ("next-argument", BETA_ETA, "Ap(Ap(Lam([x]x), z), Ap(Lam([y]y), w))", 10000,
     [((0,), 0), ((1,), 0)]),
    ("next-entry", UNTAKEN + "L data Two({L:L}, {L:L});",
     "Two({a : I(B()), b : A(I(B()))}, {c : I(B())})", 10000,
     [((0, 0), 1), ((0, 1, 0), 1), ((1, 0), 1)]),
]


@pytest.mark.parametrize("label,source,term,fuel,expected", RESUMED,
                         ids=[r[0] for r in RESUMED])
def test_resumed_search_chooses_the_redexes_of_a_search_from_the_root(label, source, term,
                                                                      fuel, expected):
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok, [e.format() for e in checked.errors]
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(term), fuel=fuel)
    reference, steps, status = _restart_normalize(rules, parse_term(term), fuel)
    assert [(s.position, s.rule_index) for s in result.steps] == steps
    assert render(result.term) == render(reference)
    assert result.status.value == status
    if expected is not None:
        assert steps == expected


@functools.cache
def _engine(source):
    """The signature and the prepared rules of the checked script ``source``."""
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok, [e.format() for e in checked.errors]
    return checked.gamma, prepare_rules(checked.gamma, script.rules, checked.rule_envs)


def _draw_term(draw, gamma, sort, budget, scope, free="xyz"):
    """A ground term of ``sort`` drawn from the declarations in ``gamma``:
    a binder of ``scope`` (name to sort) of that sort, a name of ``free``
    that no binder in scope captures if the sort has variables, or a
    construction whose result sort it is.  Binders are named from x, y and
    z, so nested binders reuse names and shadow each other; keys are such
    names of ``free`` or binders of their sort.  Past ``budget`` levels
    only leaves are drawn, or, where the sort has none, a construction that
    binds a name; where it has neither, as for a sort with no finite term,
    the example is rejected."""
    names = sorted({w for w, s in scope.items() if s == sort}
                   | (set(free) - scope.keys() if sort.name in gamma.hasvar else set()))
    heads = sorted(h for h, sig in gamma.con.items() if sig.result == sort)
    if budget <= 0:
        leaves = names + [h for h in heads if not gamma.con[h].forms]
        heads = leaves or [h for h in heads if all(
            isinstance(f, ScopeForm) and f.binder_sorts for f in gamma.con[h].forms)]
    else:
        heads = names + heads
    if not heads:
        reject()
    choice = draw(st.sampled_from(heads))
    if choice in names:
        return Var(Ident(choice))
    return _draw_construction(draw, gamma, choice, budget, scope, free)


def _draw_construction(draw, gamma, head, budget, scope, free="xyz"):
    """A construction of ``head`` whose pieces ``_draw_term`` draws."""
    pieces = []
    for form in gamma.con[head].forms:
        if isinstance(form, ScopeForm):
            binders = tuple(Ident(draw(st.sampled_from("xyz"))) for _ in form.binder_sorts)
            inner = scope | dict(zip(binders, form.binder_sorts))
            pieces.append(ScopePiece(binders, _draw_term(draw, gamma, form.body_sort, budget - 1,
                                                         inner, free)))
            continue
        keys = sorted(set(free) - scope.keys()
                      | {w for w, s in scope.items() if s == form.key_sort})
        entries = [MapEntry(Ident(draw(st.sampled_from(keys))),
                            _draw_term(draw, gamma, form.value_sort, budget - 1, scope, free))
                   for _ in range(draw(st.integers(0, 2)) if keys else 0)]
        pieces.append(AssocPiece(tuple(entries)))
    return Construction(Ident(head), tuple(pieces))


@st.composite
def _subjects(draw, gamma):
    """Well-sorted ground subjects of the signature ``gamma``: a declared
    construction, at most four construction levels deep before the leaves."""
    return _draw_construction(draw, gamma, draw(st.sampled_from(sorted(gamma.con))), 4, {})


GENERATED = {"beta-eta": BETA_ETA, "cbv": CBV_EVAL, "nonlinear-meta": NONLINEAR}


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_draws_at_a_sort_with_no_finite_term_are_rejected(data):
    # The one constructor of ``L`` is ``Ap(L, L)`` and ``L`` has no
    # variables, so only a binder of ``Lam`` ends a term of it: drawing an
    # ``Ap`` subject rejects the example instead of failing the test.
    gamma, _ = _engine("y scheme Lam([L]L); L scheme Ap(L,L);")
    subject = data.draw(_subjects(gamma))
    assert subject.head == "Lam" and free_vars(subject) == set(), render(subject)


@pytest.mark.parametrize("label", sorted(GENERATED))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_normalize_agrees_with_a_restarted_search_on_generated_subjects(label, data):
    # Drawn from the signature alone, every subject is well sorted, and the
    # zipper chooses the steps, the result and the status of a naive search
    # from the root on every step.
    gamma, rules = _engine(GENERATED[label])
    subject = data.draw(_subjects(gamma))
    sort, _, errors = check_ground_subject(gamma, subject)
    assert errors == [], render(subject)
    result = normalize(gamma, rules, subject, fuel=30,
                       on_step=lambda term, _: _assert_sorted_as(gamma, term, sort))
    reference, steps, status = _restart_normalize(rules, subject, 30)
    assert [(s.position, s.rule_index) for s in result.steps] == steps
    assert result.status.value == status
    assert render(result.term) == render(reference)


def _permute_lists(draw, t):
    """``t`` with the entries of each association list drawn into another
    order; entries that share a key keep theirs, as a later one overrides."""
    if not isinstance(t, Construction):
        return t
    pieces = []
    for p in t.args:
        if isinstance(p, ScopePiece):
            pieces.append(ScopePiece(p.binders, _permute_lists(draw, p.body)))
            continue
        entries = [MapEntry(e.key, _permute_lists(draw, e.value)) for e in p.entries]
        same_key = {}
        for e in entries:
            same_key.setdefault(e.key, []).append(e)
        queues = {k: iter(es) for k, es in same_key.items()}
        order = draw(st.permutations(entries))
        pieces.append(AssocPiece(tuple(next(queues[e.key]) for e in order)))
    return Construction(t.head, tuple(pieces))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_normal_form_does_not_depend_on_association_order(data):
    # A list is a map, so permuting a call-by-value subject's lists changes
    # no status, and a normal form only in list order and in which fresh
    # name went where, reached by the same rules.  The order of the steps
    # may change, and with it the order fresh names are drawn in: see the
    # two pins below.
    gamma, rules = _engine(CBV_EVAL)
    subject = data.draw(_subjects(gamma))
    permuted = _permute_lists(data.draw, subject)
    (one, drawn), (two, drawn2) = (_normalize_drawing(gamma, rules, s, 30)
                                   for s in (subject, permuted))
    assert one.status is two.status, render(permuted)
    if one.status is NormalStatus.NORMAL_FORM:
        assert (Counter(s.rule_index for s in one.steps)
                == Counter(s.rule_index for s in two.steps)), render(permuted)
        assert _alpha_equal_up_to_fresh_names(one.term, drawn, two.term, drawn2), \
            render(permuted)


def _normalize_drawing(gamma, rules, subject, fuel):
    """``normalize``'s result on ``subject``, and the set of names that
    ``fresh_var`` gave the engine in the run."""
    drawn = set()

    def drawing(hint, avoid):
        name = fresh_var(hint, avoid)
        drawn.add(name)
        return name

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plank.rewrite, "fresh_var", drawing)
        return normalize(gamma, rules, subject, fuel=fuel), drawn


def _alpha_equal_up_to_fresh_names(a, drawn_a, b, drawn_b):
    """``a`` and ``b``, the results of two runs that drew the names
    ``drawn_a`` and ``drawn_b``, are α-equal after some bijection between
    the drawn names free in each, and every other free name is the same in
    both.  A drawn name may be one the subject held free before it left the
    term."""
    free_a, free_b = free_vars(a), free_vars(b)
    fresh_a, fresh_b = sorted(free_a & drawn_a), sorted(free_b & drawn_b)
    return free_a - drawn_a == free_b - drawn_b and len(fresh_a) == len(fresh_b) and any(
        alpha_equal(substitute(a, {x: Var(y) for x, y in zip(fresh_a, order)}), b)
        for order in permutations(fresh_b))


def test_steps_in_two_entries_follow_list_order():
    # The leftmost-outermost search visits a list's entries in order, so
    # redexes in two entries fire in list order: the rule sequence is not
    # invariant under permuting a list, though the normal form is.
    gamma, rules = _engine(CBV_EVAL)
    runs = [normalize(gamma, rules, parse_term(text)) for text in (
        "Apply(x, x, {x : Eval(Lam([x]x), {}), y : Eval(x, {x : x})})",
        "Apply(x, x, {y : Eval(x, {x : x}), x : Eval(Lam([x]x), {})})")]
    assert [[(s.position, s.rule_index) for s in r.steps] for r in runs] == [
        [((2, 0), 0), ((2, 1), 2)], [((2, 0), 2), ((2, 1), 0)]]
    assert alpha_equal(runs[0].term, runs[1].term)


def test_a_catch_all_with_a_repeated_parameter_keeps_its_last_argument():
    # The checker lets a pattern catch-all repeat a parameter, and
    # instantiating its fragment pairs parameters with arguments in a dict,
    # so on the right side the last argument for the repeated parameter
    # wins and the other is dropped without a diagnostic.
    for rhs, result in (("#e(z, w)", "Env({w : w, a : w})"), ("#e(w, z)", "Env({z : z, a : z})")):
        gamma, rules = _engine("L variable; L data B(); L data C(L, L); L data Env({L:L}); "
                               f"L scheme Drop([L]L); L rule Drop([x]Env({{#e(x, x)}})) -> "
                               f"Env({{{rhs}}});")
        subject = parse_term("Drop([y]Env({y : y, a : y}))")
        assert render(normalize(gamma, rules, subject).term) == result, rhs


def test_fresh_names_in_two_entries_follow_list_order():
    # Fresh names are drawn in step order, and steps follow list order, so
    # with two entries swapped the entry that draws z and the one that draws
    # z1 swap too: the normal forms are α-equal only after renaming z and z1.
    gamma, rules = _engine(CBV_EVAL)
    value = "Apply(Lam([x]y), x, {})"
    subjects = [parse_term(f"Apply(x, x, {{{k} : {value}, {l} : {value}}})")
                for k, l in ("xy", "yx")]
    (one, drawn), (two, drawn2) = (_normalize_drawing(gamma, rules, s, 10000)
                                   for s in subjects)
    assert [render(r.term) for r in (one, two)] == [
        "Apply(x, x, {x : Eval(y, {z : x}), y : Eval(y, {z1 : x})})",
        "Apply(x, x, {y : Eval(y, {z : x}), x : Eval(y, {z1 : x})})"]
    assert not alpha_equal(one.term, two.term)
    assert _alpha_equal_up_to_fresh_names(one.term, drawn, two.term, drawn2)


def _assert_sorted_as(gamma, term, sort):
    """``term``, a step's result from a subject of ``sort``, is well sorted
    at ``sort``: a construction as a ground subject, and a bare variable in
    contraction context, as the checker takes one below the root."""
    if isinstance(term, Construction):
        have, _, errors = check_ground_subject(gamma, term)
        assert (have, errors) == (sort, []), render(term)
        return
    check = _Check(gamma, RuleEnv(), False, [])
    check.term(term, sort, all_idents(term), {})
    assert check.errors == [], render(term)


# Call-by-value subjects whose normal form is a bare variable of sort L,
# which ``check_ground_subject`` rejects as a whole subject (SMC-Cons).
@pytest.mark.parametrize("subject", ["Eval(y, {y : y})", "Apply(Lam([y]y), y, {})",
                                     "Eval(x, {z : z, x : x})"])
def test_every_step_of_a_variable_result_is_well_sorted(subject):
    gamma, rules = _engine(CBV_EVAL)
    term = parse_term(subject)
    sort, _, errors = check_ground_subject(gamma, term)
    assert errors == []
    result = normalize(gamma, rules, term,
                       on_step=lambda t, _: _assert_sorted_as(gamma, t, sort))
    assert isinstance(result.term, Var) and result.status.value == "NormalForm"


def _two_pass_check(gamma, subject):
    """A subject's check as two passes: the rule sort walk sorts every free
    name at its first position, then the check reads those sorts back."""
    sort = gamma.con[subject.head].result
    delta = RuleEnv()
    _SortWalk(gamma, delta, {}, [], subject, sort, False)
    check = _Check(gamma, delta, False, [])
    check.term(subject, sort, all_idents(subject), {})
    return sort, delta, check.errors


def _constructions(t):
    """Every construction of ``t``, in pre-order."""
    if isinstance(t, Construction):
        yield t
        for p in t.args:
            if isinstance(p, ScopePiece):
                yield from _constructions(p.body)
            else:
                for e in p.entries:
                    if isinstance(e, MapEntry):
                        yield from _constructions(e.value)


def _swap(t, old, new):
    """``t`` with the node ``old`` replaced by ``new``."""
    if t is old:
        return new
    if not isinstance(t, Construction):
        return t
    return Construction(t.head, tuple(
        ScopePiece(p.binders, _swap(p.body, old, new)) if isinstance(p, ScopePiece)
        else AssocPiece(tuple(MapEntry(e.key, _swap(e.value, old, new))
                              if isinstance(e, MapEntry) else e for e in p.entries))
        for p in t.args))


@st.composite
def _mutated_subjects(draw, gamma):
    """A subject of ``_subjects`` with one construction made ill-formed: one
    argument dropped or repeated, one binder dropped, or an absence entry
    ``~k:`` added.  A subject with no argument anywhere stays as it is."""
    subject = draw(_subjects(gamma))
    nodes = [c for c in _constructions(subject) if c.args]
    if not nodes:
        return subject
    node = draw(st.sampled_from(nodes))
    args = list(node.args)
    i = draw(st.integers(0, len(args) - 1))
    scopes = [j for j, p in enumerate(args) if isinstance(p, ScopePiece) and p.binders]
    lists = [j for j, p in enumerate(args) if isinstance(p, AssocPiece)]
    moves = ["drop", "repeat"] + ["unbind"] * bool(scopes) + ["absent"] * bool(lists)
    move = draw(st.sampled_from(moves))
    if move == "drop":
        del args[i]
    elif move == "repeat":
        args.insert(i, args[i])
    elif move == "unbind":
        j = draw(st.sampled_from(scopes))
        args[j] = ScopePiece(args[j].binders[:-1], args[j].body)
    else:
        j = draw(st.sampled_from(lists))
        entries = list(args[j].entries)
        entries.insert(draw(st.integers(0, len(entries))),
                       NotKey(Ident(draw(st.sampled_from("xyz")))))
        args[j] = AssocPiece(tuple(entries))
    return _swap(subject, node, Construction(node.head, tuple(args)))


def _stops(diagnostics):
    """The diagnostics at which the check goes no deeper: an arity or a
    binder-count mismatch, or an absence entry outside a pattern."""
    return [e.format() for e in diagnostics
            if "argument(s), got" in e.message or "BinderArityMismatch" in e.message
            or e.rule == "SAP-Not"]


@pytest.mark.parametrize("label", sorted(GENERATED))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_subject_is_sorted_by_the_walk_that_checks_it(label, data):
    # ``check_ground_subject`` sorts each free name where its check first
    # meets it, and agrees with sorting every name first, then checking.  Past
    # a diagnostic that stops the check, a name first met in the skipped part
    # takes the sort of its next occurrence, so only the follow-on
    # diagnostics there may differ.
    gamma = _engine(GENERATED[label])[0]
    subject = data.draw(_subjects(gamma))
    sort, delta, errors = check_ground_subject(gamma, subject)
    ref_sort, ref_delta, ref_errors = _two_pass_check(gamma, subject)
    assert (sort, delta.var, [e.format() for e in errors]) == (
        ref_sort, ref_delta.var, [e.format() for e in ref_errors]), render(subject)
    mutant = data.draw(_mutated_subjects(gamma))
    errors = check_ground_subject(gamma, mutant)[2]
    ref_errors = _two_pass_check(gamma, mutant)[2]
    assert bool(errors) == bool(ref_errors), render(mutant)
    assert _stops(errors) == _stops(ref_errors), render(mutant)
    if not _stops(errors):
        assert [e.format() for e in errors] == [e.format() for e in ref_errors], render(mutant)


def test_normalize_calls_the_traced_functions_once_per_use(monkeypatch):
    # The benchmark's tracer times the engine by wrapping module attributes.
    # ``normalize`` calls ``rewrite_step`` once per step and once for the
    # last search, and each attempt the argument-head guard lets through is
    # one call of ``match_term``: a matcher that never matches leaves the
    # subject as it is.
    calls, attempts = [], []
    step, match = plank.rewrite.rewrite_step, plank.rewrite.match_term

    def stepping(*args, **private):
        calls.append(args[2])
        return step(*args, **private)

    def matching(pattern, subject, **private):
        attempts.append((pattern, subject))
        return match(pattern, subject, **private)

    monkeypatch.setattr(plank.rewrite, "rewrite_step", stepping)
    monkeypatch.setattr(plank.rewrite, "match_term", matching)
    for source, term, count in [(BETA_ETA, _mult(4), 15), (CBV_EVAL, _identity_chain(10), 41)]:
        calls.clear()
        attempts.clear()
        gamma, rules = _engine(source)
        result = normalize(gamma, rules, parse_term(term))
        assert len(calls) == len(result.steps) + 1
        assert len(attempts) == count
        assert all(_guard_lets_through(p, s) for p, s in attempts)
        monkeypatch.setattr(plank.rewrite, "match_term", lambda p, s, **private: None)
        result = normalize(gamma, rules, parse_term(term))
        assert result.steps == [] and result.term == parse_term(term)
        monkeypatch.setattr(plank.rewrite, "match_term", matching)


def _guard_lets_through(pattern, subject):
    """Whether every scope argument of ``subject`` has a body of the head
    that ``pattern``'s has there, or is a variable where ``pattern``'s is."""
    for p, s in zip(pattern.args, subject.args):
        if isinstance(p, ScopePiece) and isinstance(p.body, Var):
            if not isinstance(s.body, Var):
                return False
        elif isinstance(p, ScopePiece) and isinstance(p.body, Construction):
            if not (isinstance(s.body, Construction) and s.body.head == p.body.head):
                return False
    return True


@pytest.mark.parametrize("label,source,term,fuel", [p[:4] for p in ENGINE_PINS],
                         ids=[p[0] for p in ENGINE_PINS])
def test_the_guard_skips_only_attempts_that_fail(label, source, term, fuel):
    # At every construction of every term the run traces, a rule whose
    # guard the construction fails does not match there.
    gamma, rules, terms = _traced(source, term, fuel)
    for t in terms:
        for sub in _subterms(t):
            if isinstance(sub, Construction):
                for rule in rules:
                    if not _guard_lets_through(rule.decl.lhs, sub):
                        assert match_term(rule.decl.lhs, sub) is None, (label, render(sub))

def _tree_idents(t):
    """Every variable name of ``t`` by a plain walk of its tree: the
    reference for ``all_idents``."""
    out, todo = set(), [t]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out.add(x.name)
        elif isinstance(x, MetaApp):
            todo.extend(x.args)
        else:
            for p in x.args:
                if isinstance(p, ScopePiece):
                    out.update(p.binders)
                    todo.append(p.body)
                    continue
                for e in p.entries:
                    if isinstance(e, CatchAll):
                        todo.extend(e.args)
                        continue
                    out.add(e.key)
                    if isinstance(e, MapEntry):
                        todo.append(e.value)
    return out


def _subterms(t):
    """Each distinct term object reachable from ``t``, once."""
    seen, todo = {}, [t]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen[id(x)] = x
        if isinstance(x, MetaApp):
            todo.extend(x.args)
        elif isinstance(x, Construction):
            for p in x.args:
                if isinstance(p, ScopePiece):
                    todo.append(p.body)
                    continue
                for e in p.entries:
                    if isinstance(e, CatchAll):
                        todo.extend(e.args)
                    elif isinstance(e, MapEntry):
                        todo.append(e.value)
    return list(seen.values())


@pytest.mark.parametrize("source,term,fuel", [
    (BETA_ETA, _mult(3), 10000),
    (CBV_EVAL, _identity_chain(10), 10000),
    (CBV_EVAL, _let_chain(4), 10000),
    (CBV_EVAL, _OMEGA, 12),
], ids=["mult-3", "chain-10", "let-4", "omega-12"])
def test_kept_names_match_a_tree_walk_on_every_intermediate_term(source, term, fuel):
    # The engine queries names while it rewrites, so most subterms of a later
    # term already hold their set; every one of them must still be right.
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    seen = [parse_term(term)]
    normalize(checked.gamma, rules, seen[0], fuel=fuel, on_step=lambda t, _step: seen.append(t))
    for step, t in enumerate(seen):
        for sub in _subterms(t):
            assert all_idents(sub) == _tree_idents(sub), (step, render(sub))


# ---------------------------------------------------------------------------
# Repeated work


@pytest.mark.parametrize("source", [BETA_ETA, CBV_EVAL], ids=["beta-eta", "cbv"])
def test_check_script_infers_each_rule_env_once(monkeypatch, source):
    script = parse_script(source)
    calls = []

    def counting(gamma, rule):
        calls.append(rule)
        return infer_rule_env(gamma, rule)

    monkeypatch.setattr(plank.checker, "infer_rule_env", counting)
    result = check_script(script)
    assert result.ok
    assert calls == list(script.rules)
    assert len(result.rule_envs) == len(script.rules)


@pytest.mark.parametrize("source,subject", [
    (BETA_ETA, _mult(4)), (CBV_EVAL, _identity_chain(10)),
], ids=["beta-eta", "cbv"])
def test_only_rule_sides_run_a_sort_walk(monkeypatch, source, subject):
    # Inference walks each side of a rule once before the check; a ground
    # subject's check sorts its names itself, with no walk beforehand.
    walks = []

    class Counting(plank.env._SortWalk):
        def __init__(self, *args):
            walks.append(args[-1])
            super().__init__(*args)

    monkeypatch.setattr(plank.env, "_SortWalk", Counting)
    script = parse_script(source)
    checked = check_script(script)
    assert checked.ok
    assert walks == [True, False] * len(script.rules)
    walks.clear()
    assert check_ground_subject(checked.gamma, parse_term(subject))[2] == []
    assert walks == []


@pytest.mark.parametrize("source", [BETA_ETA, CBV_EVAL], ids=["beta-eta", "cbv"])
def test_a_well_formed_rule_side_runs_no_name_walk(monkeypatch, source):
    # Inference's sort walk collects the names the rule's check reads, so on
    # a well-formed side no ``_names`` walk runs; only ``_Check.association``
    # still asks for the free variables of each map value.
    callers = []
    original = plank.terms._names

    def recording(*args):
        caller = sys._getframe(1).f_code.co_name
        if caller != "_names":
            callers.append((caller, sys._getframe(2).f_code.co_name))
        return original(*args)

    monkeypatch.setattr(plank.terms, "_names", recording)
    monkeypatch.setattr(plank.env, "_names", recording)
    script = parse_script(source)
    assert check_script(script).ok
    values = sum(render(side).count(" : ") for r in script.rules for side in (r.lhs, r.rhs))
    assert callers == [("non_assoc_vars", "association")] * values
    assert (source is CBV_EVAL) == (values > 0)


def test_each_rule_side_and_subject_builds_one_walker(monkeypatch):
    # A walker holds one judgment over a whole rule side or subject; scopes
    # and map values pass their binders and key sets down as arguments.
    # Every walker appends to the one list of diagnostics its caller returns.
    walkers = []

    class Counting(_Check):
        def __init__(self, *args):
            walkers.append(self)
            super().__init__(*args)

    monkeypatch.setattr(plank.checker, "_Check", Counting)
    checked = check_script(parse_script(CBV_EVAL))
    assert checked.ok
    assert len(walkers) == 8
    assert all(w.errors is checked.errors for w in walkers)
    walkers.clear()
    subject = parse_term("Eval(Ap(Lam([x]x), Lam([y]y)), {})")
    _, _, errors = check_ground_subject(checked.gamma, subject)
    assert errors == []
    assert len(walkers) == 1
    assert walkers[0].errors is errors
    source = (REPO / "src" / "plank" / "checker.py").read_text(encoding="utf-8")
    assert _callers(source, "_Check") == {"_check_rule", "check_ground_subject"}
    sample = "def f():\n    def g():\n        _Check()\n    return C._Check()\n_Check()\n"
    assert _callers(sample, "_Check") == {"f", "g", ""}


def test_normalize_indexes_the_rules_by_head_once(monkeypatch):
    # ``normalize`` builds the index of the rules by head once for all its
    # steps; ``rewrite_step`` called alone builds its own on each call and
    # chooses the pinned steps.
    calls = []
    original = plank.rewrite._index_by_head

    def counting(gamma, rules):
        calls.append(len(rules))
        return original(gamma, rules)

    monkeypatch.setattr(plank.rewrite, "_index_by_head", counting)
    script = parse_script(CBV_EVAL)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(_identity_chain(80)))
    assert len(result.steps) == 321
    assert calls == [len(rules)]
    calls.clear()
    term, steps = parse_term(_identity_chain(80)), []
    while (hit := rewrite_step(checked.gamma, rules, term)) is not None:
        term, step = hit
        steps.append((step.position, step.rule_index))
    pin = next(p for p in ENGINE_PINS if p[0] == "chain-80")
    assert _pin(repr(steps)) == pin[7]
    assert len(calls) == len(steps) + 1


def _tagged(text: str, tag: str) -> str:
    """``text`` with ``tag`` after each sort and constructor name."""
    return re.sub(r"(?<![#A-Za-z0-9_])[A-Z][A-Za-z0-9_]*", lambda m: m.group() + tag, text)


def _script_325() -> str:
    """The corpus pair 25 times, each copy of either script with its own
    suffix on its sort and constructor names, as the benchmark's script
    gives each its own tag: 325 declarations that check clean."""
    return "\n".join(_tagged(BETA_ETA, f"b{i}") + _tagged(CBV_EVAL, f"c{i}") for i in range(25))


def test_lexer_classifies_each_distinct_word_once():
    # The lexer runs no Python frame per word, and the string methods that
    # classify a word run a few times per distinct spelling, not per token.
    text = _script_325()
    words = set(re.findall(r"[#A-Za-z][A-Za-z0-9_]*", text))
    frames, methods = [], []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)
        elif event == "c_call" and isinstance(arg.__self__, str):
            methods.append(arg.__name__)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        kinds, texts, dropped = plank.parser._lex(text)
    finally:
        sys.setprofile(outer)
    assert frames == ["_lex"]
    assert (len(texts), len(words), dropped) == (6001, 213, {})
    assert methods and len(methods) <= 4 * len(words)


def test_offsets_are_found_once_and_only_when_read(monkeypatch):
    # A parse that reports nothing finds no token offset; one or many
    # diagnostics, from the lexer, the parser or the checker, find them once.
    calls = []
    original = plank.parser._offsets

    def counting(text, dropped):
        calls.append(len(text))
        return original(text, dropped)

    monkeypatch.setattr(plank.parser, "_offsets", counting)
    text = _script_325()
    script = parse_script(text)
    assert len(script.declarations) == 325 and calls == []
    assert check_script(script).ok and calls == []
    # Two rules of the benchmark's mutants, tagged as copy 0 of each script.
    ill = (text + "Lb0 rule Apb0(#M, #N) → Zap();\n"
           "Lc0 rule Evalc0(#F, {#env}) → Applyc0(#F, #A, {#env});\n")
    checked = check_script(parse_script(ill))
    assert [e.format() for e in checked.errors] == [
        "<input>:475:25: error[SMC-Cons]: constructor Zap is not declared",
        "<input>:476:1: error[UnboundMetaOnRhs]: meta-variable #A occurs in the contraction "
        "but not in the pattern"]
    assert calls == [len(ill)]
    calls.clear()
    mutant = text.replace("Apb3(L", "Apb3(é L", 1).replace("Lc7 variable;", "Lc7 variable", 1)
    with pytest.raises(ParseFailure) as exc:
        parse_script(mutant)
    assert [e.format() for e in exc.value.errors] == [
        "<input>:59:17: error[parse]: unexpected character 'é'",
        "<input>:142:1: error[parse]: expected ';', found 'Lc7'"]
    assert calls == [len(mutant)]


def test_diagnostics_past_the_first_block_are_pinned():
    # A parsed node keeps its first token's index within its block of 256
    # tokens.  The script has 6,001 tokens, so the appended rules and the
    # last declaration lie in its 24th block; the subject has 459.
    text = _script_325()
    ill = (text + "Lb0 rule Apb0(Lamb0([x]#M(x)), #N) → #M();\n"
           "Lc3 rule Evalc3(Apc3(#F, #A), {#env})\n"
           "  → Applyc3(Evalc3(#F, {#env}), Lamc3([x, y]#A), {#env});\n")
    assert [e.format() for e in check_script(parse_script(ill, "big.plank")).errors] == [
        "big.plank:475:38: error[MetaFormConflict]: meta-variable #M used with 0 argument(s) "
        "at Lb0 but its meta-form is (Lb0) => Lb0",
        "big.plank:477:39: error[SP-Bind]: scope binds 2 variable(s) but the form declares 1 "
        "(BinderArityMismatch)"]
    gamma = check_script(parse_script(CBV_EVAL)).gamma
    subject = _identity_chain(40).replace("[y]y", "[y]\n  y")[:-4] + "{x : Nope()})"
    assert [e.format() for e in check_ground_subject(gamma, parse_term(subject, "s.plank"))[2]
            ] == ["s.plank:42:51: error[SMC-Cons]: constructor Nope is not declared"]
    for bad, error in ((text[:-4] + "};\n", "big.plank:474:34: error[parse]: expected ')', "
                        "found ';'"),
                       (text[:-2] + "\n", "big.plank:475:1: error[parse]: expected ';', "
                        "found 'end of input'")):
        with pytest.raises(ParseFailure) as exc:
            parse_script(bad, "big.plank")
        assert [e.format() for e in exc.value.errors] == [error]


def test_the_lexer_runs_no_python_code_per_token():
    # Opcodes that ``_lex``'s own frame executes: about 48 per distinct word
    # here (10,170), against about 41 per token for a loop over the tokens.
    text = _script_325()
    toks, words = plank.parser._TOKEN_RE.findall(text), set(re.findall(r"[#A-Za-z]\w*", text))
    assert (len(toks) + 1, len(words)) == (6001, 213)
    opcodes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        opcodes += event == "opcode"
        return local

    def tracer(frame, event, arg):
        if frame.f_code is plank.parser._lex.__code__:
            frame.f_trace_opcodes = True
            return local
        return None

    outer = sys.gettrace()
    sys.settrace(tracer)
    try:
        kinds = plank.parser._lex(text)[0]
    finally:
        sys.settrace(outer)
    assert len(kinds) == 6001
    assert opcodes < 2 * len(kinds), opcodes


def test_the_front_end_runs_few_python_frames():
    # Parsing and checking the 325 declarations ran 23,225 Python frames
    # when the records were dataclasses, whose keyword-only ``span`` made
    # each ``__init__`` dearer, and before sorts were compared by identity
    # first and ``listed`` closed its list inline; 21,475 after, on a text
    # whose copies shared their names and so checked with 75 diagnostics.
    # The clean text ran 20,548 when the lexer called ``Ident`` on each
    # distinct word, 20,335 once it kept each word as it stands, and 20,285
    # now that every check walk appends to one list of diagnostics instead
    # of building, extending and returning a list at each node.
    text = _script_325()
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call"

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        checked = check_script(parse_script(text))
    finally:
        sys.setprofile(outer)
    assert len(checked.rule_envs) == 150
    assert frames < 20_400, frames


def test_a_parsed_tree_keeps_little_memory():
    # Each parsed node keeps its first token's index within its block of
    # 256 tokens and that block.  With a position tuple per node the tree
    # held 512.0 KiB on CPython 3.11, and 362.0 KiB with the bare index, of
    # which an int object per node above token 256 took 71.8 KiB; with the
    # index within the block, an int that CPython caches, 292.1 KiB; with
    # each name an exact ``str``, a compact object, it holds 282.2 KiB.
    text = _script_325()
    gc.collect()
    tracemalloc.start()
    try:
        script = parse_script(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(script.declarations) == 325
    assert kept < 300 * 1024, kept / 1024


def test_scopes_leave_no_keys_tables_on_the_free_list():
    # CPython 3.11 keeps freed minimum-size keys tables of exact-``str`` dicts
    # on a free list of 80, which a full collection empties; a copy of a
    # non-empty dict (``dict(d)``, ``d | e``) clones its table and never takes
    # one from the list, so a copy per scope or per step leaves the list full
    # of traced tables.  On the identity chain of 80 a full collection frees
    # 23.3 KiB after the check and the run; with the checker's scope,
    # ``_inst``'s scope or ``contract``'s ``rho`` built as a copy, 32.2 KiB.
    script = parse_script(CBV_EVAL)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    term = parse_term(_identity_chain(80))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        errors = check_ground_subject(checked.gamma, term)[2]
        steps = len(normalize(checked.gamma, rules, term).steps)
        left = tracemalloc.get_traced_memory()[0]
        gc.collect()
        freed = left - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert (errors, steps) == ([], 321)
    assert freed < 27 * 1024, freed / 1024


def test_beta_eta_walks_no_names(monkeypatch):
    # No beta/eta right side draws a fresh name, and the matcher names each
    # subject binder by its own name, so normalizing walks no name set.
    callers = []

    def recording(t):
        callers.append(sys._getframe(1).f_code.co_name)
        return all_idents(t)

    monkeypatch.setattr(plank.rewrite, "all_idents", recording)
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, parse_term(_mult(4)))
    assert render(result.term) == f"Lam([g]Lam([x]{_ap_g(16)}))"
    assert callers == []


def test_right_side_free_variables_are_computed_once_per_rule(monkeypatch):
    # prepare_rules sorts each right side's free variables once; contraction
    # then reads them from the rule instead of walking the right side again.
    callers = []

    def recording(t):
        callers.append(sys._getframe(1).f_code.co_name)
        return free_vars(t)

    monkeypatch.setattr(plank.rewrite, "free_vars", recording)
    script = parse_script(CBV_EVAL)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    assert callers == ["prepare_rules"] * len(script.rules)
    assert [r.rhs_vars for r in rules] == [tuple(sorted(free_vars(d.rhs))) for d in script.rules]
    callers.clear()
    result = normalize(checked.gamma, rules, parse_term(_identity_chain(10)))
    assert render(result.term) == "Lam([x]x)"
    assert "contract" not in callers


@pytest.mark.parametrize("sizes, most", [((12,), 34), ((4, 6, 8), 62)],
                         ids=["mult-12", "mult-4-6-8"])
def test_resumed_search_skips_attempts_that_cannot_match(monkeypatch, sizes, most):
    # Searching from the root on every step, Church mult 12 12 took 1,819
    # match attempts and mult 4, 6 and 8 together 939.  Retrying at the
    # ancestors of the last redex only the rules that can see it left 246
    # and 278, as η was retried at every Lam; retrying it only where it
    # failed undoably, and skipping the attempts the argument-head guard
    # rules out, leaves 31 and 57.
    attempts = []
    original = plank.rewrite.match_term

    def counting(pattern, subject, **private):
        attempts.append(subject)
        return original(pattern, subject, **private)

    monkeypatch.setattr(plank.rewrite, "match_term", counting)
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    for n in sizes:
        result = normalize(checked.gamma, rules, parse_term(_mult(n)))
        assert render(result.term) == f"Lam([g]Lam([x]{_ap_g(n * n)}))"
    assert len(attempts) <= most


@pytest.mark.parametrize("source,term,steps", [
    (BETA_ETA, _mult(2), 7),
    (CBV_EVAL, _identity_chain(2), 9),
], ids=["mult-2", "chain-2"])
def test_no_cycle_keeps_a_rewritten_term_alive(source, term, steps):
    # Every walk of the front end, the checker and the engine takes its state
    # as arguments, so no reference cycle is left behind: with the collector
    # off, parsing, checking, normalizing and rendering leave no garbage that
    # only the collector could free, and the subject is freed by reference
    # counting alone.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        script = parse_script(source)
        checked = check_script(script)
        root = parse_term(term)
        _, _, errors = check_ground_subject(checked.gamma, root)
        rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
        result = normalize(checked.gamma, rules, root)
        # Only ``root`` and the call's argument refer to the subject, so
        # ``del root`` frees it.
        assert sys.getrefcount(root) == 2
        del root
        texts = [render(n, unicode=u) for n in (script, result.term) for u in (False, True)]
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage == []
    assert errors == [] and checked.errors == []
    assert len(result.steps) == steps
    assert "→" in texts[1] and "->" in texts[0]


# The subject already holds x, x1, z and z1, so every fresh binder and every
# call-by-value z is suffixed.  Recorded before the lazy name sets, and
# re-pinned, each step alpha-equal to the old, when the matcher kept the
# subject's binder names: x3 became x2 and x2 became x1.
COLLIDING_TERM = "Eval(Ap(Lam([x1]Ap(x1, z)), Lam([x]z1)), {z : Lam([y]y), z1 : Lam([x]x)})"
COLLIDING_TRACE = """\
step 1 at [] by rule 1 (L rule Eval(Ap(#F, #A), {#env}) -> Apply(Eval(#F, {#env}), Eval(#A, {#env}), {#env}))
Apply(Eval(Lam([x1]Ap(x1, z)), {z : Lam([y]y), z1 : Lam([x]x)}), Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), {z : Lam([y]y), z1 : Lam([x]x)})
step 2 at [0] by rule 0 (L rule Eval(Lam([x]#B(x)), {#env}) -> Lam([x]#B(x)))
Apply(Lam([x2]Ap(x2, z)), Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), {z : Lam([y]y), z1 : Lam([x]x)})
step 3 at [] by rule 3 (L rule Apply(Lam([x]#B(x)), #V, {#env}) -> Eval(#B(z), {#env, z : #V}))
Eval(Ap(z2, z), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 4 at [] by rule 1 (L rule Eval(Ap(#F, #A), {#env}) -> Apply(Eval(#F, {#env}), Eval(#A, {#env}), {#env}))
Apply(Eval(z2, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 5 at [0] by rule 2 (L rule Eval(x, {#env, x : #V}) -> #V)
Apply(Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 6 at [0] by rule 0 (L rule Eval(Lam([x]#B(x)), {#env}) -> Lam([x]#B(x)))
Apply(Lam([x1]z1), Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})}), {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})
step 7 at [] by rule 3 (L rule Apply(Lam([x]#B(x)), #V, {#env}) -> Eval(#B(z), {#env, z : #V}))
Eval(z1, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)}), z3 : Eval(z, {z : Lam([y]y), z1 : Lam([x]x), z2 : Eval(Lam([x]z1), {z : Lam([y]y), z1 : Lam([x]x)})})})
step 8 at [] by rule 2 (L rule Eval(x, {#env, x : #V}) -> #V)
Lam([x]x)
"""


def test_trace_of_colliding_fresh_names(tmp_path, capsys):
    path = tmp_path / "cbv.plank"
    path.write_text(CBV_EVAL, encoding="utf-8")
    assert main(["normalize", str(path), "--trace", "--term", COLLIDING_TERM]) == 0
    out, err = capsys.readouterr()
    assert out == "Lam([x]x)\n"
    assert err == COLLIDING_TRACE


# ---------------------------------------------------------------------------
# Binder names


def _rebind(term, pick):
    """An alpha-variant of ``term`` whose binders take the names ``pick()``
    draws, so that they shadow each other and share the spelling of free
    names elsewhere.  A drawn name that would capture a free name of the
    binder's body, or that another binder of the same scope took, gives way
    to the first of ``v0``, ``v1``, ... that does neither."""

    def go(x, env):
        if isinstance(x, Var):
            return Var(env.get(x.name, x.name))
        if isinstance(x, (MetaApp, CatchAll)):
            return type(x)(x.meta, tuple(go(a, env) for a in x.args))
        return Construction(x.head, tuple(piece(p, env) for p in x.args))

    def entry(e, env):
        if isinstance(e, MapEntry):
            return MapEntry(env.get(e.key, e.key), go(e.value, env))
        return NotKey(env.get(e.key, e.key)) if isinstance(e, NotKey) else go(e, env)

    def piece(p, env):
        if isinstance(p, AssocPiece):
            return AssocPiece(tuple(entry(e, env) for e in p.entries))
        taken = {env.get(v, v) for v in free_vars(p.body) if v not in p.binders}
        env2, names = dict(env), []
        for b in p.binders:
            name, i = Ident(pick()), 0
            while name in taken or name in names:
                name, i = Ident(f"v{i}"), i + 1
            names.append(name)
            env2[b] = name
        return ScopePiece(tuple(names), go(p.body, env2))

    return go(term, {})


# Every pinned and hand-built subject: (label, script, subject, fuel).
NAMED_CASES = ([p[:4] for p in ENGINE_PINS] + [r[:4] for r in RESUMED if r[4] is not None]
               + [("cbv-colliding", CBV_EVAL, COLLIDING_TERM, 100)]
               + [(c[0], CLASHING_NAMES, c[1], 10) for c in CLASHING_CASES])


@functools.cache
def _traced(source, term, fuel):
    """The signature, the rules and every term of the run: the subject, each
    step's result and the last."""
    script = parse_script(source)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    terms = [parse_term(term)]
    normalize(checked.gamma, rules, terms[0], fuel=fuel, on_step=lambda t, _: terms.append(t))
    return checked.gamma, rules, terms


def _names_in_order(t, out):
    """``out`` extended with every name of ``t`` in pre-order."""
    if isinstance(t, Var):
        out.append(t.name)
        return out
    for p in t.args:
        if isinstance(p, ScopePiece):
            out.extend(p.binders)
            _names_in_order(p.body, out)
        else:
            for e in p.entries:
                out.append(e.key)
                _names_in_order(e.value, out)
    return out


def _fresh_bound(result, subject):
    """``result`` under one scope that binds the names a step from
    ``subject`` drew fresh, in the order they first occur."""
    drawn = free_vars(result) - free_vars(subject)
    return ScopePiece(tuple(n for n in dict.fromkeys(_names_in_order(result, []))
                            if n in drawn), result)


@given(st.sampled_from(NAMED_CASES), st.data())
@settings(max_examples=150, deadline=None)
def test_binder_names_do_not_change_a_step(case, data):
    # Binders renamed to x, y and z shadow each other and take the names
    # free elsewhere in the term; the step chosen is the same, and its
    # result the same up to alpha and to the fresh names the step drew,
    # which avoid the subject's binder names too (see the next test).
    gamma, rules, terms = _traced(*case[1:])
    term = terms[data.draw(st.integers(0, len(terms) - 1))]
    renamed = _rebind(term, lambda: data.draw(st.sampled_from("xyz")))
    assert alpha_equal(renamed, term)
    hit, again = rewrite_step(gamma, rules, term), rewrite_step(gamma, rules, renamed)
    assert (hit is None) == (again is None)
    if hit is not None:
        assert again[1] == hit[1]
        assert alpha_equal(_fresh_bound(again[0], renamed), _fresh_bound(hit[0], term))
        assert all(type(n) is str and plank.terms._SPELLING.fullmatch(n)
                   for n in all_idents(again[0]))


def test_a_fresh_name_avoids_the_subject_binders(ex2_checked, ex2_rules):
    # Found by the property above: a right side's free variable, the z of
    # the call-by-value Apply rule, is drawn against every name of the term,
    # bound ones included, so two alpha-variant subjects give results that
    # differ in that name.
    subjects = [parse_term(f"Apply(Lam([{b}]{b}), Lam([y]y), {{}})") for b in "xz"]
    results = [render(rewrite_step(ex2_checked.gamma, ex2_rules, s)[0]) for s in subjects]
    assert results == ["Eval(z, {z : Lam([y]y)})", "Eval(z1, {z1 : Lam([y]y)})"]


@pytest.mark.parametrize("label", sorted(GENERATED))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_binder_names_do_not_change_a_run(label, data):
    # A whole run from a subject whose binders are renamed to x, y and z
    # takes the same steps to the same status, and ends in the same term up
    # to alpha and to a bijection of the fresh names drawn, which avoid the
    # subject's binder names too (see the test above).
    gamma, rules = _engine(GENERATED[label])
    subject = data.draw(_subjects(gamma))
    renamed = _rebind(subject, lambda: data.draw(st.sampled_from("xyz")))
    (one, drawn), (two, drawn2) = (_normalize_drawing(gamma, rules, s, 30)
                                   for s in (subject, renamed))
    assert (one.steps, one.status) == (two.steps, two.status), render(renamed)
    assert _alpha_equal_up_to_fresh_names(one.term, drawn, two.term, drawn2), render(renamed)


def test_a_name_free_in_a_subject_is_drawn_once_it_leaves_the_term():
    # Found by the property above.  With its binder z, the subject keeps z
    # in the term until Apply draws, which then draws z1; with the binder
    # v0, the free z has left the term by then, so Apply draws z itself.
    # The two results are equal up to the drawn names, not up to the names
    # the subject lacks.  Fresh names drawn against the free names alone
    # would make them equal.
    gamma, rules = _engine(CBV_EVAL)
    runs = [normalize(gamma, rules, parse_term(f"Apply(Eval(z, {{z : Lam([{b}]x)}}), x, {{}})"))
            for b in ("z", "v0")]
    assert [render(r.term) for r in runs] == ["Eval(x, {z1 : x})", "Eval(x, {z : x})"]
    assert runs[0].steps == runs[1].steps


@st.composite
def _open_terms(draw, lists, depth=3):
    """Terms of every node kind over the names x, y and z: variables,
    meta-applications and constructions, whose pieces bind up to two names
    or, with ``lists``, hold plain entries, absence entries and catch-alls."""
    name = st.sampled_from("xyz").map(Ident)
    kind = draw(st.sampled_from("vmcc" if depth else "vm"))
    if kind == "v":
        return Var(draw(name))
    sub = _open_terms(lists, depth - 1)
    if kind == "m":
        args = st.lists(sub, max_size=2 if depth else 0)
        return MetaApp(Ident(draw(st.sampled_from(["#M", "#N"]))), tuple(draw(args)))
    entry = st.one_of(st.builds(MapEntry, name, sub), st.builds(NotKey, name),
                      st.lists(sub, max_size=1).map(lambda a: CatchAll(Ident("#e"), tuple(a))))
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        if lists and draw(st.booleans()):
            pieces.append(AssocPiece(tuple(draw(st.lists(entry, max_size=4)))))
        else:
            pieces.append(ScopePiece(tuple(draw(st.lists(name, max_size=2, unique=True))),
                                     draw(sub)))
    return Construction(Ident(draw(st.sampled_from(["F", "G"]))), tuple(pieces))


def _respelled(draw, term):
    """``term`` with one drawn word of its text, a binder, variable, key,
    head or meta-variable, respelled as another of its kind; ``term``
    itself when the respelling makes two binders of a scope alike."""
    text = render(term)
    words = list(re.finditer(r"#?[A-Za-z]\w*", text))
    if not words:
        return term
    word = draw(st.sampled_from(words))
    kind = "#e #M #N" if word[0][0] == "#" else "F G H" if word[0][0].isupper() else "x y z"
    try:
        return parse_term(text[:word.start()] + draw(st.sampled_from(kind.split()))
                          + text[word.end():])
    except ParseFailure:
        return term


@given(data=st.data(), lists=st.booleans())
@settings(max_examples=150, deadline=None)
def test_alpha_equal_agrees_with_de_bruijn_forms(data, lists):
    # The benchmark's de Bruijn forms, with their indices counted from the
    # innermost binder and every list kept in order, are an independent
    # oracle: equal forms are alpha-equal, and without lists, where order
    # cannot differ, alpha-equal terms have equal forms.  The partners are
    # a renamed variant, always equal, and a renamed respelling, often not.
    de_bruijn = _bench_workloads().de_bruijn
    term = data.draw(_open_terms(lists))
    pick = functools.partial(data.draw, st.sampled_from("xyz"))
    renamed = _rebind(term, pick)
    assert de_bruijn(renamed) == de_bruijn(term) and alpha_equal(renamed, term)
    mutant = _rebind(_respelled(data.draw, term), pick)
    same, verdict = de_bruijn(mutant) == de_bruijn(term), alpha_equal(term, mutant)
    assert alpha_equal(mutant, term) == verdict
    assert verdict or not same, render(mutant)
    if not lists:
        assert verdict == same, render(mutant)


@pytest.mark.parametrize("label,source,term,fuel", NAMED_CASES, ids=[c[0] for c in NAMED_CASES])
def test_traced_terms_hold_checked_names_and_parse_back(label, source, term, fuel):
    # Every name of every term a run traces is an exact ``str`` with a
    # well-formed spelling (a fresh name drawn from a bad hint, say, would
    # not be), and the term renders to text that parses back to it.
    for t in _traced(source, term, fuel)[2]:
        assert all(type(n) is str and plank.terms._SPELLING.fullmatch(n)
                   for n in all_idents(t))
        assert parse_term(render(t)) == t


def test_a_hidden_parameter_is_none():
    # Three binders named u: the outermost, which #M takes and the inner
    # ones hide, is the parameter None, which names no variable; the
    # innermost keeps its own name.
    pattern = parse_term("T(Lam([a]Lam([b]Lam([c]#M(a)))))")
    val = match_term(pattern, parse_term("T(Lam([u]Lam([u]Lam([u]A()))))"))
    assert (val.meta_bind["#M"].params, val.meta_bind["#M"].body) == ((None,), parse_term("A()"))
    val = match_term(parse_term("T(Lam([a]Lam([b]Lam([c]#M(c)))))"),
                     parse_term("T(Lam([u]Lam([u]Lam([u]u))))"))
    assert (val.meta_bind["#M"].params, val.meta_bind["#M"].body) == (("u",), Var("u"))


def test_matching_makes_no_substitution(monkeypatch):
    # A fragment is recorded as the subject holds it, hidden binders and
    # all: no corpus pattern, matched against any clashing subject, copies
    # one.
    calls, real = [], plank.rewrite.substitute
    monkeypatch.setattr(plank.rewrite, "substitute", lambda *a: calls.append(a) or real(*a))
    patterns = [rule.lhs for text in (BETA_ETA, CBV_EVAL, NONLINEAR, REACH_TWO, IN_VALUE,
                                      UNTAKEN, CLASHING_NAMES)
                for rule in parse_script(text).rules]
    matched = sum(match_term(p, parse_term(case[1])) is not None
                  for case in CLASHING_CASES for p in patterns)
    assert calls == [] and matched >= 10


# ---------------------------------------------------------------------------
# Diagnostics

PIN_SIGNATURE = """\
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
"""

# Recorded before binders were scoped lexically in the checker.
PINNED = [
    ("B rule F([a]#M(c), Cb()) -> Cb();",
     ["pin.plank:11:13: error[SMP-Meta]: meta-variable #M has no meta-form"]),
    ("B rule F([a]Lb([b]#M(a, a)), Cb()) -> Cb();",
     ["pin.plank:11:25: error[SMP-Meta]: arguments of #M must be pairwise distinct variables"]),
    ("B rule F([a]Lb([b]Cb()), Lb([c]c)) -> Cb();",
     ["pin.plank:11:32: error[SMP-Var]: variable c has sort A, expected B"]),
    ("B rule F([a]#M(a), Cb()) -> Lb([b]b);",
     ["pin.plank:11:35: error[SMC-Var]: variable b has sort A, expected B"]),
    ("L rule K(Done(), {x : #X}) -> Done();",
     ["pin.plank:11:19: error[SA-Map]: association key x does not occur outside an "
      "association (KeyNotElsewhere)"]),
    ("L rule K(Lam([a]Lam([b]#M(b))), {x : #X, #E}) -> K(Done(), {y : Done()});",
     ["pin.plank:11:34: error[SA-Map]: association key x does not occur outside an "
      "association (KeyNotElsewhere)",
      "pin.plank:11:61: error[SA-Map]: association key y does not occur outside an "
      "association (KeyNotElsewhere)"]),
    ("L rule K(x, {~x:}) -> K(x, {~x:});",
     ["pin.plank:11:29: error[SAP-Not]: absence entries are only allowed in patterns "
      "(NotKeyInContraction)"]),
    ("B rule F([a]#M(a), #M) -> Cb();",
     ["pin.plank:11:20: error[MetaFormConflict]: meta-variable #M used as () => B but "
      "earlier as (A) => B"]),
    ("B rule F([a]#M(a), Cb()) -> #M;",
     ["pin.plank:11:29: error[MetaFormConflict]: meta-variable #M used with 0 argument(s) "
      "at B but its meta-form is (A) => B"]),
    ("B rule F([a]Cb(), Cb()) -> #Q;",
     ["pin.plank:11:1: error[UnboundMetaOnRhs]: meta-variable #Q occurs in the "
      "contraction but not in the pattern"]),
    ("L rule K(Lam([a]#M(a)), {#E}) -> Lam([b]#M(Ca()));",
     ["pin.plank:11:44: error[SMS-Cons]: cannot substitute a non-variable at sort L, "
      "which admits syntactic variables"]),
    ("L rule x -> x;",
     ["pin.plank:11:8: error[SMP-Fun]: a rule pattern must be a scheme construction"]),
    # Recorded later.  Each meta-variable's first occurrence fixes its
    # meta-form; a later one whose arguments are not all variables of known
    # sorts raises no MetaFormConflict and reaches these checks.
    ("L rule K(#E(Done()), {#E}) -> Done();",
     ["pin.plank:11:10: error[SMP-Meta]: catch-all meta-variable #E cannot be used as a term"]),
    ("B rule F([a]#M(a), #M(Cb())) -> Cb();",
     ["pin.plank:11:20: error[SMP-Meta]: pattern arguments of #M must be bound variables, "
      "got Cb()"]),
    ("L rule K(#M, {#M(Done())}) -> Done();",
     ["pin.plank:11:15: error[SAP-All]: meta-variable #M is not a catch-all"]),
    # The binder x is out of scope at the absence entry, and no variable
    # of the pattern is x.
    ("L rule K(Lam([x]Done()), {~x:}) -> Done();",
     ["pin.plank:11:27: error[SAP-Not]: absence key x is not a variable of the pattern "
      "(KeyNotElsewhere)"]),
]


@pytest.mark.parametrize("rule,expected", PINNED, ids=[str(i) for i in range(len(PINNED))])
def test_pinned_diagnostics(rule, expected):
    result = check_script(parse_script(PIN_SIGNATURE + rule + "\n", file="pin.plank"))
    assert [e.format() for e in result.errors] == expected


def test_an_absence_key_is_reported_in_source_order():
    # An absence key that resolves nowhere is reported at its own entry, so
    # before a pattern error that stands after it.
    script = ("L variable;\nL data A();\nL scheme F({L:L}, L);\n"
              "L rule F({~y:, #e}, G(w)) -> A();\n")
    result = check_script(parse_script(script, file="s.plank"))
    assert [e.format() for e in result.errors] == [
        "s.plank:4:11: error[SAP-Not]: absence key y is not a variable of the pattern "
        "(KeyNotElsewhere)",
        "s.plank:4:21: error[SMP-Data]: constructor G is not declared",
    ]


# Recorded before the lexer became one compiled pattern; lexer and parser
# errors have since been listed together in source order.
MALFORMED_BASE = "L data Lam([L]L);\nL data Ap(L, L);\nL variable;\n"
MALFORMED = [
    ("missing-semicolon", MALFORMED_BASE + "L scheme F(L)\nL rule F(x) -> x;\n",
     ["bad.plank:5:1: error[parse]: expected ';', found 'L'"]),
    ("unclosed-paren", MALFORMED_BASE + "L scheme F(L;\n",
     ["bad.plank:4:13: error[parse]: expected ')', found ';'"]),
    ("stray-character", MALFORMED_BASE + "L scheme F(L) $;\n",
     ["bad.plank:4:15: error[parse]: unexpected character '$'"]),
    ("bad-keyword", MALFORMED_BASE + "L schema F(L);\n",
     ["bad.plank:4:3: error[parse]: expected 'data', 'scheme', 'variable', or 'rule', "
      "found 'schema'"]),
    ("duplicate-binders", MALFORMED_BASE + "L scheme F(L);\nL rule F(Lam([x, x]x)) -> x;\n",
     ["bad.plank:5:14: error[parse]: binders in one scope must be pairwise distinct"]),
    ("eof-in-comment", MALFORMED_BASE + "L scheme F(L) // no end",
     ["bad.plank:4:15: error[parse]: expected ';', found 'end of input'"]),
    ("two-bad-declarations", MALFORMED_BASE + "L scheme F(;\nL data (L);\nL scheme G(L);\n",
     ["bad.plank:4:12: error[parse]: expected a sort, found ';'",
      "bad.plank:5:8: error[parse]: expected a constructor name, found '('"]),
    ("missing-arrow", MALFORMED_BASE + "L scheme F(L);\nL rule F(x) x;\n",
     ["bad.plank:5:13: error[parse]: expected '->', found 'x'"]),
    # Recovery resumes only after a ';' where a declaration can start, so the
    # ';' inside '<...>' no longer gives a second error at 1:4.
    ("bad-sort-argument", "L<;> data C();\n",
     ["bad.plank:1:3: error[parse]: expected a sort, found ';'"]),
    ("semicolon-in-sort-arguments", "L<M; N> data C(); L data D();\n",
     ["bad.plank:1:4: error[parse]: expected '>', found ';'"]),
    ("unclosed-parens", "L data D(; L data E(; L data F();\n",
     ["bad.plank:1:10: error[parse]: expected a sort, found ';'",
      "bad.plank:1:21: error[parse]: expected a sort, found ';'"]),
    ("assoc-entry", "L scheme E({L:L});\nL rule E({(}) -> E({});\n",
     ["bad.plank:2:11: error[parse]: expected an association entry, found '('"]),
    ("lone-dash", "L scheme F(L);\nL rule F(x) - > x;\n",
     ["bad.plank:2:13: error[parse]: unexpected character '-'",
      "bad.plank:2:15: error[parse]: expected '->', found '>'"]),
    ("sort-expected", "scheme F(L);\n",
     ["bad.plank:1:8: error[parse]: expected 'data', 'scheme', 'variable', or 'rule', "
      "found 'F'"]),
    ("unicode-and-junk", "L scheme F(L) → ⟨ ¬ é 9;\nL data G(L)",
     ["bad.plank:1:15: error[parse]: expected ';', found '→'",
      "bad.plank:1:21: error[parse]: unexpected character 'é'",
      "bad.plank:1:23: error[parse]: unexpected character '9'",
      "bad.plank:2:12: error[parse]: expected ';', found 'end of input'"]),
    ("missing-term", MALFORMED_BASE + "L scheme F(L);\nL rule F(x) -> Ap(x, );\n",
     ["bad.plank:5:22: error[parse]: expected a term, found ')'"]),
]


@pytest.mark.parametrize("text,expected", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_pinned_parse_errors(text, expected):
    with pytest.raises(ParseFailure) as exc:
        parse_script(text, file="bad.plank")
    assert [e.format() for e in exc.value.errors] == expected


ILL_SORTED_BASE = (
    "L data Lam([L]L);\nL data Ap(L, L);\nL variable;\nL scheme F(L);\nB data T();\n"
)
ILL_SORTED = [
    ("wrong-sort", ILL_SORTED_BASE + "L rule F(T()) -> x;\n",
     ["ill.plank:6:10: error[SMP-Data]: construction T has sort B, which does not match "
      "the expected sort L"]),
    ("undeclared", ILL_SORTED_BASE + "L rule F(Lam([x]Q(x))) -> Ap(x, T());\n",
     ["ill.plank:6:17: error[SMP-Data]: constructor Q is not declared",
      "ill.plank:6:33: error[SMC-Cons]: construction T has sort B, which does not match "
      "the expected sort L"]),
    # A conflicting redeclaration is DuplicateConstructor alone.
    ("data-redeclared", ILL_SORTED_BASE + "B data T(L);\n",
     ["ill.plank:6:1: error[DuplicateConstructor]: constructor T already declared with a "
      "different signature"]),
    ("scheme-redeclared", ILL_SORTED_BASE + "L scheme F(B);\n",
     ["ill.plank:6:1: error[DuplicateConstructor]: constructor F already declared with a "
      "different signature"]),
    # Recorded later: as in ``PINNED``, the second occurrence of #M or #e
    # has an argument that is no variable, so it raises no MetaFormConflict.
    ("meta-at-another-sort", ILL_SORTED_BASE + "B scheme G(L, B);\nB rule G(#M, #M(T())) -> T();\n",
     ["ill.plank:7:14: error[SMP-Meta]: meta-variable #M produces L, expected B"]),
    ("catch-all-at-another-form",
     ILL_SORTED_BASE + "L scheme G({L:L}, {B:B});\nL rule G({#e}, {#e(T())}) -> F(x);\n",
     ["ill.plank:7:17: error[SAP-All]: catch-all #e covers {L:L}, expected {B:B}"]),
    ("data-at-a-sort-variable", ILL_SORTED_BASE + "a data Q();\n",
     ["ill.plank:6:1: error[NonVariableSortParameter]: data constructor Q needs a named "
      "result sort"]),
    ("substitution-at-a-sort-variable",
     ILL_SORTED_BASE + "a scheme P([a]a);\na rule P([x]#M(x)) -> #M(P([y]y));\n",
     ["ill.plank:7:26: error[SMS-Cons]: cannot substitute a non-variable at sort a"]),
    # k is bound nowhere, so the matcher could never resolve it.
    ("absence-key-bound-nowhere",
     "L data A();\nL data B();\nL data W(L);\nL variable;\nL scheme F({L:L}, {L:L}, L);\n"
     "L rule F({~k:}, {#e}, #x) -> A();\n",
     ["ill.plank:6:11: error[SAP-Not]: absence key k is not a variable of the pattern "
      "(KeyNotElsewhere)"]),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in ILL_SORTED],
                         ids=[c[0] for c in ILL_SORTED])
def test_pinned_check_errors_of_parsed_scripts(text, expected):
    result = check_script(parse_script(text, file="ill.plank"))
    assert [e.format() for e in result.errors] == expected


# ---------------------------------------------------------------------------
# Tooling guard


def test_every_exported_name_resolves():
    names = ["plank"] + [f"plank.{m.name}" for m in pkgutil.iter_modules(plank.__path__)]
    assert "plank.rewrite" in names
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.{attr}"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name, (module_name, attr) in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{name}: {module_name}.{attr}"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


# Fields that no module of the package reads, kept on purpose.
UNREAD_FIELDS_KEPT = {
    # The engine never reads a rule's environment, but ``prepare_rules``
    # still takes the environments from its callers, the benchmark among
    # them; the field and that argument go together.
    ("RewriteRule", "env"),
    # The reduction sequence is what ``normalize`` returns to its callers.
    ("NormalizeResult", "steps"),
}


def _last_name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _records(nodes: list[ast.AST]) -> dict[str, tuple[list[str], list[str], bool]]:
    """Each record class among ``nodes``, one that derives from ``_Record``
    itself or through another record, by name: the names its body lists in
    ``__slots__`` or ``_fields`` but ``__weakref__``, those with its bases',
    and whether it is hashable, which a record changed after it is built,
    one that sets ``__hash__`` to None, is not; one that names another
    ``__hash__`` stays hashable."""
    classes = [n for n in nodes if isinstance(n, ast.ClassDef)]
    records = {"_Record": ([], [], True)}
    for _ in classes:  # a base may come after its subclasses
        for c in classes:
            bases = [records[b][1] for b in map(_last_name, c.bases) if b in records]
            if not bases or c.name in records:
                continue
            body = [st for st in c.body if isinstance(st, ast.Assign)]
            lists = [st.value for st in body
                     if {"__slots__", "_fields"} & set(map(_last_name, st.targets))]
            own = list(dict.fromkeys(n.value for v in lists for n in ast.walk(v)
                                     if isinstance(n, ast.Constant) and n.value != "__weakref__"))
            hashable = not any(isinstance(st.value, ast.Constant) and st.value.value is None
                               and "__hash__" in map(_last_name, st.targets) for st in body)
            records[c.name] = (own, [f for b in bases for f in b] + own, hashable)
    del records["_Record"]
    return records


def _unread_fields(sources: list[str]) -> list[tuple[str, str]]:
    """(class, field) of each record field, of each field of a class whose
    base is a ``namedtuple(name, (field, ...))`` call, and of each
    attribute another class's ``__init__`` stores as ``self.X = ...``, that
    no source reads, as an attribute or through ``getattr`` with a constant
    name.

    An attribute passed straight to the constructor of a record that
    declares a field of that name, its own or a base's, is a copy, not a
    read: a field read only to build another record of its kind is read by
    nothing."""
    nodes = [n for s in sources for n in ast.walk(ast.parse(s))]
    records = _records(nodes)
    fields, declared = [], {}
    for node in nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name in records:
            own, every, _ = records[node.name]
            fields += [(node.name, f) for f in own]
            declared[node.name] = set(every)
            continue
        made = [b for b in node.bases
                if isinstance(b, ast.Call) and _last_name(b.func) == "namedtuple"]
        if made:
            names = [n.value for n in ast.walk(made[0].args[1]) if isinstance(n, ast.Constant)]
            fields += [(node.name, f) for f in names]
            declared[node.name] = set(names)
            continue
        for init in node.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                fields += [(node.name, t.attr) for t in ast.walk(init)
                           if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                           and _last_name(t.value) == "self"]
    copies, read = set(), set()
    for node in nodes:
        if isinstance(node, ast.Call) and _last_name(node.func) in declared:
            own = declared[_last_name(node.func)]
            copies |= {id(a) for a in node.args + [k.value for k in node.keywords]
                       if isinstance(a, ast.Attribute) and a.attr in own}
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in copies):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and _last_name(node.func) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return [f for f in fields if f[1] not in read]


def test_every_record_field_is_read():
    record = ("class A(_Base):\n    __slots__ = _fields = ('x', 'y', 'z')\n"
              "    def __init__(self, x, y, z, w):\n        self.x, self.y, self.z = x, y, z\n"
              "        self.w = w\n"
              "class _Base(_Record):\n    __slots__ = ('w', '__weakref__')\n")
    use = "def f(a):\n    return a.x, getattr(a, 'z'), A(a.x, 0, 0, w=a.w)\n"
    assert _unread_fields([record, use]) == [("A", "y"), ("_Base", "w")]
    plain = ("class B:\n    def __init__(self, v):\n        self.u = v\n"
             "        self.v: int = v\n        self.x, v.w = v, v\n"
             "    def f(self):\n        return self.u\n")
    assert _unread_fields([plain]) == [("B", "v"), ("B", "x")]
    position = "class P(namedtuple('P', ('p', 'q'))):\n    __slots__ = ()\n"
    assert _unread_fields([position, "def g(p):\n    return p.p, P(p.q, 0)\n"]) == [("P", "q")]
    sources = [p.read_text(encoding="utf-8") for p in sorted((REPO / "src" / "plank").glob("*.py"))]
    assert [f for f in _unread_fields(sources) if f not in UNREAD_FIELDS_KEPT] == []


# Stores to a built record's field that the immutability rule allows, as
# (function, target).  ``all_idents`` keeps a term's name set on the term;
# equality, hashing and ``repr`` never read it.
RECORD_STORES_KEPT = {("_idents", "t._idents")}


def _record_field_stores(sources: dict[str, str]) -> tuple[set[str], list[str]]:
    """The hashable records (``_records``), and as ``"FILE:LINE: what"``
    each store to a field of one.

    A store is an attribute assignment, augmented, annotated or in a tuple,
    an attribute deletion, or a ``setattr``, ``delattr``, ``__setattr__`` or
    ``__delattr__`` call, that names a record field or a name that is not a
    constant.  ``self.<attr>`` in a record's ``__init__`` builds the record,
    and in a method of a class that is not a hashable record it sets up that
    object; the stores in ``RECORD_STORES_KEPT`` are allowed."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    every = _records([n for tree in trees.values() for n in ast.walk(tree)])
    records = {r for r, (_, _, hashable) in every.items() if hashable}
    fields, found = {f for r in records for f in every[r][1]}, []
    for name, tree in trees.items():
        function, owner = {}, {}
        for node in ast.walk(tree):  # outer first, so the innermost one wins
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function.update((id(n), node.name) for n in ast.walk(node))
            elif isinstance(node, ast.ClassDef):
                owner.update((id(n), node.name) for n in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                attr = node.attr
                if (isinstance(node.value, ast.Name) and node.value.id == "self"
                        and (owner.get(id(node)) not in records | {None}
                             or function.get(id(node)) == "__init__")):
                    continue
            elif (isinstance(node, ast.Call) and len(node.args) > 1 and _last_name(node.func)
                  in {"setattr", "delattr", "__setattr__", "__delattr__"}):
                attr = getattr(node.args[1], "value", None)
            else:
                continue
            target = ast.unparse(node)
            if (attr is None or attr in fields) and (function.get(id(node)),
                                                     target) not in RECORD_STORES_KEPT:
                found.append(f"{name}:{node.lineno}: {target}")
    return records, found


def test_no_module_stores_to_a_built_record():
    # Records are immutable by rule, not by the runtime: a frozen record's
    # ``__init__`` would pay an ``object.__setattr__`` call per field, so
    # this lint keeps every field as it was built.
    sample = (
        "class R(_Record):\n    _fields = ('f',)\n    __slots__ = _fields + ('_idents',)\n"
        "    def __init__(self, f):\n        self.f = f\n        self._idents = None\n"
        "    def reset(self):\n        self.f = 0\n"
        "class M(_Record):\n    __slots__ = _fields = ('m',)\n    __hash__ = None\n"
        "class Walk:\n    def __init__(self, r):\n        self.f = r.other = 0\n"
        "def f(r, name):\n"
        "    r.f, x = 1, 2\n    r.f += 1\n    r.f: int = 2\n    del r.f\n    r.x = 3\n"
        "    setattr(r, 'f', 0)\n    object.__setattr__(r, 'x', 0)\n    delattr(r, name)\n"
        "def _idents(t):\n    t._idents = 1\n    u._idents = 1\n    r.m = 1\n"
        "def g(self):\n    self.f = 1\n"
        "class H(_Record):\n    __slots__ = _fields = ('h',)\n    __hash__ = _Record.__hash__\n"
        "def h(r):\n    r.h = 1\n"
    )
    records, found = _record_field_stores({"s": sample})
    assert records == {"R", "H"}
    assert sorted(found, key=lambda f: int(f.split(":")[1])) == [
        "s:8: self.f", "s:16: r.f", "s:17: r.f", "s:18: r.f", "s:19: r.f",
        "s:21: setattr(r, 'f', 0)", "s:23: delattr(r, name)", "s:26: u._idents",
        "s:29: self.f", "s:34: r.h"]
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((REPO / "src" / "plank").glob("*.py"))}
    records, found = _record_field_stores(sources)
    assert {"Construction", "Var", "Diagnostic", "ConSig", "MetaForm",
            "Abstraction", "RewriteRule", "RewriteStep", "SortCons"} <= records
    assert not {"GlobalEnv", "RuleEnv", "ScriptCheck", "Valuation", "NormalizeResult"} & records
    assert found == []


def _callers(source: str, name: str) -> set[str]:
    """The innermost function around each call of ``name`` in ``source``."""
    tree, owner = ast.parse(source), {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # The walk meets an outer function first, so an inner one wins.
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    return {owner.get(id(node), "") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _last_name(node.func) == name}


def _node_classes() -> dict[str, type]:
    """Every AST node class of ``plank.terms``, by name."""
    return {name: c for name, c in vars(plank.terms).items() if isinstance(c, type)
            and issubclass(c, plank.terms._Node) and c is not plank.terms._Node}


def _isinstance_calls(source: str, classes: set[str]) -> list[str]:
    """``"LINE: CALL"`` for each ``isinstance`` call that names one of
    ``classes``, alone or in a tuple."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _last_name(node.func) == "isinstance" and \
                len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(_last_name(k) in classes for k in kinds):
                found.add((node.lineno, ast.unparse(node)))
    return [f"{line}: {text}" for line, text in sorted(found)]


def test_node_classes_are_final():
    # ``rewrite``, ``terms``, ``env`` and ``checker`` dispatch on a node's
    # exact class, which a subclass would slip past.
    classes = _node_classes()
    assert {"Construction", "Var", "MetaApp", "ScopePiece", "AssocPiece", "MapEntry",
            "NotKey", "CatchAll"} <= classes.keys()
    assert len(plank.terms._Node.__subclasses__()) == len(classes) == 17
    for name, c in classes.items():
        assert c.__subclasses__() == [], name


def test_the_engine_tests_node_classes_by_identity():
    # ``x.__class__ is C`` is one attribute read and a pointer compare;
    # ``isinstance`` is a call that also walks the class's bases.
    sample = (
        "def f(x, s):\n    if isinstance(x, Var):\n"
        "        return isinstance(x, (set, terms.MetaApp))\n"
        "    return isinstance(s, set) or x.__class__ is Var\n"
    )
    classes = set(_node_classes())
    assert _isinstance_calls(sample, classes) == [
        "2: isinstance(x, Var)", "3: isinstance(x, (set, terms.MetaApp))"]
    for module in ("checker.py", "env.py", "rewrite.py", "terms.py"):
        source = (REPO / "src" / "plank" / module).read_text(encoding="utf-8")
        assert _isinstance_calls(source, classes) == [], module


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # Importing ``dataclasses``, which imports ``inspect``, was about half of
    # importing ``plank.cli``, which is most of a small ``plank check``.
    sample = "import a.b, c\nfrom d.e import f\nfrom . import g\ndef h():\n    import i\n"
    assert _imported_modules(sample) == {"a", "c", "d", "i"}
    for path in sorted((REPO / "src" / "plank").glob("*.py")):
        assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8")), path.name


def test_every_method_of_a_plank_class_is_compiled_from_its_source():
    # ``cProfile`` keeps one entry per file, line and name, so methods
    # compiled from a string, as ``dataclasses`` makes them, all share the
    # entry ``<string>:2(__init__)``; each record's own ``__init__`` has one
    # of its own.  Helpers that ``enum`` and ``namedtuple`` add belong to
    # their own modules and are left out.
    src = REPO / "src" / "plank"
    inits = set()
    for info in pkgutil.iter_modules(plank.__path__):
        module = importlib.import_module(f"plank.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, f in vars(cls).items():
                f = getattr(getattr(f, "fget", f), "__func__", f)
                if getattr(f, "__module__", None) != module.__name__ or not hasattr(
                        f, "__code__"):
                    continue
                assert Path(f.__code__.co_filename).parent == src, (cls.__name__, name)
                if name == "__init__":
                    inits.add(f.__code__)
    assert len(inits) >= 29


def test_no_module_imports_a_name_it_never_uses():
    # A name listed in ``__all__`` is a re-export; the package ``__init__``
    # consists of re-exports.
    assert _unused_imports("from x import a, b\n__all__ = ['b']\n") == ["a"]
    modules = sorted((REPO / "src" / "plank").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name != "__init__.py":
            assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def _diagnostic_tags(source: str) -> set[str]:
    """String literals that reach a diagnostic's tag: the first argument of
    ``Diagnostic`` or ``_err``, a value assigned to ``tag`` or to a tag
    table (a name that ends in ``_TAGS``), or an argument passed for a
    parameter named ``tag``, which a method's call passes one place before
    its position after ``self``."""
    tree = ast.parse(source)
    slots = {"Diagnostic": 0, "_err": 0}
    methods = {id(fn) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for fn in c.body}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and "tag" in (names := [a.arg for a in fn.args.args]):
            slots[fn.name] = names.index("tag") - (id(fn) in methods)
    values = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _last_name(node.func) in slots:
            values += node.args[slots[_last_name(node.func)]:][:1]
        elif isinstance(node, ast.Assign) and any(
                name == "tag" or name.endswith("_TAGS")
                for name in map(_last_name, node.targets) if name):
            values.append(node.value)
    return {c.value for v in values for c in ast.walk(v)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def _untagged_engine_raises(source: str, tags: set[str]) -> list[int]:
    """Lines of each ``raise EngineError`` whose line and the line above
    carry no comment naming one of ``tags``."""
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and _last_name(node.exc.func) == "EngineError"):
            near = comments.get(node.lineno, "") + " " + comments.get(node.lineno - 1, "")
            if not set(re.findall(r"[\w-]+", near)) & tags:
                found.append(node.lineno)
    return sorted(found)


def test_every_engine_raise_names_the_diagnostic_that_rules_it_out():
    # Each raise site is unreachable on a checked script and a well-sorted
    # subject; its comment names the checker or environment diagnostic
    # that makes it so.
    tag_sample = (
        "def _check(st, tag):\n    return _err(tag, st, 'not a tag')\n"
        "def f(st, x):\n"
        "    tag = 'A-One' if x else 'A-Two'\n"
        "    return _check(st, 'A-Three') + [Diagnostic('Four', None, 'text'), _err(tag, x, 'm')]\n"
        "_X_TAGS = ('Five', 'Six')\n_OTHER = ('not a tag',)\n"
        "class C:\n    def check(self, t, tag):\n        return _err(tag, t, 'not a tag')\n"
        "    def g(self, t):\n        return self.check(t, 'Seven', 'not a tag')\n"
    )
    assert _diagnostic_tags(tag_sample) == {"A-One", "A-Two", "A-Three", "Four", "Five", "Six",
                                            "Seven"}
    tags = set().union(*(_diagnostic_tags((REPO / "src" / "plank" / name).read_text("utf-8"))
                         for name in ("checker.py", "env.py")))
    assert {"SAP-All", "SMP-Var", "SMS-Meta", "UnboundMetaOnRhs"} <= tags
    sample = (
        "def f(x):\n"
        "    if x:\n        # SAP-All: one catch-all.\n        raise EngineError('a')\n"
        "    if x:\n        raise EngineError('b')  # UnboundMetaOnRhs\n"
        "    if x:\n        # SAP-Al, not a tag\n        raise EngineError('c')\n"
        "    # SAP-All, two lines above\n\n    raise EngineError('d')\n"
    )
    assert _untagged_engine_raises(sample, tags) == [9, 12]
    source = (REPO / "src" / "plank" / "rewrite.py").read_text(encoding="utf-8")
    assert "raise EngineError" in source
    assert _untagged_engine_raises(source, tags) == []


def _unchecked_ident_makers(source: str) -> list[str]:
    """The function around each ``str.__new__(Ident, ...)``, the one way to
    spell an ``Ident`` past its check; ``<module>`` outside any."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Outer functions come first, so a nested one overrides them.
            owner.update((id(n), fn.name) for n in ast.walk(fn))
    return [owner.get(id(node), "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "str.__new__"
            and node.args and ast.unparse(node.args[0]) == "Ident"]


def test_no_ident_skips_its_spelling_check():
    # Every name is spelled as a parsed identifier: the matcher's parameters
    # are the subject's own binder names, or None for a hidden binder.  The
    # matcher walks no name set, draws no fresh name and substitutes nothing.
    sample = ("x = str.__new__(Ident, 'a%1')\n"
              "def f(u):\n    def g():\n        return str.__new__(Ident, u)\n"
              "    return Ident(u), str.__new__(str, u)\n")
    assert _unchecked_ident_makers(sample) == ["<module>", "g"]
    makers = [(path.name, fn) for path in sorted((REPO / "src" / "plank").glob("*.py"))
              for fn in _unchecked_ident_makers(path.read_text(encoding="utf-8"))]
    assert makers == []
    source = (REPO / "src" / "plank" / "rewrite.py").read_text(encoding="utf-8")
    matcher = next(n for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.ClassDef) and n.name == "_Matcher")
    names = {n.id for n in ast.walk(matcher) if isinstance(n, ast.Name)}
    assert not names & {"all_idents", "fresh_var", "substitute"}


def _own_scope(fn):
    """The nodes of ``fn``'s own scope: nested functions, lambdas and classes
    are yielded but not entered."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _recursive_closures(source: str) -> list[str]:
    """``outer.inner`` for each nested function or named lambda that reaches
    itself through the names it loads, directly or through the functions
    defined beside it.  Each call of such a function builds a reference
    cycle: the function, its closure cell and the enclosing frame."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nested = {}
        for node in _own_scope(outer):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested[node.name] = node
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                nested.update((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        loads = {name: {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load) and n.id in nested}
                 for name, fn in nested.items()}
        for name in nested:
            reached, todo = set(), [name]
            while todo:
                new = loads[todo.pop()] - reached
                reached |= new
                todo.extend(new)
            if name in reached:
                found.append(f"{outer.name}.{name}")
    return found


def test_no_nested_function_recurses():
    sample = (
        "def f(xs):\n"
        "    def go(x):\n        return go(x)\n"
        "    def a():\n        return b()\n"
        "    def b():\n        return a()\n"
        "    h = lambda: h\n"
        "    def leaf():\n        return f(xs)\n"
        "    k = lambda: leaf()\n"
        "    xs.sort(key=lambda x: x)\n"
        "    return go, a, h, k\n"
    )
    assert sorted(_recursive_closures(sample)) == ["f.a", "f.b", "f.go", "f.h"]
    for path in sorted((REPO / "src" / "plank").glob("*.py")):
        assert _recursive_closures(path.read_text(encoding="utf-8")) == [], path.name


_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)


def _comprehension_recursions(source: str) -> list[str]:
    """Each module-level function with a comprehension or generator
    expression that loads a module-level function reaching the enclosing
    one again, directly or through the names those functions load.  Each
    level of such a walk spends a frame on the comprehension as well as one
    on the call; ``map`` or a loop spends none."""
    tree = ast.parse(source)
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def loads(node):
        return {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in top}

    calls = {name: loads(fn) for name, fn in top.items()}
    found = []
    for name, fn in top.items():
        reached = set()
        todo = [n for c in ast.walk(fn) if isinstance(c, _COMPREHENSIONS) for n in loads(c)]
        while todo:
            callee = todo.pop()
            if callee not in reached:
                reached.add(callee)
                todo.extend(calls[callee])
        if name in reached:
            found.append(name)
    return found


def test_no_walk_recurses_through_a_comprehension():
    sample = (
        "def f(xs):\n    return [f(x) for x in xs]\n"
        "def g(xs):\n    return all(h(x) for x in xs)\n"
        "def h(x):\n    return g(x.kids)\n"
        "def k(xs):\n    return list(map(k, xs)) + [leaf(x) for x in xs]\n"
        "def leaf(x):\n    return {y: str(y) for y in x}\n"
        "class C:\n    def m(self, xs):\n        return [self.m(x) for x in xs]\n"
    )
    assert _comprehension_recursions(sample) == ["f", "g"]
    for path in sorted((REPO / "src" / "plank").glob("*.py")):
        assert _comprehension_recursions(path.read_text(encoding="utf-8")) == [], path.name


# ---------------------------------------------------------------------------
# Walk depth


def _nested_scopes(depth):
    t = Var(Ident("y"))
    for _ in range(depth):
        t = Construction(Ident("Lam"), (ScopePiece((Ident("x"),), t),))
    return t


def _plain_chain(depth):
    """``S(S(...S(x)...))``, ``depth`` constructions each with one plain argument."""
    t = Var(Ident("x"))
    for _ in range(depth):
        t = Construction(Ident("S"), (ScopePiece((), t),))
    return t


def _redex_under_scopes(depth):
    """``Ap(Lam([y]y), w)`` under ``depth`` levels of ``Lam([x]Ap(z, .))``."""
    lam, ap = Ident("Lam"), Ident("Ap")
    t = Construction(ap, (ScopePiece((), Construction(lam, (ScopePiece((Ident("y"),),
                                                                       Var(Ident("y"))),))),
                          ScopePiece((), Var(Ident("w")))))
    for _ in range(depth):
        body = Construction(ap, (ScopePiece((), Var(Ident("z"))), ScopePiece((), t)))
        t = Construction(lam, (ScopePiece((Ident("x"),), body),))
    return t


def _normalizes_in_one_step(t):
    script = parse_script(BETA_ETA)
    checked = check_script(script)
    rules = prepare_rules(checked.gamma, script.rules, checked.rule_envs)
    result = normalize(checked.gamma, rules, t)
    return result.status.value == "NormalForm" and len(result.steps) == 1


@pytest.mark.parametrize("depth, build, walk", [
    (400, _nested_scopes, lambda t: alpha_equal(t, t)),
    (450, _redex_under_scopes, lambda t: alpha_equal(t, t)),
    (400, _nested_scopes, lambda t: substitute(t, {Ident("y"): Var(Ident("z"))})),
    (450, _redex_under_scopes, _normalizes_in_one_step),
    (900, _plain_chain, lambda t: substitute(t, {Ident("x"): Var(Ident("z"))})),
    (900, _plain_chain, lambda t: match_term(t, t)),
    (400, _redex_under_scopes, render),
    (900, _plain_chain, render),
], ids=["alpha_equal", "alpha_equal_redex", "substitute", "normalize", "substitute_plain",
        "match_term_plain", "render", "render_plain"])
def test_walks_reach_deep_scopes_under_the_default_recursion_limit(depth, build, walk):
    # Built directly, so no other walk limits the depth.  Each walk spends
    # one frame per node; a comprehension between a node and its children
    # would spend a second one and fall short of these depths, and so would
    # a frame on each plain argument, from 500 levels on, or a call from
    # ``map`` or ``str.join``, which counts as a second level.  ``render``
    # spends one frame per term level: a piece renders in its construction's
    # frame.  The search spends none: it keeps the path to the focus in the
    # zipper's frames, whether it starts at the root or resumes.  ``alpha_equal``
    # also compares nested forms with ``==``, which recurses once per
    # container, so a construction's form holds its scope pieces' parts inline.
    assert walk(build(depth))


UNFOLD = "L data S(L); L data Z(); L scheme F(L); L rule F(#x) -> S(F(#x));"


def test_normalize_unfolds_deeper_than_the_recursion_limit():
    # Each step unfolds F one level deeper, so the 5,000th redex stands
    # 4,999 levels down, and the search resumes there from the zipper.  A
    # search that recursed along the path to the last redex raised
    # RecursionError from fuel 990 on.
    gamma, rules = _engine(UNFOLD)
    result = normalize(gamma, rules, parse_term("F(Z())"), fuel=5000)
    assert result.status.value == "FuelExhausted"
    assert len(result.steps) == 5000
    assert len(result.steps[-1].position) == 4999

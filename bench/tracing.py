"""Spans around plank's layer functions, for the benchmark's traced run.

``Tracer.install`` replaces each traced function at every module attribute
that binds it (``plank.rewrite.all_idents`` and ``plank.terms.all_idents``
alike), so calls made inside the package are seen too.  ``uninstall`` puts
the originals back.  Spans stay in memory as
``[name, start, end, parent, returned_something]`` lists until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Span name -> (defining module, attribute).  ``render`` is defined in
# ``plank.terms`` and reaches users through ``plank.parser``.
TRACED = {
    "parser.parse_script": ("plank.parser", "parse_script"),
    "parser.parse_term": ("plank.parser", "parse_term"),
    "parser.render": ("plank.terms", "render"),
    "env.build_global_env": ("plank.env", "build_global_env"),
    "env.infer_rule_env": ("plank.env", "infer_rule_env"),
    "checker.check_script": ("plank.checker", "check_script"),
    "checker.check_ground_subject": ("plank.checker", "check_ground_subject"),
    "rewrite.prepare_rules": ("plank.rewrite", "prepare_rules"),
    "rewrite.normalize": ("plank.rewrite", "normalize"),
    "rewrite.rewrite_step": ("plank.rewrite", "rewrite_step"),
    "rewrite.match_term": ("plank.rewrite", "match_term"),
    "rewrite.contract": ("plank.rewrite", "contract"),
    "rewrite.substitute": ("plank.rewrite", "substitute"),
    "terms.all_idents": ("plank.terms", "all_idents"),
    "terms.free_vars": ("plank.terms", "free_vars"),
    "terms.fresh_var": ("plank.terms", "fresh_var"),
    "cli.main": ("plank.cli", "main"),
}

NAME, START, END, PARENT, RETURNED = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1], False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[RETURNED] = result is not None
                return result
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "plank" or n.startswith("plank."))]
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)


class Totals:
    """Per-name call count, non-None returns, inclusive and self time.

    Inclusive time counts only a name's outermost span, so a function that
    reaches itself again through another traced function is not counted twice.
    """

    def __init__(self, spans: list[list], lo: int = 0, hi: int | None = None):
        hi = len(spans) if hi is None else hi
        self.calls: dict[str, int] = defaultdict(int)
        self.returned: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for i in range(hi - 1, lo - 1, -1):  # children come after their parent
            span = spans[i]
            name, duration = span[NAME], span[END] - span[START]
            self.calls[name] += 1
            self.returned[name] += span[RETURNED]
            self.self_time[name] += duration - children.pop(i, 0.0)
            if span[PARENT] >= lo:
                children[span[PARENT]] += duration
            if not _has_ancestor(spans, span, name, lo):
                self.inclusive[name] += duration


def _has_ancestor(spans: list[list], span: list, name: str, lo: int) -> bool:
    parent = span[PARENT]
    while parent >= lo:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False

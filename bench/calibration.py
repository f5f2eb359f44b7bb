"""A fixed pure-Python kernel that measures the machine's current speed.

On a shared machine the CPU's speed drifts: on a 2-CPU virtual machine,
batch times moved by up to 1.75x within a minute.  The kernel is timed right
before and right after every batch and drifts with the machine, so the
benchmark reports each time scaled by ``KERNEL_REF_S`` over the faster of the
two kernel times: seconds on a machine where the kernel takes
``KERNEL_REF_S``.  The faster one is used because an interruption can only
slow a measurement down.

The kernel does not use plank.  It builds, walks and renames two trees, one
of tuples and one of frozen dataclass instances, with sets, dicts and
recursion like a term traversal.  Changing it or ``KERNEL_REF_S`` rescales
every timing, so neither may change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

KERNEL_REF_S = 0.012


def _tuple_tree(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("v", f"x{i % 7}")
    return ("ap", _tuple_tree(depth - 1, 2 * i), _tuple_tree(depth - 1, 2 * i + 1))


def _tuple_names(t: tuple, out: set) -> set:
    if t[0] == "v":
        out.add(t[1])
    else:
        _tuple_names(t[1], out)
        _tuple_names(t[2], out)
    return out


def _tuple_rename(t: tuple, m: dict) -> tuple:
    if t[0] == "v":
        return ("v", m.get(t[1], t[1]))
    return ("ap", _tuple_rename(t[1], m), _tuple_rename(t[2], m))


@dataclass(frozen=True)
class _Node:
    head: str
    kids: tuple


def _node_tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"x{i % 7}", ())
    return _Node("ap", (_node_tree(depth - 1, 2 * i), _node_tree(depth - 1, 2 * i + 1)))


def _node_names(t: _Node, bound: frozenset, out: set) -> set:
    if not t.kids:
        if t.head not in bound:
            out.add(t.head)
        return out
    inner = bound | {t.head + str(len(bound))}
    for k in t.kids:
        _node_names(k, inner, out)
    return out


def _node_rename(t: _Node, m: dict) -> _Node:
    if not t.kids:
        return _Node(m.get(t.head, t.head), ())
    inner = dict(m)
    return _Node(t.head, tuple(_node_rename(k, inner) for k in t.kids))


def kernel_seconds() -> float:
    """Time one run of the kernel."""
    t0 = time.perf_counter()
    tree = _tuple_tree(12, 1)
    _tuple_rename(tree, {n: n + "_" for n in _tuple_names(tree, set())})
    node = _node_tree(10, 1)
    _node_rename(node, {n: n + "_" for n in _node_names(node, frozenset(), set())})
    return time.perf_counter() - t0

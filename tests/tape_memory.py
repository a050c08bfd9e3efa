"""Walk an autodiff tape and count the array bytes it keeps alive, and take
the traced peak of a call."""
import tracemalloc
from typing import NamedTuple

import numpy as np

from motionrefine.tensor import Tensor


class TapeBytes(NamedTuple):
    total: int        # every distinct buffer held by a node's .data or closure
    closures: int     # the distinct buffers held by backward closures alone
    nodes: list


def _base_arrays(value, into: dict):
    """Add the underlying arrays of a tensor, an array, or a list or tuple of them."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _base_arrays(item, into)
        return
    if isinstance(value, Tensor):
        value = value.data
    if not isinstance(value, np.ndarray):
        return
    while isinstance(value.base, np.ndarray):
        value = value.base
    into[id(value)] = value


def closure_arrays(node) -> list:
    """The distinct underlying arrays ``node``'s backward closure holds."""
    held = {}
    for cell in (node._backward.__closure__ or ()) if node._backward else ():
        try:
            contents = cell.cell_contents
        except ValueError:  # a free variable the forward left unbound
            continue
        _base_arrays(contents, held)
    return list(held.values())


def _walk(roots) -> list:
    """Every node reachable from ``roots`` through ``_parents``, each once."""
    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def bytes_by_op(*roots) -> dict:
    """Bytes the backward closures under ``roots`` keep alive, per ``_op``.

    Each op counts every underlying buffer its closures hold once; a buffer
    held by two ops counts under both, so the values may sum to more than
    ``retained_bytes(...).closures``.
    """
    held = {}
    for node in _walk(roots):
        for array in closure_arrays(node):
            held.setdefault(node._op, {})[id(array)] = array
    return {op: sum(a.nbytes for a in arrays.values()) for op, arrays in held.items()}


def retained_bytes(*roots) -> TapeBytes:
    """Bytes of the distinct arrays the tapes under ``roots`` keep alive.

    Counts every node's ``.data`` and every array or tensor its backward
    closure holds (also inside a list or tuple), each underlying buffer once.
    """
    buffers, closure_buffers = {}, {}
    nodes = _walk(roots)
    for node in nodes:
        _base_arrays(node.data, buffers)
        for array in closure_arrays(node):
            buffers[id(array)] = closure_buffers[id(array)] = array
    return TapeBytes(sum(a.nbytes for a in buffers.values()),
                     sum(a.nbytes for a in closure_buffers.values()),
                     nodes)


def peak_traced_bytes(fn, calls: int = 2) -> int:
    """The least tracemalloc peak of ``calls`` calls of ``fn``, each traced on
    its own, after one untraced call (which may make once-only state, such as
    running statistics)."""
    fn()
    peaks = []
    for _ in range(calls):
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)

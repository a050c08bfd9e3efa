"""Walk an autodiff tape and count the array bytes it keeps alive."""
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
        _base_arrays(cell.cell_contents, held)
    return list(held.values())


def retained_bytes(*roots) -> TapeBytes:
    """Bytes of the distinct arrays the tapes under ``roots`` keep alive.

    Counts every node's ``.data`` and every array or tensor its backward
    closure holds (also inside a list or tuple), each underlying buffer once.
    """
    buffers, closure_buffers = {}, {}
    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        _base_arrays(node.data, buffers)
        for array in closure_arrays(node):
            buffers[id(array)] = closure_buffers[id(array)] = array
        stack.extend(node._parents)
    return TapeBytes(sum(a.nbytes for a in buffers.values()),
                     sum(a.nbytes for a in closure_buffers.values()),
                     list(nodes.values()))

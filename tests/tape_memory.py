"""Walk an autodiff tape and count the array bytes it keeps alive."""
from typing import NamedTuple

import numpy as np

from motionrefine.tensor import Tensor


class TapeBytes(NamedTuple):
    total: int        # every distinct buffer held by a node's .data or closure
    closures: int     # the distinct buffers held by backward closures alone
    nodes: list


def retained_bytes(*roots) -> TapeBytes:
    """Bytes of the distinct arrays the tapes under ``roots`` keep alive.

    Counts every node's ``.data`` and every array or tensor its backward
    closure holds (also inside a list or tuple), each underlying buffer once.
    """
    buffers, closure_buffers = {}, {}

    def keep(value, into):
        if isinstance(value, (list, tuple)):
            for item in value:
                keep(item, into)
            return
        if isinstance(value, Tensor):
            value = value.data
        if not isinstance(value, np.ndarray):
            return
        while isinstance(value.base, np.ndarray):
            value = value.base
        into[id(value)] = value.nbytes

    nodes, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        keep(node.data, buffers)
        for cell in (node._backward.__closure__ or ()) if node._backward else ():
            keep(cell.cell_contents, buffers)
            keep(cell.cell_contents, closure_buffers)
        stack.extend(node._parents)
    return TapeBytes(sum(buffers.values()), sum(closure_buffers.values()),
                     list(nodes.values()))

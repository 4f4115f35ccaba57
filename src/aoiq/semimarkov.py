"""Transfer functions of labeled digraphs, and the interdeparture graph.

A directed graph with algebraic edge labels and a start node without
incoming edges defines, for every node v, the transfer function H(v): the
sum over all paths from the start to v of the product of edge labels
along the path. The H values satisfy a linear fixed-point system, solved
here by Gaussian elimination in jet arithmetic; each solve logs its
smallest |pivot| at DEBUG on ``aoiq.semimarkov``.

A source's delivery-to-delivery cycle is a walk on a graph read off who
may preempt whom; its transfer function into the cycle-completion node is
the interdeparture MGF. The graph shares no algebra with the closed form
in ``analytic`` past the service MGF, nor the config's preemption rates,
so their agreement cross-validates both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .jets import DEFAULT_ORDER, Jet
from .analytic import SystemConfig

__all__ = [
    "LabeledDigraph",
    "SingularSystem",
    "transfer_functions",
    "build_interdeparture_graph",
]

_log = logging.getLogger(__name__)
_PIVOT_FLOOR = 1e-13


class SingularSystem(ValueError):
    """The transfer-function system is singular (a loop has unit gain)."""


@dataclass(frozen=True)
class LabeledDigraph:
    """Directed graph with jet-valued edge labels and a designated start."""

    nodes: tuple[str, ...]
    start: str
    edges: tuple[tuple[str, str, Jet], ...]

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        if self.start not in self.nodes:
            raise ValueError(f"start node {self.start!r} not among nodes")
        known = set(self.nodes)
        for src, dst, label in self.edges:
            if src not in known or dst not in known:
                raise ValueError(f"edge ({src!r}, {dst!r}) references unknown node")
            if dst == self.start:
                raise ValueError("start node must have no incoming edges")
            if not isinstance(label, Jet):
                raise TypeError("edge labels must be jets")
        orders = {(label.center, label.order) for _, _, label in self.edges}
        if len(orders) > 1:
            raise ValueError(f"edge labels must share center and order, got {orders}")


class TransferFunctions(dict):
    """H(v) by node name, and ``min_pivot``: the smallest |constant term| the
    elimination divided by (inf for a graph of the start node alone)."""

    min_pivot: float


def transfer_functions(graph: LabeledDigraph) -> TransferFunctions:
    """Solve H(start) = 1, H(v) = sum of label * H(tail) over edges into v.

    Gaussian elimination with partial pivoting on the constant terms;
    pivoting on constant terms is exactly the condition under which jet
    division is defined. Unreachable nodes come out as the zero jet.
    """
    if graph.edges:
        center = graph.edges[0][2].center
        order = graph.edges[0][2].order
    else:
        center, order = 0.0, DEFAULT_ORDER
    one = Jet.constant(1.0, order, center)
    zero = Jet.constant(0.0, order, center)

    unknowns = [v for v in graph.nodes if v != graph.start]
    index = {v: i for i, v in enumerate(unknowns)}
    n = len(unknowns)
    # Row i encodes H(v_i) - sum_j W[v_j -> v_i] H(v_j) = W[start -> v_i].
    mat = [[one if i == j else zero for j in range(n)] for i in range(n)]
    rhs = [zero for _ in range(n)]
    for src, dst, label in graph.edges:
        i = index[dst]
        if src == graph.start:
            rhs[i] = rhs[i] + label
        else:
            j = index[src]
            mat[i][j] = mat[i][j] - label

    min_pivot = math.inf
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(mat[r][col].coeffs[0]))
        min_pivot = min(min_pivot, abs(mat[pivot][col].coeffs[0]))
        if min_pivot < _PIVOT_FLOOR:
            raise SingularSystem(
                "transfer-function system is singular; some loop has unit "
                "constant-term gain"
            )
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(col + 1, n):
            if mat[row][col] is zero or all(c == 0.0 for c in mat[row][col].coeffs):
                continue
            factor = mat[row][col] / mat[col][col]
            for j in range(col, n):
                mat[row][j] = mat[row][j] - factor * mat[col][j]
            rhs[row] = rhs[row] - factor * rhs[col]

    solution: list[Jet] = [zero] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for j in range(i + 1, n):
            acc = acc - mat[i][j] * solution[j]
        solution[i] = acc / mat[i][i]

    result = TransferFunctions({graph.start: one})
    for v, jet in zip(unknowns, solution):
        result[v] = jet
    result.min_pivot = min_pivot
    _log.debug(
        "transfer functions of %d nodes: smallest |pivot| %.3g",
        len(graph.nodes),
        min_pivot,
        extra={"min_pivot": min_pivot},
    )
    return result


def build_interdeparture_graph(
    cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER
) -> LabeledDigraph:
    """Graph whose transfer function into ``delivered`` is the tracked
    source's interdeparture MGF.

    Nodes: ``start`` (a tracked-source packet was just delivered, server
    idle), ``serving_<c>`` (a source-c packet in service), ``other_done``
    (another source delivered, server idle again) and the sink ``delivered``
    (the next tracked-source delivery), which keeps ``start`` free of
    incoming edges. Source d's arrivals preempt a source-c packet in service
    at rate q[c][d], the config's ``preemption_matrix``. With its row sum
    r_c and service U, an idle server goes to serving_c with lambda_c /
    (Lambda - s), serving_c to serving_d with q[c][d] * E[int_0^U e^{(s -
    r_c)t} dt] (none if q[c][d] is 0), and serving_c to its delivery with
    M_U(s - r_c)."""
    cfg._check_source(source)
    idle = 1.0 / Jet.from_coeffs((cfg.total_rate, -1.0) + (0.0,) * (order - 1))
    serving = [f"serving_{c}" for c in range(cfg.num_sources)]
    nodes = ("start", *serving, "other_done", "delivered")
    edges: list[tuple[str, str, Jet]] = []
    for c, (rate, q) in enumerate(zip(cfg.arrival_rates, cfg.preemption_matrix)):
        r = sum(q)
        survival = cfg.service.survival_mgf_jet(-r, order).recenter(0.0)
        edges.append(("start", serving[c], idle * rate))
        edges.append(("other_done", serving[c], idle * rate))
        edges += [(serving[c], serving[d], survival * x) for d, x in enumerate(q) if x]
        exit_label = cfg.service.mgf_jet(-r, order).recenter(0.0)
        if c == source:
            edges.append((serving[c], "delivered", exit_label))
        else:
            edges.append((serving[c], "other_done", exit_label))
    return LabeledDigraph(nodes=nodes, start="start", edges=tuple(edges))

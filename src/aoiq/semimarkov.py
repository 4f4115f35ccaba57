"""Transfer functions of labeled digraphs, and the interdeparture graph.

A directed graph with algebraic edge labels and a start node without
incoming edges defines, for every node v, the transfer function H(v): the
sum over all paths from the start to v of the product of edge labels
along the path. The H values satisfy a linear fixed-point system that is
solved here by Gaussian elimination in jet arithmetic.

One delivery-to-delivery cycle of a source in the preemptive M/G/1/1
system is a walk on a small graph whose edge labels are transition
probabilities times sojourn-time MGFs; the transfer function into the
cycle-completion node is then the interdeparture MGF. This route shares
no algebra with the closed form in ``analytic`` past the service MGF, so
their agreement cross-validates both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jets import DEFAULT_ORDER, Jet
from .analytic import SystemConfig

__all__ = [
    "LabeledDigraph",
    "SojournKit",
    "SingularSystem",
    "transfer_functions",
    "sojourn_kit",
    "build_interdeparture_graph",
]

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


def transfer_functions(graph: LabeledDigraph) -> dict[str, Jet]:
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

    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(mat[r][col].coeffs[0]))
        if abs(mat[pivot][col].coeffs[0]) < _PIVOT_FLOOR:
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

    result = {graph.start: one}
    for v, jet in zip(unknowns, solution):
        result[v] = jet
    return result


@dataclass(frozen=True)
class SojournKit:
    """Per-source transition probabilities and sojourn MGF jets.

    For each source: the probability its arrival wins the idle-server race
    (``race``), the probability a packet entering service is delivered
    (``delivery``) vs preempted (``preempt``), and the MGF jets of the
    corresponding sojourn times: the idle wait before its arrival wins,
    the service time given delivery, and the service-start-to-preemption
    gap given preemption.
    """

    race: tuple[float, ...]
    delivery: tuple[float, ...]
    preempt: tuple[float, ...]
    wait_mgf: tuple[Jet, ...]
    delivered_mgf: tuple[Jet, ...]
    preempted_mgf: tuple[Jet, ...]


def sojourn_kit(cfg: SystemConfig, order: int = DEFAULT_ORDER) -> SojournKit:
    """Transition probabilities and sojourn MGF jets for every source."""
    total = cfg.total_rate
    lam_minus_s = Jet.from_coeffs((total, -1.0) + (0.0,) * (order - 1))
    wait = Jet.constant(total, order) / lam_minus_s

    race, delivery, preempt = [], [], []
    wait_jets, delivered_jets, preempted_jets = [], [], []
    for c, rate in enumerate(cfg.arrival_rates):
        preempt_rate = cfg.theta * rate
        shifted = cfg.service.mgf_jet(-preempt_rate, order).recenter(0.0)
        race.append(rate / total)
        wait_jets.append(wait)
        delivered_jets.append(shifted * (1.0 / shifted.coeffs[0]))
        # (1 - M_U(s - r))/(r - s) via the stable survival transform; its
        # constant term times r is the preemption probability 1 - M_U(-r),
        # accurate down to vanishing rates and exactly 0 at r = 0
        survival = cfg.service.survival_mgf_jet(-preempt_rate, order).recenter(0.0)
        p_preempt = preempt_rate * survival.coeffs[0]
        preempt.append(p_preempt)
        delivery.append(1.0 - p_preempt)
        preempted_jets.append(survival * (1.0 / survival.coeffs[0]))
    return SojournKit(
        race=tuple(race),
        delivery=tuple(delivery),
        preempt=tuple(preempt),
        wait_mgf=tuple(wait_jets),
        delivered_mgf=tuple(delivered_jets),
        preempted_mgf=tuple(preempted_jets),
    )


def build_interdeparture_graph(
    cfg: SystemConfig, source: int, order: int = DEFAULT_ORDER
) -> LabeledDigraph:
    """Graph whose transfer function into ``delivered`` is the tracked
    source's interdeparture MGF.

    Nodes: ``start`` (a tracked-source packet was just delivered, server
    idle), ``serving_<c>`` (a source-c packet in service), ``other_done``
    (another source delivered, server idle again), and the virtual sink
    ``delivered`` (the next tracked-source delivery, closing the cycle).
    The sink keeps the start node free of incoming edges.
    """
    cfg._check_source(source)
    kit = sojourn_kit(cfg, order)
    serving = [f"serving_{c}" for c in range(cfg.num_sources)]
    nodes = ("start", *serving, "other_done", "delivered")
    edges: list[tuple[str, str, Jet]] = []
    for c in range(cfg.num_sources):
        entry = kit.wait_mgf[c] * kit.race[c]
        edges.append(("start", serving[c], entry))
        edges.append(("other_done", serving[c], entry))
        edges.append((serving[c], serving[c], kit.preempted_mgf[c] * kit.preempt[c]))
        exit_label = kit.delivered_mgf[c] * kit.delivery[c]
        if c == source:
            edges.append((serving[c], "delivered", exit_label))
        else:
            edges.append((serving[c], "other_done", exit_label))
    return LabeledDigraph(nodes=nodes, start="start", edges=tuple(edges))

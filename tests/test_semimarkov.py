import numpy as np
import pytest

from aoiq import (
    Deterministic,
    Exponential,
    Gamma,
    LogNormal,
    SystemConfig,
    build_interdeparture_graph,
    interdeparture_mgf_jet,
    transfer_functions,
)
from aoiq.analytic import GloballyPreemptiveConfig
from aoiq.jets import Jet
from aoiq.semimarkov import LabeledDigraph, SingularSystem
from grid_helpers import config_grid


def jet(*coeffs):
    return Jet.from_coeffs(coeffs)


def rel_close(a, b, tol):
    return all(
        abs(x - y) <= tol * max(abs(x), abs(y), 1.0) for x, y in zip(a.coeffs, b.coeffs)
    )


class TestSolver:
    def test_single_edge_chain(self):
        x = jet(0.3, 1.0, 0.5, 0.0)
        g = LabeledDigraph(("u", "v"), "u", (("u", "v", x),))
        h = transfer_functions(g)
        assert h["u"].coeffs[0] == 1.0
        assert h["v"].coeffs == x.coeffs

    def test_self_loop_geometric(self):
        # u -> v with label a, loop v -> v with label b: H(v) = a/(1-b)
        a = jet(0.4, 0.1, 0.0, 0.0)
        b = jet(0.5, 0.2, 0.1, 0.0)
        g = LabeledDigraph(("u", "v"), "u", (("u", "v", a), ("v", "v", b)))
        h = transfer_functions(g)["v"]
        want = a / (1.0 - b)
        assert rel_close(h, want, 1e-14)

    def test_unreachable_node_is_zero(self):
        a = jet(0.4, 0.1)
        g = LabeledDigraph(("u", "v", "w"), "u", (("u", "v", a), ("w", "v", a)))
        h = transfer_functions(g)
        assert all(c == 0.0 for c in h["w"].coeffs)

    def test_singular_loop_detected(self):
        g = LabeledDigraph(
            ("u", "v"), "u", (("u", "v", jet(1.0, 0.0)), ("v", "v", jet(1.0, 0.5)))
        )
        with pytest.raises(SingularSystem):
            transfer_functions(g)

    def test_start_with_incoming_edge_rejected(self):
        with pytest.raises(ValueError):
            LabeledDigraph(("u", "v"), "u", (("v", "u", jet(1.0, 0.0)),))

    def test_graph_invariants_rejected(self):
        with pytest.raises(ValueError):
            LabeledDigraph(("u", "u"), "u", ())
        with pytest.raises(ValueError):
            LabeledDigraph(("u", "v"), "w", ())
        with pytest.raises(ValueError):
            LabeledDigraph(("u", "v"), "u", (("u", "ghost", jet(1.0, 0.0)),))
        with pytest.raises(TypeError):
            LabeledDigraph(("u", "v"), "u", (("u", "v", 3.0),))
        with pytest.raises(ValueError):
            LabeledDigraph(
                ("u", "v", "w"),
                "u",
                (("u", "v", jet(1.0, 0.0)), ("u", "w", jet(1.0, 0.0, 0.0))),
            )

    def test_parallel_edges_sum(self):
        a, b = jet(0.2, 0.1), jet(0.3, 0.2)
        g = LabeledDigraph(("u", "v"), "u", (("u", "v", a), ("u", "v", b)))
        assert transfer_functions(g)["v"].coeffs == (a + b).coeffs

    def test_fixed_point_residuals(self):
        # substituting the solution back into its defining equations;
        # residuals are scaled by coefficient magnitude since heavy
        # configs produce astronomically large high-order coefficients
        for cfg in config_grid()[::6]:
            for c in range(cfg.num_sources):
                g = build_interdeparture_graph(cfg, c)
                h = transfer_functions(g)
                incoming = {v: [] for v in g.nodes}
                for src, dst, label in g.edges:
                    incoming[dst].append((src, label))
                for v in g.nodes:
                    if v == g.start:
                        continue
                    acc = Jet.constant(0.0, h[v].order)
                    for src, label in incoming[v]:
                        acc = acc + label * h[src]
                    for x, y in zip(acc.coeffs, h[v].coeffs):
                        assert abs(x - y) < 1e-11 * max(1.0, abs(x), abs(y))

    def test_relabeling_invariance(self):
        cfg = SystemConfig((1.0, 2.0, 0.5), 0.4, Exponential(1.5))
        g = build_interdeparture_graph(cfg, 1)
        h_ref = transfer_functions(g)["delivered"]
        rng = np.random.default_rng(5)
        mapping = {n: f"node_{i}" for i, n in enumerate(g.nodes)}
        nodes = list(mapping.values())
        edges = [(mapping[a], mapping[b], l) for a, b, l in g.edges]
        for _ in range(5):
            rng.shuffle(nodes)
            perm = rng.permutation(len(edges))
            g2 = LabeledDigraph(
                tuple(nodes), mapping[g.start], tuple(edges[i] for i in perm)
            )
            h2 = transfer_functions(g2)[mapping["delivered"]]
            assert rel_close(h_ref, h2, 1e-12)


def labels(graph):
    """The graph's edge labels by (tail, head); the builder adds no parallel edges."""
    return {(a, b): label for a, b, label in graph.edges}


class TestSojournKit:
    # the edge labels against the law's own transforms: from an idle server
    # lambda_c / (Lambda - s), the loop gain r H(s - r) and the exit M_U(s - r)
    def test_race_probabilities(self):
        g = labels(build_interdeparture_graph(SystemConfig((2.0, 6.0), 0.5, Exponential(1.0)), 0))
        assert g["start", "serving_0"].coeffs[0] == pytest.approx(0.25, rel=1e-14)
        assert g["start", "serving_1"].coeffs[0] == pytest.approx(0.75, rel=1e-14)

    def test_delivery_probability_exponential(self):
        # unit-rate exponential surviving a preemption rate of 1: 1/2
        g = labels(build_interdeparture_graph(SystemConfig((2.0,), 0.5, Exponential(1.0)), 0))
        assert g["serving_0", "delivered"].coeffs[0] == pytest.approx(0.5, rel=1e-12)

    def test_kit_identities_on_grid(self):
        # at s = 0 the labels out of a node are the probabilities of its
        # transitions: an idle server's races, and a packet's delivery or
        # preemption, sum to 1
        for cfg in config_grid()[::4]:
            g = build_interdeparture_graph(cfg, 0)
            for node in ("start", *(f"serving_{c}" for c in range(cfg.num_sources))):
                out = sum(label.coeffs[0] for a, _, label in g.edges if a == node)
                assert out == pytest.approx(1.0, abs=1e-12)

    def test_loop_gain_identity(self):
        # the self-loop gain r_c H(s - r_c) times r_c - s is r_c (1 - M_U(s - r_c)),
        # coefficient by coefficient; at theta = 0 there is no loop
        for cfg in config_grid()[::5]:
            g = labels(build_interdeparture_graph(cfg, 0))
            for c, rate in enumerate(cfg.preemption_rates):
                loop = g.get((f"serving_{c}", f"serving_{c}"))
                assert (loop is None) == (rate == 0.0)
                if loop is not None:
                    service = cfg.service.mgf_jet(-rate, 8).recenter(0.0)
                    r_minus_s = jet(rate, -1.0, *[0.0] * 7)
                    assert rel_close(loop * r_minus_s, (1.0 - service) * rate, 1e-12)

    def test_through_gain_identity(self):
        # entry race times exit equals the through gain
        # rate_c * M_c / (total rate - s), M_c = M_U(s - r_c) as the closed forms read it
        for cfg in config_grid()[::5]:
            g = labels(build_interdeparture_graph(cfg, 0))
            lam_minus_s = Jet.from_coeffs((cfg.total_rate, -1.0) + (0.0,) * 7)
            for c, rate in enumerate(cfg.preemption_rates):
                service = cfg.service.mgf_jet(-rate, 8).recenter(0.0)
                through = service * cfg.arrival_rates[c] / lam_minus_s
                exit_to = "delivered" if c == 0 else "other_done"
                entry, exit_label = g["start", f"serving_{c}"], g[f"serving_{c}", exit_to]
                assert rel_close(entry * exit_label, through, 1e-12)


class TestInterdepartureGraph:
    def test_single_source_shape_and_formula(self):
        cfg = SystemConfig((1.3,), 0.7, Exponential(1.1))
        g = build_interdeparture_graph(cfg, 0)
        assert len(g.nodes) == 4
        h = transfer_functions(g)
        # direct specialization: entry * exit / (1 - loop), with the entry
        # lambda / (lambda - s), the exit M_U(s - r) and the loop r H(s - r)
        rate = cfg.preemption_rates[0]
        entry = 1.3 / jet(1.3, -1.0, *[0.0] * 7)
        exit_label = cfg.service.mgf_jet(-rate, 8).recenter(0.0)
        loop = cfg.service.survival_mgf_jet(-rate, 8).recenter(0.0) * rate
        want = entry * exit_label / (1.0 - loop)
        assert rel_close(h["delivered"], want, 1e-12)
        assert all(c == 0.0 for c in h["other_done"].coeffs)

    def test_two_source_counts(self):
        cfg = SystemConfig((2.0, 6.0), 0.28, Exponential(1.0))
        g = build_interdeparture_graph(cfg, 0)
        assert len(g.nodes) == 5
        assert len(g.edges) == 8

    def test_matches_closed_form_three_sources(self):
        cfg = SystemConfig((1.0, 2.0, 0.7), 0.4, LogNormal(-0.5, 0.8))
        for c in range(3):
            closed = interdeparture_mgf_jet(cfg, c)
            h = transfer_functions(build_interdeparture_graph(cfg, c))["delivered"]
            assert rel_close(closed, h, 1e-9)

    def test_matches_closed_form_on_grid(self):
        for cfg in config_grid():
            for c in range(cfg.num_sources):
                closed = interdeparture_mgf_jet(cfg, c)
                h = transfer_functions(build_interdeparture_graph(cfg, c))["delivered"]
                assert rel_close(closed, h, 1e-9)

    def test_cycle_completion_certain(self):
        for cfg in config_grid()[::6]:
            for c in range(cfg.num_sources):
                h = transfer_functions(build_interdeparture_graph(cfg, c))["delivered"]
                assert h.coeffs[0] == pytest.approx(1.0, abs=1e-10)


class TestGlobalPreemptionGraph:
    @pytest.mark.parametrize("sources", [1, 2, 3, 8])
    @pytest.mark.parametrize(
        "law",
        [Exponential(1.3), Gamma(2.0, 3.0), Deterministic(0.9), LogNormal(-1.0, 1.0)],
        ids=["exponential", "gamma", "deterministic", "lognormal"],
    )
    def test_matches_closed_form(self, law, sources):
        # total rate 3 for every source count: the graph's pivots form
        # 1 - Lambda * H = M_U(-Lambda) by subtraction, so at M_U(-Lambda) ~ 1e-6
        # its own error passes 1e-9 (test_highprecision pins that regime)
        rates = tuple(6.0 * (c + 1) / (sources * (sources + 1)) for c in range(sources))
        cfg = GloballyPreemptiveConfig(rates, law)
        for c in range(sources):
            closed = interdeparture_mgf_jet(cfg, c)
            h = transfer_functions(build_interdeparture_graph(cfg, c))["delivered"]
            assert rel_close(closed, h, 1e-9)

    def test_reads_the_model_not_the_reduced_rates(self, monkeypatch):
        # every source preempts every packet: the graph has all C^2 preemption
        # edges and never asks for the closed form's rates (Lambda for each)
        cfg = GloballyPreemptiveConfig((1.0, 2.0, 0.5), Gamma(2.0, 3.0))
        closed = [interdeparture_mgf_jet(cfg, c) for c in range(3)]

        def refuse(self):
            raise AssertionError("the graph read preemption_rates")

        monkeypatch.setattr(GloballyPreemptiveConfig, "preemption_rates", property(refuse))
        for c in range(3):
            g = build_interdeparture_graph(cfg, c)
            preemptions = [(a, b) for a, b, _ in g.edges if a.startswith("serving")
                           and b.startswith("serving")]
            assert len(preemptions) == 9
            assert rel_close(closed[c], transfer_functions(g)["delivered"], 1e-9)

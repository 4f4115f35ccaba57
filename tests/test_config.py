import pytest

from aoiq import Exponential, LogNormal, PolicyKind
from aoiq.config import ParseError, ValidationError, parse_spec

MINIMAL = """
[system]
arrival_rates = 2, 6
service = lognormal(loc=-1, scale=1)
"""

FULL = """
[system]
arrival_rates = 2, 6
theta = 0.28
service = lognormal(loc=-1, scale=1)

[sweep]
axis = theta
start = 0.0
stop = 1.0
points = 21
policies = probabilistic, non_preemptive, self_preemptive, globally_preemptive
mode = both

[simulation]
horizon = 1e5
warmup_fraction = 0.1
seed = 12345
replications = 20
batches = 10

[output]
path = results.csv
"""


class TestDefaults:
    def test_minimal_spec_populates_defaults(self):
        spec = parse_spec(MINIMAL)
        assert spec.system.arrival_rates == (2.0, 6.0)
        assert spec.system.theta == 0.0
        assert spec.system.service == LogNormal(-1.0, 1.0)
        assert spec.axis == "none"
        assert spec.grid is None
        assert spec.policies == (PolicyKind.PROBABILISTIC,)
        assert spec.mode == "analytic"
        assert spec.sim.horizon == 1e4
        assert spec.sim.seed == 1
        assert spec.sim.batches == 10
        assert spec.output_path == "results.csv"

    def test_full_spec(self):
        spec = parse_spec(FULL)
        assert spec.system.theta == 0.28
        assert spec.axis == "theta"
        assert spec.grid == (0.0, 1.0, 21)
        assert len(spec.policies) == 4
        assert spec.mode == "both"
        assert spec.sim.replications == 20

    def test_comments_and_exponent_notation(self):
        spec = parse_spec(
            """
            [system]
            arrival_rates = 1.0   ; single source
            service = exponential(rate=2)
            [simulation]
            delivered = 1e5
            """
        )
        assert spec.system.service == Exponential(2.0)
        assert spec.sim.delivered_per_source == 100000
        assert spec.sim.horizon is None


class TestRejections:
    def test_theta_out_of_range_names_bound(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            parse_spec(MINIMAL + "\ntheta = 1.5\n")

    def test_lambda1_sweep_needs_two_sources(self):
        text = """
        [system]
        arrival_rates = 1, 2, 3
        service = exponential(rate=1)
        [sweep]
        axis = lambda1
        start = 1
        stop = 5
        points = 5
        """
        with pytest.raises(ValidationError, match="two sources"):
            parse_spec(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key"):
            parse_spec(MINIMAL + "\ncolor = red\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError, match="unknown section"):
            parse_spec(MINIMAL + "\n[plotting]\nstyle = dark\n")

    def test_malformed_document(self):
        with pytest.raises(ParseError):
            parse_spec("arrival_rates = 2, 6\n")  # key before any section

    def test_bad_number(self):
        with pytest.raises(ParseError, match="theta"):
            parse_spec(MINIMAL + "\ntheta = fast\n")

    def test_grid_order(self):
        text = MINIMAL + "\n[sweep]\naxis = theta\nstart = 0.8\nstop = 0.2\npoints = 5\n"
        with pytest.raises(ValidationError, match="start"):
            parse_spec(text)

    def test_grid_points_minimum(self):
        text = MINIMAL + "\n[sweep]\naxis = theta\nstart = 0.0\nstop = 1.0\npoints = 1\n"
        with pytest.raises(ValidationError, match="points"):
            parse_spec(text)

    def test_unknown_policy(self):
        text = MINIMAL + "\n[sweep]\npolicies = probabilistic, psychic\n"
        with pytest.raises(ValidationError, match="psychic"):
            parse_spec(text)

    def test_theta_grid_bounds(self):
        text = MINIMAL + "\n[sweep]\naxis = theta\nstart = -0.5\nstop = 1.0\npoints = 4\n"
        with pytest.raises(ValidationError, match="theta grid"):
            parse_spec(text)

    def test_negative_rate(self):
        text = """
        [system]
        arrival_rates = 2, -6
        service = exponential(rate=1)
        """
        with pytest.raises(ValidationError, match="positive"):
            parse_spec(text)

    def test_bad_distribution(self):
        with pytest.raises(ParseError, match="service"):
            parse_spec("[system]\narrival_rates = 1\nservice = weibull(k=2)\n")


# each integer key, in a spec that reads it
INTEGER_KEYS = {
    "points": "[sweep]\naxis = theta\nstart = 0\nstop = 1\npoints = {}\n",
    "delivered": "[simulation]\ndelivered = {}\n",
    "seed": "[simulation]\nseed = {}\n",
    "replications": "[simulation]\nreplications = {}\n",
    "batches": "[simulation]\nbatches = {}\n",
}


class TestIntegerKeys:
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    @pytest.mark.parametrize("value", ["2.5e0", "1e400", "nan", "many"])
    def test_non_integers_rejected(self, key, value):
        with pytest.raises(ParseError, match=key):
            parse_spec(MINIMAL + INTEGER_KEYS[key].format(value))

    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_exponent_notation_of_an_integer(self, key):
        spec = parse_spec(MINIMAL + INTEGER_KEYS[key].format("2e1"))
        got = {"points": spec.grid and spec.grid[2], "delivered": spec.sim.delivered_per_source,
               "seed": spec.sim.seed, "replications": spec.sim.replications,
               "batches": spec.sim.batches}[key]
        assert got == 20 and type(got) is int

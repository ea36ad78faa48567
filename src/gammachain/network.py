"""Regional latency network simulator for fork-propagation races.

The network holds one latency weight per node pair, with the sentinel value
1e7 marking an inactive link. Initial weights are Pareto draws around
region-pair means; each evolution step resamples which links are active,
scores nodes by eigenvector centrality of the sampled adjacency, and applies
a skew-normal multiplicative shock whose asymmetry grows with the combined
centrality of the endpoints. Racing shortest-path propagation from an
attacker node and an honest node yields the fork-following fraction gamma,
and repeating this over a sampling schedule yields a gamma time series.

Determinism contract: a run consumes a single seeded generator in a fixed
draw order. Initialization draws one dropout uniform per node pair in
row-major upper-triangle order, then one Pareto uniform per pair, then the
first attacker/honest pair. Every later step draws one adjacency uniform per
pair, then two blocks of standard normals (all pairs each, consumed by the
perturbation whether or not a given pair uses one), then its attacker/honest
pair. The second node of a pair is redrawn until it differs from the first.
Both normal blocks come from one call of twice the length: the generator
fills an array in order, so the first half and the second half are the two
blocks that two separate calls would return.

The simulation loop keeps the network as its flat pair vector, in the same
upper-triangle order, and never builds a ``NetworkState``; the public
functions expand and flatten states around the very helpers the loop calls.
The loop owns one node-by-node matrix with a unit diagonal: each evolution
step writes the sampled adjacency into its off-diagonal entries, and each
race overwrites them with the weights. The diagonal gives the adjacency its
self-loops and does not affect the race; the public functions race a
state's own weight matrix. The race is a radius-batched Dijkstra in numpy
from both nodes; unreachable nodes, and nodes whose cheapest path costs at
least the sentinel, report exactly 1e7 and tie. Every weight is at least
1.0, so fl(d + w) > d and the float distances match a plain dense-matrix
Dijkstra bit for bit (see ``_kernels``).

Centrality note: the adjacency derived from a weight matrix marks every
finite entry as an edge, and the zero diagonal is finite, so nodes carry
self-loops. The same convention is applied to the freshly sampled adjacency
inside the evolution step. Self-loops shift every eigenvalue by one without
changing eigenvectors, which keeps power iteration convergent on connected
bipartite graphs where the plain adjacency would oscillate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._frozen import ArrayEq, readonly
from ._kernels import (
    INACTIVE,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    fill_off_diagonal,
    pair_indices,
    perturb_weights,
    race_latencies,
)

_POWER_ITERATIONS = 50
_POWER_TOL = 1e-5

REGION_NAMES = (
    "NORTH_AMERICA",
    "EUROPE",
    "SOUTH_AMERICA",
    "ASIA_PACIFIC",
    "JAPAN",
    "AUSTRALIA",
)
DEFAULT_NODE_COUNTS = (33, 50, 1, 12, 2, 2)
DEFAULT_MEAN_LATENCY = (
    (32.0, 124.0, 184.0, 198.0, 151.0, 189.0),
    (124.0, 11.0, 227.0, 237.0, 252.0, 294.0),
    (184.0, 227.0, 88.0, 325.0, 301.0, 322.0),
    (198.0, 237.0, 325.0, 85.0, 58.0, 198.0),
    (151.0, 252.0, 301.0, 58.0, 12.0, 126.0),
    (189.0, 294.0, 322.0, 198.0, 126.0, 16.0),
)


@dataclass(frozen=True, eq=False)
class RegionConfig(ArrayEq):
    """Region layout: names, node counts per region, mean latency matrix.

    Raises
    ------
    ValueError
        If the field lengths disagree, a node count is negative or not a
        whole number, or the latency matrix is not symmetric with finite
        positive entries.
    """

    region_names: tuple[str, ...] = REGION_NAMES
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    mean_latency: np.ndarray = DEFAULT_MEAN_LATENCY

    def __post_init__(self):
        names = tuple(str(n) for n in self.region_names)
        counts = tuple(int(c) for c in self.node_counts)
        if counts != tuple(self.node_counts):
            raise ValueError("node counts must be whole numbers")
        matrix = readonly(self.mean_latency)
        object.__setattr__(self, "region_names", names)
        object.__setattr__(self, "node_counts", counts)
        object.__setattr__(self, "mean_latency", matrix)
        k = len(names)
        if len(counts) != k:
            raise ValueError("node_counts length must match region_names")
        if matrix.shape != (k, k):
            raise ValueError("mean_latency must be square over the regions")
        if any(c < 0 for c in counts):
            raise ValueError("node counts must be non-negative")
        if sum(counts) < 1:
            raise ValueError("at least one node is required")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("mean latencies must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("mean_latency must be symmetric")
        if np.any(matrix <= 0):
            raise ValueError("mean latencies must be positive")

    @property
    def node_count(self) -> int:
        return sum(self.node_counts)

    def region_assignment(self) -> np.ndarray:
        """Region index of each node, regions laid out contiguously."""
        return np.repeat(np.arange(len(self.node_counts)), self.node_counts)

    def scaled_to(self, total: int) -> "RegionConfig":
        """Same region proportions rescaled to ``total`` nodes.

        Counts are apportioned by largest remainder so they sum exactly to
        ``total`` while preserving relative region sizes.
        """
        if total < 1:
            raise ValueError("total node count must be positive")
        if total == self.node_count:
            return self
        exact = np.asarray(self.node_counts, dtype=float) * total / self.node_count
        floors = np.floor(exact).astype(int)
        shortfall = total - int(floors.sum())
        order = np.argsort(-(exact - floors), kind="stable")
        for idx in order[:shortfall]:
            floors[idx] += 1
        return RegionConfig(self.region_names, tuple(int(c) for c in floors), self.mean_latency)

    def to_json_obj(self) -> dict:
        return {
            "region_names": list(self.region_names),
            "node_counts": list(self.node_counts),
            "mean_latency": [[float(v) for v in row] for row in self.mean_latency],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegionConfig":
        return cls(
            tuple(obj["region_names"]),
            tuple(obj["node_counts"]),
            np.asarray(obj["mean_latency"], dtype=float),
        )


def default_region_config() -> RegionConfig:
    """The six-region, 100-node default layout."""
    return RegionConfig()


@dataclass(frozen=True, eq=False)
class NetworkState(ArrayEq):
    """Immutable latency snapshot: symmetric weights plus region assignment.

    Raises
    ------
    ValueError
        If the weight matrix is not symmetric with a zero diagonal, or any
        off-diagonal entry is neither the sentinel nor a finite weight in
        [WEIGHT_FLOOR, WEIGHT_CEIL].
    """

    weights: np.ndarray
    region_of: np.ndarray

    def __post_init__(self):
        weights = readonly(self.weights)
        region_of = readonly(self.region_of, dtype=np.int64)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "region_of", region_of)
        n = weights.shape[0]
        if weights.ndim != 2 or weights.shape != (n, n):
            raise ValueError("weights must be a square matrix")
        if region_of.shape != (n,):
            raise ValueError("region assignment must cover every node")
        if not np.array_equal(weights, weights.T):
            raise ValueError("weights must be symmetric")
        if np.any(np.diag(weights) != 0.0):
            raise ValueError("diagonal must be zero")
        off = ~np.eye(n, dtype=bool)
        vals = weights[off]
        finite = vals < INACTIVE
        if np.any(vals[~finite] != INACTIVE):
            raise ValueError(f"inactive links must use the sentinel {INACTIVE}")
        if np.any((vals[finite] < WEIGHT_FLOOR) | (vals[finite] > WEIGHT_CEIL)):
            raise ValueError(f"finite weights must lie in [{WEIGHT_FLOOR}, {WEIGHT_CEIL}]")

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class CentralityVector(ArrayEq):
    """Non-negative node scores, L2-normalized."""

    scores: np.ndarray

    def __post_init__(self):
        scores = readonly(self.scores)
        object.__setattr__(self, "scores", scores)
        if np.any(scores < 0):
            raise ValueError("centrality scores must be non-negative")


@dataclass(frozen=True, eq=False)
class GammaSeries(ArrayEq):
    """Gamma samples over a strictly increasing time schedule.

    Raises
    ------
    ValueError
        If the series is empty, lengths differ, a time is not finite, times
        are not strictly increasing, or a value is not in [0, 1] (NaN
        included).
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = readonly(self.times)
        values = readonly(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if len(times) == 0:
            raise ValueError("series must contain at least one sample")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all((values >= 0) & (values <= 1)):
            raise ValueError("gamma values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        # repr of a python float is the shortest exact round-trip form
        lines = ["time,gamma"]
        lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(self.times, self.values)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path) -> "GammaSeries":
        """Read a series file: the header ``time,gamma``, then one ``time,gamma`` row a line."""
        with open(path, encoding="utf-8") as fh:
            lines = enumerate(map(str.strip, fh), 1)
            skip, header = next((item for item in lines if item[1]), (0, ""))
            if header != "time,gamma":
                raise ValueError("series CSV must start with the header 'time,gamma'")
            if not any(text for _, text in lines):
                raise ValueError("series must contain at least one sample")
        # numpy reads a path in one pass of its C reader (a bare header would warn, hence the
        # check above); it skips blank lines and raises on a bad token or a changed field count
        rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip, encoding="utf-8")
        if rows.shape[1] != 2:
            raise ValueError("series CSV rows must hold two fields, time and gamma")
        return cls(rows[:, 0], rows[:, 1])


def _pair_means(config: RegionConfig, region_of: np.ndarray) -> np.ndarray:
    rows, cols = pair_indices(len(region_of))
    return config.mean_latency[region_of[rows], region_of[cols]]


def _initial_flat(config: RegionConfig, dropout: float, rng: np.random.Generator):
    """Validated initial draw: node regions, pair means and flat weights."""
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout must lie in [0, 1)")
    if np.any(config.mean_latency <= 5.0):
        raise ValueError("regional means must exceed 5")
    region_of = config.region_assignment()
    means = _pair_means(config, region_of)
    drop_uniforms = rng.random(len(means))
    pareto_uniforms = rng.random(len(means))
    shape = 0.2 * means
    scale = means - 5.0
    drawn = scale / pareto_uniforms ** (1.0 / shape)
    drawn = np.minimum(np.maximum(drawn, WEIGHT_FLOOR), WEIGHT_CEIL)
    return region_of, means, np.where(drop_uniforms < dropout, INACTIVE, drawn)


def init_network(config: RegionConfig | None = None, dropout: float = 0.1, seed=None) -> NetworkState:
    """Draw the initial latency network.

    Each unordered node pair is inactive with probability ``dropout``;
    otherwise its weight is the Pareto draw scale / U**(1/shape) with
    shape = 0.2 * mean and scale = mean - 5 for the pair's regional mean.

    Parameters
    ----------
    config : RegionConfig, optional
        Defaults to the six-region, 100-node layout.
    dropout : float
        Inactive-link probability, in [0, 1).
    seed : int, Generator or None
        Seed or generator; a generator is consumed in place.

    Raises
    ------
    ValueError
        If dropout is outside [0, 1) or any regional mean is 5 or less
        (the Pareto scale would not be positive).
    """
    config = config or default_region_config()
    region_of, _, flat = _initial_flat(config, dropout, np.random.default_rng(seed))
    n = config.node_count
    return NetworkState(fill_off_diagonal(np.zeros((n, n)), flat), region_of)


def _power_iteration(adjacency: np.ndarray) -> np.ndarray:
    """Dominant-eigenvector estimate with the fixed iteration budget.

    Starts uniform, runs at most 50 matrix-vector products, L2-normalizes
    each iterate, and stops when the L1 change drops below V * 1e-5. An
    all-zero iterate short-circuits to the uniform unit vector. If the
    budget runs out the last iterate is returned unchanged.
    """
    n = adjacency.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(_POWER_ITERATIONS):
        previous = x
        x = adjacency @ x
        norm = math.sqrt(np.add.reduce(x * x))
        if norm == 0.0:
            return np.full(n, 1.0) / np.sqrt(n)
        x = x / norm
        if np.add.reduce(np.abs(x - previous)) < n * _POWER_TOL:
            return x
    return x


def eigenvector_centrality(state: NetworkState) -> CentralityVector:
    """Centrality scores from the boolean adjacency of finite weights.

    Every finite entry counts as an edge, so the zero diagonal contributes
    self-loops (see the module docstring for why that is kept).
    """
    adjacency = (state.weights < INACTIVE).astype(float)
    return CentralityVector(_power_iteration(adjacency))


def sample_skew_normal(shape: float, seed=None) -> float:
    """One standard skew-normal draw via the two-normal construction.

    With delta = shape / sqrt(1 + shape**2) and independent standard
    normals u0, u1, the draw is delta * |u0| + sqrt(1 - delta**2) * u1.
    """
    rng = np.random.default_rng(seed)
    delta = shape / np.sqrt(1.0 + shape * shape)
    u0 = rng.standard_normal()
    u1 = rng.standard_normal()
    return float(delta * abs(u0) + np.sqrt(1.0 - delta * delta) * u1)


def _check_activation(activation: float) -> None:
    if not 0.0 <= activation <= 1.0:
        raise ValueError("activation must lie in [0, 1]")


def _evolve_flat(flat, means, delta_t, activation, rng, adjacency) -> np.ndarray:
    """One evolution step on the flat pair vector; returns the new vector.

    ``adjacency`` is a node-by-node buffer with a unit diagonal; every
    off-diagonal entry is overwritten with the links sampled in this step.
    """
    n = len(adjacency)
    _, cols = pair_indices(n)
    active = rng.random(len(cols)) < activation
    fill_off_diagonal(adjacency, active)
    omega = _power_iteration(adjacency)
    u0, u1 = rng.standard_normal(2 * len(cols)).reshape(2, -1)
    # in pair order the row index is n - 1 zeros, then n - 2 ones, and so on
    omega_sum = np.repeat(omega[:-1], np.arange(n - 1, 0, -1)) + omega[cols]
    return perturb_weights(flat, means, omega_sum, u0, u1, float(delta_t), active)


def evolve_network(
    prev: NetworkState,
    delta_t: float,
    config: RegionConfig | None = None,
    activation: float = 0.9,
    seed=None,
) -> NetworkState:
    """One stochastic evolution step; returns a new state.

    Samples a fresh adjacency with edge probability ``activation``, scores
    nodes by eigenvector centrality of that adjacency, then updates every
    pair: a finite link that stays active scales by (1 + delta_t * S) with
    S skew-normal of shape 3 * (omega_i + omega_j); a finite link sampled
    inactive becomes the sentinel; an inactive link restarts from its
    regional mean with the same scaling, regardless of the sampled
    adjacency. Finite results are clamped into [1.0, 1e7 - 1].

    Raises
    ------
    ValueError
        If delta_t <= 0, activation is outside [0, 1], or the config does
        not match the state's node regions.
    """
    config = config or default_region_config()
    if not delta_t > 0:
        raise ValueError("delta_t must be positive")
    _check_activation(activation)
    if not np.array_equal(config.region_assignment(), prev.region_of):
        raise ValueError("config region layout does not match the network state")
    n = prev.node_count
    rows, cols = pair_indices(n)
    means = _pair_means(config, prev.region_of)
    rng = np.random.default_rng(seed)
    flat = _evolve_flat(prev.weights[rows, cols], means, delta_t, activation, rng, np.eye(n))
    return NetworkState(fill_off_diagonal(np.zeros((n, n)), flat), prev.region_of)


def _check_node(node: int, node_count: int) -> None:
    if not 0 <= node < node_count:
        raise ValueError(f"node {node} out of range for {node_count} nodes")


def shortest_latencies(state: NetworkState, source: int) -> np.ndarray:
    """Shortest-path latencies from ``source`` over finite-weight links.

    Unreachable nodes, and nodes whose cheapest path costs at least the
    sentinel, report exactly 1e7.

    Raises
    ------
    ValueError
        If ``source`` is out of range.
    """
    _check_node(source, state.node_count)
    return race_latencies(state.weights, [source])[0]


def _gamma(weights: np.ndarray, attacker: int, honest: int) -> float:
    dist_attacker, dist_honest = race_latencies(weights, [attacker, honest])
    closer = dist_attacker < dist_honest
    closer[attacker] = closer[honest] = False
    return np.count_nonzero(closer) / len(weights)


def gamma_of(state: NetworkState, attacker: int, honest: int) -> float:
    """Fraction of other nodes strictly closer to the attacker.

    Counts nodes outside the pair whose shortest latency to the attacker is
    strictly below their latency to the honest node, divided by the total
    node count, so the result never exceeds (V - 2) / V. Ties, including
    nodes neither side reaches, count for the honest node.

    Raises
    ------
    ValueError
        If the two nodes coincide or either is out of range.
    """
    if attacker == honest:
        raise ValueError("attacker and honest node must differ")
    _check_node(attacker, state.node_count)
    _check_node(honest, state.node_count)
    return _gamma(state.weights, attacker, honest)


def _draw_node_pair(rng: np.random.Generator, node_count: int) -> tuple[int, int]:
    if node_count < 2:
        raise ValueError("need at least two nodes to race propagation")
    first = int(rng.integers(0, node_count))
    second = int(rng.integers(0, node_count))
    while second == first:
        second = int(rng.integers(0, node_count))
    return first, second


def simulate_gamma_series(
    schedule,
    seed=None,
    config: RegionConfig | None = None,
    dropout: float = 0.1,
    activation: float = 0.9,
) -> GammaSeries:
    """Simulate gamma over a sampling schedule; deterministic given the seed.

    Initializes the network, races a fresh attacker/honest pair for the
    first sample, then alternates evolution steps (with delta_t equal to
    the schedule gap) and races for the remaining samples. Equal to
    replaying ``init_network``, ``evolve_network`` and ``gamma_of`` on one
    generator, without building a ``NetworkState`` per step.

    Parameters
    ----------
    schedule : array-like
        Strictly increasing finite sample times, at least one.
    seed : int, Generator or None
    config : RegionConfig, optional
    dropout, activation : float
        Link probabilities for initialization and evolution.

    Raises
    ------
    ValueError
        If the schedule is empty, not finite or not strictly increasing,
        or a link probability is out of range.
    """
    times = np.asarray(schedule, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("schedule must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0):
        raise ValueError("schedule must be finite and strictly increasing")
    _check_activation(activation)
    config = config or default_region_config()
    rng = np.random.default_rng(seed)
    n = config.node_count

    _, means, flat = _initial_flat(config, dropout, rng)
    # the evolution step's adjacency, then the race's weights
    matrix = np.eye(n)
    gaps = np.diff(times)
    values = np.empty(len(times))
    for step in range(len(times)):
        if step:
            flat = _evolve_flat(flat, means, gaps[step - 1], activation, rng, matrix)
        attacker, honest = _draw_node_pair(rng, n)
        values[step] = _gamma(fill_off_diagonal(matrix, flat), attacker, honest)
    return GammaSeries(times, values)


def moving_average(series: GammaSeries) -> GammaSeries:
    """Cumulative mean of the series, times preserved."""
    counts = np.arange(1, len(series) + 1, dtype=float)
    return GammaSeries(series.times, np.cumsum(series.values) / counts)

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
draw order, and only three functions draw from it: ``_initial_flat`` once,
then, per step, ``_link_draws`` (skipped before the first race) and
``_draw_node_pair``. The state update takes their arrays and draws nothing.

A network is its pair vector everywhere: one weight per unordered node pair in
``np.triu_indices(n, 1)`` order. A ``NetworkState`` holds that vector, and the
simulation loop evolves it without building a state. A node-by-node matrix
exists only for the race and the centrality adjacency; ``fill_off_diagonal``
writes both through a ``pair_layout``, which the loop builds once and drops on
return, and the one-call functions share from ``shared_layout``. The loop
reuses one matrix with a unit diagonal: each evolution step writes the sampled
adjacency into its off-diagonal entries, and each race overwrites them with the
weights. The unit diagonal gives the adjacency self-loops, which shift every
eigenvalue by one without changing eigenvectors and so keep power iteration
convergent on connected bipartite graphs; it does not affect the race. The race
is a radius-batched Dijkstra in numpy from both nodes. It ends when its last
pending nodes settle, without relaxing their rows, or when the settle bound
reaches the sentinel; unreachable nodes, and nodes whose cheapest path costs at
least the sentinel, report exactly 1e7 and tie. Every weight is at least 1.0,
so fl(d + w) > d and the float distances match a plain dense-matrix Dijkstra
bit for bit (see ``_kernels``).
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import ACTIVATION, DROPOUT, frozen, numbers
from ._frozen import check_activation, check_delta_t, check_dropout, check_nodes, check_shape
from ._kernels import (
    INACTIVE,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    fill_off_diagonal,
    pair_ends,
    pair_layout,
    perturb_weights,
    race_latencies,
    shared_layout,
    skew_normal,
)
from .inference import GammaSeries, checked_times

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


@frozen
class RegionConfig:
    """Region layout: names, node counts per region, mean latency matrix.

    Raises
    ------
    ValueError
        If a cell is not a real number (text, a bool, None or a list), a node
        count is not a whole number in int64 or is negative, the names are
        not distinct strings, the field lengths disagree, or the latency matrix
        is not symmetric and finite above 5 (the Pareto scale is mean - 5).
    """

    region_names: tuple[str, ...] = REGION_NAMES
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    mean_latency: np.ndarray = DEFAULT_MEAN_LATENCY

    def __post_init__(self):
        names = self.region_names
        if isinstance(names, str):
            raise ValueError("region names must be a list, not a string")
        if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
            raise ValueError("region names must be a list of strings")
        names = tuple(names)
        counts = numbers(self.node_counts, "node counts", np.int64)
        cells = np.asarray(self.mean_latency, dtype=object)  # keeps a ragged matrix's shape for the square rule
        k = len(names)
        if len(set(names)) != k:
            raise ValueError("region names must be distinct")
        if counts.ndim != 1 or len(counts) != k:
            raise ValueError("node_counts length must match region_names")
        if cells.shape != (k, k):
            raise ValueError("mean_latency must be square over the regions")
        matrix, counts = numbers(cells, "mean latencies"), tuple(counts.tolist())
        object.__setattr__(self, "region_names", names)
        object.__setattr__(self, "node_counts", counts)
        object.__setattr__(self, "mean_latency", matrix)
        if any(c < 0 for c in counts):
            raise ValueError("node counts must be non-negative")
        if sum(counts) < 1:
            raise ValueError("at least one node is required")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("mean latencies must be finite")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("mean_latency must be symmetric")
        if np.any(matrix <= 5.0):
            raise ValueError("mean latencies must exceed 5")

    @property
    def node_count(self) -> int:
        return sum(self.node_counts)

    def region_assignment(self) -> np.ndarray:
        """Region index of each node, regions laid out contiguously."""
        return np.repeat(np.arange(len(self.node_counts)), self.node_counts)

    def scaled_to(self, total: int) -> "RegionConfig":
        """Same region proportions rescaled to ``total`` nodes, a positive integer.

        Largest remainder, exactly and in integers: each region gets the whole
        part of its share of ``total``, and the nodes left over go one each to
        the largest remainders, a tie to the earlier region (a stable sort).
        """
        if isinstance(total, bool) or not isinstance(total, (int, np.integer)):
            raise ValueError(f"total node count {total!r} is not an integer")
        if total < 1:
            raise ValueError("total node count must be positive")
        shares = [divmod(c * int(total), self.node_count) for c in self.node_counts]
        counts = [whole for whole, _ in shares]
        for region in sorted(range(len(shares)), key=lambda r: -shares[r][1])[: total - sum(counts)]:
            counts[region] += 1
        return RegionConfig(self.region_names, tuple(counts), self.mean_latency)

    def to_json_obj(self) -> dict:
        return {
            "region_names": list(self.region_names),
            "node_counts": list(self.node_counts),
            "mean_latency": [[float(v) for v in row] for row in self.mean_latency],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RegionConfig":
        return cls(obj["region_names"], obj["node_counts"], obj["mean_latency"])


def default_region_config() -> RegionConfig:
    """The six-region, 100-node default layout."""
    return RegionConfig()


@frozen
class NetworkState:
    """Immutable latency snapshot: the pair vector ``flat`` plus each node's region.

    ``flat`` holds one weight per unordered node pair in upper-triangle order,
    the sentinel marking an inactive link; ``weights`` expands it through the
    shared ``pair_layout`` into the symmetric matrix, zero on the diagonal, that the race reads.

    Raises
    ------
    ValueError
        If a cell is not a real number, ``region_of`` is not a vector of
        non-negative whole numbers, ``flat`` does not hold one weight per node
        pair, or a weight is neither the sentinel nor in [WEIGHT_FLOOR, WEIGHT_CEIL].
    """

    flat: np.ndarray
    region_of: np.ndarray

    def __post_init__(self):
        flat = numbers(self.flat, "pair weights")
        region_of = numbers(self.region_of, "region assignment", np.int64)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "region_of", region_of)
        # len() of a 0-d array raises TypeError
        if region_of.ndim != 1:
            raise ValueError("region assignment must be a vector")
        if np.any(region_of < 0):
            raise ValueError("region assignment must be non-negative")
        n = len(region_of)
        if flat.shape != (n * (n - 1) // 2,):
            raise ValueError("flat must hold one weight per node pair")
        finite = flat < INACTIVE
        if np.any(flat[~finite] != INACTIVE):
            raise ValueError(f"inactive links must use the sentinel {INACTIVE}")
        if np.any((flat[finite] < WEIGHT_FLOOR) | (flat[finite] > WEIGHT_CEIL)):
            raise ValueError(f"finite weights must lie in [{WEIGHT_FLOOR}, {WEIGHT_CEIL}]")

    @property
    def node_count(self) -> int:
        return len(self.region_of)

    @property
    def weights(self) -> np.ndarray:
        """The read-only symmetric weight matrix, zero on the diagonal, built on each access."""
        n = self.node_count
        matrix = fill_off_diagonal(np.zeros((n, n)), self.flat, shared_layout(n)[1])
        matrix.setflags(write=False)
        return matrix


def _initial_flat(config: RegionConfig, dropout: float, rng: np.random.Generator, cols: np.ndarray):
    """Validated initial draw over ``pair_layout`` columns: node regions, pair means and flat weights."""
    dropout = check_dropout(dropout)
    region_of = config.region_assignment()
    means = config.mean_latency[pair_ends(region_of, cols)]
    drop_uniforms = rng.random(len(means))
    pareto_uniforms = rng.random(len(means))
    shape = 0.2 * means
    scale = means - 5.0
    drawn = np.clip(scale / pareto_uniforms ** (1.0 / shape), WEIGHT_FLOOR, WEIGHT_CEIL)
    return region_of, means, np.where(drop_uniforms < dropout, INACTIVE, drawn)


def init_network(config: RegionConfig = default_region_config(), dropout: float = DROPOUT, seed=None) -> NetworkState:
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
        If dropout is not a real number in [0, 1).
    """
    cols = shared_layout(config.node_count)[0]
    region_of, _, flat = _initial_flat(config, dropout, np.random.default_rng(seed), cols)
    return NetworkState(flat, region_of)


def _power_iteration(adjacency: np.ndarray) -> np.ndarray:
    """Dominant-eigenvector estimate with the fixed iteration budget.

    Starts uniform, runs at most 50 matrix-vector products, L2-normalizes
    each iterate, and stops when the L1 change drops below V * 1e-5. If the
    budget runs out the last iterate is returned unchanged. ``adjacency``
    must have a unit diagonal and non-negative entries, as both callers'
    matrices do: then (I + A) x >= x > 0, so no iterate has norm zero.
    """
    n = adjacency.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(_POWER_ITERATIONS):
        previous = x
        x = adjacency @ x
        x = x / math.sqrt(np.add.reduce(x * x))
        if np.add.reduce(np.abs(x - previous)) < n * _POWER_TOL:
            return x
    return x


def eigenvector_centrality(state: NetworkState) -> np.ndarray:
    """Read-only, non-negative, L2-normalized node scores of the state's finite links.

    Each finite pair is an edge, on the evolution step's unit diagonal (see
    the module docstring); the step itself scores its sampled ``active`` draws.
    """
    n = state.node_count
    centrality = _power_iteration(fill_off_diagonal(np.eye(n), state.flat < INACTIVE, shared_layout(n)[1]))
    centrality.setflags(write=False)
    return centrality


def sample_skew_normal(shape: float, seed=None) -> float:
    """One skew-normal draw of ``shape``, a real number with a finite square: ``_kernels.skew_normal``."""
    shape = check_shape(shape)
    u0, u1 = np.random.default_rng(seed).standard_normal((2, 1))
    return float(skew_normal(np.full(1, shape, dtype=float), u0, u1)[0])


def _link_draws(rng: np.random.Generator, pair_count: int, activation: float):
    """One evolution step's draws in draw order, ``(active, u0, u1)``, each with one entry per pair."""
    active = rng.random(pair_count) < activation
    # one call fills in order, so its halves are the blocks two calls would return
    u0, u1 = rng.standard_normal(2 * pair_count).reshape(2, -1)
    return active, u0, u1


def _evolve_flat(flat, means, delta_t, draws, adjacency, layout) -> np.ndarray:
    """One evolution step on the flat pair vector with ``_link_draws`` output; returns the new vector.

    ``adjacency`` is a node-by-node buffer with a unit diagonal; every
    off-diagonal entry is overwritten with the sampled links, through ``layout``, the network's ``pair_layout``.
    """
    active, u0, u1 = draws
    cols, entries = layout
    fill_off_diagonal(adjacency, active, entries)
    omega = _power_iteration(adjacency)
    omega_sum = np.add(*pair_ends(omega, cols))
    return perturb_weights(flat, means, omega_sum, u0, u1, float(delta_t), active)


def evolve_network(
    prev: NetworkState,
    delta_t: float,
    config: RegionConfig = default_region_config(),
    activation: float = ACTIVATION,
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
        If delta_t is not a positive, finite real number, activation is not
        one in [0, 1], or the config does not match the state's node regions.
    """
    delta_t, activation = check_delta_t(delta_t), check_activation(activation)
    if not np.array_equal(config.region_assignment(), prev.region_of):
        raise ValueError("config region layout does not match the network state")
    layout = shared_layout(prev.node_count)
    means = config.mean_latency[pair_ends(prev.region_of, layout[0])]
    draws = _link_draws(np.random.default_rng(seed), len(means), activation)
    flat = _evolve_flat(prev.flat, means, delta_t, draws, np.eye(prev.node_count), layout)
    return NetworkState(flat, prev.region_of)


def _check_node(node: int, node_count: int) -> None:
    # a bool is an int, and numpy would index a float with an IndexError
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)) or not 0 <= node < node_count:
        raise ValueError(f"node {node} is not an integer in [0, {node_count})")


def shortest_latencies(state: NetworkState, source: int) -> np.ndarray:
    """Shortest-path latencies from ``source`` over finite-weight links.

    Unreachable nodes, and nodes whose cheapest path costs at least the
    sentinel, report exactly 1e7.

    Raises
    ------
    ValueError
        If ``source`` is not an in-range integer.
    """
    _check_node(source, state.node_count)
    return race_latencies(state.weights, source)


def _gamma(weights: np.ndarray, attacker: int, honest: int) -> float:
    closer = race_latencies(weights, attacker) < race_latencies(weights, honest)
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
        If the two nodes coincide or either is not an in-range integer.
    """
    _check_node(attacker, state.node_count)
    _check_node(honest, state.node_count)
    if attacker == honest:
        raise ValueError("attacker and honest node must differ")
    return _gamma(state.weights, attacker, honest)


def _draw_node_pair(rng: np.random.Generator, node_count: int) -> tuple[int, int]:
    first = int(rng.integers(0, node_count))
    second = int(rng.integers(0, node_count))
    while second == first:
        second = int(rng.integers(0, node_count))
    return first, second


def simulate_gamma_series(
    schedule,
    seed=None,
    config: RegionConfig = default_region_config(),
    dropout: float = DROPOUT,
    activation: float = ACTIVATION,
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
        If the schedule is empty, not finite, not strictly increasing or wider than
        a float, a link probability is out of range, or the config has one node.
    """
    times = checked_times(schedule)
    if len(times) > 1:
        # every gap is positive and none exceeds the span; python floats overflow to inf without a warning
        check_delta_t(float(times[-1]) - float(times[0]))
    activation, n = check_activation(activation), check_nodes(config.node_count)
    rng = np.random.default_rng(seed)

    # this series' own index tables, dropped when it returns
    layout = pair_layout(n)
    _, means, flat = _initial_flat(config, dropout, rng, layout[0])
    # the evolution step's adjacency, then the race's weights
    matrix = np.eye(n)
    gaps = np.diff(times)
    values = np.empty(len(times))
    for step in range(len(times)):
        if step:
            draws = _link_draws(rng, len(means), activation)
            flat = _evolve_flat(flat, means, gaps[step - 1], draws, matrix, layout)
        attacker, honest = _draw_node_pair(rng, n)
        values[step] = _gamma(fill_off_diagonal(matrix, flat, layout[1]), attacker, honest)
    return GammaSeries(times, values)

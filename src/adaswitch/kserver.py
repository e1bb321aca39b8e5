"""k mobile servers on a finite metric space; caching as the uniform case.

Each period brings one request point (or the empty request).  Serving moves
one chosen server to the request and costs the moved distance; distances
live in [0, 1] so L = 1 and the objective is minimization.  The exact
offline solver plans a uniform metric (caching) with Belady's
farthest-in-future rule in O(W k), and any other metric by reducing the
window to a minimum-cost maximum-flow over server-to-request chains, kept
as plain arc lists that the successive-shortest-path solver updates in
place; the switching runner needs a plan only when it replans.  The
conservative monitor and the whole-horizon optimum come from a running
value instead: greedy interval packing on a uniform metric, one step per
request, and the work function on any other, one table layer per request,
with the exact solver as the fallback where the work function would cost
more.
Two online policies are provided: the work function algorithm for general
metrics and the randomized marking rule for the uniform metric, both
restartable from any mid-stream configuration because a conditioned
instance is just a fresh instance started at the post-prefix configuration.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .framework import (
    MINIMIZE,
    ContractError,
    InvalidActionError,
    OracleTooLargeError,
    ProblemInstance,
    RequestSequence,
    Simulator,
    Trajectory,
    sequence_distance,
)
from . import switching
from .switching import (
    AdaSwitchConfig,
    CompetitiveReport,
    OfflineOracle,
    OnlineOracle,
    OnlinePolicy,
    WindowMonitor,
    theoretical_bound,
)

BOT = None  # the empty request


class MetricSpace:
    """Finite point set with a distance matrix in [0, 1].

    Symmetry, a zero diagonal and the triangle inequality are validated at
    construction.  The empty request sits at unit distance from every real
    point (and zero from itself).
    """

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[float]]):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point ids")
        self.index = {p: i for i, p in enumerate(self.points)}
        n = len(self.points)
        self.dist = [[float(dist[i][j]) for j in range(n)] for i in range(n)]
        self._validate()
        self.uniform_flag = all(
            self.dist[i][j] == 1.0
            for i in range(n) for j in range(n) if i != j)

    def _validate(self) -> None:
        n = len(self.points)
        for i in range(n):
            if self.dist[i][i] != 0.0:
                raise ValueError(f"nonzero self-distance at {self.points[i]}")
            for j in range(n):
                if not 0.0 <= self.dist[i][j] <= 1.0:
                    raise ValueError("distances must lie in [0, 1]")
                if self.dist[i][j] != self.dist[j][i]:
                    raise ValueError("distance matrix must be symmetric")
        for i in range(n):
            for j in range(n):
                for h in range(n):
                    if self.dist[i][j] > self.dist[i][h] + self.dist[h][j] + 1e-12:
                        raise ValueError(
                            f"triangle inequality fails on "
                            f"({self.points[i]}, {self.points[h]}, {self.points[j]})")

    @classmethod
    def uniform(cls, points: Sequence[str]) -> "MetricSpace":
        n = len(points)
        return cls(points, [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)])

    def d(self, a: Any, b: Any) -> float:
        if a is BOT or b is BOT:
            return 0.0 if a is b else 1.0
        return self.dist[self.index[a]][self.index[b]]


@dataclass(frozen=True)
class ServerConfig:
    positions: tuple

    def __post_init__(self):
        if not self.positions:
            raise ValueError("need at least one server")
        if any(p is BOT for p in self.positions):
            raise ValueError("servers cannot sit on the empty request")

    @property
    def k(self) -> int:
        return len(self.positions)


def _validate_kserver_action(k: int, t: int, action: Any) -> None:
    if not isinstance(action, int) or not 1 <= action <= k:
        raise InvalidActionError(t, action, f"server index must be in 1..{k}")


class KserverSimulator(Simulator):
    """A step moves the chosen server to the request and costs the moved
    distance; the empty request costs nothing, whatever the action."""

    def __init__(self, metric: MetricSpace, positions: Sequence[str]):
        self.metric = metric
        self.positions = list(positions)

    def step(self, t: int, request: Any, action: Any) -> float:
        _validate_kserver_action(len(self.positions), t, action)
        if request is BOT:
            return 0.0
        cost = self.metric.d(self.positions[action - 1], request)
        self.positions[action - 1] = request
        return cost

    def clone(self) -> "KserverSimulator":
        return KserverSimulator(self.metric, self.positions)


def problem_instance(metric: MetricSpace, initial: ServerConfig) -> ProblemInstance:
    k = initial.k

    def action_space(t, e):
        # Any server serves the empty request at zero cost; a single
        # placeholder keeps exhaustive search from branching on nothing.
        return [1] if e is BOT else list(range(1, k + 1))

    return ProblemInstance(
        name=f"kserver(k={k},n={len(metric.points)})",
        action_space=action_space,
        reward_bound=1.0,
        distance_fn=metric.d,
        lipschitz_u=2.0,
        lipschitz_v=2.0,
        influence_f=float(k),
        objective=MINIMIZE,
        simulator_factory=lambda: KserverSimulator(metric, initial.positions),
        estimate_m=lambda i, prediction: max(i, prediction.support_length),
        validate_action=lambda t, e, a: _validate_kserver_action(k, t, a),
    )


# ---------------------------------------------------------------------------
# Exact offline solver: Belady's rule on uniform metrics, a minimum-cost
# maximum-flow over service chains on all others.


def _min_cost_flow(head: list[list[int]], to: list[int], cap: list[int],
                   cost: list[float], source: int, sink: int, units: int) -> None:
    """Successive shortest paths with potentials, pushing flow by updating
    ``cap`` in place.  ``head[u]`` lists the arcs out of node ``u``; each
    forward arc ``idx`` is even and ``idx ^ 1`` is its residual twin, the
    reverse arc with capacity 0 and negated cost.  The network is acyclic in
    node order, so the initial potentials come from one topological pass;
    afterwards reduced costs stay nonnegative and Dijkstra applies."""
    n = len(head)
    heappush, heappop = heapq.heappush, heapq.heappop
    INF = math.inf
    potential = [INF] * n
    potential[source] = 0.0
    # Nodes are created in topological order (every arc goes forward).
    for u in range(n):
        p_u = potential[u]
        if p_u == INF:
            continue
        for idx in head[u]:
            v = to[idx]
            if cap[idx] > 0 and v > u:
                p_v = p_u + cost[idx]
                if p_v < potential[v]:
                    potential[v] = p_v
    for _ in range(units):
        dist = [INF] * n
        parent = [-1] * n
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d_u, u = heappop(heap)
            if d_u > dist[u] + 1e-12:
                continue
            d_u = dist[u]
            p_u = potential[u]
            for idx in head[u]:
                if cap[idx] <= 0:
                    continue
                v = to[idx]
                reduced = cost[idx] + p_u - potential[v]
                if reduced < 0:
                    reduced = 0.0  # numerical guard
                d_v = d_u + reduced
                if d_v < dist[v] - 1e-12:
                    dist[v] = d_v
                    parent[v] = idx
                    heappush(heap, (d_v, v))
        if dist[sink] == INF:
            raise RuntimeError("internal error: flow network infeasible")
        for v in range(n):
            if dist[v] < INF:
                potential[v] += dist[v]
        v = sink
        while v != source:
            idx = parent[v]
            cap[idx] -= 1
            cap[idx ^ 1] += 1
            v = to[idx ^ 1]


def offline_kserver(metric: MetricSpace, positions: Sequence[str],
                    window: Sequence[Any], t0: int = 1) -> tuple[float, list[int]]:
    """Exact minimum service cost for the window from the given positions,
    with a plan that attains it: Belady's rule on a uniform metric, the
    minimum-cost flow on any other.  Empty-request periods get server 1.
    Belady's cost is its count of misses, each a unit move; the flow's is
    its plan replayed through the simulator, so it is accumulated exactly."""
    if metric.uniform_flag:
        return _belady_plan(positions, window)
    actions = _flow_plan(metric, positions, window)
    sim = KserverSimulator(metric, positions)
    cost = 0.0
    for i, e in enumerate(window):
        cost += sim.step(t0 + i, e, actions[i])
    return cost, actions


def _belady_plan(positions: Sequence[str],
                 window: Sequence[Any]) -> tuple[float, list[int]]:
    """Farthest-in-future paging (Belady 1966), optimal when every move
    costs 1, with its cost: 1.0 per miss, since a miss moves a server to a
    point that no server holds.  A hit goes to the lowest-index server on
    the point; a miss moves the server whose point is needed farthest
    ahead, counting a point never needed again, and every copy of a point
    after its lowest-index server, as infinitely far; ties go to the lowest
    index.  Each choice depends only on the servers' points and the rest of
    the window, so a replan along the same window reproduces the plan's
    suffix."""
    k = len(positions)
    actions = [1] * len(window)
    nxt = [math.inf] * len(window)
    first: dict[Any, int] = {}  # after the pass: each point's first use
    for i in range(len(window) - 1, -1, -1):
        e = window[i]
        if e is not BOT:
            nxt[i] = first.get(e, math.inf)
            first[e] = i
    points = list(positions)
    holder: dict[Any, int] = {}  # point -> lowest-index server on it
    due = [math.inf] * k  # next use of each server's point
    for s, p in enumerate(points):
        if p not in holder:
            holder[p] = s
            due[s] = first.get(p, math.inf)
    cost = 0.0
    for i, e in enumerate(window):
        if e is BOT:
            continue
        s = holder.get(e)
        if s is None:
            cost += 1.0
            s = max(range(k), key=due.__getitem__)
            if holder.get(points[s]) == s:
                del holder[points[s]]
            holder[e] = s
            points[s] = e
        due[s] = nxt[i]
        actions[i] = s + 1
    return cost, actions


def _flow_plan(metric: MetricSpace, positions: Sequence[str],
               window: Sequence[Any]) -> list[int]:
    """Minimum-cost maximum-flow over service chains.  Source feeds the k
    servers; each request splits into an in/out pair whose arc carries a
    large negative cost so every request is served; out-nodes connect
    forward to later requests with movement costs.  The decoded chains give
    the per-request server assignments."""
    k = len(positions)
    reqs = [(i, e) for i, e in enumerate(window) if e is not BOT]
    actions = [1] * len(window)
    if not reqs:
        return actions
    W = len(reqs)
    bonus = float(W + k + 1)
    # node layout: 0 source | 1..k servers | then per request (in, out) | sink
    n_nodes = 1 + k + 2 * W + 1
    sink = n_nodes - 1
    head: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    cap: list[int] = []
    arc_cost: list[float] = []

    def add(u: int, v: int, c: int, w: float) -> int:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((c, 0))
        arc_cost.extend((w, -w))
        return len(to) - 2

    req_in = lambda j: 1 + k + 2 * j
    req_out = lambda j: 1 + k + 2 * j + 1
    # Movement costs come from rows of the distance matrix; requests are
    # real points here, where metric.d is exactly this lookup.
    dist, index = metric.dist, metric.index
    cols = [index[e] for _, e in reqs]
    for i in range(k):
        add(0, 1 + i, 1, 0.0)
        add(1 + i, sink, 1, 0.0)
        row = dist[index[positions[i]]]
        for j, col in enumerate(cols):
            add(1 + i, req_in(j), 1, row[col])
    service_arcs = []
    for j, col in enumerate(cols):
        service_arcs.append(add(req_in(j), req_out(j), 1, -bonus))
        out = req_out(j)
        add(out, sink, 1, 0.0)
        # The O(W^2) chain arcs, with add inlined.
        row = dist[col]
        out_head = head[out]
        idx = len(to)
        for v, col2 in zip(range(req_in(j + 1), sink, 2), cols[j + 1:]):
            d = row[col2]
            out_head.append(idx)
            head[v].append(idx + 1)
            idx += 2
            to += (v, out)
            cap += (1, 0)
            arc_cost += (d, -d)
    _min_cost_flow(head, to, cap, arc_cost, 0, sink, k)
    if any(cap[idx] != 0 for idx in service_arcs):
        raise RuntimeError("internal error: some request left unserved")
    # Decode chains: follow saturated forward arcs from each server node.
    for i in range(k):
        node = 1 + i
        while True:
            nxt = None
            for idx in head[node]:
                if idx % 2 == 0 and cap[idx] == 0 and to[idx] != sink:
                    target = to[idx]
                    if target > node and (target - (1 + k)) % 2 == 0:
                        nxt = target
                        break
            if nxt is None:
                break
            j = (nxt - (1 + k)) // 2
            actions[reqs[j][0]] = i + 1
            node = req_out(j)
    return actions


class KserverOfflineOracle(OfflineOracle):
    """Plans from :func:`offline_kserver` (Belady on uniform metrics, the
    flow elsewhere).  The window monitor, and whole-window values, come from
    :class:`PagingMonitor` on uniform metrics, from the work function on
    others where it is cheaper (see :class:`WorkFunctionMonitor`), and from
    re-solving elsewhere."""

    gamma = 1.0

    def __init__(self, metric: MetricSpace):
        self.metric = metric

    def solve(self, sim: Simulator, t0: int, window: Sequence[Any]) -> tuple[float, list]:
        return offline_kserver(self.metric, sim.positions, window, t0)

    def _work_function_fits(self, k: int) -> bool:
        if k > _MAX_MATCHING_K:
            return False
        configs = math.comb(len(self.metric.points) + k - 2, k - 1)
        return configs ** 2 * math.factorial(k) <= _WORK_FUNCTION_MAX_STEP

    def monitor(self, sim: Simulator, t0: int) -> WindowMonitor:
        if self.metric.uniform_flag:
            return PagingMonitor(sim.positions)
        if self._work_function_fits(len(sim.positions)):
            return WorkFunctionMonitor(self.metric, sim.positions)
        return super().monitor(sim, t0)


class PagingMonitor(WindowMonitor):
    """Window optimum on a uniform metric (caching): the fewest misses.  A
    hit on page p at period i keeps p cached over the open interval (j, i),
    where j is p's previous request, or t0 - 1 for a start page; a set of
    hits can be realized iff fewer than k kept pages span each request
    period and at most k span each empty one.  Intervals arrive in order of
    their right ends, where accepting each one that fits is optimal
    (Carlisle and Lloyd 1995), so an append is one greedy step in
    O(reuse distance) and no earlier choice changes."""

    def __init__(self, positions: Sequence[str]):
        self.k = len(positions)
        self.last = {p: -1 for p in positions}  # latest request, as a window index
        self.free: list[int] = []  # room left for kept pages at each period
        self.value = 0.0

    def append(self, t: int, request: Any) -> float:
        free = self.free
        if request is BOT:
            free.append(self.k)
            return self.value
        i = len(free)
        j = self.last.get(request)
        if j is not None and 0 not in free[j + 1:i]:
            for r in range(j + 1, i):
                free[r] -= 1
        else:
            self.value += 1.0
        self.last[request] = i
        free.append(self.k - 1)
        return self.value


# ---------------------------------------------------------------------------
# Work function algorithm (general metrics).


_MAX_MATCHING_K = 6


def config_distance(metric: MetricSpace, a: Sequence[str], b: Sequence[str]) -> float:
    """Cheapest total movement from one configuration to another: a minimum
    cost perfect matching, exact by permutation search (small k)."""
    k = len(a)
    if k != len(b):
        raise ValueError("configurations must have equal size")
    _check_matching_size(k)
    index = metric.index
    return _transport([metric.dist[index[p]] for p in a], [index[p] for p in b],
                      itertools.permutations(range(k)))


def _check_matching_size(k: int) -> None:
    if k > _MAX_MATCHING_K:
        raise OracleTooLargeError(
            f"configuration matching limited to k <= {_MAX_MATCHING_K}, got {k}")


def _transport(rows: Sequence[Sequence[float]], cols: Sequence[int], perms) -> float:
    """Minimum over the matchings in ``perms`` of the distances summed in
    server order; ``rows`` are the source points' distance rows and
    ``cols`` the target points' indices."""
    best = math.inf
    for perm in perms:
        total = 0.0
        for row, j in zip(rows, perm):
            total += row[cols[j]]
            if total >= best:
                break
        best = min(best, total)
    return best


def _configs_containing(metric: MetricSpace, k: int, point: str) -> list[tuple]:
    rest = itertools.combinations_with_replacement(metric.points, k - 1)
    return sorted({tuple(sorted(r + (point,))) for r in rest})


class WorkFunctionTable:
    """Rolling layer of the work function: minimal cost to serve the prefix
    and end in a given configuration (finite only where the latest request
    is covered).  Configurations are sorted tuples (servers are
    interchangeable); layers grow lazily and a cap guards the size."""

    def __init__(self, metric: MetricSpace, initial: Sequence[str],
                 cap: int = 100_000):
        self.metric = metric
        self.k = len(initial)
        self.cap = cap
        self.values: dict[tuple, float] = {tuple(sorted(initial)): 0.0}
        self._covering: dict[str, list[tuple]] = {}
        self._perms: Optional[list[tuple]] = None

    def advance(self, e: str) -> dict[tuple, float]:
        candidates = self._covering.get(e)
        if candidates is None:
            candidates = _configs_containing(self.metric, self.k, e)
            self._covering[e] = candidates
        if len(candidates) > self.cap:
            raise OracleTooLargeError(
                f"{len(candidates)} configurations exceed cap {self.cap}")
        if self._perms is None:
            _check_matching_size(self.k)
            self._perms = list(itertools.permutations(range(self.k)))
        perms = self._perms
        dist, index = self.metric.dist, self.metric.index
        prev = [([dist[index[p]] for p in cfg], w) for cfg, w in self.values.items()]
        new_values = {}
        for cfg in candidates:
            cols = [index[p] for p in cfg]
            new_values[cfg] = min(w + _transport(rows, cols, perms) for rows, w in prev)
        self.values = new_values
        return new_values


# Largest work per request, C(n+k-2, k-1)^2 * k! (configurations covering
# the request, times those covering the previous one, times the matchings
# tried), for which the work-function monitor is used.  It governs
# non-uniform metrics only, since uniform ones use PagingMonitor.  On
# 60-request uniform windows the work function matched re-solving the flow
# on every append at 1600-3000 for k = 2..5 (see CHANGES.md); beyond that
# the flow is cheaper.
_WORK_FUNCTION_MAX_STEP = 2000


class WorkFunctionMonitor(WindowMonitor):
    """Window optimum as the minimum of the work function (Koutsoupias and
    Papadimitriou 1995): the cheapest cost of serving the window from the
    start positions and ending in any configuration, which equals the
    offline optimum.  One table layer per non-empty request replaces a whole
    re-solve per append."""

    def __init__(self, metric: MetricSpace, positions: Sequence[str]):
        self.table = WorkFunctionTable(metric, positions)
        self.value = 0.0

    def append(self, t: int, request: Any) -> float:
        if request is not BOT:
            self.value = min(self.table.advance(request).values())
        return self.value


def wfa_step(table: WorkFunctionTable, current: Sequence[str],
             e: str) -> tuple[tuple, int, float]:
    """One work-function move: pick the covering configuration minimizing
    work value plus transport from the current one (ties to the
    lexicographically smallest), return it with the serving slot index and
    the transport cost."""
    values = table.advance(e)
    current_sorted = tuple(sorted(current))
    best_cfg = None
    best_score = math.inf
    for cfg in sorted(values):
        move = config_distance(table.metric, cfg, current_sorted)
        score = values[cfg] + move
        if score < best_score - 1e-12:
            best_score = score
            best_cfg, move_cost = cfg, move
    serve_slot = best_cfg.index(e)
    return best_cfg, serve_slot, move_cost


class WfaPolicy(OnlinePolicy):
    """Virtually runs the work function algorithm and emits, per request,
    the index of the server that ends on the request point.  The caller
    executes lazily (only that server moves for real); by the triangle
    inequality the realized cost never exceeds the virtual cost."""

    def __init__(self, metric: MetricSpace, initial: Sequence[str], cap: int):
        self.metric = metric
        self.table = WorkFunctionTable(metric, initial, cap)
        self.virtual = list(initial)

    def act(self, t: int, request: Any, rng: Optional[random.Random]) -> int:
        if request is BOT:
            return 1
        cfg, _, _ = wfa_step(self.table, self.virtual, request)
        target = self._match(self.virtual, cfg)
        self.virtual = target
        for i, p in enumerate(target):
            if p == request:
                return i + 1
        raise RuntimeError("internal error: chosen configuration misses the request")

    def _match(self, current: Sequence[str], cfg: tuple) -> list[str]:
        k = len(current)
        best_perm = None
        best_cost = math.inf
        for perm in itertools.permutations(range(k)):
            total = sum(self.metric.d(current[i], cfg[perm[i]]) for i in range(k))
            if total < best_cost - 1e-12:
                best_cost = total
                best_perm = perm
        return [cfg[best_perm[i]] for i in range(k)]


class WfaOracle(OnlineOracle):
    deterministic = True

    def __init__(self, metric: MetricSpace, k: int, cap: int = 100_000):
        self.metric = metric
        self.cap = cap
        # Certified online guarantee of the work function algorithm.
        self.eta = 2.0 * k - 1.0

    def restart(self, sim: Simulator, m: int) -> WfaPolicy:
        return WfaPolicy(self.metric, sim.positions, self.cap)


# ---------------------------------------------------------------------------
# Marking (uniform metric / caching).


class MarkingPolicy(OnlinePolicy):
    """Randomized marking on a uniform-metric cache: a hit marks its slot;
    a miss starts a new phase when every slot is marked, then evicts a
    uniformly random unmarked slot and marks it."""

    def __init__(self, cache: Sequence[str]):
        self.cache = list(cache)
        self.marks: set[int] = set()

    def act(self, t: int, request: Any, rng: random.Random) -> int:
        if request is BOT:
            return 1
        if request in self.cache:
            slot = self.cache.index(request)
            self.marks.add(slot)
            return slot + 1
        if len(self.marks) == len(self.cache):
            self.marks.clear()
        unmarked = [i for i in range(len(self.cache)) if i not in self.marks]
        slot = unmarked[rng.randrange(len(unmarked))]
        self.cache[slot] = request
        self.marks.add(slot)
        return slot + 1


class MarkingOracle(OnlineOracle):
    deterministic = False

    def __init__(self, metric: MetricSpace, k: int):
        if not metric.uniform_flag:
            raise ContractError("the marking policy requires the uniform metric")
        self.eta = 2.0 * (math.log(k) + 1.0)

    def restart(self, sim: Simulator, m: int) -> MarkingPolicy:
        return MarkingPolicy(sim.positions)


# ---------------------------------------------------------------------------
# Wrapper with the zero-cost initial phase.


def adaswitch_kse(metric: MetricSpace, initial: ServerConfig, requests, prediction,
                  epsilon: Optional[float] = None, variant: str = "general",
                  seed: int = 0) -> CompetitiveReport:
    """Serve requests for free while some server already covers them; on the
    first unavoidable movement hand the rest of the stream to the exact
    runner with thresholds c = k, b = 2 and the section's online oracle
    (work function in general, marking under the uniform metric).

    When the free phase covers the whole horizon the runner gets it as a
    prefix with no period left to run; that report, whose optimum is 0,
    carries ``ratio-undefined`` and ``initial-phase-only``."""
    k = initial.k
    problem = problem_instance(metric, initial)
    requests = make_requests(requests)
    prediction = make_requests(prediction)
    for seq, label in ((requests, "requests"), (prediction, "prediction")):
        if any(seq.at(t) is BOT for t in range(1, seq.support_length + 1)):
            raise ValueError(f"{label} must have consecutive support "
                             f"(no interior empty requests)")
        for t, e in enumerate(seq.items, start=1):
            if e is not BOT and e not in metric.index:
                raise ValueError(f"{label} period {t}: unknown point {e!r} "
                                 f"(not in the metric)")
    if variant == "caching":
        if not metric.uniform_flag:
            raise ContractError("caching variant requires the uniform metric")
        online: OnlineOracle = MarkingOracle(metric, k)
        if epsilon is None:
            epsilon = online.eta
    elif variant == "general":
        online = WfaOracle(metric, k)
        if epsilon is None:
            raise ValueError("general variant needs an explicit epsilon")
    else:
        raise ValueError(f"unknown variant {variant!r}")

    config = AdaSwitchConfig(epsilon=epsilon, b=2.0, c=float(k), seed=seed)
    horizon = requests.effective_length
    sim = problem.new_simulator()
    served: list[Any] = []
    servers: list[int] = []
    costs: list[float] = []
    for t in range(1, horizon + 1):
        e = requests.at(t)
        covering = next((i + 1 for i, p in enumerate(sim.positions)
                         if e is not BOT and metric.d(p, e) == 0.0), None)
        if e is BOT:
            covering = 1
        if covering is None:
            break
        served.append(e)
        servers.append(covering)
        costs.append(sim.step(t, e, covering))
    traj = Trajectory(tuple(served), tuple(servers), tuple(costs))

    # Looked up on the module, so a wrapper installed there (the benchmark's
    # span tracer) sees this call.
    report = switching.run_adaswitch_exact(problem, requests, prediction,
                                           KserverOfflineOracle(metric), online,
                                           config, start_prefix=traj)
    if traj.m == horizon:
        report.flags += ("initial-phase-only",)
    if report.opt and report.opt > 0:
        raw_errors = sequence_distance(problem, requests, prediction).raw_total
        if variant == "caching":
            report.bounds["T7"] = theoretical_bound(
                "T7", k=float(k), opt=report.opt, phi_star=raw_errors)
        else:
            report.bounds["T6"] = theoretical_bound(
                "T6", eta=online.eta, epsilon=epsilon, k=float(k), opt=report.opt,
                phi_star=raw_errors)
            # The section states min(2(k-1), ...) for the online guarantee but
            # only the 2k-1 work-function bound is certifiable; flag it.
            report.flags += ("eta-kse-uses-2k-minus-1",)
    return report


def make_requests(points) -> RequestSequence:
    """Points (None for the empty request) to a request sequence; a
    RequestSequence passes through unchanged."""
    if isinstance(points, RequestSequence):
        return points
    return RequestSequence(list(points), null_request=BOT)


# ---------------------------------------------------------------------------
# File formats: metric and request files.


def write_metric(path: str, metric: MetricSpace, k: int) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{len(metric.points)} {k}\n")
        for p in metric.points:
            fh.write(f"{p}\n")
        if metric.uniform_flag:
            fh.write("uniform\n")
        else:
            for row in metric.dist:
                fh.write(" ".join(repr(x) for x in row) + "\n")


def read_metric(path: str) -> tuple[MetricSpace, int]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        try:
            n, k = (int(x) for x in header.split())
            if not 1 <= k <= n:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line 1: expected header 'n k' with "
                             f"1 <= k <= n, got {header!r}") from None
        points = []
        for lineno in range(2, n + 2):
            p = fh.readline().strip()
            if not p or p in points:
                raise ValueError(f"{path}: line {lineno}: expected a new point id, "
                                 f"got {'duplicate ' if p else ''}{p!r}")
            points.append(p)
        pos = fh.tell()
        first = fh.readline().strip()
        if first == "uniform":
            return MetricSpace.uniform(points), k
        fh.seek(pos)
        dist = []
        for lineno in range(n + 2, 2 * n + 2):
            line = fh.readline().strip()
            try:
                row = [float(x) for x in line.split()]
            except ValueError:
                row = None
            if row is None or len(row) != n:
                raise ValueError(f"{path}: line {lineno}: expected {n} distances, "
                                 f"got {line!r}")
            dist.append(row)
    return MetricSpace(points, dist), k


def write_requests(path: str, requests: RequestSequence) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for t in range(1, len(requests.items) + 1):
            e = requests.at(t)
            fh.write(("-" if e is BOT else e) + "\n")


def read_requests(path: str) -> RequestSequence:
    """One point id, or ``-`` for the empty request, per line; trailing blank
    lines are ignored, a blank line before the last request is an error."""
    with open(path, encoding="ascii") as fh:
        items = [line.strip() for line in fh]
    while items and not items[-1]:
        items.pop()
    if "" in items:
        raise ValueError(f"{path}: line {items.index('') + 1}: expected a point id "
                         f"or '-', got a blank line")
    return RequestSequence([BOT if x == "-" else x for x in items], null_request=BOT)

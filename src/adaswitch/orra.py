"""Reusable resource allocation: n resources, each busy d - 1 periods after
serving, back in the pool at t + d.

A request is a 0/1 eligibility vector over the resources; the action picks
one eligible available resource (or 0 to reject) and earns 1 on success, so
L = 1.  Availability follows a per-resource next-available-time recursion.
The exact offline solver is a dynamic program over per-resource remaining
busy counters; the online policy re-ranks the resources uniformly at random
every d periods and serves greedily by the current ranking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .framework import (
    MAXIMIZE,
    InvalidActionError,
    OracleTooLargeError,
    ProblemInstance,
    RequestSequence,
    Simulator,
)
from .switching import (
    AdaSwitchConfig,
    CompetitiveReport,
    OfflineOracle,
    OnlineOracle,
    OnlinePolicy,
    run_adaswitch_gamma,
)

DEFAULT_DP_BUDGET = 4_000_000


@dataclass(frozen=True)
class OrraParams:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("need n >= 1 resources and duration d >= 1")

    @property
    def null_request(self) -> tuple:
        return (0,) * self.n


class AvailabilityVector:
    """Per-resource next-available time, updated by the serving recursion:
    a successful allocation at t makes the resource available at t + d."""

    __slots__ = ("times",)

    def __init__(self, times: Sequence[int]):
        self.times = list(times)

    @classmethod
    def fresh(cls, n: int) -> "AvailabilityVector":
        return cls([1] * n)

    def clone(self) -> "AvailabilityVector":
        return AvailabilityVector(self.times)


def _validate_orra_action(n: int, t: int, action: Any) -> None:
    if not isinstance(action, int) or not 0 <= action <= n:
        raise InvalidActionError(t, action, f"action must be in 0..{n}")


class OrraSimulator(Simulator):
    """The availability recursion: a step earns 1 iff a resource was
    picked, is eligible and is available; on success its next-available
    time becomes t + d."""

    def __init__(self, params: OrraParams, avail: Optional[AvailabilityVector] = None):
        self.params = params
        self.avail = avail if avail is not None else AvailabilityVector.fresh(params.n)

    def step(self, t: int, request: Any, action: Any) -> float:
        _validate_orra_action(self.params.n, t, action)
        times = self.avail.times
        if action > 0 and request[action - 1] == 1 and times[action - 1] <= t:
            times[action - 1] = t + self.params.d
            return 1.0
        return 0.0

    def clone(self) -> "OrraSimulator":
        return OrraSimulator(self.params, self.avail.clone())


def problem_instance(params: OrraParams) -> ProblemInstance:
    n, d = params.n, params.d

    return ProblemInstance(
        name=f"orra(n={n},d={d})",
        action_space=lambda t, e: list(range(0, n + 1)),
        reward_bound=1.0,
        distance_fn=lambda a, b: 0.0 if tuple(a) == tuple(b) else 1.0,
        lipschitz_u=1.0,
        lipschitz_v=1.0,
        influence_f=float(d),
        objective=MAXIMIZE,
        simulator_factory=lambda: OrraSimulator(params),
        estimate_m=lambda i, prediction: max(i, prediction.support_length),
        validate_action=lambda t, e, a: _validate_orra_action(n, t, a),
    )


def orra_offline_dp(params: OrraParams, avail: AvailabilityVector, t0: int,
                    window: Sequence[Sequence[int]],
                    budget: int = DEFAULT_DP_BUDGET) -> tuple[float, list[int]]:
    """Exact maximum served count over the window by dynamic programming on
    per-resource remaining-busy counters in {0, ..., d-1}.

    Decoding prefers serving over rejecting and the lowest resource index
    among optimal choices.  Raises once d^n * window exceeds the budget.
    """
    n, d = params.n, params.d
    T = len(window)
    if T == 0:
        return 0.0, []
    if d ** n * max(T, 1) > budget:
        raise OracleTooLargeError(
            f"DP needs {d ** n} states over {T} periods, budget {budget}")

    start = tuple(max(0, avail.times[i] - t0) for i in range(n))

    def decay(state: tuple) -> tuple:
        return tuple(c - 1 if c > 0 else 0 for c in state)

    def after_serving(state: tuple, i: int) -> tuple:
        nxt = list(decay(state))
        nxt[i - 1] = d - 1
        return tuple(nxt)

    # value_to_go[state] over periods window[i:]; built backwards.
    layers: list[dict[tuple, float]] = [dict() for _ in range(T + 1)]
    reachable = {start}
    forward: list[set] = [set() for _ in range(T)]
    for i in range(T):
        forward[i] = reachable
        nxt = set()
        for state in reachable:
            nxt.add(decay(state))
            for r in range(1, n + 1):
                if window[i][r - 1] == 1 and state[r - 1] == 0:
                    nxt.add(after_serving(state, r))
        reachable = nxt
    layers[T] = {state: 0.0 for state in reachable}
    for i in range(T - 1, -1, -1):
        e = window[i]
        layer = {}
        nxt = layers[i + 1]
        for state in forward[i]:
            best = nxt[decay(state)]
            for r in range(1, n + 1):
                if e[r - 1] == 1 and state[r - 1] == 0:
                    best = max(best, 1.0 + nxt[after_serving(state, r)])
            layer[state] = best
        layers[i] = layer

    actions: list[int] = []
    state = start
    for i in range(T):
        e = window[i]
        target = layers[i][state]
        chosen = 0
        for r in range(1, n + 1):
            if e[r - 1] == 1 and state[r - 1] == 0 \
                    and 1.0 + layers[i + 1][after_serving(state, r)] == target:
                chosen = r
                break
        if chosen == 0 and layers[i + 1][decay(state)] != target:
            raise RuntimeError("internal error: DP decode lost the optimum")
        actions.append(chosen)
        state = after_serving(state, chosen) if chosen else decay(state)
    return layers[0][start], actions


class OrraDpOracle(OfflineOracle):
    """Exact offline oracle: the DP of :func:`orra_offline_dp`."""

    def __init__(self, params: OrraParams):
        self.params = params

    def solve(self, sim: Simulator, t0: int, window: Sequence[Any]) -> tuple[float, list]:
        return orra_offline_dp(self.params, sim.avail, t0, window)


class PrrStarPolicy(OnlinePolicy):
    """Restarted periodic re-ranking.

    After a restart at prefix length m >= 1, requests up to period
    m + d - 1 are rejected outright and every resource is treated as
    available from m + d (true by then, since nothing allocated at or
    before m stays busy past m + d - 1).  From the anchor on, time splits
    into windows of length d; each window draws a fresh uniformly random
    ranking and every request is served by the highest-ranked available
    eligible resource, if any.
    """

    def __init__(self, params: OrraParams, m: int):
        self.params = params
        self.anchor = m + params.d if m >= 1 else 1
        self.busy_until = [0] * params.n
        self.window_start: Optional[int] = None
        self.ranking: list[int] = []

    def act(self, t: int, request: Sequence[int], rng: random.Random) -> int:
        n, d = self.params.n, self.params.d
        if t < self.anchor:
            return 0
        ws = self.anchor + ((t - self.anchor) // d) * d
        if ws != self.window_start:
            self.window_start = ws
            self.ranking = list(range(1, n + 1))
            rng.shuffle(self.ranking)
        for r in self.ranking:
            if request[r - 1] == 1 and self.busy_until[r - 1] <= t:
                self.busy_until[r - 1] = t + d
                return r
        return 0


class PrrStarOracle(OnlineOracle):
    deterministic = False

    def __init__(self, params: OrraParams, eta: float = 0.589):
        # eta defaults to 0.589, the ratio claimed for the underlying
        # re-ranking scheme; these tests certify only the 0.5 greedy floor.
        self.params = params
        self.eta = eta

    def restart(self, sim: Simulator, m: int) -> PrrStarPolicy:
        return PrrStarPolicy(self.params, m)


def adaswitch_orra(params: OrraParams, requests, prediction, epsilon: float,
                   alpha: float = 3.0, seed: int = 0,
                   eta_online: float = 0.589,
                   monte_carlo_cap: int = 10_000) -> CompetitiveReport:
    """Batched switching run with thresholds c = d and b = 2, the re-ranking
    policy online and the exact DP offline.  An approximate offline oracle
    goes straight to :func:`run_adaswitch_gamma`."""
    problem = problem_instance(params)
    requests = make_requests(params, requests)
    prediction = make_requests(params, prediction)
    online = PrrStarOracle(params, eta=eta_online)
    config = AdaSwitchConfig(epsilon=epsilon, b=2.0, c=float(params.d),
                             alpha=alpha, seed=seed, monte_carlo_cap=monte_carlo_cap)
    report = run_adaswitch_gamma(problem, requests, prediction, OrraDpOracle(params),
                                 online, config)
    report.variant = "adaswitch-orra"
    return report


def make_requests(params: OrraParams, rows) -> RequestSequence:
    """0/1 eligibility rows to a request sequence; a RequestSequence passes
    through unchanged."""
    if isinstance(rows, RequestSequence):
        return rows
    items = [tuple(int(x) for x in e) for e in rows]
    for t, e in enumerate(items, start=1):
        if len(e) != params.n or any(x not in (0, 1) for x in e):
            raise ValueError(f"request at period {t} must be a length-{params.n} 0/1 vector")
    return RequestSequence(items, null_request=params.null_request)


def write_instance(path: str, params: OrraParams, requests: RequestSequence) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{params.n} {params.d} {len(requests.items)}\n")
        for t in range(1, len(requests.items) + 1):
            fh.write("".join(str(x) for x in requests.at(t)) + "\n")


def read_instance(path: str) -> tuple[OrraParams, RequestSequence]:
    with open(path, encoding="ascii") as fh:
        n, d, T = (int(x) for x in fh.readline().split())
        params = OrraParams(n, d)
        rows = []
        for _ in range(T):
            bits = fh.readline().strip()
            if len(bits) != n:
                raise ValueError(f"{path}: expected length-{n} bitstrings")
            rows.append(tuple(int(ch) for ch in bits))
    return params, make_requests(params, rows)

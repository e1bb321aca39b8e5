"""Core abstractions for finite-horizon online decision problems.

Periods are 1-based throughout. A problem instance is a family of per-period
reward (or cost) functions over request/action prefixes together with
per-period action sets. Request sequences are stored finitely: every index
past a sequence's effective length reads as the application's null request,
so "infinite" sequences never need infinite storage.

This module also hosts the generic hindsight optimizer (exhaustive search
with a hard leaf cap), the empirical checkers for the bounded-influence and
Lipschitz contracts, and the raw/capped distance between a realized request
sequence and a predicted one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

DEFAULT_LEAF_CAP = 10_000_000

MAXIMIZE = "max"
MINIMIZE = "min"


class InvalidActionError(ValueError):
    """An action fell outside the period's action set."""

    def __init__(self, period: int, action: Any, reason: str = ""):
        self.period = period
        self.action = action
        detail = f": {reason}" if reason else ""
        super().__init__(f"invalid action {action!r} at period {period}{detail}")


class SearchTooLargeError(RuntimeError):
    """The exhaustive search space exceeds the configured leaf cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"search space of {size} leaf evaluations exceeds cap {cap}")


class OracleTooLargeError(RuntimeError):
    """An offline oracle's state space exceeds its configured budget."""


class ConfigurationError(ValueError):
    """A run configuration violates a precondition; message names the condition."""


class ContractError(RuntimeError):
    """An oracle or policy was invoked outside its stated contract."""


class RequestSequence:
    """Finite-support sequence of per-period requests, 1-based.

    ``effective_length`` is the last period after which every reward is
    identically zero regardless of actions.  It may be declared by the
    application (e.g. last arrival plus a patience tail); when omitted it
    defaults to the support length (last non-null stored item).  Reads past
    the stored items return ``null_request``, which is also what positions
    between the support and a declared effective length must hold.
    """

    __slots__ = ("items", "null_request", "_effective_length")

    def __init__(self, items: Sequence[Any], null_request: Any,
                 effective_length: Optional[int] = None):
        self.items = tuple(items)
        self.null_request = null_request
        support = self._support_length()
        if effective_length is None:
            effective_length = support
        if effective_length < support:
            raise ValueError(
                f"declared effective length {effective_length} precedes a "
                f"non-null request at period {support}")
        self._effective_length = effective_length

    def _support_length(self) -> int:
        for i in range(len(self.items) - 1, -1, -1):
            if self.items[i] != self.null_request:
                return i + 1
        return 0

    @property
    def effective_length(self) -> int:
        return self._effective_length

    @property
    def support_length(self) -> int:
        return self._support_length()

    def at(self, t: int) -> Any:
        """Request of period ``t`` (1-based); null past the stored items."""
        if t < 1:
            raise IndexError(f"period {t} out of range")
        if t <= len(self.items):
            return self.items[t - 1]
        return self.null_request

    def window(self, i: int, j: int) -> list[Any]:
        """Requests of periods ``i..j`` inclusive as a list."""
        return [self.at(t) for t in range(i, j + 1)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestSequence):
            return NotImplemented
        n = max(len(self.items), len(other.items))
        return all(self.at(t) == other.at(t) for t in range(1, n + 1))

    def __repr__(self) -> str:
        return (f"RequestSequence({list(self.items)!r}, "
                f"null={self.null_request!r}, M={self._effective_length})")


@dataclass(frozen=True)
class Trajectory:
    """Interleaved (request, action, realized reward) history.

    Replayable: ``rewards[t-1]`` equals the problem's per-period value applied
    to the full prefix through ``t``, and ``cumulative`` is their sum.
    """

    requests: tuple = ()
    actions: tuple = ()
    rewards: tuple = ()

    def __post_init__(self):
        if not (len(self.requests) == len(self.actions) == len(self.rewards)):
            raise ValueError("requests, actions and rewards must align")

    @property
    def m(self) -> int:
        return len(self.requests)

    @property
    def cumulative(self) -> float:
        return float(sum(self.rewards))

    def extended(self, request: Any, action: Any, reward: float) -> "Trajectory":
        return Trajectory(self.requests + (request,),
                          self.actions + (action,),
                          self.rewards + (reward,))


@dataclass(frozen=True)
class DistanceProfile:
    """Raw and capped totals of the per-period prediction distance."""

    raw_total: float
    capped_total: float


class Simulator:
    """Incremental evaluator of one trajectory; applications subclass this.

    ``step`` consumes period ``t``'s request and action and returns that
    period's realized value; ``clone`` snapshots the full state.
    """

    def step(self, t: int, request: Any, action: Any) -> float:
        raise NotImplementedError

    def clone(self) -> "Simulator":
        raise NotImplementedError


@dataclass(frozen=True)
class ProblemInstance:
    """Contract an application exposes to the framework and the meta-runner.

    ``simulator_factory()`` returns the application's simulator at the
    start state; every value its ``step`` returns lies inside
    ``[0, reward_bound]``.  ``objective`` says whether those values are
    rewards to maximize or costs to minimize.  ``action_space(t, e)``
    enumerates period ``t``'s candidate actions for request ``e`` in the
    application's documented tie-break order.  ``distance_fn`` is symmetric
    and zero on identical requests.  ``estimate_m(i, prediction)`` bounds
    the effective length of ``i`` observed periods followed by the
    prediction's suffix.  ``validate_action(t, e, a)``, when given, raises
    InvalidActionError for an action outside the period's action set.
    """

    name: str
    action_space: Callable[[int, Any], Sequence[Any]]
    reward_bound: float
    distance_fn: Callable[[Any, Any], float]
    lipschitz_u: float
    lipschitz_v: float
    influence_f: float
    objective: str
    simulator_factory: Callable[[], Simulator]
    estimate_m: Callable[[int, RequestSequence], int]
    validate_action: Optional[Callable[[int, Any, Any], None]] = None

    def __post_init__(self):
        if self.objective not in (MAXIMIZE, MINIMIZE):
            raise ConfigurationError(f"objective must be max or min, got {self.objective!r}")
        if self.reward_bound <= 0:
            raise ConfigurationError("reward bound L must be positive")

    def new_simulator(self, prefix: Optional[Trajectory] = None) -> Simulator:
        """Fresh simulator, optionally advanced through a trajectory prefix."""
        sim = self.simulator_factory()
        if prefix is not None:
            for i in range(prefix.m):
                sim.step(i + 1, prefix.requests[i], prefix.actions[i])
        return sim

    def check_action(self, t: int, request: Any, action: Any) -> None:
        if self.validate_action is not None:
            self.validate_action(t, request, action)


def _window_of(requests: Any) -> list[Any]:
    """Materialize a request window: a RequestSequence runs through its
    effective length, any other sequence is taken verbatim."""
    if isinstance(requests, RequestSequence):
        return requests.window(1, requests.effective_length)
    return list(requests)


def evaluate_trajectory(problem: ProblemInstance, requests: Any,
                        actions: Sequence[Any],
                        from_prefix: Optional[Trajectory] = None) -> float:
    """Cumulative value of ``actions`` against ``requests``.

    When ``from_prefix`` is given, evaluation conditions on that trajectory:
    window period ``i`` is absolute period ``m + i`` and rewards committed by
    prefix actions that materialize inside the window are counted.
    """
    window = _window_of(requests)
    if len(actions) != len(window):
        raise ValueError(f"need one action per request period, "
                         f"got {len(actions)} actions for {len(window)} periods")
    m = from_prefix.m if from_prefix is not None else 0
    sim = problem.new_simulator(from_prefix)
    total = 0.0
    for i, (e, a) in enumerate(zip(window, actions)):
        t = m + i + 1
        problem.check_action(t, e, a)
        total += sim.step(t, e, a)
    return total


def brute_force_opt(problem: ProblemInstance, requests: Any,
                    from_prefix: Optional[Trajectory] = None,
                    leaf_cap: int = DEFAULT_LEAF_CAP) -> tuple[float, list]:
    """Exact hindsight optimum by exhaustive search over action sequences.

    Ties break to the lexicographically first action sequence under the
    per-period enumeration order, which keeps every exact test deterministic.
    Raises SearchTooLargeError before exploring anything when the product of
    the per-period action-set sizes exceeds ``leaf_cap``.
    """
    window = _window_of(requests)
    m = from_prefix.m if from_prefix is not None else 0
    if not window:
        return 0.0, []
    spaces = [list(problem.action_space(m + i + 1, e)) for i, e in enumerate(window)]
    size = 1
    for s in spaces:
        if not s:
            raise InvalidActionError(m + len(window), None, "empty action set")
        size *= len(s)
        if size > leaf_cap:
            size_full = math.prod(len(x) for x in spaces)
            raise SearchTooLargeError(size_full, leaf_cap)

    sign = 1.0 if problem.objective == MAXIMIZE else -1.0
    best_value = -math.inf
    best_actions: list = []
    chosen: list = [None] * len(window)

    base = problem.new_simulator(from_prefix)

    def descend(i: int, sim: Simulator, acc: float) -> None:
        nonlocal best_value, best_actions
        if i == len(window):
            if sign * acc > sign * best_value + 1e-12 or best_value == -math.inf:
                best_value = acc
                best_actions = list(chosen)
            return
        for a in spaces[i]:
            branch = sim.clone()
            r = branch.step(m + i + 1, window[i], a)
            chosen[i] = a
            descend(i + 1, branch, acc + r)

    descend(0, base, 0.0)
    return best_value, best_actions


def sequence_distance(problem: ProblemInstance, a: RequestSequence,
                      b: RequestSequence, cap: Optional[float] = None) -> DistanceProfile:
    """Summed per-period distance between two sequences.

    Totals run over the longer of the two stored supports; unmatched trailing
    positions compare against the null request.  ``cap`` clips each period's
    contribution for the capped total (the prediction-error accountancy used
    by the switching thresholds).
    """
    n = max(len(a.items), len(b.items))
    raw = 0.0
    capped = 0.0
    for t in range(1, n + 1):
        d = problem.distance_fn(a.at(t), b.at(t))
        raw += d
        capped += d if cap is None else min(d, cap)
    return DistanceProfile(raw_total=raw, capped_total=capped)


def check_bounded_influence(problem: ProblemInstance,
                            sampler: Callable[[random.Random], tuple],
                            trials: int, seed: int = 0,
                            leaf_cap: int = DEFAULT_LEAF_CAP) -> float:
    """Empirical maximum of |Opt gap| / L across sampled prefix pairs.

    ``sampler(rng)`` yields ``(prefix_a, prefix_b, window_requests)`` where
    both prefixes are Trajectory values of equal length.  The caller compares
    the returned maximum against the application's influence constant.
    """
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        prefix_a, prefix_b, window = sampler(rng)
        opt_a, _ = brute_force_opt(problem, window, from_prefix=prefix_a, leaf_cap=leaf_cap)
        opt_b, _ = brute_force_opt(problem, window, from_prefix=prefix_b, leaf_cap=leaf_cap)
        worst = max(worst, abs(opt_a - opt_b) / problem.reward_bound)
    return worst


def check_lipschitz(problem: ProblemInstance,
                    sampler: Callable[[random.Random], tuple],
                    trials: int, mode: str = "opt", seed: int = 0,
                    leaf_cap: int = DEFAULT_LEAF_CAP) -> float:
    """Empirical worst excess of a one-request swap over the Lipschitz budget.

    ``mode="opt"`` compares hindsight optima after swapping one request;
    ``mode="strong"`` compares the value of a fixed action sequence.  For
    each trial the sampler yields ``(prefix, e, e_swapped, rest)`` (opt mode)
    or ``(prefix, e, e_swapped, rest, actions)`` (strong mode).  Returns
    ``max(|gap| - L * min(u * d(e, e'), v))``; nonpositive means the contract
    held on every sample.
    """
    if mode not in ("opt", "strong"):
        raise ValueError(f"mode must be 'opt' or 'strong', got {mode!r}")
    rng = random.Random(seed)
    u, v, L = problem.lipschitz_u, problem.lipschitz_v, problem.reward_bound
    worst = -math.inf
    for _ in range(trials):
        sample = sampler(rng)
        if mode == "opt":
            prefix, e, e_swapped, rest = sample
            val_a, _ = brute_force_opt(problem, [e] + list(rest), from_prefix=prefix,
                                       leaf_cap=leaf_cap)
            val_b, _ = brute_force_opt(problem, [e_swapped] + list(rest),
                                       from_prefix=prefix, leaf_cap=leaf_cap)
        else:
            prefix, e, e_swapped, rest, actions = sample
            val_a = evaluate_trajectory(problem, [e] + list(rest), actions,
                                        from_prefix=prefix)
            val_b = evaluate_trajectory(problem, [e_swapped] + list(rest), actions,
                                        from_prefix=prefix)
        budget = L * min(u * problem.distance_fn(e, e_swapped), v)
        worst = max(worst, abs(val_a - val_b) - budget)
    return worst

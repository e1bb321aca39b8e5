"""Adaptive switching between an online policy and prediction-driven plans.

The runner alternates two states.  In the conservative state it follows a
restartable online policy and watches how much value the current window has
made available; once that crosses a threshold it has banked enough slack to
gamble on the prediction.  In the predictive state it follows offline plans
computed against the predicted continuation and tracks the accumulated
(capped) prediction error, reverting to conservative once the error budget
is spent.

Four variants are provided: reward maximization or cost minimization, as
the problem declares, crossed with an exact offline solver
(:func:`run_adaswitch_exact`) or a multiplicative-approximation ("gamma")
solver (:func:`run_adaswitch_gamma`).  The gamma variants replace per-period re-solving with
batched plans and estimate the online policy's running value by Monte Carlo
simulation.  One loop runs all four; the oracle kind picks its conservative
signal and its predictive planner.  All threshold formulas live in
:func:`threshold_table`.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .framework import (
    MAXIMIZE,
    MINIMIZE,
    ConfigurationError,
    ProblemInstance,
    RequestSequence,
    Simulator,
    Trajectory,
    sequence_distance,
)

CONSERVATIVE = "conservative"
PREDICTIVE = "predictive"

ERROR_BASED = "error-based"
REGRET_BASED = "regret-based"


def child_seed(root: int, *labels: Any) -> int:
    """Derive a child RNG seed from the root seed and a label tuple.

    The split is a SHA-256 of the repr of (root, *labels), truncated to 64
    bits.  Randomized policies draw live from a stream per (purpose, phase,
    period) and in rollouts from one per (purpose, period, rollout index),
    so any single decision point is reproducible; deterministic ones get none.
    """
    digest = hashlib.sha256(repr((root,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root: int, *labels: Any) -> random.Random:
    return random.Random(child_seed(root, *labels))


@dataclass(frozen=True)
class AdaSwitchConfig:
    """Parameters of one switching run.

    ``b`` and ``c`` are the threshold parameters (set to the problem's
    Lipschitz slope and max(saturation, influence) respectively), ``alpha``
    the batch parameter of the gamma variants.  ``monte_carlo_cap`` bounds
    the rollout count ``min(t^5, cap)``.  The objective comes from the
    problem and the oracle kind from the runner called, not from here.
    """

    epsilon: float
    b: float
    c: float
    alpha: Optional[float] = None
    monte_carlo_cap: int = 10_000
    seed: int = 0
    switching_mode: str = ERROR_BASED


@dataclass(frozen=True)
class Thresholds:
    conservative_exit: float
    predictive_exit: float
    batch_stop: Optional[float] = None
    needs_opt_estimate: bool = False


# The meta-theorem behind each (objective, oracle kind) variant: it fixes
# the variant's thresholds, its preconditions and its bound.
THEOREMS = {(MAXIMIZE, "exact"): "T1", (MAXIMIZE, "gamma"): "T2",
            (MINIMIZE, "exact"): "T3", (MINIMIZE, "gamma"): "T4"}


def threshold_table(config: AdaSwitchConfig, objective: str, kind: str,
                    eta: float, gamma: float, L: float) -> Thresholds:
    """Switching thresholds per (objective, oracle kind).

    ``objective`` is ``"max"`` or ``"min"``, ``kind`` is ``"exact"`` or
    ``"gamma"``.  conservative_exit bounds the monitored window value ``s``;
    the run enters the predictive state at ``s >= conservative_exit``.
    predictive_exit bounds the accumulated capped error ``phi`` (inclusive
    comparison).  The gamma variants also stop extending a batch once its
    planned value reaches ``batch_stop``, and the cost/gamma variant
    additionally requires the approximate window optimum ``u >= gamma``.
    """
    e, b, c, a = config.epsilon, config.b, config.c, config.alpha
    theorem = THEOREMS[objective, kind]
    if theorem == "T1":
        thr = Thresholds(10 * c * L / e, 2 * c / (eta * b))
    elif theorem == "T2":
        slack = eta - 15 * e / 16
        thr = Thresholds(
            (16 * eta / e) * a * c * L,
            gamma * a / (slack * (a + gamma)) * (5 * a * c / b),
            batch_stop=a * c * L)
    elif theorem == "T3":
        thr = Thresholds(10 * (eta + e) * c * L / e, 2 * (eta + e) * c / b)
    else:
        thr = Thresholds(
            (18 * eta / e) * (eta + e) * gamma * a * c * L,
            5 * (eta + e) * a * c / b,
            batch_stop=a * c * L,
            needs_opt_estimate=True)
    if thr.conservative_exit <= 0 or thr.predictive_exit <= 0:
        raise ConfigurationError("thresholds must be strictly positive")
    return thr


def validate_config(config: AdaSwitchConfig, objective: str, kind: str,
                    eta: float, gamma: float) -> None:
    """Raise ConfigurationError naming the first violated precondition of
    ``config`` for the (objective, oracle kind) variant."""
    if config.switching_mode not in (ERROR_BASED, REGRET_BASED):
        raise ConfigurationError(f"unknown switching mode {config.switching_mode!r}")
    if config.switching_mode == REGRET_BASED and kind != "exact":
        raise ConfigurationError("regret-based switching requires the exact offline oracle")
    if config.switching_mode == REGRET_BASED and objective != MAXIMIZE:
        raise ConfigurationError("regret-based switching is defined for the reward objective")
    if config.monte_carlo_cap < 1:
        raise ConfigurationError(
            f"monte_carlo_cap must be at least 1, got {config.monte_carlo_cap}")
    # Every comparison below is false on NaN, so non-finite values would pass.
    for name in ("epsilon", "b", "c", "alpha"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    _check_preconditions(THEOREMS[objective, kind], eta, config.epsilon,
                         config.b, config.c, gamma, config.alpha)


def _check_preconditions(theorem: str, eta: float, epsilon: float, b: float,
                         c: float, gamma: float, alpha: Optional[float]) -> None:
    """Raise ConfigurationError naming the first violated precondition of
    meta-theorem ``theorem`` (T1-T4) on the parameters, the optimum aside."""
    if not (c >= b >= 1):
        raise ConfigurationError(f"need c >= b >= 1, got c={c}, b={b}")
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if theorem in ("T1", "T2") and epsilon >= eta:
        raise ConfigurationError(
            f"epsilon must lie in (0, eta), got epsilon={epsilon}, eta={eta}")
    if theorem in ("T1", "T3"):
        return
    if alpha is None:
        raise ConfigurationError("gamma variants need the batch parameter alpha")
    if theorem == "T2":
        if alpha < 3:
            raise ConfigurationError(f"need alpha >= 3, got {alpha}")
        if gamma * alpha / (alpha + gamma) < eta - 15 * epsilon / 16 - 1e-12:
            raise ConfigurationError(
                f"infeasible batch parameter: gamma*alpha/(alpha+gamma)="
                f"{gamma * alpha / (alpha + gamma):.6g} < eta - 15*epsilon/16 = "
                f"{eta - 15 * epsilon / 16:.6g}")
    else:
        floor = max(16 * gamma, gamma + 2 * gamma * gamma / epsilon)
        if alpha < floor - 1e-12:
            raise ConfigurationError(
                f"need alpha >= max(16*gamma, gamma + 2*gamma^2/epsilon) = {floor:.6g}, "
                f"got {alpha}")


class WindowMonitor:
    """Running hindsight optimum of the window that started at ``t0``: a
    fresh monitor fed a window period by period returns, at each
    ``append``, the optimum of the window so far."""

    def append(self, t: int, request: Any) -> float:
        raise NotImplementedError


class ResolveMonitor(WindowMonitor):
    """Generic monitor: re-solves the window from a state snapshot on every
    append.  Applications with incremental structure override this."""

    def __init__(self, oracle: "OfflineOracle", sim: Simulator, t0: int):
        self.oracle = oracle
        self.snapshot = sim.clone()
        self.t0 = t0
        self.window: list[Any] = []

    def append(self, t: int, request: Any) -> float:
        self.window.append(request)
        value, _ = self.oracle.solve(self.snapshot.clone(), self.t0, self.window)
        return value


class OfflineOracle:
    """Hindsight solver conditioned on a simulator state.

    ``solve`` returns ``(value, actions)`` for the window starting at
    absolute period ``t0``; ``gamma`` is its approximation guarantee
    (1.0 for exact oracles).  ``value`` is the same value without the plan:
    what the last ``append`` of a fresh ``monitor`` fed the window returns,
    or ``solve``'s value on an empty window or where the monitor is a
    ``ResolveMonitor``, which would re-solve every prefix.  The simulator
    passed in may be consumed, except by ``repair``.
    """

    gamma: float = 1.0

    def solve(self, sim: Simulator, t0: int, window: Sequence[Any]) -> tuple[float, list]:
        raise NotImplementedError

    def value(self, sim: Simulator, t0: int, window: Sequence[Any]) -> float:
        if window:
            monitor = self.monitor(sim, t0)
            if not isinstance(monitor, ResolveMonitor):
                for t, e in enumerate(window, start=t0):
                    value = monitor.append(t, e)
                return value
        return self.solve(sim, t0, window)[0]

    def repair(self, sim: Simulator, t: int, request: Any, plan: "_Plan") -> Any:
        """Period ``t``'s new action after ``request`` missed the plan's
        prediction, or None to re-solve.  Asked only of a plan followed
        since it was made that covers ``t`` and ends where a re-solve
        would; its other periods are kept."""
        return None

    def monitor(self, sim: Simulator, t0: int) -> WindowMonitor:
        return ResolveMonitor(self, sim, t0)


class OnlinePolicy:
    """One restarted instance of an online oracle."""

    def act(self, t: int, request: Any, rng: Optional[random.Random]) -> Any:
        raise NotImplementedError


class OnlineOracle:
    """Restartable family of online policies with competitiveness ``eta``.

    ``restart(sim, m)`` returns the policy that treats period ``m`` as the
    end of history; it may read the simulator's current state.
    ``deterministic`` policies are replayed with a single rollout wherever a
    Monte Carlo estimate is called for, and are handed ``rng=None``.
    """

    eta: float = 1.0
    deterministic: bool = True

    def restart(self, sim: Simulator, m: int) -> OnlinePolicy:
        raise NotImplementedError


@dataclass
class CompetitiveReport:
    """Outcome of one switching run plus everything needed to audit it.

    A report whose optimum ``opt`` is None or 0 has no ratio; it carries the
    ``ratio-undefined`` flag from construction on, whatever the objective.
    """

    seed: int
    variant: str
    epsilon: float
    b: float
    c: float
    alpha: Optional[float]
    eta: float
    gamma: float
    val: float
    opt: Optional[float]
    phi_star: float
    switch_count: int
    epochs: tuple[tuple[int, str], ...]
    bounds: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    mc_deviation: bool = False
    fallback_fired: bool = False
    trajectory: Optional[Trajectory] = None

    def __post_init__(self):
        if self.ratio_undefined:
            self.flags += ("ratio-undefined",)

    @property
    def ratio(self) -> Optional[float]:
        return None if self.ratio_undefined else self.val / self.opt

    @property
    def ratio_undefined(self) -> bool:
        return self.opt is None or self.opt == 0


class _Plan:
    """Offline plan anchored at a start period; one action per period."""

    __slots__ = ("start", "actions")

    def __init__(self, start: int, actions: Sequence[Any]):
        self.start = start
        self.actions = list(actions)

    def covers(self, t: int) -> bool:
        return self.start <= t < self.start + len(self.actions)

    def action_at(self, t: int) -> Any:
        return self.actions[t - self.start]

    def last(self) -> int:
        return self.start + len(self.actions) - 1


def _first_action(problem: ProblemInstance, t: int, e: Any) -> Any:
    """Lexicographically first action of period ``t`` - the documented
    choice wherever the algorithm says "any action"."""
    for a in problem.action_space(t, e):
        return a
    raise ConfigurationError(f"empty action set at period {t}")


def monte_carlo_estimate(problem: ProblemInstance, prefix: Trajectory,
                         window: Sequence[Any], online_oracle: OnlineOracle,
                         t: int, config: AdaSwitchConfig) -> float:
    """Estimated value of the online policy restarted after ``prefix`` and
    run over ``window``: the mean of ``min(t^5, cap)`` rollouts, or one
    exact rollout when the policy is declared deterministic."""
    snapshot = problem.new_simulator(prefix)
    value, _ = _mc_estimate(problem, snapshot, list(window), online_oracle,
                            prefix.m + 1, t, config)
    return value


# Relative band around a Monte Carlo threshold inside which the early exit
# of ``_mc_estimate`` defers to the full mean, so float rounding in the
# running total or the rollout ceiling cannot flip the decision.
_MC_GUARD = 1e-9


def _mc_estimate(problem: ProblemInstance, snapshot: Simulator,
                 window: list[Any], oracle: OnlineOracle, tau: int, t: int,
                 config: AdaSwitchConfig,
                 threshold: Optional[float] = None) -> tuple[float, bool]:
    """Mean value of ``min(t^5, cap)`` rollouts of the online policy
    restarted from ``snapshot`` over ``window`` (one rollout for a
    deterministic policy), and whether the budget was capped.

    With ``threshold`` given, only ``mean >= threshold`` is wanted: the
    rollouts stop once the rest cannot change that answer, and the value
    returned is then a bound on the mean on the same side of ``threshold``
    (an upper bound when below, a lower bound when reaching).  This relies
    on the problem contract that every ``step`` value lies in
    ``[0, reward_bound]``, so a rollout over W periods is worth at most
    ``W * reward_bound`` and the running total never decreases.  Within a
    relative ``_MC_GUARD`` of the threshold every rollout runs, so the
    comparison always equals the one on the full mean.
    """
    if oracle.deterministic:
        n = 1
        capped = False
    else:
        budget = t ** 5
        n = min(budget, config.monte_carlo_cap)
        capped = budget > config.monte_carlo_cap
    ceiling = len(window) * problem.reward_bound  # most one rollout can be worth
    target = math.nan if threshold is None else threshold * n  # NaN: never settles
    total = 0.0
    for j in range(n):
        if total + (n - j) * ceiling < target * (1 - _MC_GUARD):
            return (total + (n - j) * ceiling) / n, capped  # cannot reach
        if total >= target * (1 + _MC_GUARD):
            return total / n, capped  # already reached
        sim = snapshot.clone()
        policy = oracle.restart(sim, tau - 1)
        rng = None if oracle.deterministic else stream(config.seed, "mc", t, j)
        rollout = 0.0
        for period, e in enumerate(window, start=tau):
            a = policy.act(period, e, rng)
            rollout += sim.step(period, e, a)
        total += rollout
    return total / n, capped


def regret_based_switch_check(eta: float, epsilon: float, c: float, L: float,
                              phase_opt: float, phase_val: float) -> bool:
    """Alternative predictive-exit rule tracking reward regret instead of
    raw prediction error.  Fires (inclusively) once
    ``(eta - epsilon) * Opt(phase) - Val(phase)`` reaches
    ``9cL - 2(eta - epsilon)cL - (eta - epsilon)L``."""
    regret = (eta - epsilon) * phase_opt - phase_val
    threshold = 9 * c * L - 2 * (eta - epsilon) * c * L - (eta - epsilon) * L
    return regret >= threshold


def run_adaswitch_exact(problem: ProblemInstance, requests: RequestSequence,
                        prediction: RequestSequence,
                        offline_oracle: OfflineOracle,
                        online_oracle: OnlineOracle,
                        config: AdaSwitchConfig,
                        start_prefix: Optional[Trajectory] = None) -> CompetitiveReport:
    """Two-state switching loop with an exact (gamma = 1) offline oracle.

    Handles both objectives, read from ``problem.objective``; the cost
    flavor differs only in its thresholds and in the offline solver
    minimizing.
    The conservative signal is the oracle's window monitor.  In the
    predictive state the plan against (observed request, predicted suffix)
    is repaired, or re-solved where the oracle cannot repair, whenever the
    prediction misses, and followed while it matches, since any suffix of an
    optimal plan stays optimal along the predicted path.  On lead-time,
    uniform caching and ORRA runs this equals re-solving every period, as
    ``validation.prop_loop_matches_reference`` checks.  The k-server flow,
    which plans non-uniform metrics, may pick a different, equally good plan
    when re-solved, so after a later miss the two can diverge there.
    """
    if offline_oracle.gamma != 1.0:
        raise ConfigurationError("run_adaswitch_exact needs an exact offline oracle")
    return _run_switching(problem, requests, prediction, offline_oracle,
                          online_oracle, config, "exact", start_prefix)


def run_adaswitch_gamma(problem: ProblemInstance, requests: RequestSequence,
                        prediction: RequestSequence,
                        gamma_oracle: OfflineOracle,
                        online_oracle: OnlineOracle,
                        config: AdaSwitchConfig,
                        start_prefix: Optional[Trajectory] = None) -> CompetitiveReport:
    """Batched switching loop for approximate offline oracles.

    The conservative signal is a Monte Carlo estimate of the online
    policy's value over the current window (exact single rollout for
    deterministic policies), cut short once the comparison with the
    conservative exit is settled.  Predictive periods run in batches: each batch
    is grown one predicted period at a time, re-solved in one shot by the
    gamma oracle, until its planned value reaches the batch-stop threshold
    or the estimated horizon ends; the plan is then followed verbatim.  If
    the horizon ends first, the run falls back to lexicographically-first
    actions for the rest of the phase and flags that the fallback fired.
    """
    return _run_switching(problem, requests, prediction, gamma_oracle,
                          online_oracle, config, "gamma", start_prefix)


def _run_switching(problem: ProblemInstance, requests: RequestSequence,
                   prediction: RequestSequence, offline_oracle: OfflineOracle,
                   online_oracle: OnlineOracle, config: AdaSwitchConfig,
                   kind: str, start_prefix: Optional[Trajectory]) -> CompetitiveReport:
    """The switching loop behind both entry points.  The oracle ``kind``
    (``"exact"`` or ``"gamma"``) picks the conservative signal (window
    monitor, or phase value / Monte Carlo estimate) and the predictive
    planner (replan on a miss, or batch growth); everything else is
    shared.  A ``start_prefix`` that covers the whole horizon leaves no
    period to run; the report then covers the prefix alone."""
    exact = kind == "exact"
    objective = problem.objective
    eta = online_oracle.eta
    gamma = offline_oracle.gamma
    validate_config(config, objective, kind, eta, gamma)
    L = problem.reward_bound
    thr = threshold_table(config, objective, kind, eta, gamma, L)
    cap = config.c / config.b
    regret = config.switching_mode == REGRET_BASED
    randomized = not online_oracle.deterministic

    sim = problem.new_simulator(start_prefix)
    prefix = start_prefix if start_prefix is not None else Trajectory()
    horizon = requests.effective_length

    conservative = True
    tau = prefix.m + 1  # start of the conservative phase; restarts happen there
    tau_p: Optional[int] = None  # start of the next gamma batch
    plan: Optional[_Plan] = None
    phase_val = 0.0  # value realized in the current phase
    phi = 0.0
    total = 0.0
    switches = 0
    mc_deviation = False
    fallback_fired = False
    epochs: list[tuple[int, str]] = []
    log_requests = list(prefix.requests)
    log_actions = list(prefix.actions)
    log_rewards = list(prefix.rewards)

    for t in range(tau, horizon + 1):
        e = requests.at(t)
        if conservative:
            if t == tau:
                policy = online_oracle.restart(sim, tau - 1)
                if exact:
                    monitor = offline_oracle.monitor(sim, tau)
                else:
                    phase_snapshot = sim.clone()
                    phase_window: list[Any] = []
                phase_val = 0.0
                epochs.append((tau, CONSERVATIVE))
            a = policy.act(t, e, stream(config.seed, "online", tau, t) if randomized else None)
        else:
            e_pred = prediction.at(t)
            if exact:
                if plan is None or not plan.covers(t) or e != e_pred:
                    hp = max(problem.estimate_m(t, prediction), t)
                    # The plan is reset at every switch, so one that covers
                    # t has been followed since it was made.
                    fix = None
                    if plan is not None and plan.covers(t) and plan.last() == hp:
                        fix = offline_oracle.repair(sim, t, e, plan)
                    if fix is None:
                        window = [e] + prediction.window(t + 1, hp)
                        plan = _Plan(t, offline_oracle.solve(sim.clone(), t, window)[1])
                    else:
                        plan.actions[t - plan.start] = fix
            elif t == tau_p:
                # A new batch starts: grow it one predicted period at a time.
                hp = max(problem.estimate_m(t, prediction), t)
                plan_value = 0.0
                tp = t
                while tp <= hp and plan_value < thr.batch_stop:
                    window = [e] + prediction.window(t + 1, tp)
                    plan_value, actions = offline_oracle.solve(sim.clone(), t, window)
                    tp += 1
                if plan_value < thr.batch_stop:
                    plan = tau_p = None  # no further batches this phase
                    fallback_fired = True
                else:
                    plan = _Plan(t, actions)
                    tau_p = tp
            a = plan.action_at(t) if plan is not None else _first_action(problem, t, e)
        r = sim.step(t, e, a)  # rejects an action outside the period's set
        log_requests.append(e)
        log_actions.append(a)
        log_rewards.append(r)
        total += r
        phase_val += r

        if conservative:
            if exact:
                s = monitor.append(t, e)
            else:
                phase_window.append(e)
                s = phase_val
                if randomized:
                    s, capped = _mc_estimate(problem, phase_snapshot, phase_window,
                                             online_oracle, tau, t, config,
                                             threshold=thr.conservative_exit)
                    mc_deviation = mc_deviation or capped
            ok = s >= thr.conservative_exit
            if ok and thr.needs_opt_estimate:
                u, _ = offline_oracle.solve(phase_snapshot.clone(), tau, phase_window)
                ok = u >= gamma
            if ok and t < horizon:
                conservative = False
                tau_p = t + 1
                plan = None
                phi = 0.0
                phase_val = 0.0
                if regret:
                    phase_monitor = offline_oracle.monitor(sim, t + 1)
                epochs.append((t + 1, PREDICTIVE))
        else:
            phi += min(problem.distance_fn(e, e_pred), cap)
            if regret:
                revert = regret_based_switch_check(eta, config.epsilon, config.c, L,
                                                   phase_monitor.append(t, e), phase_val)
            else:
                revert = phi >= thr.predictive_exit
            if revert:
                switches += 1
                conservative = True
                tau = t + 1

    report = CompetitiveReport(
        seed=config.seed,
        variant=f"{kind}-{objective}",
        epsilon=config.epsilon, b=config.b, c=config.c, alpha=config.alpha,
        eta=eta, gamma=gamma,
        val=prefix.cumulative + total,
        opt=offline_oracle.value(problem.new_simulator(), 1,
                                 requests.window(1, horizon)),
        phi_star=sequence_distance(problem, requests, prediction, cap=cap).capped_total,
        switch_count=switches, epochs=tuple(epochs),
        flags=() if gamma == 1.0 else ("opt-approx",),
        mc_deviation=mc_deviation, fallback_fired=fallback_fired,
        trajectory=Trajectory(tuple(log_requests), tuple(log_actions),
                              tuple(log_rewards)))
    _attach_core_bound(report, THEOREMS[objective, kind], L)
    return report


def _attach_core_bound(report: CompetitiveReport, theorem: str, L: float) -> None:
    """Fill in the bound of the meta-theorem behind the variant that ran.
    The config passed ``validate_config``, so with ``opt > 0`` every
    precondition of the theorem holds."""
    if report.opt is None or report.opt <= 0:
        return
    report.bounds[theorem] = theoretical_bound(
        theorem, eta=report.eta, epsilon=report.epsilon, b=report.b, c=report.c,
        gamma=report.gamma, alpha=report.alpha, L=L, opt=report.opt,
        phi_star=report.phi_star)


def _require(kw: dict, names: Sequence[str], theorem: str) -> list[float]:
    out = []
    for n in names:
        if n not in kw or kw[n] is None:
            raise ConfigurationError(f"{theorem} needs input {n!r}")
        out.append(kw[n])
    return out


def theoretical_bound(theorem: str, **kw: float) -> float:
    """Closed-form competitive-ratio bound evaluators.

    T1/T1pre: exact-oracle reward bound against the realized / predicted
    optimum.  T2/T2pre: the gamma-oracle analogues.  T3/T4: the cost
    variants.  T5: the lead-time-quotation instantiation.  T6: the general
    k-server instantiation (work function online).  T7: the caching
    instantiation.  Inputs outside a theorem's preconditions raise
    ConfigurationError naming the failed condition.
    """
    if theorem in ("T1", "T1pre", "T2", "T2pre", "T3", "T4"):
        base = theorem[:2]
        eta, eps, b, c, L, opt, phi = _require(
            kw, ["eta", "epsilon", "b", "c", "L", "opt", "phi_star"], theorem)
        gamma, alpha = (_require(kw, ["gamma", "alpha"], theorem)
                        if base in ("T2", "T4") else (1.0, None))
        _check_preconditions(base, eta, eps, b, c, gamma, alpha)
        if opt <= 0:
            raise ConfigurationError(f"{theorem} requires opt > 0")
        if theorem == "T1":
            return max(eta - eps, 1 - L * (12 * c + 8 * b * eta * phi) / (eps * opt))
        if theorem == "T1pre":
            return max(eta - eps, 1 - L * (14 * c + 9 * b * eta * phi) / (eps * opt))
        if theorem == "T2":
            return max(eta - eps,
                       gamma - gamma ** 2 / alpha
                       - L * (18 * alpha * c + 7 * b * eta * phi / gamma) / (eps * opt))
        if theorem == "T2pre":
            return max(eta - eps,
                       gamma - gamma ** 2 / alpha
                       - L * (21 * alpha * c + 8 * b * eta * phi / gamma) / (eps * opt))
        if theorem == "T3":
            return min(eta + eps,
                       1 + L * (14 * eta * (eta + eps) * c + (7 * eta + 2 * eps) * b * phi)
                       / (eps * opt))
        return min(eta + eps,
                   gamma + gamma ** 2 / (alpha - gamma)
                   + L * (19 * gamma * alpha * eta * (eta + eps) * c
                          + (4 * eta + 3 * eps) * gamma * b * phi) / (eps * opt))
    if theorem == "T5":
        eta, eps, ell, opt, phi = _require(
            kw, ["eta", "epsilon", "ell", "opt", "phi_star"], theorem)
        if not 0 < eps < eta:
            raise ConfigurationError("T5 requires epsilon in (0, eta)")
        if opt <= 0:
            raise ConfigurationError("T5 requires opt > 0")
        return max(eta - eps, 1 - ell * (24 * ell + 8 * eta * phi) / (eps * opt))
    if theorem == "T6":
        eta, eps, k, opt, phi = _require(
            kw, ["eta", "epsilon", "k", "opt", "phi_star"], theorem)
        if eps <= 0:
            raise ConfigurationError("T6 requires epsilon > 0")
        if k < 1:
            raise ConfigurationError("T6 requires k >= 1")
        if opt <= 0:
            raise ConfigurationError("T6 requires opt > 0")
        return 1.0 + min(eta + eps,
                         (14 * eta * (eta + eps) * k + (14 * eta + 4 * eps) * phi)
                         / (eps * opt))
    if theorem == "T7":
        k, opt, phi = _require(kw, ["k", "opt", "phi_star"], theorem)
        if k < 1:
            raise ConfigurationError("T7 requires k >= 1")
        if opt <= 0:
            raise ConfigurationError("T7 requires opt > 0")
        return 1 + min(4 * (math.log(k) + 1),
                       (56 * k * (math.log(k) + 1) + 18 * phi) / opt)
    raise ConfigurationError(f"unknown theorem {theorem!r}")

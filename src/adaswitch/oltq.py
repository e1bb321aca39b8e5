"""Online lead-time quotation: single unit of capacity, patience limit ell.

At period ``t``, ``e_t`` orders arrive and each must immediately receive a
processing slot in ``{t, ..., t + ell - 1}`` or be declined (slot = inf).
A slot can process one order; the first claimant of a slot earns
``arrival + ell - slot`` when the slot's period comes up, later claimants
of the same slot earn nothing.  Requests are arrival counts in
``{0, ..., ell}`` and the per-period value is bounded by ``L = ell``.

The exact offline scheduler sweeps slots in increasing order and always
serves the freshest pending order (the one with the highest remaining
revenue); the online policy quotes only the fraction of each period's
arrivals whose revenue clears a threshold tied to the policy's
competitive ratio.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from .framework import (
    MAXIMIZE,
    InvalidActionError,
    ProblemInstance,
    RequestSequence,
    Simulator,
    Trajectory,
    sequence_distance,
)
from .switching import (
    AdaSwitchConfig,
    CompetitiveReport,
    OfflineOracle,
    OnlineOracle,
    OnlinePolicy,
    WindowMonitor,
    run_adaswitch_exact,
    stream,
    theoretical_bound,
)

DECLINE = math.inf  # quoted lead time of at least ell; the order abandons


@dataclass(frozen=True)
class OltqParams:
    """Patience limit; the per-unit revenue rate is fixed at 1."""

    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("patience limit ell must be >= 1")


def _gamma_star_floor_ceil(ell: int) -> tuple[int, int]:
    # k <= gamma* ell  <=>  (2k + ell)^2 <= 5 ell^2 + 4 ell, checked in
    # integers so the floor/ceil are exact despite gamma* being irrational.
    target = 5 * ell * ell + 4 * ell

    def le(k: int) -> bool:
        return (2 * k + ell) ** 2 <= target

    k = int((math.sqrt(5 / 4 + 1 / ell) - 0.5) * ell)
    while le(k + 1):
        k += 1
    while k >= 0 and not le(k):
        k -= 1
    floor_k = k
    ceil_k = floor_k if (2 * floor_k + ell) ** 2 == target else floor_k + 1
    return floor_k, ceil_k


def eta_oltq_fraction(ell: int) -> Fraction:
    """Competitive ratio of the fractional-threshold online policy, exact."""
    floor_k, ceil_k = _gamma_star_floor_ceil(ell)
    candidate_a = Fraction(floor_k, ell)
    candidate_b = Fraction((ell + ceil_k) * (ell - ceil_k + 1), ell * (ell + 1))
    return min(candidate_a, candidate_b)


def eta_oltq(ell: int) -> float:
    return float(eta_oltq_fraction(ell))


def make_requests(ell: int, arrivals) -> RequestSequence:
    """Arrival counts to a request sequence with the patience tail included
    in the effective length (last positive arrival plus ell - 1); a
    RequestSequence passes through unchanged."""
    if isinstance(arrivals, RequestSequence):
        return arrivals
    arrivals = [int(a) for a in arrivals]
    for t, a in enumerate(arrivals, start=1):
        if not 0 <= a <= ell:
            raise ValueError(f"arrival count {a} at period {t} outside 0..{ell}")
    last = max((t for t, a in enumerate(arrivals, start=1) if a > 0), default=0)
    effective = last + ell - 1 if last else 0
    return RequestSequence(arrivals, null_request=0, effective_length=effective)


class ScheduleState:
    """Slot commitments: slot -> (arrival period, revenue earned there).

    At most one order is assigned per slot and assignments never precede
    their arrival; both are enforced at claim time.
    """

    __slots__ = ("claims",)

    def __init__(self, claims: Optional[dict] = None):
        self.claims = dict(claims) if claims else {}

    def claim(self, slot: int, arrival: int, ell: int) -> None:
        if slot not in self.claims:
            self.claims[slot] = (arrival, max(0, arrival + ell - slot))

    def revenue_at(self, t: int) -> float:
        entry = self.claims.get(t)
        return float(entry[1]) if entry is not None else 0.0

    def clone(self) -> "ScheduleState":
        return ScheduleState(self.claims)


class OltqSimulator(Simulator):
    def __init__(self, ell: int, state: Optional[ScheduleState] = None):
        self.ell = ell
        self.state = state if state is not None else ScheduleState()

    def step(self, t: int, request: int, action: Any) -> float:
        _validate_oltq_action(self.ell, t, request, action)
        for i in range(min(len(action), request)):
            slot = action[i]
            if slot is not DECLINE and not math.isinf(slot):
                self.state.claim(int(slot), t, self.ell)
        return self.state.revenue_at(t)

    def clone(self) -> "OltqSimulator":
        return OltqSimulator(self.ell, self.state.clone())


def _validate_oltq_action(ell: int, t: int, request: int, action: Any) -> None:
    if not isinstance(action, (tuple, list)):
        raise InvalidActionError(t, action, "expected a slot vector")
    for i in range(min(len(action), request)):
        slot = action[i]
        if slot is DECLINE or (isinstance(slot, float) and math.isinf(slot)):
            continue
        if not isinstance(slot, (int, float)) or slot != int(slot):
            raise InvalidActionError(t, action, f"slot {slot!r} is not a period")
        if not t <= int(slot) <= t + ell - 1:
            raise InvalidActionError(
                t, action, f"slot {slot} outside {{{t}..{t + ell - 1}, inf}}")


def oltq_reward(ell: int, requests: Sequence[int], actions: Sequence[Any],
                t: Optional[int] = None) -> float:
    """Revenue realized at period ``t`` under the full prefix, directly from
    the slot-exclusivity product form: the earliest claimant (by arrival,
    then index) of slot ``t`` earns ``[arrival + ell - t]_+``, everyone else
    earns zero.  Reference implementation; the simulator must agree."""
    if t is None:
        t = len(requests)
    for s in range(1, min(t, len(actions)) + 1):
        action = actions[s - 1]
        e_s = requests[s - 1]
        for i in range(min(len(action), e_s)):
            slot = action[i]
            if slot == t:
                return float(max(0, s + ell - t))
    return 0.0


def _oltq_action_space(ell: int, t: int, e: int) -> list[tuple]:
    """All slot vectors for ``e`` arrivals, lexicographic with slot order
    (t, t+1, ..., t+ell-1, inf).  This is the documented brute-force
    enumeration (and tie-break) order."""
    slots = list(range(t, t + ell)) + [DECLINE]
    out: list[tuple] = [()]
    for _ in range(e):
        out = [prefix + (s,) for prefix in out for s in slots]
    return out


def problem_instance(ell: int) -> ProblemInstance:
    ell = OltqParams(int(ell)).ell  # validates the patience limit

    def estimate_m(i: int, prediction: RequestSequence) -> int:
        last = prediction.support_length
        return max(i, last) + ell - 1

    return ProblemInstance(
        name=f"oltq(ell={ell})",
        action_space=lambda t, e: _oltq_action_space(ell, t, e),
        reward_bound=float(ell),
        distance_fn=lambda a, b: float(abs(a - b)),
        lipschitz_u=1.0,
        lipschitz_v=float(ell),
        influence_f=2.0 * ell,
        objective=MAXIMIZE,
        simulator_factory=lambda: OltqSimulator(ell),
        estimate_m=estimate_m,
        validate_action=lambda t, e, a: _validate_oltq_action(ell, t, e, a),
    )


class _GreedySweep:
    """Shared core of the offline scheduler: sweep slots left to right,
    serve the freshest pending arrival, skip reserved slots, and credit
    revenue already committed by the conditioning prefix.

    Pending orders live on a stack ordered by arrival; the top is always
    the newest, so when the top has expired (arrival <= slot - ell) the
    whole stack has.
    """

    def __init__(self, ell: int, reserved: dict[int, float], t0: int):
        self.ell = ell
        self.reserved = reserved  # slot -> prefix revenue realized there
        self.t0 = t0
        self.stack: list[list[int]] = []  # [arrival, remaining units]
        self.value = 0.0
        self.assignments: dict[int, list[int]] = {}  # arrival -> slots served

    def push(self, t: int, count: int) -> None:
        if count > 0:
            self.stack.append([t, count])

    def sweep_slot(self, u: int) -> None:
        if u in self.reserved:
            self.value += self.reserved[u]
            return
        while self.stack and self.stack[-1][0] <= u - self.ell:
            self.stack.clear()  # newest expired, so everything has
        if not self.stack:
            return
        arrival, remaining = self.stack[-1]
        self.value += arrival + self.ell - u
        self.assignments.setdefault(arrival, []).append(u)
        if remaining == 1:
            self.stack.pop()
        else:
            self.stack[-1][1] = remaining - 1


def _reserved_slots(state: ScheduleState, t0: int, ell: int) -> dict[int, float]:
    # Prefix actions can only reach slots in [t0, t0 + ell - 2].
    out = {}
    for slot in range(t0, t0 + ell - 1):
        entry = state.claims.get(slot)
        if entry is not None:
            out[slot] = float(entry[1])
    return out


def ohrr_star(sim: OltqSimulator, t0: int, window: Sequence[int]) -> tuple[float, list[tuple]]:
    """Exact hindsight schedule for the window starting at period ``t0``,
    conditioned on the simulator's committed slots.

    Returns the window value (including revenue the prefix already
    committed inside the window) and one action vector per window period,
    ordered so equal-revenue orders of one period serve lowest index first.
    """
    ell = sim.ell
    sweep = _GreedySweep(ell, _reserved_slots(sim.state, t0, ell), t0)
    for i, e in enumerate(window):
        t = t0 + i
        sweep.push(t, int(e))
        sweep.sweep_slot(t)
    actions = []
    for i, e in enumerate(window):
        t = t0 + i
        served = sweep.assignments.get(t, [])
        actions.append(tuple(served) + (DECLINE,) * (int(e) - len(served)))
    return sweep.value, actions


class OhrrMonitor(WindowMonitor):
    """Incremental window optimum: one stack operation per appended period."""

    def __init__(self, sim: OltqSimulator, t0: int):
        self.sweep = _GreedySweep(sim.ell, _reserved_slots(sim.state, t0, sim.ell), t0)
        self.t = t0 - 1

    def append(self, t: int, request: int) -> float:
        self.t += 1
        assert t == self.t, "monitor must be fed consecutive periods"
        self.sweep.push(t, int(request))
        self.sweep.sweep_slot(t)
        return self.sweep.value


class OhrrOracle(OfflineOracle):
    """Exact (gamma = 1) offline oracle built on the greedy sweep."""

    gamma = 1.0

    def solve(self, sim: Simulator, t0: int, window: Sequence[Any]) -> tuple[float, list]:
        return ohrr_star(sim, t0, window)

    def monitor(self, sim: Simulator, t0: int) -> WindowMonitor:
        return OhrrMonitor(sim, t0)


class QFracStarPolicy(OnlinePolicy):
    def __init__(self, ell: int, eta_frac: Fraction, m: int):
        self.ell = ell
        self.eta_ell = eta_frac * ell
        self.next_slot = m + 1  # the U pointer

    def quota(self, t: int, e: int) -> int:
        # N_t = min(e_t, floor(t + ell - U_t + 1 - eta * ell)), never negative.
        bound = Fraction(t + self.ell - self.next_slot + 1) - self.eta_ell
        return max(0, min(int(e), math.floor(bound)))

    def act(self, t: int, request: int, rng: random.Random) -> tuple:
        e = int(request)
        n = self.quota(t, e)
        action = tuple(self.next_slot + i for i in range(n)) + (DECLINE,) * (e - n)
        self.next_slot = max(t + 1, self.next_slot + n)
        return action


class QFracStarOracle(OnlineOracle):
    """Restartable fractional-threshold policy; ignores the conditioning
    trajectory entirely (it may collide with committed slots, which is
    priced into its additive slack)."""

    deterministic = True

    def __init__(self, ell: int):
        self.ell = ell
        self.eta_frac = eta_oltq_fraction(ell)
        self.eta = float(self.eta_frac)

    def restart(self, sim: Simulator, m: int) -> QFracStarPolicy:
        return QFracStarPolicy(self.ell, self.eta_frac, m)


def alpha_of_gamma(ell: int, gamma: float) -> float:
    """Consistency of the external threshold-tuned baseline at robustness
    ``gamma``: the largest q/ell whose threshold value still clears gamma,
    scanned over q = ceil(alpha * ell) in {0, ..., ell}."""
    target = Fraction(gamma)
    best = None
    for q in range(ell + 1):
        if Fraction((ell + q) * (ell - q + 1), ell * (ell + 1)) >= target:
            best = q
    if best is None:
        return 0.0
    return best / ell


def adaswitch_oltq(ell: int, requests, prediction, epsilon: float,
                   seed: int = 0, switching_mode: str = "error-based") -> CompetitiveReport:
    """Switching run instantiated for lead-time quotation: thresholds use
    c = ell + 1 and b = 1, the greedy sweep as the exact offline oracle and
    the fractional-threshold policy as the online oracle."""
    problem = problem_instance(ell)
    requests = make_requests(ell, requests)
    prediction = make_requests(ell, prediction)
    config = AdaSwitchConfig(epsilon=epsilon, b=1.0, c=float(ell + 1),
                             seed=seed, switching_mode=switching_mode)
    report = run_adaswitch_exact(problem, requests, prediction, OhrrOracle(),
                                 QFracStarOracle(ell), config)
    report.variant = "adaswitch-oltq"
    if report.opt and report.opt > 0:
        report.bounds["T5"] = theoretical_bound(
            "T5", eta=report.eta, epsilon=epsilon, ell=float(ell),
            opt=report.opt, phi_star=report.phi_star)
    return report


def run_qfrac_baseline(ell: int, requests, seed: int = 0) -> CompetitiveReport:
    """Pure online run of the fractional-threshold policy (no predictions)."""
    problem = problem_instance(ell)
    requests = make_requests(ell, requests)
    oracle = QFracStarOracle(ell)
    sim = problem.new_simulator()
    policy = oracle.restart(sim, 0)
    log: tuple[list, list, list] = ([], [], [])
    total = 0.0
    for t in range(1, requests.effective_length + 1):
        e = requests.at(t)
        a = policy.act(t, e, stream(seed, "online", 1, t))
        r = sim.step(t, e, a)
        log[0].append(e)
        log[1].append(a)
        log[2].append(r)
        total += r
    traj = Trajectory(tuple(log[0]), tuple(log[1]), tuple(log[2]))
    opt, _ = ohrr_star(OltqSimulator(ell), 1,
                       requests.window(1, requests.effective_length))
    return CompetitiveReport(
        seed=seed, variant="qfrac-star",
        epsilon=0.0, b=1.0, c=float(ell + 1), alpha=None,
        eta=oracle.eta, gamma=1.0, val=total, opt=opt,
        phi_star=0.0, switch_count=0, epochs=((1, "conservative"),) if requests.effective_length else (),
        trajectory=traj)


def strengthened_adaswitch_oltq(ell: int, requests, prediction, gamma: float,
                                Z: float = 24.0, seed: int = 0) -> CompetitiveReport:
    """Keep the robustness target ``gamma`` but only gamble on switching when
    the prediction promises enough value.

    Computes the hindsight optimum of the prediction; if it clears
    ``Z * ell^2 / ((eta - gamma) * (1 - alpha(gamma)))`` the switching run
    is invoked with slack ``epsilon = eta - gamma``, otherwise the pure
    online policy runs.  The report's flags name the branch taken.  The
    fallback is the online policy itself (which preserves the robustness
    target since eta >= gamma) rather than the external baseline, whose
    internals are not reproduced here.
    """
    eta = eta_oltq(ell)
    if not 0 < gamma < eta:
        raise ValueError(f"gamma must lie in (0, eta={eta:.6g}), got {gamma}")
    requests = make_requests(ell, requests)
    prediction = make_requests(ell, prediction)
    opt_pred, _ = ohrr_star(OltqSimulator(ell), 1,
                            prediction.window(1, prediction.effective_length))
    a_gamma = alpha_of_gamma(ell, gamma)
    if a_gamma >= 1.0:
        threshold = math.inf
    else:
        threshold = Z * ell * ell / ((eta - gamma) * (1.0 - a_gamma))
    if opt_pred >= threshold:
        report = adaswitch_oltq(ell, requests, prediction, epsilon=eta - gamma,
                                seed=seed)
        report.variant = "strengthened-adaswitch-oltq"
        report.flags += ("branch-adaswitch",)
    else:
        report = run_qfrac_baseline(ell, requests, seed=seed)
        report.variant = "strengthened-adaswitch-oltq"
        report.flags += ("branch-fallback",)
        problem = problem_instance(ell)
        report.phi_star = sequence_distance(problem, requests, prediction,
                                            cap=float(ell + 1)).capped_total
    return report


def write_instance(path: str, ell: int, arrivals: Sequence[int]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{ell} {len(arrivals)}\n")
        for a in arrivals:
            fh.write(f"{int(a)}\n")


def read_instance(path: str) -> tuple[int, RequestSequence]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'ell T'")
        ell, T = int(header[0]), int(header[1])
        arrivals = []
        for lineno in range(2, T + 2):
            line = fh.readline()
            try:
                arrivals.append(int(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected an arrival count, "
                                 f"got {line.strip()!r}") from None
    return ell, make_requests(ell, arrivals)

"""Nash-equilibrium verification via an exact best-deviation test.

A deviation by country i replaces row i of the allocation matrix.  Only the
states of i, its friends, and its adversaries can change, and each changes
monotonically in the single entry u_ij, so profitability reduces to a small
closed-form feasibility problem per target outcome:

* friend j keeps/starts surviving  iff  u_ij >= g_j,
* adversary j is kept/made not safe iff  u_ij >= h_j  (strictly unsafe
  needs a strict inequality),
* i itself survives iff its friend-directed spending stays within
  p_i + external support - external threat,

where the gaps g_j and h_j are exact rationals derived from the current
matrix.  A deviation is reported when it is a strict improvement over the
binary preference categories, or when it is a state-level improvement on
the adversary front (pushing an adversary from safe or precarious strictly
down) without worsening any relevant state.  The second clause refines the
category rule; without it, outcomes the analysis layer must rule out would
survive verification.

All functions are pure; per-country checks are independent and results are
aggregated by ascending country index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    ZERO,
    Environment,
    Matrix,
    State,
    replace_row,
    sigma_tau,
    state_of,
    state_vector,
)

FractionVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class Deviation:
    """A profitable replacement row for one country, with the states it induces."""

    country: int
    row: FractionVec
    states: tuple[State, ...]


@dataclass(frozen=True)
class NashResult:
    ok: bool
    deviations: tuple[Deviation, ...]

    def __bool__(self) -> bool:
        return self.ok

    def witness_for(self, i: int) -> Deviation | None:
        for dev in self.deviations:
            if dev.country == i:
                return dev
        return None


def _reserve_row(env: Environment, i: int) -> FractionVec:
    row = [ZERO] * env.n
    row[i] = env.powers[i]
    return tuple(row)


def _solve_bounds(
    env: Environment,
    i: int,
    budget: Fraction,
    friend_bounds: list[tuple[int, Fraction]],
    adversary_bounds: list[tuple[int, Fraction, bool]],
    friend_cap: Fraction | None,
) -> FractionVec | None:
    """Find a row meeting all lower bounds, or None if infeasible.

    Strict bounds receive an equal share of the slack; the rest goes to
    reserve, never onto null relations or friends (friends stay at their
    exact bounds so the self-survival cap cannot be violated by slack).
    """
    friend_total = sum((b for _, b in friend_bounds), ZERO)
    if friend_cap is not None and friend_total > friend_cap:
        return None
    adversary_total = sum((b for _, b, _ in adversary_bounds), ZERO)
    total = friend_total + adversary_total
    if total > budget:
        return None
    strict_count = sum(1 for _, _, strict in adversary_bounds if strict)
    slack = budget - total
    if strict_count and slack == 0:
        return None
    # Strict bounds get a small share of the slack rather than an even
    # split: any positive margin proves profitability, and oversized
    # margins make the witness a worse best response (overkilled targets
    # release their other attackers' maintenance burdens).
    bonus = slack / (4 * (strict_count + 1)) if strict_count else ZERO
    row = [ZERO] * env.n
    for j, bound in friend_bounds:
        row[j] = bound
    spent = friend_total
    for j, bound, strict in adversary_bounds:
        value = bound + (bonus if strict else ZERO)
        row[j] = value
        spent += value
    row[i] = budget - spent
    return tuple(row)


def best_deviation(
    env: Environment,
    u: Matrix,
    i: int,
    *,
    _pre: tuple[FractionVec, FractionVec] | None = None,
) -> Deviation | None:
    """Search i's deviation set for a profitable row; None if there is none.

    Target outcomes are enumerated over i's relevant set, pruned to those
    improving on the current outcome (non-improving targets can never be
    profitable), and decided in closed form.  Single-target checks decide
    existence because adding targets only adds constraints.
    """
    sigmas, taus = _pre if _pre is not None else sigma_tau(env, u)
    states = tuple(state_of(s, t) for s, t in zip(sigmas, taus))
    p = env.powers[i]
    friends = env.friends_of(i)
    adversaries = env.adversaries_of(i)
    s_ext = sum((u[j][i] for j in friends), ZERO)
    t_ext = taus[i]

    def finish(row: FractionVec) -> Deviation:
        return Deviation(
            country=i, row=row, states=state_vector(env, replace_row(u, i, row))
        )

    self_survives = states[i].survives
    if not self_survives:
        # Priority of self-survival: any row reaching survival is profitable.
        # Support is maximal with zero friend-directed spending.
        if p + s_ext >= t_ext:
            return finish(_reserve_row(env, i))

    friend_gap = {j: taus[j] - (sigmas[j] - u[i][j]) for j in friends}
    adversary_gap = {j: sigmas[j] - (taus[j] - u[i][j]) for j in adversaries}
    friend_cap = p + s_ext - t_ext if self_survives else None

    def attempt(
        gain_friend: int | None,
        gain_adv: tuple[int, bool] | None,
        strict_maintenance: bool,
    ) -> FractionVec | None:
        friend_bounds: list[tuple[int, Fraction]] = []
        for j in friends:
            if states[j].survives or j == gain_friend:
                friend_bounds.append((j, max(ZERO, friend_gap[j])))
        adversary_bounds: list[tuple[int, Fraction, bool]] = []
        for j in adversaries:
            if gain_adv is not None and j == gain_adv[0]:
                strict = gain_adv[1]
            elif states[j] is State.UNSAFE and strict_maintenance:
                strict = True
            elif states[j] is not State.SAFE:
                strict = False
            else:
                continue
            # A negative gap is met, strictly, by a zero entry.
            gap = adversary_gap[j]
            adversary_bounds.append((j, ZERO, False) if gap < 0 else (j, gap, strict))
        return _solve_bounds(env, i, p, friend_bounds, adversary_bounds, friend_cap)

    # Pass 1: strict category improvements (flip a non-surviving friend, or
    # a safe adversary) while keeping every current category.
    for j in friends:
        if not states[j].survives:
            row = attempt(j, None, strict_maintenance=False)
            if row is not None:
                return finish(row)
    for j in adversaries:
        if states[j] is State.SAFE:
            row = attempt(None, (j, False), strict_maintenance=False)
            if row is not None:
                return finish(row)

    # Pass 2: adversary-front state refinement.  Push a precarious adversary
    # strictly unsafe without letting any relevant state slip (unsafe
    # adversaries must stay strictly unsafe).  Safe adversaries need no
    # second look: their pass-1 constraint set is contained in this one.
    for j in adversaries:
        if states[j] is State.PRECARIOUS:
            row = attempt(None, (j, True), strict_maintenance=True)
            if row is not None:
                return finish(row)

    return None


def is_nash(
    env: Environment,
    u: Matrix,
    *,
    stop_at_first: bool = False,
) -> NashResult:
    """Check that no country has a profitable unilateral deviation.

    The certificate lists a profitable witness per deviating country (all
    of them, unless `stop_at_first` asks for the cheapest rejection).
    """
    pre = sigma_tau(env, u)
    deviations: list[Deviation] = []
    for i in range(env.n):
        dev = best_deviation(env, u, i, _pre=pre)
        if dev is not None:
            deviations.append(dev)
            if stop_at_first:
                break
    return NashResult(ok=not deviations, deviations=tuple(deviations))


def same_equilibrium_class(env: Environment, u: Matrix, v: Matrix) -> bool:
    """Equilibria are equivalent when they induce identical state vectors.

    Both matrices are expected to be equilibria; this is documented, not
    enforced.
    """
    return state_vector(env, u) == state_vector(env, v)

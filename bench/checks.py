"""Reference check behind the benchmark's error rate.

Everything here is independent of the `pag` package: states are recomputed
from the definitions (support = reserve + incoming friend aid + own offense,
threat = incoming adversary offense, safe/precarious/unsafe by exact
comparison), so a defect in the program cannot hide behind the same defect in
its checker.

A result passes when

* its semantic summary matches the pinned one, restricted to the keys the pin
  holds (so additive output keys are not failures), and
* its invariants hold: state vectors equal the recomputed ones, and every
  witness row is admissible and reports the states it really induces (so a
  different but valid witness is not a failure).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Any, Sequence

ZERO = Fraction(0)

Rows = Sequence[Sequence[Fraction]]


class Spec:
    """Countries v1..vn with exact powers and index-pair relations."""

    def __init__(
        self,
        powers: Sequence[Fraction],
        friends: Sequence[tuple[int, int]] = (),
        adversaries: Sequence[tuple[int, int]] = (),
    ):
        self.powers = tuple(Fraction(p) for p in powers)
        self.friends = tuple(sorted((min(a, b), max(a, b)) for a, b in friends))
        self.adversaries = tuple(sorted((min(a, b), max(a, b)) for a, b in adversaries))
        n = len(self.powers)
        fr: list[list[int]] = [[] for _ in range(n)]
        ad: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.friends:
            fr[a].append(b)
            fr[b].append(a)
        for a, b in self.adversaries:
            ad[a].append(b)
            ad[b].append(a)
        self.friends_of = [sorted(x) for x in fr]
        self.adversaries_of = [sorted(x) for x in ad]

    @property
    def n(self) -> int:
        return len(self.powers)

    @property
    def names(self) -> list[str]:
        return [f"v{i + 1}" for i in range(self.n)]

    def scenario(self, rows: Rows | None = None) -> dict:
        """The scenario-file JSON shape the CLI reads."""
        names = self.names
        data: dict[str, Any] = {
            "countries": [{"name": v, "power": str(p)} for v, p in zip(names, self.powers)],
            "friends": [[names[a], names[b]] for a, b in self.friends],
            "adversaries": [[names[a], names[b]] for a, b in self.adversaries],
        }
        if rows is not None:
            data["allocation"] = {
                names[i]: {names[j]: str(x) for j, x in enumerate(row) if x}
                for i, row in enumerate(rows)
                if any(row)
            }
        return data

    @classmethod
    def from_scenario(cls, data: dict) -> tuple["Spec", list[list[Fraction]] | None]:
        names = [c["name"] for c in data["countries"]]
        index = {v: i for i, v in enumerate(names)}
        spec = cls(
            [Fraction(str(c["power"])) for c in data["countries"]],
            [(index[a], index[b]) for a, b in data.get("friends", [])],
            [(index[a], index[b]) for a, b in data.get("adversaries", [])],
        )
        if names != spec.names:
            raise ValueError("scenario countries must be named v1..vn in order")
        allocation = data.get("allocation")
        if allocation is None:
            return spec, None
        return spec, spec.dense(allocation)

    def dense(self, allocation: dict[str, dict[str, str]]) -> list[list[Fraction]]:
        index = {v: i for i, v in enumerate(self.names)}
        rows = [[ZERO] * self.n for _ in range(self.n)]
        for a, entries in allocation.items():
            for b, x in entries.items():
                rows[index[a]][index[b]] = Fraction(x)
        return rows

    # -- exact evaluation ---------------------------------------------------

    def sigma_tau(self, rows: Rows) -> tuple[list[Fraction], list[Fraction]]:
        sig, tau = [], []
        for i in range(self.n):
            s = rows[i][i]
            t = ZERO
            for j in self.friends_of[i]:
                s += rows[j][i]
            for j in self.adversaries_of[i]:
                s += rows[i][j]
                t += rows[j][i]
            sig.append(s)
            tau.append(t)
        return sig, tau

    def states(self, rows: Rows) -> str:
        sig, tau = self.sigma_tau(rows)
        return "".join(state_char(s, t) for s, t in zip(sig, tau))

    def row_problems(self, i: int, row: Sequence[Fraction]) -> list[str]:
        """Row i is admissible: nonnegative, on i's relations only, sums to p_i."""
        allowed = {i, *self.friends_of[i], *self.adversaries_of[i]}
        problems = []
        if len(row) != self.n:
            return [f"row v{i + 1} has length {len(row)}, expected {self.n}"]
        for j, x in enumerate(row):
            if x < 0 or (x and j not in allowed):
                problems.append(f"row v{i + 1}: inadmissible entry at v{j + 1}")
        if sum(row, ZERO) != self.powers[i]:
            problems.append(f"row v{i + 1} does not sum to its power")
        return problems

    def matrix_problems(self, rows: Rows) -> list[str]:
        if len(rows) != self.n:
            return [f"matrix has {len(rows)} rows, expected {self.n}"]
        return [p for i, row in enumerate(rows) for p in self.row_problems(i, row)]

    def witness_problems(
        self,
        rows: Rows,
        base: tuple[list[Fraction], list[Fraction]],
        i: int,
        row: Sequence[Fraction],
        reported: str,
    ) -> list[str]:
        """Replacing row i by `row` is admissible and induces `reported`.

        Only the states of i, its friends and its adversaries can change, so
        only those are recomputed; `base` is (support, threat) of `rows`.
        """
        problems = self.row_problems(i, row)
        if problems:
            return problems
        sig, tau = list(base[0]), list(base[1])
        old = rows[i]
        s = row[i]
        for j in self.friends_of[i]:
            s += rows[j][i]
            sig[j] += row[j] - old[j]
        for j in self.adversaries_of[i]:
            s += row[j]
            tau[j] += row[j] - old[j]
        sig[i] = s
        expected = "".join(state_char(a, b) for a, b in zip(sig, tau))
        if expected != reported:
            return [f"witness for v{i + 1} reports states that its row does not induce"]
        return []


def state_char(sig: Fraction, tau: Fraction) -> str:
    return "s" if sig > tau else "p" if sig == tau else "u"


def states_str(states) -> str:
    """Compact form of a program state vector (State enums or state strings)."""
    return "".join(getattr(s, "value", s)[0] for s in states)


def members_digest(members) -> str:
    """Order-independent digest of a class's member matrices."""
    keys = sorted(";".join(",".join(str(x) for x in row) for row in m) for m in members)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def restrict(actual: Any, expected: Any) -> Any:
    """`actual` cut down to the shape of `expected` (dict keys, list lengths)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        return {k: restrict(actual[k], v) for k, v in expected.items() if k in actual}
    if isinstance(expected, list) and isinstance(actual, list) and len(actual) == len(expected):
        return [restrict(a, e) for a, e in zip(actual, expected)]
    return actual


def compare(summary: dict, expected: dict | None) -> list[str]:
    """Problems when `summary` disagrees with the pinned `expected` summary."""
    if expected is None:
        return []
    if restrict(summary, expected) != expected:
        return ["result differs from the pinned reference"]
    return []

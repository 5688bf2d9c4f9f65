"""Scenario and run-configuration types for the relay-handoff lab.

A user rides a chain of mobile relay vehicles. Relays arrive as a Poisson
stream with rate ``lam``; each relay keeps the user covered for ``t_m`` after
its own arrival. With probability ``p_s`` a relay is a "stopping" vehicle
that dwells an extra ``t_s`` on top of ``t_m``. Each handoff between relays
costs ``t_h`` of service time (pure accounting; it never moves an event).

All times share one arbitrary unit; nothing here carries units.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

_MAX_SEED = 2**64 - 1


class Strategy(enum.Enum):
    """Handoff policies the simulator and the closed forms cover.

    SM_SERVE_ALL: hand off to every catchable relay the moment it arrives.
    SC_LATEST_AT_EXPIRY: ride the current relay until its coverage expires,
        then join the most recently arrived relay still in range. Without
        stopping relays every relay covers t_m, so that is also the one with
        the most remaining coverage; with them an earlier stopping relay may
        cover longer, and the policy still joins the latest arrival.
    """

    SM_SERVE_ALL = "sm"
    SC_LATEST_AT_EXPIRY = "sc"


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario definition, immutable once validated.

    Attributes:
        lam: arrival rate of relay vehicles, > 0. A zero rate is rejected
            rather than treated as a limit; use the small-rate closed-form
            limits instead (e.g. the first-gap mean tends to t_m / 4).
        t_m: coverage duration of a moving relay, > 0.
        t_h: service time lost per handoff, >= 0.
        p_s: probability an arriving relay is a stopping vehicle, in [0, 1].
        t_s: extra dwell of a stopping relay beyond t_m, >= 0.

    Either ``p_s = 0`` or ``t_s = 0`` reduces the scenario to the plain
    (non-stopping) model.
    """

    lam: float
    t_m: float
    t_h: float = 0.0
    p_s: float = 0.0
    t_s: float = 0.0

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def stopping(self) -> bool:
        """True when stopping dynamics can actually alter a round."""
        return self.p_s > 0.0 and self.t_s > 0.0


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration.

    Attributes:
        rounds: number of independent coverage rounds, >= 1.
        seed: 64-bit master seed; every substream derives from it.
        worker_hint: process count the runner may use. Results are
            bit-identical for a fixed seed whatever the value.
    """

    rounds: int
    seed: int
    worker_hint: int = 1

    def __post_init__(self) -> None:
        # bool is an int subclass; reject it so rounds=True does not mean 1
        if not self._is_int(self.rounds) or self.rounds < 1:
            raise ValueError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        if not self._is_int(self.seed) or not 0 <= self.seed <= _MAX_SEED:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not self._is_int(self.worker_hint) or self.worker_hint < 1:
            raise ValueError(f"worker_hint must be an integer >= 1, got {self.worker_hint!r}")

    @staticmethod
    def _is_int(value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)


def _require(name: str, value: float, ok: bool) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not ok:
        raise ValueError(f"{name} out of range: {value!r}")
    return float(value)


def validate_params(params: ScenarioParams) -> None:
    """Check every scenario bound, reporting the first violation by field name.

    Idempotent: validating an already-validated instance changes nothing.

    Raises:
        ValueError: naming the offending field. ``lam == 0`` is rejected
            explicitly with a pointer to the small-rate limits.
    """
    lam = params.lam
    if isinstance(lam, (int, float)) and not isinstance(lam, bool) and lam == 0:
        raise ValueError(
            "lam out of range: 0; the zero-rate scenario is not simulated, "
            "use the lam -> 0+ limit formulas instead"
        )
    _require("lam", lam, isinstance(lam, (int, float)) and lam > 0 and math.isfinite(lam))
    _require("t_m", params.t_m, isinstance(params.t_m, (int, float)) and params.t_m > 0 and math.isfinite(params.t_m))
    _require("t_h", params.t_h, isinstance(params.t_h, (int, float)) and params.t_h >= 0 and math.isfinite(params.t_h))
    _require("p_s", params.p_s, isinstance(params.p_s, (int, float)) and 0 <= params.p_s <= 1)
    _require("t_s", params.t_s, isinstance(params.t_s, (int, float)) and params.t_s >= 0 and math.isfinite(params.t_s))

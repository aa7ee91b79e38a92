"""Periodic active/sleep schedules with uniformly distributed start timers.

A node waits out an initial timeout (its phase), then repeats: active for
t_active seconds, asleep for t_sleep seconds, period U = t_active + t_sleep.
The sleep fraction is delta = t_sleep / U. A run's Schedule holds every
node's phase with U and t_active.

A run keeps time in integer ticks of TICK_S seconds; to_ticks is the one
place where seconds become ticks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

TICKS_PER_S = 1_000_000
TICK_S = 1 / TICKS_PER_S


def draw_phases(n, timeout_min, timeout_max, rng):
    """Initial timeouts, uniform over [timeout_min, timeout_max]."""
    return rng.uniform(timeout_min, timeout_max, size=n)


def to_ticks(seconds):
    """Seconds as whole ticks, rounded half to even: an int for a scalar,
    an int64 array for an array."""
    ticks = np.rint(np.multiply(seconds, TICKS_PER_S))
    if not (np.abs(ticks) < 2.0**63).all():  # the method costs less than np.all
        raise InvalidConfigError(f"time out of the int64 tick range: {seconds} s")
    ticks = ticks.astype(np.int64)
    return int(ticks) if ticks.ndim == 0 else ticks


@dataclass(frozen=True, slots=True)
class Schedule:
    """Every node's duty cycle in integer ticks: phases[node] (a list of
    Python ints), period U and t_active.

    A node is awake at t once its phase has passed and t falls in the
    active part of its period; before its phase (the initial timeout) it
    is not: dt = t - phases[node] >= 0 and dt mod U < t_active.
    dissemination.pick_next applies that rule to one node, in its own
    frame, from these three slots; kernels.awake applies it to arrays.
    Slot reads cost less per hop than a NamedTuple's fields or a closure."""
    phases: list
    period: int
    t_active: int

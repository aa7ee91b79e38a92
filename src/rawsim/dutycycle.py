"""Periodic active/sleep schedules with uniformly distributed start timers.

A node waits out an initial timeout (its phase), then repeats: active for
t_active seconds, asleep for t_sleep seconds, period U = t_active + t_sleep.
The sleep fraction is delta = t_sleep / U.

A run keeps time in integer ticks of TICK_S seconds; to_ticks is the one
place where seconds become ticks.
"""

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


def awake_predicate(phases, period, t_active):
    """The awake rule as awake(node, t) -> bool, a pure function of time;
    phases, period, t_active and t are integer ticks.

    A node is awake once its phase has passed and t falls in the active
    part of its period; before its phase (the initial timeout) it is not.
    kernels.awake is the same rule vectorized; kernels.active_counts counts it.
    """
    phases = np.asarray(phases, dtype=np.int64).tolist()

    def awake(node, t):
        dt = t - phases[node]
        return dt >= 0 and dt % period < t_active

    return awake

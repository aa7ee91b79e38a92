"""Periodic active/sleep schedules with uniformly distributed start timers.

A node waits out an initial timeout (its phase), then repeats: active for
t_active seconds, asleep for t_sleep seconds, period U = t_active + t_sleep.
The sleep fraction is delta = t_sleep / U.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidConfigError


@dataclass(frozen=True)
class DutyCycleConfig:
    t_active: float
    t_sleep: float
    timeout_min: float = 0.0
    timeout_max: float = None  # defaults to the period U

    def __post_init__(self):
        if self.t_active <= 0:
            raise InvalidConfigError(f"t_active must be > 0, got {self.t_active}")
        if self.t_sleep < 0:
            raise InvalidConfigError(f"t_sleep must be >= 0, got {self.t_sleep}")
        if self.timeout_max is None:
            object.__setattr__(self, "timeout_max", self.period)
        if self.timeout_min < 0 or self.timeout_max < self.timeout_min:
            raise InvalidConfigError(
                f"need 0 <= timeout_min <= timeout_max, got "
                f"[{self.timeout_min}, {self.timeout_max}]"
            )

    @property
    def period(self):
        return self.t_active + self.t_sleep

    @property
    def delta(self):
        return delta(self.t_active, self.t_sleep)


def delta(t_active, t_sleep):
    """Sleep fraction t_sleep / (t_active + t_sleep)."""
    if t_active <= 0:
        raise InvalidConfigError(f"t_active must be > 0, got {t_active}")
    if t_sleep < 0:
        raise InvalidConfigError(f"t_sleep must be >= 0, got {t_sleep}")
    return t_sleep / (t_active + t_sleep)


def config_for_delta(sleep_fraction, period, **kwargs):
    """DutyCycleConfig with the given sleep fraction at a fixed period."""
    if not 0.0 <= sleep_fraction < 1.0:
        raise InvalidConfigError(
            f"sleep fraction must be in [0, 1), got {sleep_fraction}"
        )
    t_sleep = sleep_fraction * period
    return DutyCycleConfig(t_active=period - t_sleep, t_sleep=t_sleep, **kwargs)


def draw_phases(n, config, rng):
    """Initial timeouts, uniform over [timeout_min, timeout_max]."""
    return rng.uniform(config.timeout_min, config.timeout_max, size=n)


def awake_predicate(phases, config):
    """The awake rule as awake(node, t) -> bool, a pure function of time.

    A node is awake once its phase has passed and t falls in the active
    part of its period; before its phase (the initial timeout) it is not.
    active_counts is the same rule vectorized over nodes and times.
    """
    period = config.period
    t_active = config.t_active
    # Python floats: for positive operands float % and numpy's mod are
    # both an exact fmod, and the scalar path is much faster
    phases = np.asarray(phases, dtype=np.float64).tolist()

    def awake(node, t):
        dt = t - phases[node]
        return dt >= 0.0 and dt % period < t_active

    return awake


def active_counts(phases, config, times):
    """Awake-node count at each of the ascending sample times, counted
    per duty-cycle window (see kernels.active_counts)."""
    phases = np.ascontiguousarray(phases, dtype=np.float64)
    times = np.ascontiguousarray(times, dtype=np.float64)
    return kernels.active_counts(phases, config.period, config.t_active, times)


def expected_active(n, sleep_fraction):
    """Expected number of simultaneously active nodes, (1 - delta) * n."""
    if not 0.0 <= sleep_fraction <= 1.0:
        raise InvalidConfigError(
            f"sleep fraction must be in [0, 1], got {sleep_fraction}"
        )
    return (1.0 - sleep_fraction) * n


def delta_for_target(n, target_active):
    """Largest sleep fraction that keeps target_active nodes awake on average."""
    if target_active <= 0:
        raise InvalidConfigError(
            f"target_active must be positive, got {target_active}"
        )
    if target_active > n:
        raise InvalidConfigError(f"target_active {target_active} exceeds n={n}")
    value = 1.0 - target_active / n
    return min(max(value, 0.0), math.nextafter(1.0, 0.0))

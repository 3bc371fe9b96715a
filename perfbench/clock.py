"""Times scaled to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by up
to a factor of two within seconds while the work stays the same.  So
every op time is scaled by a calibration pass, fixed pure-Python work of
the kind il's interpreter does, timed just before and just after the ops
it corrects: a scaled time reads as the time the op would take on a
machine where one calibration pass takes CAL_REF_S.  Work that il does
faster or slower moves the scaled time; the machine getting faster or
slower as a whole does not.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

CAL_REF_S = 0.003  # one calibration pass on the reference machine
CAL_EVERY_S = 0.1  # calibrate at least this often between ops


@dataclass(frozen=True)
class _Config:
    env: dict
    term: tuple


# loop: if i < 450 then let acc = acc + i in let i = i + 1 in loop else done
_LOOP = ("if", ("i", 450), ("let", "acc", ("acc", "i"), ("let", "i", ("i", 1), ("loop",))), ("done",))


def calibration_pass() -> float:
    """Wall time of a fixed loop run by a tiny interpreter in the style
    of il's: frozen configurations, environments copied on every
    binding, tuple terms dispatched on their tag."""
    t0 = time.perf_counter()
    c = _Config({"i": 0, "acc": 0, "w": 1}, _LOOP)
    while True:
        t = c.term
        if t[0] == "if":
            var, bound = t[1]
            c = _Config(c.env, t[2] if c.env[var] < bound else t[3])
        elif t[0] == "let":
            var, arg = t[2]
            value = c.env[var] + (arg if isinstance(arg, int) else c.env[arg])
            c = _Config({**c.env, t[1]: value}, t[3])
        elif t[0] == "loop":
            c = _Config(dict(c.env), _LOOP)
        else:
            return time.perf_counter() - t0


class Clock:
    """Collects raw op times and hands them out scaled, each batch by
    the mean of the calibration passes on either side of it."""

    def __init__(self) -> None:
        self._last = calibration_pass()
        self._since = time.perf_counter()
        self._pending: list[tuple[list, float]] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def add(self, samples: list, dt: float) -> None:
        """Queue raw time dt; its scaled value is appended to samples."""
        self._pending.append((samples, dt))
        if time.perf_counter() - self._since >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        cal = calibration_pass()
        factor = CAL_REF_S / ((self._last + cal) / 2)
        for samples, dt in self._pending:
            samples.append(dt * factor)
            self.raw_s += dt
            self.scaled_s += dt * factor
        self._pending = []
        self._last = cal
        self._since = time.perf_counter()

    def scale(self, dt: float) -> float:
        """Scale one time measured since the last calibration."""
        samples: list[float] = []
        self.add(samples, dt)
        self.flush()
        return samples[0]

"""Speed probe: normalises measured time by the host's speed at that moment.

The shared 2-vCPU host this benchmark was tuned on changes speed by up to
1.8x within seconds, with no steal time and CPU time equal to wall time: a
fixed pure-Python loop takes anywhere from 0.13 ms to 0.23 ms. While a probe
is armed, a timer signal runs a fixed reference loop every INTERVAL_S, and
every stretch of time between two probes is rescaled by the mean cost of
those two probes. A normalised second is a second at the speed at which the
loop takes REF_S. A probe's cost is the median over it and its two
neighbours on each side, so an interrupt that lands in one probe does not
set the speed of its stretch. The probes' own time is left out of the raw
and the normalised durations alike.

Standard library only, so that a worker can arm it before numpy, scipy and
isolab are imported.
"""

import bisect
import signal
import statistics
import time

ITERATIONS = 2000
REF_S = 0.3e-3              # the loop's duration at the reference speed
INTERVAL_S = 0.02
SMOOTH = 2                  # neighbours on each side in a probe's median


def _reference_loop():
    d, s = {}, 0
    for i in range(ITERATIONS):
        s += i * i % 7
        d[i & 63] = s
    return s


class SpeedProbe:
    """Arm with `start`, disarm with `stop`; then `durations(a, b)` gives the
    raw and the normalised seconds of any perf_counter interval."""

    def __init__(self):
        self.starts, self.ends, self.costs = [], [], []
        self.smooth = []
        self._previous = None

    def _probe(self, *_):
        t0 = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def start(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        c = self.costs
        self.smooth = [statistics.median(c[max(0, i - SMOOTH):i + SMOOTH + 1])
                       for i in range(len(c))]

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def durations(self, a, b):
        """(raw seconds, normalised seconds) of [a, b] outside the probes,
        once the probe is stopped. Between two probes the speed is the mean
        of their costs; before the first and after the last, that probe's."""
        raw = norm = 0.0

        def add(lo, hi, cost):
            nonlocal raw, norm
            if hi > lo:
                raw += hi - lo
                norm += (hi - lo) * REF_S / cost

        c = self.smooth
        add(a, min(b, self.starts[0]), c[0])
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            add(max(a, self.ends[k]), min(b, self.starts[k + 1]),
                (c[k] + c[k + 1]) / 2)
            k += 1
        add(max(a, self.ends[-1]), b, c[-1])
        return raw, norm

    def stats(self):
        return {"probes": len(self.costs),
                "probe_median_s": sorted(self.costs)[len(self.costs) // 2]}

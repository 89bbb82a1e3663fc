"""A fixed pure-Python loop that measures how fast the machine is right now.

Small shared machines run faster or slower in phases that last from seconds
to minutes, and the phases slow all pure-Python code alike. Timing this loop
while the units of work run gives a speed factor, and ``work_ref_s`` divides
it out. On the 2-core virtual machine the bounds were set on, 22-second
windows of predict work spread 7% in raw CPU time and 2% once divided by
this loop's time measured in the same windows. The loop does the kinds of
work vnspam does (regex substitution, per-character tests, splitting, dict
counting, float sums) on fixed input. It does not use vnspam, so no change to
the program can change its time.
"""

from __future__ import annotations

import contextlib
import gc
import random
import re
import signal
import time

# CPU seconds one `run()` took on the reference machine (the 2-core virtual
# machine the bounds were set on); `work_ref_s` is expressed at this speed.
REFERENCE_S = 0.02
# CPU seconds of work between two samples while sampling: about 5% overhead.
PERIOD_S = 0.5

_NUMBER = re.compile(r"\d+(?:[.,]\d+)*")


class Calibrator:
    """Times the loop, on demand or every ``PERIOD_S`` CPU seconds."""

    def __init__(self):
        rng = random.Random(0)
        self.lines = [
            "".join(rng.choice("abcdefgh ijklmn0123.,:/") for _ in range(100))
            for _ in range(600)
        ]
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds spent in the loop so far

    def run(self) -> float:
        """CPU seconds of one pass over the fixed input.

        The garbage collector is off meanwhile: a collection here would scan
        the program's heap, so the loop's time would depend on the program.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = time.process_time()
            counts: dict = {}
            for line in self.lines:
                line = _NUMBER.sub(" <n> ", line).lower()
                kept = [ch if ch.isalnum() or ch.isspace() else " " for ch in line]
                tokens = "".join(kept).split()
                for pair in zip(tokens, tokens[1:]):
                    counts[pair] = counts.get(pair, 0) + 1
            sum(v * 0.5 for v in counts.values())
            took = time.process_time() - c0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(took)
        self.spent += took
        return took

    def cpu_time(self) -> float:
        """Process CPU seconds, leaving out the time spent in the loop."""
        return time.process_time() - self.spent

    @contextlib.contextmanager
    def sampling(self):
        """Run the loop on entry, every ``PERIOD_S`` CPU seconds inside the
        block, and on exit.

        A profiling-timer signal interrupts the work, so the samples are
        spread over long calls such as a whole grid. Python runs the handler
        in the main thread between bytecodes; the work under measurement
        shares no state with the loop.
        """
        self.run()
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.run())
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
        self.run()

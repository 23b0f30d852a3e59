"""A fixed reference kernel that the benchmark times next to every job.

The host this benchmark was built on (2 vCPUs of a shared Xeon at 2.1 GHz)
changes speed by 30-60% over seconds to minutes, in wall time and process
CPU time alike, so raw times of the same code on the same inputs spread
by more than any bound worth keeping.  The benchmark therefore times this
kernel right before and right after every job and every interpreter start
and scales each measured time by REF_S / (kernel time next to it): a scaled
time is the measured time at the speed the kernel ran at REF_S.  Code
changes in ``nonproper`` move the job time and not the kernel, so they show
in full; a slower or faster host moves both.

The kernel is pure Python on small and large integers, like the exact
arithmetic that dominates the jobs.
"""

import time

REF_S = 0.002  # close to the kernel's median time on the host above
_X = 3 ** 400
_M = _X - 17
_LOOPS = 5000


def reference_s():
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOPS):
        s = (s + _X * i + i * i) % _M
    return time.perf_counter() - t0


def scaled(seconds, ref_before, ref_after):
    """A measured time scaled to the kernel's reference speed."""
    return seconds * REF_S * 2 / (ref_before + ref_after)

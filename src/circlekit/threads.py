"""An order-preserving map over worker threads.

The singular-integral sweep, the divisor sieve, both exact routes and the
pair-sum count are loops of independent numpy blocks that release the
interpreter lock, so they run on every CPU this process may use.  The
calling thread and w - 1 helper threads each claim the next unclaimed
item from one shared counter until none is left, so a slow item holds up
only the thread running it: a caller that works rather than waits leaves
one thread fewer, and with it one allocator arena fewer holding freed
block temporaries.  Every helper is joined before ordered_map returns or
raises.

Users: the singular-integral sweep's blocks (integrals._sweep, which
integrals.j_values runs for `integral`), the divisor table's value
windows (arith.divisor_sieve), the direct rows (arith.exact_S_direct),
the float cube's two forward transforms and four parity pieces
(arith._parity_cube), the window segments (arith.exact_S_convolution)
and the pair-sum value buckets (circle.hua_count).  `verify` takes its
singular integrals from integrals.j_volume instead, which maps nothing
and runs on the calling thread.  series.sigma_truncated runs there too:
it takes residue spectra only at 2^e and p^e with e >= 2, 43 of them at
Q = 5000, and took no less time on two workers than on one.  What the
users map calls no function that perfbench's tracer wraps, because the
tracer keeps one span stack for all threads.
"""

import os
import threading


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Workers per map, the caller included; tests may set it.
WORKERS = min(_usable_cpus(), 4)


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items], computed on up to WORKERS threads.

    If any call raises, the exception of the earliest failing item is
    re-raised, the one a serial loop would have raised: items are claimed
    in rising order, so every item before a failure has been claimed and
    runs to its end.  Items claimed after a failure are skipped, so an
    interrupt does not wait for every item.
    """
    items = list(items)
    w = max(1, min(WORKERS, len(items)))
    results = [None] * len(items)
    failures = []  # (index, exception); list.append is atomic
    claims = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = None if failures else next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failures.append((i, exc))
                return

    helpers = [threading.Thread(target=work, daemon=True) for _ in range(1, w)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results

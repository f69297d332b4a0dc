"""An order-preserving map over worker threads.

The main-term constants and both exact routes are loops of independent
numpy blocks that release the interpreter lock, so they run on every
CPU this process may use.  With w workers the calling thread takes
items[0::w] itself and w - 1 helper threads take items[i::w]: a caller
that works rather than waits leaves one thread fewer, and with it one
allocator arena fewer holding freed block temporaries.  Every helper is
joined before ordered_map returns or raises.

Users: the singular-integral sweep's blocks (integrals.j_values), the
prime-power local densities (series.sigma_truncated), the direct rows
(arith.exact_S_direct), the NTT's slices (arith._ntt) and the window
segments (arith.exact_S_convolution).  What they map
calls no function that perfbench's tracer wraps, because the tracer
keeps one span stack for all threads.
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
    re-raised, the one a serial loop would have raised.  Items after a
    failure are skipped, so an interrupt does not wait for every share.
    """
    items = list(items)
    w = max(1, min(WORKERS, len(items)))
    results = [None] * len(items)
    failures = []  # (index, exception); list.append is atomic

    def share(first: int) -> None:
        for i in range(first, len(items), w):
            if failures and i > min(index for index, _ in failures):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                failures.append((i, exc))
                return

    helpers = [threading.Thread(target=share, args=(i,), daemon=True) for i in range(1, w)]
    for helper in helpers:
        helper.start()
    try:
        share(0)
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results

"""Summary statistics shared by the benchmark's workloads.

Kept free of I/O so test_metrics.py can pin the rules down exactly.
"""

import math
import statistics

# Candidate tail percentiles, highest last.  A tail is reported at the
# highest one that still leaves at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(round(n * pct / 100.0, 9)))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), pct) - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_BEYOND of n samples
    beyond it, or None when even the median leaves fewer."""
    best = None
    for pct in TAIL_LADDER:
        if n > 0 and n - rank(n, pct) >= TAIL_BEYOND:
            best = pct
    return best


def tail(values):
    """(value, percentile, n).  With too few samples for any ladder
    percentile the tail is the slowest sample, reported as percentile 100."""
    n = len(values)
    pct = tail_percentile(n)
    if pct is None:
        return max(values), 100.0, n
    return percentile(values, pct), pct, n


def pass_tail(items, passes):
    """(value, percentile, n) for `items` made of `passes` equal passes.
    The percentile comes from the count in one pass, so runs that fit a
    different number of passes report the same percentile.  When one pass
    has too few items for any ladder percentile, the tail is the median
    over passes of each pass's slowest item, reported as percentile 100."""
    per_pass = len(items) // passes
    pct = tail_percentile(per_pass)
    if pct is not None:
        return percentile(items, pct), pct, len(items)
    slowest = [max(items[i * per_pass:(i + 1) * per_pass]) for i in range(passes)]
    return median(slowest), 100.0, len(items)


def spread(values):
    """Inter-quartile range as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Record:
    """One request of an open-loop client.  Times are seconds on one
    monotonic clock; `due` is when the schedule wanted it sent."""

    __slots__ = ("rid", "kind", "due", "sent", "replied", "status", "daemon_ms", "check")

    def __init__(self, rid, kind, due):
        self.rid = rid
        self.kind = kind
        self.due = due
        self.sent = None
        self.replied = None
        self.status = None
        self.daemon_ms = None
        self.check = None  # None: not checked yet; True/False after checking

    def latency_ms(self):
        """From the due instant, so a stalled sender's wait is counted."""
        return (self.replied - self.due) * 1000.0

    def lag_ms(self):
        return (self.sent - self.due) * 1000.0

    def transport_ms(self):
        """Client round trip from the actual send, minus the daemon's time."""
        return (self.replied - self.sent) * 1000.0 - self.daemon_ms


def ok(record):
    """Answered with status ok and passing its output check."""
    return (
        record.replied is not None
        and record.status == "ok"
        and record.check is not False
    )


def count_failures(records):
    """(attempted, failed): every scheduled request is attempted; one that
    was refused (overloaded, draining, ...), failed, never answered or
    answered wrongly counts as failed."""
    attempted = len(records)
    failed = sum(1 for r in records if not ok(r))
    return attempted, failed

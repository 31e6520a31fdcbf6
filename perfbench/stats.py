"""Statistics shared by the benchmark runner, the compare command and
their tests: one implementation of each rule."""

import statistics

# A tail percentile needs this many samples beyond it to be reported.
TAIL_BEYOND = 10


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def spread(xs):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(xs):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, n): the largest sample that has ten
    samples above it, and the percentile it sits at.  None when there
    are too few samples for any such percentile."""
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    s = sorted(xs)
    return (s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n)


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def pair_win_share(parent, change, better):
    """Share of (parent[i], change[i]) pairs the change wins; ties count
    for neither side."""
    if len(parent) != len(change) or not parent:
        raise ValueError("pairs need two equally long, non-empty run lists")
    wins = sum(1 for p, c in zip(parent, change) if better_than(c, p, better))
    return wins / len(parent)


def verdict(parent, change, better, bound):
    """Improved / unchanged / worse / unresolved, by the rule for small
    sandboxes: a gain needs nine tenths of the pairs and a median shift
    beyond the parent's own quartile distance; a loss is a median worse
    by more than the bound; a parent spread wider than the bound leaves
    the metric unresolved unless every change run beats every parent
    run."""
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = pair_win_share(parent, change, better)
    shift = (pm - cm) if better == "lower" else (cm - pm)
    if wins >= 0.9 and shift > (p3 - p1):
        return "improved"
    if -shift > bound * abs(pm):
        return "worse"
    all_better = all(better_than(c, p, better) for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"

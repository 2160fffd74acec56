"""Median and quartiles of a sample, as every result file records them."""

import statistics


def describe(values):
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def metric(samples, unit, scale=1.0):
    """A metric entry: the median of the scaled samples, with its quartiles."""
    d = describe([v * scale for v in samples] if scale != 1.0 else samples)
    return {"value": d["median"], "unit": unit, **d}

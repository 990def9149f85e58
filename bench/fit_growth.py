#!/usr/bin/env python3
"""Fit a benchmark family's growth exponent from google-benchmark JSON.

The exponent k is the least-squares slope of log(real_time) against
log(argument) over the runs named PREFIX/<argument>, so time ~ n^k.
Repeated runs of one argument are reduced to their median.

    bench_micro --benchmark_filter=EstimateGcc --benchmark_format=json > m.json
    python3 bench/fit_growth.py m.json BM_EstimateGcc
"""

import argparse
import json
import math
import statistics
import sys


def growth_exponent(report, prefix):
    times = {}
    for bench in report['benchmarks']:
        name, _, arg = bench['name'].partition('/')
        if name != prefix or bench.get('run_type') == 'aggregate':
            continue
        times.setdefault(int(arg.split('/')[0]), []).append(bench['real_time'])
    if len(times) < 2:
        raise ValueError('%s: need runs at two or more sizes, found %d'
                         % (prefix, len(times)))
    xs = [math.log(n) for n in times]
    ys = [math.log(statistics.median(t)) for t in times.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('report', help='google-benchmark JSON output')
    parser.add_argument('prefix', help='benchmark family, e.g. BM_EstimateGcc')
    args = parser.parse_args()
    with open(args.report) as f:
        report = json.load(f)
    try:
        k = growth_exponent(report, args.prefix)
    except ValueError as err:
        sys.exit('fit_growth: %s' % err)
    print('%s growth exponent: %.2f' % (args.prefix, k))


if __name__ == '__main__':
    main()

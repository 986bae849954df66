/**
 * @file
 * Self-test of the benchmark's own arithmetic: percentile choice,
 * ratios printed with their base, self-time subtraction and
 * reconciliation. Run with `python3 marlbench/run.py --self-test`;
 * exits non-zero on the first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b));
}

void
percentiles()
{
    using marlbench::percentile;
    using marlbench::tailPercentile;
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(i);
    expect(near(percentile(v, 50), 51), "p50 of 1..101 is 51");
    expect(near(percentile(v, 99), 100), "p99 of 1..101 is 100");
    expect(near(percentile({1, 2}, 50), 1.5), "p50 interpolates");
    expect(percentile({}, 50) == 0, "empty sample reads 0");
    expect(near(percentile({5, 1, 3}, 0), 1), "input need not be sorted");

    // At least ten samples must lie beyond the chosen percentile.
    expect(tailPercentile(1000) == 99, "n=1000 supports p99");
    expect(tailPercentile(999) == 90, "n=999 leaves <10 beyond p99");
    expect(tailPercentile(100) == 90, "n=100 supports p90");
    expect(tailPercentile(99) == 50, "n=99 falls back to p50");
    expect(tailPercentile(0) == 50, "n=0 reports p50");
    expect(marlbench::percentileLabel(99) == "p99", "label p99");
}

void
ratios()
{
    using marlbench::formatRatio;
    expect(formatRatio(8000, 50000) == "0.1600 (= 8000 / 50000)",
           "ratio printed with its base");
    expect(formatRatio(3, 0) == "0.0000 (= 3 / 0)",
           "zero base prints ratio 0 and keeps the base");
    expect(marlbench::safeRatio(1, 0) == 0, "safeRatio guards 0");
}

void
selfTime()
{
    using marlbench::Span;
    using marlbench::SpanLog;
    const Span parent{"p", 0, 100, -1, 0};
    expect(near(marlbench::uncoveredNs(parent, {}), 100),
           "childless span is all self time");
    expect(near(marlbench::uncoveredNs(
                    parent, {{"a", 10, 30, 0, 0}, {"b", 50, 60, 0, 0}}),
                70),
           "self = parent - sequential children");
    expect(near(marlbench::uncoveredNs(
                    parent, {{"a", 10, 40, 0, 0}, {"b", 30, 60, 0, 0}}),
                50),
           "overlapping children are not subtracted twice");
    expect(near(marlbench::uncoveredNs(parent, {{"a", 90, 150, 0, 0}}),
                90),
           "children are clipped to the parent");

    SpanLog ok;
    const std::int64_t p = ok.add("step", 0, 100, -1, 7);
    ok.add("select", 0, 20, p, 7);
    ok.add("env", 20, 50, p, 7);
    const marlbench::Reconciliation good = marlbench::reconcile(ok);
    expect(good.parents == 1, "one parent reconciled");
    expect(near(good.rows.at("step").unattributedNs, 50),
           "unattributed = parent - children");
    expect(near(good.rows.at("select").selfNs, 20), "leaf self time");
    expect(good.maxErrorPct < 1e-9, "sequential children reconcile");

    SpanLog bad; // Children summed across threads exceed the parent.
    const std::int64_t q = bad.add("update", 0, 100, -1, 1);
    bad.add("worker0", 0, 80, q, 1);
    bad.add("worker1", 0, 80, q, 1);
    const marlbench::Reconciliation over = marlbench::reconcile(bad);
    expect(near(over.maxErrorPct, 80),
           "overlapping children break reconciliation");
}

} // namespace

int
main()
{
    percentiles();
    ratios();
    selfTime();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures == 0 ? 0 : 1;
}

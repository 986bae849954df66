/**
 * @file
 * Measurement harness of the MARLin benchmark: wall-clock reads,
 * percentile rules, in-memory spans with self-time and
 * reconciliation, and the run report that ends in one JSON line.
 *
 * Everything here lives outside the library: the workloads time
 * calls into MARLin's public functions and read results the library
 * already exposes, so nothing under src/ carries benchmark code.
 */

#ifndef MARLBENCH_HARNESS_HH
#define MARLBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace marlbench
{

/** Monotonic wall clock in nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds between two nowNs() reads. */
inline double
secondsBetween(std::int64_t start_ns, std::int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/**
 * Percentile @p p (0..100) of @p values with linear interpolation
 * between closest ranks; 0 for an empty sample. Sorts a copy.
 */
double percentile(std::vector<double> values, double p);

/** Median shorthand. */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/**
 * The tail percentile a sample of @p n supports: the highest of
 * p99, p90 and p50 that leaves at least ten samples beyond it, so a
 * tail is never read off one or two outliers. Samples too small for
 * p50 still get p50.
 */
double tailPercentile(std::size_t n);

/** "p99" / "p90" / "p50" label for a tailPercentile() result. */
std::string percentileLabel(double p);

/**
 * Render a ratio together with its base, e.g.
 * "0.1600 (= 8000 / 50000)", so no share is printed without the
 * counts it was computed from. A zero denominator renders the ratio
 * as 0.
 */
std::string formatRatio(double numerator, double denominator);

/** numerator / denominator, or 0 when the denominator is 0. */
inline double
safeRatio(double numerator, double denominator)
{
    return denominator != 0.0 ? numerator / denominator : 0.0;
}

/** One timed interval of a traced run. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the parent span in the same SpanLog, or -1. */
    std::int64_t parent = -1;
    /** Step / request / cycle id shared by the spans of one unit. */
    std::uint64_t id = 0;

    double
    durationNs() const
    {
        return static_cast<double>(endNs - startNs);
    }
};

/**
 * Append-only span store, kept in memory for the run and written
 * out when it ends. Not synchronized: give each thread its own log.
 */
class SpanLog
{
  public:
    /** Record a finished span; @return its index. */
    std::int64_t
    add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
        std::int64_t parent, std::uint64_t id)
    {
        spans.push_back({name, start_ns, end_ns, parent, id});
        return static_cast<std::int64_t>(spans.size()) - 1;
    }

    /** Open a span whose end is filled in later by close(). */
    std::int64_t
    open(const char *name, std::int64_t start_ns, std::int64_t parent,
         std::uint64_t id)
    {
        return add(name, start_ns, start_ns, parent, id);
    }

    void
    close(std::int64_t index, std::int64_t end_ns)
    {
        spans[static_cast<std::size_t>(index)].endNs = end_ns;
    }

    void reserve(std::size_t n) { spans.reserve(n); }
    const std::vector<Span> &all() const { return spans; }

    /** Durations (in µs) of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

  private:
    std::vector<Span> spans;
};

/**
 * Wall time of @p parent not covered by any of @p children, each
 * child clipped to the parent's interval (union of intervals, so
 * overlapping children are not subtracted twice).
 */
double uncoveredNs(const Span &parent, std::vector<Span> children);

/** Per-name totals of a span log. */
struct LedgerRow
{
    std::size_t count = 0;
    double totalNs = 0;
    /** Span time minus the part its children cover. */
    double selfNs = 0;
    /** Parents only: sum of the self time of spans with children. */
    double unattributedNs = 0;
    bool isParent = false;
};

/** Result of reconciling every parent span with its children. */
struct Reconciliation
{
    std::map<std::string, LedgerRow> rows;
    /** Parents checked. */
    std::size_t parents = 0;
    /**
     * Largest |sum(child durations) + unattributed - parent| as a
     * share of the parent (percent). Overlapping or escaping
     * children show up here; sequential children give ~0.
     */
    double maxErrorPct = 0;
};

/**
 * Build the self-time ledger of @p log and reconcile each parent:
 * unattributed = parent - union(children), and the children's
 * durations plus unattributed must add back up to the parent.
 */
Reconciliation reconcile(const SpanLog &log);

/** Merge the ledgers of several threads' logs into @p into. */
void mergeLedger(Reconciliation &into, const Reconciliation &from);

/** Print the ledger as a table on stdout, shares of @p root_ns. */
void printLedger(const Reconciliation &rec, double root_ns);

/**
 * Write @p logs (one per thread) as a JSON array of spans to
 * @p path. @return false (and say why on stderr) on I/O failure.
 */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

/** A named metric value with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * Outcome of one benchmark run: the output checks, the operation
 * counts and the metrics, printed as human-readable lines followed
 * by one JSON object on the last line of stdout.
 */
class Report
{
  public:
    /** Record an output check; a failing check marks the run wrong. */
    bool check(bool ok, const std::string &what);

    /** Set a metric; a non-finite value fails the run. */
    void set(const std::string &name, double value,
             const std::string &unit);

    /** Extra human-readable line printed before the JSON. */
    void note(const std::string &line) { notes.push_back(line); }

    bool correct() const { return failedChecks == 0; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /**
     * Print the notes, every metric in @p keep (name + unit) and
     * the JSON line. Metrics missing from this run print as 0 so the
     * JSON always carries the full declared set.
     */
    void print(const std::vector<std::pair<std::string, std::string>>
                   &keep) const;

  private:
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes;
    std::size_t failedChecks = 0;
};

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMiB();

/** printf into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace marlbench

#endif // MARLBENCH_HARNESS_HH

#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>

namespace marlbench
{

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list copy;
    va_copy(copy, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    va_end(ap);
    return out;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
tailPercentile(std::size_t n)
{
    for (const double p : {99.0, 90.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 50.0;
}

std::string
percentileLabel(double p)
{
    return strprintf("p%g", p);
}

std::string
formatRatio(double numerator, double denominator)
{
    return strprintf("%.4f (= %.6g / %.6g)",
                     safeRatio(numerator, denominator), numerator,
                     denominator);
}

std::vector<double>
SpanLog::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (name == s.name)
            out.push_back(s.durationNs() * 1e-3);
    }
    return out;
}

double
uncoveredNs(const Span &parent, std::vector<Span> children)
{
    std::sort(children.begin(), children.end(),
              [](const Span &a, const Span &b) {
                  return a.startNs < b.startNs;
              });
    double covered = 0;
    std::int64_t cursor = parent.startNs;
    for (const Span &c : children) {
        const std::int64_t lo = std::max(c.startNs, cursor);
        const std::int64_t hi = std::min(c.endNs, parent.endNs);
        if (hi > lo) {
            covered += static_cast<double>(hi - lo);
            cursor = hi;
        }
    }
    return parent.durationNs() - covered;
}

Reconciliation
reconcile(const SpanLog &log)
{
    const std::vector<Span> &spans = log.all();
    std::vector<std::vector<std::size_t>> kids(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            kids[static_cast<std::size_t>(p)].push_back(i);
    }
    Reconciliation rec;
    std::vector<Span> children;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        LedgerRow &row = rec.rows[s.name];
        ++row.count;
        row.totalNs += s.durationNs();
        if (kids[i].empty()) {
            row.selfNs += s.durationNs();
            continue;
        }
        children.clear();
        double child_sum = 0;
        for (const std::size_t k : kids[i]) {
            children.push_back(spans[k]);
            child_sum += spans[k].durationNs();
        }
        const double unattributed = uncoveredNs(s, children);
        row.isParent = true;
        row.selfNs += unattributed;
        row.unattributedNs += unattributed;
        ++rec.parents;
        if (s.durationNs() > 0) {
            const double err =
                100.0 *
                std::fabs(child_sum + unattributed - s.durationNs()) /
                s.durationNs();
            rec.maxErrorPct = std::max(rec.maxErrorPct, err);
        }
    }
    return rec;
}

void
mergeLedger(Reconciliation &into, const Reconciliation &from)
{
    for (const auto &[name, row] : from.rows) {
        LedgerRow &dst = into.rows[name];
        dst.count += row.count;
        dst.totalNs += row.totalNs;
        dst.selfNs += row.selfNs;
        dst.unattributedNs += row.unattributedNs;
        dst.isParent = dst.isParent || row.isParent;
    }
    into.parents += from.parents;
    into.maxErrorPct = std::max(into.maxErrorPct, from.maxErrorPct);
}

void
printLedger(const Reconciliation &rec, double root_ns)
{
    std::printf("ledger (wall; self = span - children; shares of "
                "%.3f s traced wall)\n",
                root_ns * 1e-9);
    std::printf("  %-28s %9s %12s %12s %8s %14s\n", "span", "count",
                "total_ms", "self_ms", "self_%", "unattributed_ms");
    for (const auto &[name, row] : rec.rows) {
        std::printf("  %-28s %9zu %12.3f %12.3f %8.2f %14s\n",
                    name.c_str(), row.count, row.totalNs * 1e-6,
                    row.selfNs * 1e-6,
                    100.0 * safeRatio(row.selfNs, root_ns),
                    row.isParent
                        ? strprintf("%.3f", row.unattributedNs * 1e-6)
                              .c_str()
                        : "-");
    }
    std::printf("  reconciliation: %zu parents, max |children + "
                "unattributed - parent| = %.4f%% of parent\n",
                rec.parents, rec.maxErrorPct);
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "marlbench: cannot write spans to '%s'\n",
                     path.c_str());
        return false;
    }
    out << "[";
    bool first = true;
    for (std::size_t t = 0; t < logs.size(); ++t) {
        for (const Span &s : logs[t]->all()) {
            out << (first ? "\n" : ",\n") << "{\"thread\":" << t
                << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.startNs
                << ",\"end_ns\":" << s.endNs
                << ",\"parent\":" << s.parent << ",\"id\":" << s.id
                << "}";
            first = false;
        }
    }
    out << "\n]\n";
    out.close();
    if (!out) {
        std::fprintf(stderr, "marlbench: short write to '%s'\n",
                     path.c_str());
        return false;
    }
    return true;
}

bool
Report::check(bool ok, const std::string &what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        ++failedChecks;
    return ok;
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    if (!std::isfinite(value))
        check(false, "metric " + name + " is finite");
    metrics[name] = {value, unit};
}

void
Report::print(
    const std::vector<std::pair<std::string, std::string>> &keep) const
{
    for (const std::string &line : notes)
        std::printf("%s\n", line.c_str());
    std::string json = strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, unit] : keep) {
        const auto it = metrics.find(name);
        double value = it != metrics.end() ? it->second.value : 0.0;
        if (!std::isfinite(value))
            value = 0.0; // Already failed the run in set().
        std::printf("metric %-36s %16.6f %s\n", name.c_str(), value,
                    unit.c_str());
        json += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": "
                          "\"%s\"}",
                          first ? "" : ", ", name.c_str(), value,
                          unit.c_str());
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMiB()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace marlbench

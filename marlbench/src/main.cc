/**
 * @file
 * marlbench: one workload per invocation.
 *
 *   marlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * Untraced runs (--trace 0) print the end-to-end metrics; traced runs
 * (--trace 1) print the per-layer metrics, the span ledger and the
 * tracing overhead, spending half of --seconds untraced and half
 * traced so both kinds of run take about as long. Both run the
 * workload's output checks and end
 * with one JSON object on the last line of stdout. Exit status: 0 when
 * every check passed, 1 when a check failed, 2 on bad arguments or a
 * refused start (nothing printed as a result then).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "marlin/base/logging.hh"
#include "workloads.hh"

namespace marlbench
{

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"throughput_per_s", "1/s"},
        {"latency_p50_us", "us"},
        {"latency_tail_us", "us"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"core.update_ms.p50", "ms"},
        {"core.update_ms.tail", "ms"},
        {"core.update.count", "count"},
        {"core.update.sampling_ms", "ms"},
        {"core.update.target_q_cpu_ms", "ms"},
        {"core.update.qp_loss_cpu_ms", "ms"},
        {"core.select_actions_us.p50", "us"},
        {"core.select_actions_us.tail", "us"},
        {"numeric.gemm_macs_per_update", "count"},
        {"numeric.kernel_calls_per_update", "count"},
        {"base.pool_busy_ratio", "ratio"},
        {"base.steady_state_allocs", "count"},
        {"async.actor_step_us", "us"},
        {"async.actor_other_us", "us"},
        {"async.learner_update_ms", "ms"},
        {"async.learner_non_update_share", "ratio"},
        {"async.ingest_ratio", "ratio"},
        {"async.weight_refreshes_per_update", "ratio"},
        {"async.updates_per_s", "1/s"},
        {"async.rollout_steps_per_s", "1/s"},
        {"replay.append_us", "us"},
        {"replay.plan_us", "us"},
        {"replay.gather_us.p50", "us"},
        {"replay.gather_us.tail", "us"},
        {"replay.gather_bytes_per_cycle", "bytes"},
        {"replay.cold_row_share", "ratio"},
        {"replay.spilled_per_cycle", "count"},
        {"serve.queue_wait_us_mean", "us"},
        {"serve.infer_us_mean", "us"},
        {"serve.batch_rows_mean", "count"},
        {"serve.frontend_us", "us"},
        {"obs.trace_overhead_pct", "%"},
        {"obs.reconcile_max_err_pct", "%"},
    };
    return m;
}

void
pauseBetweenSetups()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
}

void
reportSetup(Report &report, const std::vector<double> &setup_s,
            const std::string &what)
{
    report.set("setup_s", median(setup_s), "s");
    report.note(strprintf("setup_s: median of %zu set-ups (%s); min "
                          "%.6f s, max %.6f s",
                          setup_s.size(), what.c_str(),
                          percentile(setup_s, 0), percentile(setup_s, 100)));
}

void
reportDistribution(Report &report, const std::string &name,
                   const std::vector<double> &values,
                   const std::string &unit)
{
    const double tail = tailPercentile(values.size());
    report.set(name + ".p50", percentile(values, 50), unit);
    report.set(name + ".tail", percentile(values, tail), unit);
    report.note(strprintf("%s: n=%zu p50=%.3f %s=%.3f %s", name.c_str(),
                          values.size(), percentile(values, 50),
                          percentileLabel(tail).c_str(),
                          percentile(values, tail), unit.c_str()));
}

void
reportLatency(Report &report, const std::vector<double> &lat_us,
              const std::string &unit_name)
{
    const double tail_p = kTailPercentile;
    report.set("latency_p50_us", percentile(lat_us, 50), "us");
    report.set("latency_tail_us", percentile(lat_us, tail_p), "us");
    const double beyond =
        static_cast<double>(lat_us.size()) * (100.0 - tail_p) / 100.0;
    report.note(strprintf(
        "latency of one %s: n=%zu p50=%.1f p90=%.1f p99=%.1f us; tail "
        "%s (%.1f samples beyond it%s)",
        unit_name.c_str(), lat_us.size(), percentile(lat_us, 50),
        percentile(lat_us, 90), percentile(lat_us, 99),
        percentileLabel(tail_p).c_str(), beyond,
        beyond < 10 ? "; fewer than 10, read it as noisy" : ""));
}

void
reportOverhead(Report &report, double untraced_rate,
               double traced_rate, const std::string &what)
{
    const double pct =
        100.0 * safeRatio(untraced_rate - traced_rate, untraced_rate);
    report.set("obs.trace_overhead_pct", pct, "%");
    report.note(strprintf("obs.trace_overhead_pct = %.2f%% (%s: "
                          "untraced %.3f/s vs traced %.3f/s)",
                          pct, what.c_str(), untraced_rate,
                          traced_rate));
}

void
reportReconciliation(Report &report, const Reconciliation &rec,
                     double root_ns)
{
    printLedger(rec, root_ns);
    report.set("obs.reconcile_max_err_pct", rec.maxErrorPct, "%");
    report.check(rec.parents > 0 && rec.maxErrorPct <= 1.0,
                 strprintf("trace reconciles: %zu parents, children + "
                           "unattributed within %.4f%% (limit 1%%)",
                           rec.parents, rec.maxErrorPct));
}

} // namespace marlbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "marlbench: %s\nusage: marlbench --workload "
                 "{lockstep-pp6|async-cn3|serve-cn3|replay-1m} "
                 "--seed N --seconds S --trace {0|1} [--work-dir D]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace marlbench;
    RunOptions opt;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                usage("--seed must be a whole number");
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(opt.seconds > 0 && opt.seconds <= 600))
                usage("--seconds must be in (0, 600]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
            have_trace = true;
        } else if (key == "--work-dir") {
            opt.workDir = value;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (opt.workload.empty() || !have_trace)
        usage("--workload and --trace are required");

    marlin::setLogLevel(marlin::LogLevel::Warn);
    std::error_code ec;
    std::filesystem::create_directories(opt.workDir, ec);
    if (ec)
        usage(("cannot create work dir " + opt.workDir).c_str());

    Report report;
    if (opt.workload == "lockstep-pp6")
        runLockstep(opt, report);
    else if (opt.workload == "async-cn3")
        runAsync(opt, report);
    else if (opt.workload == "serve-cn3")
        runServe(opt, report);
    else if (opt.workload == "replay-1m")
        runReplay(opt, report);
    else
        usage(("unknown workload " + opt.workload).c_str());

    if (!opt.trace)
        report.set("peak_rss_mb", peakRssMiB(), "MiB");
    report.note(strprintf(
        "fail_ratio = %s", formatRatio(static_cast<double>(report.failed),
                                       static_cast<double>(
                                           report.attempted))
                               .c_str()));
    report.check(report.attempted > 0, "at least one operation ran");
    report.print(opt.trace ? perLayerMetrics() : endToEndMetrics());
    return report.correct() ? 0 : 1;
}

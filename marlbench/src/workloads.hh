/**
 * @file
 * The four MARLin benchmark workloads and the metric names they
 * report. Each workload is chosen because some layer does most of
 * its work only there (see marlbench/README.md):
 *
 *   lockstep-pp6  core::TrainLoop, MADDPG predator-prey, 6 agents,
 *                 the paper's TrainConfig — trainer update bound;
 *   async-cn3     async::AsyncTrainLoop, 2 actors + learner —
 *                 actor rollout and ring ingest;
 *   serve-cn3     serve::Server on loopback, 3 closed-loop clients —
 *                 the serving tier;
 *   replay-1m     replay::ShardedStore at 2^20 PP-6 records with an
 *                 mmap cold tier — replay append/plan/gather.
 */

#ifndef MARLBENCH_WORKLOADS_HH
#define MARLBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"

namespace marlbench
{

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /** Directory for run artefacts (span dumps, replay cold tier). */
    std::string workDir = ".bench_build/run";
};

/**
 * Set-ups timed per run; setup_s is their median. A set-up that takes
 * under a millisecond is repeated more: its first few repeats are
 * slower (fresh heap pages, cold caches), and the median should come
 * from the settled ones.
 */
inline constexpr int kSetupRepeats = 3;
inline constexpr int kSetupRepeatsAsync = 7;
inline constexpr int kSetupRepeatsServe = 41;

/**
 * Untimed pause between short set-ups. On a shared host one vCPU can
 * run far slower than another for a while; back-to-back sub-second
 * set-ups would all land in that one phase on one CPU, while spacing
 * them out lets the median sample several.
 */
void pauseBetweenSetups();

/** Metrics of an untraced run, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics();

/** Metrics of a traced run, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics();

void runLockstep(const RunOptions &opt, Report &report);
void runAsync(const RunOptions &opt, Report &report);
void runServe(const RunOptions &opt, Report &report);
void runReplay(const RunOptions &opt, Report &report);

/** Tail percentile of latency_tail_us on every workload. */
inline constexpr double kTailPercentile = 90;

/**
 * Set the shared end-to-end metrics from per-unit latencies:
 * latency_p50_us and latency_tail_us (kTailPercentile), noting the
 * sample count, p99 and how many samples lie beyond the tail. The
 * percentile is fixed, not re-chosen from each run's sample count, so
 * runs stay comparable; every workload's 20-second run leaves at
 * least ten samples beyond p90.
 */
void reportLatency(Report &report, const std::vector<double> &lat_us,
                   const std::string &unit_name);

/** setup_s = median of @p setup_s, noting the count, range and what
 *  one set-up does. */
void reportSetup(Report &report, const std::vector<double> &setup_s,
                 const std::string &what);

/** Report p50 and the supported tail of @p values as name.p50 /
 *  name.tail in @p unit, noting the count and percentile. */
void reportDistribution(Report &report, const std::string &name,
                        const std::vector<double> &values,
                        const std::string &unit);

/** obs.trace_overhead_pct from an untraced and a traced rate of the
 *  same work (positive = tracing slowed the run). */
void reportOverhead(Report &report, double untraced_rate,
                    double traced_rate, const std::string &what);

/** Print the ledger, set obs.reconcile_max_err_pct and fail the run
 *  when a parent does not reconcile within 1%. */
void reportReconciliation(Report &report, const Reconciliation &rec,
                          double root_ns);

} // namespace marlbench

#endif // MARLBENCH_WORKLOADS_HH

/**
 * @file
 * replay-1m: replay::ShardedStore with 2 shards and capacity 2^20
 * joint predator-prey records for 6 agents (the paper's 1e6). The
 * newest quarter stays hot in RAM; the rest sits in the mmap cold tier
 * under a per-run temp dir. Prefilled in set-up; each cycle then
 * appends 100 records and, for each of the 6 agents, runs
 * UniformSampler::planInto(size, 1024) and gatherAll — the learner's
 * replay traffic without the networks. Single thread.
 *
 * Every record carries its append sequence number in each agent's
 * reward field, so each gathered row can be checked against the slot
 * it was gathered from.
 */

#include <sys/statvfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "marlin/marlin.hh"
#include "workloads.hh"

namespace marlbench
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kShards = 2;
constexpr BufferIndex kCapacity = BufferIndex(1) << 20;
constexpr BufferIndex kHot = kCapacity / 4;
constexpr std::size_t kAppendsPerCycle = 100;
constexpr std::size_t kBatch = 1024;
/** Distinct seeded record bodies; sequence numbers make each unique. */
constexpr std::size_t kBodies = 4096;
/** Traced runs alternate untraced and traced slices of this length. */
constexpr double kSliceS = 0.5;

/** A directory removed, with everything in it, when this goes. */
class TempDir
{
  public:
    explicit TempDir(std::string path) : _path(std::move(path))
    {
        std::error_code ec;
        std::filesystem::remove_all(_path, ec);
        std::filesystem::create_directories(_path, ec);
        ok = !ec;
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(_path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return _path; }
    bool ok = false;

  private:
    std::string _path;
};

std::vector<replay::TransitionShape>
shapes()
{
    const auto environment = env::makePredatorPreyEnv(kAgents, 0);
    std::vector<replay::TransitionShape> out;
    for (std::size_t i = 0; i < environment->numAgents(); ++i)
        out.push_back({environment->obsDim(i), environment->actionDim()});
    return out;
}

/** Seeded record bodies plus the sequence stamp. */
class RecordSource
{
  public:
    RecordSource(const replay::JointTransitionLayout &layout_in,
                 std::uint64_t seed)
        : layout(layout_in), bodies(kBodies * layout_in.stride)
    {
        Rng rng(seed);
        for (Real &v : bodies)
            v = rng.uniformf() * 2 - 1;
        for (std::size_t b = 0; b < kBodies; ++b) {
            for (const auto &blk : layout.agents)
                bodies[b * layout.stride + blk.done] = 0;
        }
    }

    /** Append record number @p seq to @p store. */
    void
    append(replay::ShardedStore &store, std::uint64_t seq)
    {
        Real *rec = bodies.data() + (seq % kBodies) * layout.stride;
        for (const auto &blk : layout.agents)
            rec[blk.reward] = static_cast<Real>(seq);
        store.appendRecord(layout, rec);
    }

  private:
    const replay::JointTransitionLayout &layout;
    std::vector<Real> bodies;
};

/** Cold-tier bytes the fill writes, with headroom for headers. */
double
coldBytesNeeded(std::size_t stride)
{
    return static_cast<double>(kCapacity - kHot) *
               static_cast<double>(stride * sizeof(Real)) * 1.25 +
           64.0 * 1024 * 1024;
}

double
freeBytes(const std::string &dir)
{
    struct statvfs fs {};
    if (::statvfs(dir.c_str(), &fs) != 0)
        return 0;
    return static_cast<double>(fs.f_bavail) *
           static_cast<double>(fs.f_frsize);
}

/** A filled store in its own cold dir. */
struct ReplayWorld
{
    ReplayWorld(const std::string &dir, std::uint64_t seed)
        : cold(dir)
    {
        replay::ShardedStoreConfig cfg;
        cfg.shards = kShards;
        cfg.hotCapacity = kHot;
        cfg.coldDir = cold.path();
        store = std::make_unique<replay::ShardedStore>(shapes(),
                                                       kCapacity, cfg);
        source = std::make_unique<RecordSource>(store->layout(), seed);
        for (; appended < kCapacity; ++appended)
            source->append(*store, appended);
    }

    /** Newest sequence number stored in @p slot. */
    std::uint64_t
    expectedSeq(BufferIndex slot) const
    {
        return slot + kCapacity * ((appended - 1 - slot) / kCapacity);
    }

    TempDir cold;
    std::unique_ptr<replay::ShardedStore> store;
    std::unique_ptr<RecordSource> source;
    std::uint64_t appended = 0;
};

/** One cycle's plans and batches, retained across cycles. */
struct CycleScratch
{
    replay::UniformSampler sampler;
    std::vector<replay::IndexPlan> plans{kAgents};
    std::vector<std::vector<replay::AgentBatch>> batches{kAgents};
};

/**
 * Append kAppendsPerCycle records, then plan + gather for every
 * agent. With @p log, spans go around each call.
 */
void
cycle(ReplayWorld &w, CycleScratch &s, Rng &rng, SpanLog *log,
      std::uint64_t id)
{
    const std::int64_t c0 = nowNs();
    for (std::size_t i = 0; i < kAppendsPerCycle; ++i)
        w.source->append(*w.store, w.appended++);
    if (log == nullptr) {
        for (std::size_t a = 0; a < kAgents; ++a) {
            s.sampler.planInto(w.store->size(), kBatch, rng, s.plans[a]);
            w.store->gatherAll(s.plans[a], s.batches[a]);
        }
        return;
    }
    const std::int64_t c1 = nowNs();
    const std::int64_t parent = log->open("cycle", c0, -1, id);
    log->add("append", c0, c1, parent, id);
    for (std::size_t a = 0; a < kAgents; ++a) {
        const std::int64_t p0 = nowNs();
        s.sampler.planInto(w.store->size(), kBatch, rng, s.plans[a]);
        const std::int64_t p1 = nowNs();
        w.store->gatherAll(s.plans[a], s.batches[a]);
        const std::int64_t p2 = nowNs();
        log->add("plan", p0, p1, parent, id);
        log->add("gather", p1, p2, parent, id);
    }
    log->close(parent, nowNs());
}

/** Joint rows of the last cycle whose stamps do not match the slot
 *  they were gathered from (any agent's copy). */
std::uint64_t
badRows(const ReplayWorld &w, const CycleScratch &s)
{
    std::uint64_t bad = 0;
    for (std::size_t a = 0; a < kAgents; ++a) {
        const replay::IndexPlan &plan = s.plans[a];
        for (std::size_t r = 0; r < plan.indices.size(); ++r) {
            const auto want =
                static_cast<Real>(w.expectedSeq(plan.indices[r]));
            bool good = true;
            for (const replay::AgentBatch &b : s.batches[a])
                good = good && b.rewards(r, 0) == want;
            bad += good ? 0 : 1;
        }
    }
    return bad;
}

struct CycleRun
{
    std::vector<double> cycleUs;
    double wallS = 0;
    std::uint64_t rows = 0;
    std::uint64_t bad = 0;
};

/** Add cycles to @p out until @p seconds more cycle time is measured. */
void
runFor(ReplayWorld &w, CycleScratch &s, Rng &rng, double seconds,
       SpanLog *log, CycleRun &out)
{
    double measured_ns = 0;
    while (measured_ns < seconds * 1e9) {
        const std::int64_t t0 = nowNs();
        cycle(w, s, rng, log, out.cycleUs.size());
        const std::int64_t t1 = nowNs();
        // The content check runs outside the timed cycle.
        out.bad += badRows(w, s);
        out.rows += kAgents * kBatch;
        out.cycleUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
        measured_ns += static_cast<double>(t1 - t0);
    }
    out.wallS += measured_ns * 1e-9;
}

void
checkRows(Report &report, const CycleRun &run)
{
    report.check(run.bad == 0,
                 strprintf("every gathered row carries the sequence "
                           "number of its slot (%llu bad of %llu)",
                           static_cast<unsigned long long>(run.bad),
                           static_cast<unsigned long long>(run.rows)));
    report.attempted += run.rows;
    report.failed += run.bad;
}

std::uint64_t
counter(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

} // namespace

void
runReplay(const RunOptions &opt, Report &report)
{
    base::ThreadPool::setGlobalThreads(1);
    const std::string base_dir =
        opt.workDir + "/replay-" + std::to_string(::getpid());
    const std::size_t stride =
        replay::JointTransitionLayout::fromShapes(shapes()).stride;
    const double need = coldBytesNeeded(stride);
    {
        std::error_code ec;
        std::filesystem::create_directories(opt.workDir, ec);
    }
    const double have = freeBytes(opt.workDir);
    if (have < need) {
        std::fprintf(stderr,
                     "marlbench: replay-1m needs %.0f MiB free for its "
                     "cold tier under '%s' but only %.0f MiB are "
                     "available; refusing to start\n",
                     need / (1 << 20), opt.workDir.c_str(),
                     have / (1 << 20));
        std::exit(2);
    }

    const int setups = opt.trace ? 1 : kSetupRepeats;
    std::vector<double> setup_s;
    std::unique_ptr<ReplayWorld> world;
    for (int r = 0; r < setups; ++r) {
        world.reset(); // Removes the previous cold dir first.
        const std::int64_t t0 = nowNs();
        world = std::make_unique<ReplayWorld>(
            base_dir + "-" + std::to_string(r), opt.seed);
        setup_s.push_back(secondsBetween(t0, nowNs()));
        if (!report.check(world->cold.ok, "cold-tier temp dir created"))
            return;
    }
    report.note(strprintf("record stride %zu floats; cold tier under "
                          "%s-*",
                          stride, base_dir.c_str()));

    // Start every run from written-back cold segments (untimed): the
    // fill leaves about 1.1 GB of dirty mapped pages, and the kernel
    // would otherwise write them back inside the measured window at a
    // time that differs from run to run. Spills made while measuring
    // still dirty pages as they would in a long run.
    world->store->flushCold();

    CycleScratch scratch;
    Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
    // Warm the retained plan/batch storage before timing.
    cycle(*world, scratch, rng, nullptr, 0);
    checkRows(report, {{}, 0, kAgents * kBatch, badRows(*world, scratch)});

    if (!opt.trace) {
        reportSetup(
            report, setup_s,
            strprintf("store + fill of %llu records, %llu cold",
                      static_cast<unsigned long long>(kCapacity),
                      static_cast<unsigned long long>(kCapacity - kHot)));
        CycleRun run;
        runFor(*world, scratch, rng, opt.seconds, nullptr, run);
        checkRows(report, run);
        const double rate =
            static_cast<double>(run.cycleUs.size()) / run.wallS;
        report.set("throughput_per_s", rate, "1/s");
        report.note(strprintf("replay_cycles_per_s = %.2f (= %zu cycles "
                              "/ %.3f s)",
                              rate, run.cycleUs.size(), run.wallS));
        reportLatency(report, run.cycleUs,
                      "cycle (100 appends + 6 x plan/gather of 1024)");
        report.note(strprintf("replay_cycle_p99_us = %.1f us (n=%zu)",
                              percentile(run.cycleUs, 99),
                              run.cycleUs.size()));
        return;
    }

    const std::uint64_t records0 = counter("replay.shard.gather_records");
    const std::uint64_t bytes0 = counter("replay.shard.gather_bytes");
    const std::uint64_t faulted0 = counter("replay.cold.faulted");
    const std::uint64_t spilled0 = counter("replay.cold.spilled");
    SpanLog log;
    log.reserve(static_cast<std::size_t>(opt.seconds * 300) * 14);
    // Untraced and traced slices alternate, so drift over the run
    // (page cache, other tenants) does not land on one side of the
    // tracing-overhead comparison.
    const double half = opt.seconds / 2;
    CycleRun plain;
    CycleRun run;
    while (plain.wallS < half || run.wallS < half) {
        runFor(*world, scratch, rng, kSliceS, nullptr, plain);
        runFor(*world, scratch, rng, kSliceS, &log, run);
    }
    checkRows(report, plain);
    checkRows(report, run);
    // Counter deltas cover both kinds of slices; the work per cycle is
    // the same in each.
    const auto all_cycles =
        static_cast<double>(plain.cycleUs.size() + run.cycleUs.size());
    const auto cycles = static_cast<double>(run.cycleUs.size());
    const double records =
        static_cast<double>(counter("replay.shard.gather_records") -
                            records0);
    const double faulted =
        static_cast<double>(counter("replay.cold.faulted") - faulted0);

    const Reconciliation rec = reconcile(log);
    reportReconciliation(report, rec, run.wallS * 1e9);
    writeSpans(opt.workDir + "/replay-1m.spans.json", {&log});
    report.set("replay.append_us", median(log.durationsUs("append")),
               "us");
    report.set("replay.plan_us", median(log.durationsUs("plan")), "us");
    reportDistribution(report, "replay.gather_us",
                       log.durationsUs("gather"), "us");
    report.set(
        "replay.gather_bytes_per_cycle",
        static_cast<double>(counter("replay.shard.gather_bytes") -
                            bytes0) /
            all_cycles,
        "bytes");
    report.set("replay.cold_row_share", safeRatio(faulted, records),
               "ratio");
    report.note(strprintf("replay.cold_row_share = %s (replay.cold."
                          "faulted / replay.shard.gather_records)",
                          formatRatio(faulted, records).c_str()));
    report.set(
        "replay.spilled_per_cycle",
        static_cast<double>(counter("replay.cold.spilled") - spilled0) /
            all_cycles,
        "count");
    report.note("replay.append_us is one cycle's 100 appendRecord calls");
    reportOverhead(report,
                   static_cast<double>(plain.cycleUs.size()) / plain.wallS,
                   cycles / run.wallS, "replay cycles per second");
}

} // namespace marlbench

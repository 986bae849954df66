/**
 * @file
 * async-cn3: async::AsyncTrainLoop, MADDPG on cooperative navigation
 * with 3 agents, marlin_cli's defaults (batch 128, buffer 32768,
 * update every 50), 2 actors + the learner, 1 pool thread, the
 * supervisor at its default watchdog. The actor side (batch-1 action
 * selection, env step, ring push) does most of the work here.
 *
 * AsyncTrainLoop::run takes an episode count, so a run is a series of
 * fixed-size chunks on one loop (replay and weights carry over) until
 * the time is up. Timing subclasses of the trainer, defined here,
 * wrap the learner's update and — in traced runs — the actor clones'
 * selectActionsInto.
 */

#include <deque>
#include <memory>
#include <mutex>

#include "marlin/marlin.hh"
#include "workloads.hh"

namespace marlbench
{

namespace
{

using namespace marlin;
using profile::Phase;

constexpr std::size_t kAgents = 3;
constexpr std::size_t kActors = 2;
/** Fills the 256-transition warm-up and runs the first updates. */
constexpr std::size_t kWarmEpisodes = 200;
constexpr std::size_t kChunkEpisodes = 2000;

/** marlin_cli's defaults for this runtime. */
core::TrainConfig
cliConfig(std::uint64_t seed)
{
    core::TrainConfig config;
    config.batchSize = 128;
    config.bufferCapacity = 32768;
    config.updateEvery = 50;
    config.warmupTransitions = config.batchSize * 2;
    config.epsilonDecayEpisodes = 500;
    config.seed = seed;
    return config;
}

/** One learner update as seen from outside the trainer. */
struct UpdateRecord
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t samplingNs = 0;
    std::uint64_t targetQNs = 0;
    std::uint64_t qpLossNs = 0;
};

/**
 * MADDPG with a stopwatch around update (learner) and, when given a
 * span log, around selectActionsInto (actor clones). Each instance
 * is driven by one thread, so its logs need no lock.
 */
class TimedMaddpg : public core::MaddpgTrainer
{
  public:
    TimedMaddpg(const std::vector<std::size_t> &dims, std::size_t act,
                const core::TrainConfig &config,
                std::vector<UpdateRecord> *update_log,
                SpanLog *select_log)
        : core::MaddpgTrainer(dims, act, config,
                              [] {
                                  return std::make_unique<
                                      replay::UniformSampler>();
                              }),
          updateLog(update_log), selectLog(select_log)
    {
    }

    void
    selectActionsInto(const std::vector<std::vector<Real>> &obs,
                      std::size_t episode,
                      std::vector<int> &out) override
    {
        if (selectLog == nullptr) {
            core::MaddpgTrainer::selectActionsInto(obs, episode, out);
            return;
        }
        const std::int64_t t0 = nowNs();
        core::MaddpgTrainer::selectActionsInto(obs, episode, out);
        selectLog->add("select_actions", t0, nowNs(), -1, calls++);
    }

    core::UpdateStats
    update(const replay::ReplayStore &store,
           profile::PhaseTimer &timer) override
    {
        const profile::PhaseTimer before = timer;
        const std::int64_t t0 = nowNs();
        const core::UpdateStats stats =
            core::MaddpgTrainer::update(store, timer);
        const std::int64_t t1 = nowNs();
        if (updateLog != nullptr) {
            const auto delta = [&](Phase p) {
                return timer.nanoseconds(p) - before.nanoseconds(p);
            };
            updateLog->push_back({t0, t1, delta(Phase::Sampling),
                                  delta(Phase::TargetQ),
                                  delta(Phase::QPLoss)});
        }
        return stats;
    }

  private:
    std::vector<UpdateRecord> *updateLog;
    SpanLog *selectLog;
    std::uint64_t calls = 0;
};

/** Span logs of the actor clones; clones are built per chunk. */
struct ActorLogs
{
    std::mutex mutex;
    std::deque<SpanLog> logs;
    bool enabled = false;

    void
    setEnabled(bool on)
    {
        const std::lock_guard<std::mutex> lock(mutex);
        enabled = on;
    }

    SpanLog *
    make()
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!enabled)
            return nullptr;
        logs.emplace_back();
        return &logs.back();
    }
};

/** Learner trainer, update log and the async loop over them. */
struct AsyncWorld
{
    AsyncWorld(std::uint64_t seed, ActorLogs &actor_logs)
    {
        const core::TrainConfig config = cliConfig(seed);
        const auto probe = env::makeCooperativeNavigationEnv(kAgents, 0);
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < probe->numAgents(); ++i)
            dims.push_back(probe->obsDim(i));
        const std::size_t act = probe->actionDim();
        updates.reserve(1 << 16);
        learner = std::make_unique<TimedMaddpg>(dims, act, config,
                                                &updates, nullptr);
        async::AsyncConfig acfg; // Ring 4096, watchdog 250 ms.
        acfg.actors = kActors;
        ActorLogs *logs = &actor_logs;
        loop = std::make_unique<async::AsyncTrainLoop>(
            *learner,
            [](std::uint64_t s) {
                return env::makeCooperativeNavigationEnv(kAgents, s);
            },
            [dims, act, config, logs](std::uint64_t s) {
                core::TrainConfig actor_config = config;
                actor_config.seed = s;
                return std::unique_ptr<core::CtdeTrainerBase>(
                    std::make_unique<TimedMaddpg>(dims, act,
                                                  actor_config, nullptr,
                                                  logs->make()));
            },
            config, acfg);
    }

    std::vector<UpdateRecord> updates;
    std::unique_ptr<TimedMaddpg> learner;
    std::unique_ptr<async::AsyncTrainLoop> loop;
};

/** Sums over chunks plus the accounting checks' tallies. */
struct Totals
{
    std::size_t chunks = 0;
    double wallS = 0;
    std::uint64_t generated = 0;
    std::uint64_t drained = 0;
    std::uint64_t updates = 0;
    std::uint64_t pushed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t seqGaps = 0;
    std::uint64_t unexplainedGaps = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t restarts = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t nonFinite = 0;
    std::size_t conservationBreaks = 0;
    std::size_t generationBreaks = 0;
    std::size_t episodeShortfalls = 0;
    std::size_t haltsOrFailures = 0;
    std::size_t nonFiniteScores = 0;
    /** Learner iteration: one update start to the next. */
    std::vector<double> iterationUs;
    /** [begin, end) of each chunk's records in AsyncWorld::updates. */
    std::vector<std::pair<std::size_t, std::size_t>> updateRanges;
};

void
runChunk(AsyncWorld &world, std::size_t episodes, Totals &t)
{
    const std::size_t u0 = world.updates.size();
    const std::int64_t start = nowNs();
    const async::AsyncTrainResult r = world.loop->run(episodes);
    t.wallS += secondsBetween(start, nowNs());
    const std::size_t u1 = world.updates.size();
    t.updateRanges.emplace_back(u0, u1);
    for (std::size_t i = u0 + 1; i < u1; ++i) {
        t.iterationUs.push_back(
            static_cast<double>(world.updates[i].startNs -
                                world.updates[i - 1].startNs) *
            1e-3);
    }
    ++t.chunks;
    t.generated += r.envSteps;
    t.drained += r.drainedSteps;
    t.updates += r.updateCalls;
    t.pushed += r.ringPushed;
    t.dropped += r.ringDropped;
    t.seqGaps += r.ringSeqGaps;
    // A drop consumes a sequence number, so gaps up to the drop count
    // are by design; any beyond it are records lost in the ring.
    if (r.ringSeqGaps > r.ringDropped)
        t.unexplainedGaps += r.ringSeqGaps - r.ringDropped;
    t.quarantined += r.quarantined;
    t.restarts += r.restarts;
    t.refreshes += r.weightRefreshes;
    t.nonFinite += r.nonFiniteUpdates;
    if (r.ringPushed != r.drainedSteps + r.quarantined + r.ringResidual)
        ++t.conservationBreaks;
    if (r.envSteps != r.ringPushed + r.ringDropped)
        ++t.generationBreaks;
    if (r.episodeRewards.size() != episodes)
        ++t.episodeShortfalls;
    if (r.halted || r.learnerFailed)
        ++t.haltsOrFailures;
    if (!std::isfinite(r.finalScore))
        ++t.nonFiniteScores;
}

/** Chunks until @p seconds of wall time have been measured. */
Totals
runFor(AsyncWorld &world, double seconds)
{
    Totals t;
    while (t.wallS < seconds)
        runChunk(world, kChunkEpisodes, t);
    return t;
}

void
checkTotals(Report &report, const Totals &t)
{
    report.check(t.conservationBreaks == 0,
                 strprintf("ringPushed == drained + quarantined + "
                           "residual in all %zu chunks",
                           t.chunks));
    report.check(t.generationBreaks == 0,
                 "generated == ringPushed + ringDropped in every chunk");
    report.check(t.unexplainedGaps == 0,
                 strprintf("no seq gaps beyond ring drops (gaps %llu, "
                           "drops %llu)",
                           static_cast<unsigned long long>(t.seqGaps),
                           static_cast<unsigned long long>(t.dropped)));
    report.check(t.haltsOrFailures == 0, "no halt or learner failure");
    report.check(t.episodeShortfalls == 0,
                 "every chunk completed its episodes");
    report.check(t.nonFiniteScores == 0, "final scores are finite");
    report.check(t.updates > 0, "the learner updated");
    report.attempted += t.updates + t.pushed;
    report.failed += t.nonFinite + t.quarantined + t.unexplainedGaps +
                     t.restarts;
}

void
noteRates(Report &report, const Totals &t)
{
    const auto per_s = [&](std::uint64_t n) {
        return static_cast<double>(n) / t.wallS;
    };
    report.note(strprintf("train_steps_per_s = %.1f transitions/s "
                          "(= %llu drained / %.3f s)",
                          per_s(t.drained),
                          static_cast<unsigned long long>(t.drained),
                          t.wallS));
    report.note(strprintf("updates_per_s = %.2f 1/s (= %llu / %.3f s)",
                          per_s(t.updates),
                          static_cast<unsigned long long>(t.updates),
                          t.wallS));
    report.note(strprintf("rollout_steps_per_s = %.1f transitions/s "
                          "(= %llu generated / %.3f s)",
                          per_s(t.generated),
                          static_cast<unsigned long long>(t.generated),
                          t.wallS));
    report.note(strprintf(
        "ring drop share = %s",
        formatRatio(static_cast<double>(t.dropped),
                    static_cast<double>(t.generated))
            .c_str()));
}

void
untraced(const RunOptions &opt, Report &report)
{
    ActorLogs logs;
    std::vector<double> setup_s;
    std::unique_ptr<AsyncWorld> world;
    Totals warm;
    for (int r = 0; r < kSetupRepeatsAsync; ++r) {
        world.reset();
        pauseBetweenSetups();
        const std::int64_t t0 = nowNs();
        world = std::make_unique<AsyncWorld>(opt.seed, logs);
        runChunk(*world, kWarmEpisodes, warm);
        setup_s.push_back(secondsBetween(t0, nowNs()));
    }
    reportSetup(report, setup_s,
                strprintf("construct + %zu warm-up episodes",
                          kWarmEpisodes));
    checkTotals(report, warm);

    const Totals t = runFor(*world, opt.seconds);
    checkTotals(report, t);
    report.set("throughput_per_s",
               static_cast<double>(t.drained) / t.wallS, "1/s");
    noteRates(report, t);
    reportLatency(report, t.iterationUs,
                  "learner iteration (update start to update start)");
}

/** Rebuild actor steps (select start to next select start) as
 *  parents of their select spans. */
SpanLog
actorSteps(const SpanLog &selects, std::vector<double> &step_us,
           std::vector<double> &other_us)
{
    SpanLog out;
    const std::vector<Span> &s = selects.all();
    for (std::size_t k = 0; k + 1 < s.size(); ++k) {
        const std::int64_t p = out.add("actor_step", s[k].startNs,
                                       s[k + 1].startNs, -1, s[k].id);
        out.add("select_actions", s[k].startNs, s[k].endNs, p, s[k].id);
        const double step = static_cast<double>(s[k + 1].startNs -
                                                s[k].startNs) *
                            1e-3;
        step_us.push_back(step);
        other_us.push_back(step - s[k].durationNs() * 1e-3);
    }
    return out;
}

/** Rebuild learner iterations as parents of their update spans. */
SpanLog
learnerIterations(const std::vector<UpdateRecord> &updates,
                  const Totals &t)
{
    SpanLog out;
    for (const auto &[b, e] : t.updateRanges) {
        for (std::size_t i = b; i + 1 < e; ++i) {
            const UpdateRecord &u = updates[i];
            const std::int64_t p = out.add("learner_iter", u.startNs,
                                           updates[i + 1].startNs, -1, i);
            const std::int64_t up =
                out.add("update", u.startNs, u.endNs, p, i);
            // PhaseTimer Sampling is serial wall time; placed at the
            // update's start, only its duration is meaningful.
            out.add("update.sampling", u.startNs,
                    u.startNs + static_cast<std::int64_t>(u.samplingNs),
                    up, i);
        }
    }
    return out;
}

void
traced(const RunOptions &opt, Report &report)
{
    ActorLogs logs;
    AsyncWorld world(opt.seed, logs);
    Totals warm;
    runChunk(world, kWarmEpisodes, warm);
    checkTotals(report, warm);

    // Untraced and traced chunks alternate, so drift over the run
    // (page cache, other tenants) does not land on one side of the
    // tracing-overhead comparison.
    const double half = opt.seconds / 2;
    Totals plain;
    Totals t;
    while (plain.wallS < half || t.wallS < half) {
        runChunk(world, kChunkEpisodes, plain);
        logs.setEnabled(true);
        runChunk(world, kChunkEpisodes, t);
        logs.setEnabled(false);
    }
    checkTotals(report, plain);
    checkTotals(report, t);
    noteRates(report, plain);
    report.set("async.updates_per_s",
               static_cast<double>(plain.updates) / plain.wallS, "1/s");
    report.set("async.rollout_steps_per_s",
               static_cast<double>(plain.generated) / plain.wallS,
               "1/s");

    std::vector<double> update_ms;
    std::vector<double> sampling_ms;
    std::vector<double> target_q_ms;
    std::vector<double> qp_loss_ms;
    double update_wall_ns = 0;
    double update_busy_ns = 0;
    std::vector<std::size_t> traced_updates;
    for (const auto &[b, e] : t.updateRanges) {
        for (std::size_t i = b; i < e; ++i)
            traced_updates.push_back(i);
    }
    for (const std::size_t i : traced_updates) {
        const UpdateRecord &u = world.updates[i];
        const auto wall = static_cast<double>(u.endNs - u.startNs);
        update_ms.push_back(wall * 1e-6);
        sampling_ms.push_back(static_cast<double>(u.samplingNs) * 1e-6);
        target_q_ms.push_back(static_cast<double>(u.targetQNs) * 1e-6);
        qp_loss_ms.push_back(static_cast<double>(u.qpLossNs) * 1e-6);
        update_wall_ns += wall;
        update_busy_ns += static_cast<double>(u.samplingNs +
                                              u.targetQNs + u.qpLossNs);
    }
    reportDistribution(report, "core.update_ms", update_ms, "ms");
    report.set("core.update.count", static_cast<double>(update_ms.size()),
               "count");
    report.set("core.update.sampling_ms", median(sampling_ms), "ms");
    report.set("core.update.target_q_cpu_ms", median(target_q_ms), "ms");
    report.set("core.update.qp_loss_cpu_ms", median(qp_loss_ms), "ms");
    report.set("base.pool_busy_ratio",
               safeRatio(update_busy_ns, update_wall_ns), "ratio");
    report.set("async.learner_update_ms", median(update_ms), "ms");
    const double non_update =
        1.0 - safeRatio(update_wall_ns * 1e-9, t.wallS);
    report.set("async.learner_non_update_share", non_update, "ratio");
    report.note(strprintf("async.learner_non_update_share = 1 - %s "
                          "(update wall s / traced wall s)",
                          formatRatio(update_wall_ns * 1e-9, t.wallS)
                              .c_str()));
    report.set("async.ingest_ratio",
               safeRatio(static_cast<double>(t.drained),
                         static_cast<double>(t.generated)),
               "ratio");
    report.note(strprintf(
        "async.ingest_ratio = %s (drained / generated)",
        formatRatio(static_cast<double>(t.drained),
                    static_cast<double>(t.generated))
            .c_str()));
    report.set("async.weight_refreshes_per_update",
               safeRatio(static_cast<double>(t.refreshes),
                         static_cast<double>(t.updates)),
               "ratio");

    Reconciliation rec;
    std::vector<SpanLog> derived;
    std::vector<double> step_us;
    std::vector<double> other_us;
    std::vector<double> select_us;
    for (const SpanLog &log : logs.logs) {
        for (const double us : log.durationsUs("select_actions"))
            select_us.push_back(us);
        derived.push_back(actorSteps(log, step_us, other_us));
    }
    derived.push_back(learnerIterations(world.updates, t));
    std::vector<const SpanLog *> dump;
    for (const SpanLog &log : derived) {
        mergeLedger(rec, reconcile(log));
        dump.push_back(&log);
    }
    reportReconciliation(report, rec,
                         t.wallS * 1e9 * static_cast<double>(kActors + 1));
    writeSpans(opt.workDir + "/async-cn3.spans.json", dump);
    reportDistribution(report, "core.select_actions_us", select_us, "us");
    report.set("async.actor_step_us", median(step_us), "us");
    report.set("async.actor_other_us", median(other_us), "us");
    report.note("async.actor_other_us = actor step - select (env step, "
                "ring push, episode bookkeeping)");
    reportOverhead(report,
                   static_cast<double>(plain.drained) / plain.wallS,
                   static_cast<double>(t.drained) / t.wallS,
                   "transitions drained per second");
}

} // namespace

void
runAsync(const RunOptions &opt, Report &report)
{
    base::ThreadPool::setGlobalThreads(1);
    if (opt.trace)
        traced(opt, report);
    else
        untraced(opt, report);
}

} // namespace marlbench

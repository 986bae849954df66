/**
 * @file
 * lockstep-pp6: core::TrainLoop::run with the paper's TrainConfig
 * (batch 1024, 64x64, update every 100, capacity 1e6, 25-step
 * episodes), MADDPG on predator-prey with 6 agents, uniform sampler,
 * per-agent buffer, 4 pool threads. Trainer::update is nearly all of
 * the wall time here, so numeric/nn/core and pool changes show.
 *
 * Untraced: TrainLoop::run in 4-episode chunks (100 env steps, i.e.
 * exactly one update once warm) until the time is up. Traced: a
 * loop of the same schedule through public calls (resetInto,
 * selectActionsInto, stepInto, MultiAgentBuffer::add +
 * onTransitionAdded, update) with spans around each call; its
 * episode rewards must equal TrainLoop::run's bit for bit.
 */

#include <cstring>
#include <memory>

#include "marlin/marlin.hh"
#include "workloads.hh"

namespace marlbench
{

namespace
{

using namespace marlin;
using profile::Phase;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kThreads = 4;
/** 41 episodes fill the 1024-transition warm-up; the rest run the
 *  first updates, so lazily sized scratch is warm before timing. */
constexpr std::size_t kWarmEpisodes = 48;
/** 100 env steps: exactly one update per chunk once warm. */
constexpr std::size_t kChunkEpisodes = 4;
/**
 * Traced updates that run with kernel counting on. The counts of an
 * update depend only on the shapes, so a few give the exact figure,
 * and the counting shim stays out of the other updates' timing.
 */
constexpr std::size_t kCountedUpdates = 3;

core::TrainConfig
paperConfig(std::uint64_t seed)
{
    core::TrainConfig config; // Defaults are the paper's settings.
    config.seed = seed;
    return config;
}

core::SamplerFactory
uniformSamplers()
{
    return [] { return std::make_unique<replay::UniformSampler>(); };
}

std::vector<std::size_t>
obsDims(const env::Environment &environment)
{
    std::vector<std::size_t> dims;
    for (std::size_t i = 0; i < environment.numAgents(); ++i)
        dims.push_back(environment.obsDim(i));
    return dims;
}

/** Environment + trainer pair built from one seed. */
struct Agents
{
    explicit Agents(std::uint64_t seed)
        : environment(env::makePredatorPreyEnv(kAgents, seed)),
          trainer(std::make_unique<core::MaddpgTrainer>(
              obsDims(*environment), environment->actionDim(),
              paperConfig(seed), uniformSamplers()))
    {
    }
    std::unique_ptr<env::Environment> environment;
    std::unique_ptr<core::MaddpgTrainer> trainer;
};

/** One TrainLoop world: the untraced program under test. */
struct LoopWorld
{
    explicit LoopWorld(std::uint64_t seed)
        : agents(seed), loop(*agents.environment, *agents.trainer,
                             paperConfig(seed))
    {
    }
    Agents agents;
    core::TrainLoop loop;
};

bool
sameBits(const std::vector<Real> &a, const std::vector<Real> &b,
         std::size_t n)
{
    return a.size() >= n && b.size() >= n &&
           std::memcmp(a.data(), b.data(), n * sizeof(Real)) == 0;
}

/** FNV-1a over the reward bits, printed for cross-run comparison. */
std::uint64_t
rewardHash(const std::vector<Real> &rewards, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(rewards.data());
    for (std::size_t i = 0; i < n * sizeof(Real); ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

bool
allFinite(const std::vector<Real> &v)
{
    for (const Real x : v) {
        if (!std::isfinite(x))
            return false;
    }
    return true;
}

/** Timed TrainLoop chunks after warm-up. */
struct ChunkRun
{
    std::vector<double> chunkUs;
    double wallS = 0;
    StepCount steps = 0;
    StepCount updates = 0;
    std::size_t nonFinite = 0;
    std::uint64_t steadyAllocs = 0;
    StepCount steadySteps = 0;
    std::vector<Real> rewards;
};

/**
 * Run 4-episode chunks after the warm-up that returned @p warm,
 * until @p seconds pass (or, when @p episode_target > 0, until that
 * many episodes completed).
 */
ChunkRun
runChunks(core::TrainLoop &loop, const core::TrainResult &warm,
          double seconds, std::size_t episode_target)
{
    ChunkRun out;
    const std::int64_t start = nowNs();
    const auto deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
        const std::size_t done = loop.episodesCompleted();
        if (episode_target > 0 ? done >= episode_target
                               : nowNs() >= deadline)
            break;
        const std::int64_t t0 = nowNs();
        const core::TrainResult r = loop.run(done + kChunkEpisodes);
        const std::int64_t t1 = nowNs();
        out.chunkUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
        // TrainResult progress counts are cumulative over the loop.
        out.steps = r.envSteps - warm.envSteps;
        out.updates = r.updateCalls - warm.updateCalls;
        out.nonFinite += r.nonFiniteUpdates;
        out.steadyAllocs += r.steadyStateAllocs;
        out.steadySteps += r.steadyStateSteps;
        out.rewards = r.episodeRewards;
    }
    out.wallS = secondsBetween(start, nowNs());
    return out;
}

/**
 * The traced loop: TrainLoop::run's schedule written out through
 * public calls, with a span around each call.
 */
class TracedLoop
{
  public:
    explicit TracedLoop(std::uint64_t seed)
        : agents(seed), config(paperConfig(seed)),
          buffer(shapes(*agents.environment), config.bufferCapacity)
    {
        static const char *kernels[] = {
            "axpy",         "add",          "sub",
            "scale",        "clamp",        "relu_forward",
            "relu_backward", "adam_step",   "soft_update",
            "copy",         "gemm_block"};
        for (const char *k : kernels) {
            kernelCalls.push_back(&obs::Registry::instance().counter(
                std::string("kernels.") + k + ".calls"));
        }
        gemmMacs = &obs::Registry::instance().counter(
            "kernels.gemm_block.elems");
        gatherBytes =
            &obs::Registry::instance().counter("replay.gather.bytes");
    }

    /** Play one episode; spans only when @p traced. */
    void
    episode(bool traced)
    {
        env::Environment &environment = *agents.environment;
        core::MaddpgTrainer &trainer = *agents.trainer;
        const std::size_t n = environment.numAgents();
        const std::size_t e = rewards.size();
        environment.resetInto(obsNow);
        Real episode_reward = 0;
        for (std::size_t t = 0; t < config.maxEpisodeLength; ++t) {
            const std::uint64_t id = stepId++;
            const std::int64_t s0 = nowNs();
            trainer.selectActionsInto(obsNow, e, actions);
            const std::int64_t s1 = nowNs();
            environment.stepInto(actions, step);
            const std::int64_t s2 = nowNs();
            onehots.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                onehots[i].assign(environment.actionDim(), Real(0));
                onehots[i][static_cast<std::size_t>(actions[i])] =
                    Real(1);
            }
            const std::int64_t s3 = nowNs();
            const BufferIndex slot = buffer.writeCursor();
            buffer.add(obsNow, onehots, step.rewards,
                       step.observations, step.dones);
            trainer.onTransitionAdded(slot);
            const std::int64_t s4 = nowNs();
            ++insertions;
            for (Real r : step.rewards)
                episode_reward += r / static_cast<Real>(n);
            std::swap(obsNow, step.observations);
            const bool warm =
                buffer.size() >= config.warmupTransitions &&
                buffer.size() >=
                    static_cast<BufferIndex>(config.batchSize);
            std::int64_t u0 = 0;
            std::int64_t u1 = 0;
            std::uint64_t sampling_ns = 0;
            if (warm && insertions >= config.updateEvery) {
                insertions = 0;
                update(traced, u0, u1, sampling_ns);
            }
            const std::int64_t s5 = nowNs();
            if (!traced)
                continue;
            const std::int64_t parent =
                log.add("step", s0, s5, -1, id);
            log.add("select_actions", s0, s1, parent, id);
            log.add("env_step", s1, s2, parent, id);
            log.add("buffer_add", s3, s4, parent, id);
            if (u1 > 0) {
                const std::int64_t up =
                    log.add("update", u0, u1, parent, id);
                // PhaseTimer's Sampling phase is the serial prologue,
                // so it is wall time; placed at the update's start,
                // only its duration is meaningful.
                log.add("update.sampling", u0,
                        u0 + static_cast<std::int64_t>(sampling_ns), up,
                        id);
            }
        }
        rewards.push_back(episode_reward);
    }

    SpanLog log;
    std::vector<Real> rewards;
    std::vector<double> updateMs;
    std::vector<double> samplingMs;
    std::vector<double> targetQCpuMs;
    std::vector<double> qpLossCpuMs;
    double updateWallNs = 0;
    double updateBusyNs = 0;
    double gemmMacsTotal = 0;
    double gatherBytesTotal = 0;
    double kernelCallsTotal = 0;
    std::size_t countedUpdates = 0;
    std::size_t nonFinite = 0;
    StepCount updates = 0;

  private:
    static std::vector<replay::TransitionShape>
    shapes(const env::Environment &environment)
    {
        std::vector<replay::TransitionShape> out;
        for (std::size_t i = 0; i < environment.numAgents(); ++i)
            out.push_back(
                {environment.obsDim(i), environment.actionDim()});
        return out;
    }

    double
    kernelCallCount() const
    {
        double total = 0;
        for (const obs::Counter *c : kernelCalls)
            total += static_cast<double>(c->value());
        return total;
    }

    void
    update(bool traced, std::int64_t &u0, std::int64_t &u1,
           std::uint64_t &sampling_ns)
    {
        const profile::PhaseTimer before = timer;
        const bool counting = traced && countedUpdates < kCountedUpdates;
        if (counting)
            numeric::kernels::setCounting(true);
        const double calls0 = kernelCallCount();
        const auto macs0 = static_cast<double>(gemmMacs->value());
        const auto gather0 = static_cast<double>(gatherBytes->value());
        u0 = nowNs();
        const core::UpdateStats stats =
            agents.trainer->update(buffer, timer);
        u1 = nowNs();
        if (counting) {
            numeric::kernels::setCounting(false);
            ++countedUpdates;
            kernelCallsTotal += kernelCallCount() - calls0;
            gemmMacsTotal +=
                static_cast<double>(gemmMacs->value()) - macs0;
        }
        ++updates;
        nonFinite += stats.nonFiniteCount;
        if (!traced)
            return;
        const auto delta = [&](Phase p) {
            return timer.nanoseconds(p) - before.nanoseconds(p);
        };
        sampling_ns = delta(Phase::Sampling);
        gatherBytesTotal +=
            static_cast<double>(gatherBytes->value()) - gather0;
        const double wall = static_cast<double>(u1 - u0);
        updateMs.push_back(wall * 1e-6);
        samplingMs.push_back(static_cast<double>(sampling_ns) * 1e-6);
        targetQCpuMs.push_back(
            static_cast<double>(delta(Phase::TargetQ)) * 1e-6);
        qpLossCpuMs.push_back(
            static_cast<double>(delta(Phase::QPLoss)) * 1e-6);
        updateWallNs += wall;
        updateBusyNs += static_cast<double>(
            sampling_ns + delta(Phase::TargetQ) + delta(Phase::QPLoss));
    }

    Agents agents;
    core::TrainConfig config;
    replay::MultiAgentBuffer buffer;
    profile::PhaseTimer timer;
    std::vector<obs::Counter *> kernelCalls;
    obs::Counter *gemmMacs = nullptr;
    obs::Counter *gatherBytes = nullptr;
    std::size_t insertions = 0;
    std::uint64_t stepId = 0;
    std::vector<std::vector<Real>> obsNow;
    env::StepResult step;
    std::vector<int> actions;
    std::vector<std::vector<Real>> onehots;
};

void
untraced(const RunOptions &opt, Report &report)
{
    std::vector<double> setup_s;
    std::vector<Real> first_rewards;
    std::unique_ptr<LoopWorld> world;
    core::TrainResult warm;
    StepCount setup_updates = 0;
    std::size_t setup_nonfinite = 0;
    for (int r = 0; r < kSetupRepeats; ++r) {
        world.reset(); // Free the previous 1e6-slot buffers first.
        const std::int64_t t0 = nowNs();
        world = std::make_unique<LoopWorld>(opt.seed);
        warm = world->loop.run(kWarmEpisodes);
        setup_s.push_back(secondsBetween(t0, nowNs()));
        setup_updates += warm.updateCalls;
        setup_nonfinite += warm.nonFiniteUpdates;
        if (r == 0) {
            first_rewards = warm.episodeRewards;
            report.note(strprintf(
                "warm-up episode rewards [0, %zu): fnv1a %016llx",
                kWarmEpisodes,
                static_cast<unsigned long long>(
                    rewardHash(first_rewards, kWarmEpisodes))));
        } else {
            report.check(sameBits(first_rewards, warm.episodeRewards,
                                  kWarmEpisodes),
                         strprintf("set-up %d reproduces set-up 1's "
                                   "%zu episode rewards bit for bit",
                                   r + 1, kWarmEpisodes));
        }
    }
    report.check(setup_updates > 0,
                 "warm-up reached the first trainer updates");
    reportSetup(report, setup_s,
                strprintf("construct + 1e6-slot buffers + %zu warm-up "
                          "episodes",
                          kWarmEpisodes));

    const ChunkRun run = runChunks(world->loop, warm, opt.seconds, 0);
    report.check(run.updates == run.chunkUs.size(),
                 strprintf("one update per 100-step chunk (%llu "
                           "updates, %zu chunks)",
                           static_cast<unsigned long long>(run.updates),
                           run.chunkUs.size()));
    report.check(allFinite(run.rewards), "episode rewards are finite");
    const double rate = static_cast<double>(run.steps) / run.wallS;
    report.set("throughput_per_s", rate, "1/s");
    report.note(strprintf("train_steps_per_s = %.2f transitions/s "
                          "(= %llu transitions / %.3f s)",
                          rate,
                          static_cast<unsigned long long>(run.steps),
                          run.wallS));
    report.note(strprintf("updates_per_s = %.3f 1/s",
                          static_cast<double>(run.updates) / run.wallS));
    report.note(strprintf(
        "steady-state allocations = %llu over %llu guarded steps "
        "(TrainResult)",
        static_cast<unsigned long long>(run.steadyAllocs),
        static_cast<unsigned long long>(run.steadySteps)));
    reportLatency(report, run.chunkUs,
                  "100-step chunk (100 env steps + 1 update)");
    const std::uint64_t agent_updates =
        (setup_updates + run.updates) * kAgents;
    report.attempted = agent_updates;
    report.failed = setup_nonfinite + run.nonFinite;
    report.check(report.failed == 0, "no non-finite agent updates");
}

void
traced(const RunOptions &opt, Report &report)
{
    std::size_t episodes = 0;
    double traced_wall_s = 0;
    std::vector<Real> traced_rewards;
    {
        TracedLoop traced_loop(opt.seed);
        for (std::size_t e = 0; e < kWarmEpisodes; ++e)
            traced_loop.episode(false);
        const std::int64_t start = nowNs();
        const auto deadline =
            start + static_cast<std::int64_t>(opt.seconds / 2 * 1e9);
        while (nowNs() < deadline) {
            for (std::size_t e = 0; e < kChunkEpisodes; ++e)
                traced_loop.episode(true);
        }
        traced_wall_s = secondsBetween(start, nowNs());
        episodes = traced_loop.rewards.size();
        traced_rewards = traced_loop.rewards;

        const Reconciliation rec = reconcile(traced_loop.log);
        reportReconciliation(report, rec, traced_wall_s * 1e9);
        writeSpans(opt.workDir + "/lockstep-pp6.spans.json",
                   {&traced_loop.log});

        const auto updates = static_cast<double>(traced_loop.updateMs.size());
        reportDistribution(report, "core.update_ms", traced_loop.updateMs,
                           "ms");
        report.set("core.update.count", updates, "count");
        report.set("core.update.sampling_ms", median(traced_loop.samplingMs),
                   "ms");
        report.set("core.update.target_q_cpu_ms",
                   median(traced_loop.targetQCpuMs), "ms");
        report.set("core.update.qp_loss_cpu_ms",
                   median(traced_loop.qpLossCpuMs), "ms");
        report.note("core.update.*_cpu_ms: PhaseTimer CPU time summed "
                    "across pool threads (not wall)");
        reportDistribution(report, "core.select_actions_us",
                           traced_loop.log.durationsUs("select_actions"),
                           "us");
        report.set("numeric.gemm_macs_per_update",
                   safeRatio(traced_loop.gemmMacsTotal,
                             static_cast<double>(traced_loop.countedUpdates)),
                   "count");
        report.set("replay.gather_bytes_per_cycle",
                   safeRatio(traced_loop.gatherBytesTotal, updates), "bytes");
        report.note("replay.gather_bytes_per_cycle: bytes gathered per "
                    "trainer update (replay.gather.bytes)");
        report.set("numeric.kernel_calls_per_update",
                   safeRatio(traced_loop.kernelCallsTotal,
                             static_cast<double>(traced_loop.countedUpdates)),
                   "count");
        const double busy = safeRatio(
            traced_loop.updateBusyNs,
            traced_loop.updateWallNs * static_cast<double>(kThreads));
        report.set("base.pool_busy_ratio", busy, "ratio");
        report.note(strprintf(
            "base.pool_busy_ratio = %s (update CPU ns / (update wall "
            "ns x %zu threads))",
            formatRatio(traced_loop.updateBusyNs,
                        traced_loop.updateWallNs *
                            static_cast<double>(kThreads))
                .c_str(),
            kThreads));
        report.attempted += traced_loop.updates * kAgents;
        report.failed += traced_loop.nonFinite;
    }

    // The untraced program on the same seed and episode count: its
    // rewards must match the traced loop's bit for bit, and its rate is the
    // base of the tracing overhead.
    LoopWorld world(opt.seed);
    const core::TrainResult warm = world.loop.run(kWarmEpisodes);
    const ChunkRun run = runChunks(world.loop, warm, 0, episodes);
    report.check(sameBits(traced_rewards, run.rewards, episodes),
                 strprintf("traced loop reproduces TrainLoop::run's "
                           "%zu episode rewards bit for bit",
                           episodes));
    report.set("base.steady_state_allocs",
               static_cast<double>(run.steadyAllocs), "count");
    report.note(strprintf("base.steady_state_allocs = %llu over %llu "
                          "guarded steps at %zu threads",
                          static_cast<unsigned long long>(
                              run.steadyAllocs),
                          static_cast<unsigned long long>(
                              run.steadySteps),
                          kThreads));
    const double steps =
        static_cast<double>((episodes - kWarmEpisodes) * 25);
    reportOverhead(report, steps / run.wallS, steps / traced_wall_s,
                   "env steps per second after warm-up");
    report.attempted += (warm.updateCalls + run.updates) * kAgents;
    report.failed += warm.nonFiniteUpdates + run.nonFinite;
    report.check(report.failed == 0, "no non-finite agent updates");
}

} // namespace

void
runLockstep(const RunOptions &opt, Report &report)
{
    base::ThreadPool::setGlobalThreads(kThreads);
    if (opt.trace)
        traced(opt, report);
    else
        untraced(opt, report);
}

} // namespace marlbench

/**
 * @file
 * serve-cn3: serve::Server with the default ServeConfig (batchMax 32,
 * deadline 200 us, epoll) serving a MADDPG cooperative-navigation
 * policy (3 agents) on loopback. Three closed-loop connections each
 * send their next seeded random observation only after the previous
 * action arrived, as env instances waiting on their actions do. The
 * only workload that runs serve/.
 */

#include <sys/socket.h>
#include <sys/time.h>

#include <cstring>
#include <memory>
#include <thread>

#include "marlin/marlin.hh"
#include "workloads.hh"

namespace marlbench
{

namespace
{

using namespace marlin;

constexpr std::size_t kAgents = 3;
constexpr std::size_t kConnections = 3;
/** A reply slower than this counts as a timeout (a failure). */
constexpr int kIoTimeoutMs = 2000;

/** Trainer, policy, server thread and connected clients. */
class ServeWorld
{
  public:
    explicit ServeWorld(std::uint64_t seed)
    {
        const auto probe = env::makeCooperativeNavigationEnv(kAgents, 0);
        std::vector<std::size_t> dims;
        for (std::size_t i = 0; i < probe->numAgents(); ++i)
            dims.push_back(probe->obsDim(i));
        core::TrainConfig config;
        config.seed = seed;
        trainer = std::make_unique<core::MaddpgTrainer>(
            dims, probe->actionDim(), config, [] {
                return std::make_unique<replay::UniformSampler>();
            });
        policy.adoptFrom(*trainer);
        server = std::make_unique<serve::Server>(policy,
                                                 serve::ServeConfig{});
        if (!server->start())
            return;
        loop = std::thread([this] { server->run(); });
        clients.resize(kConnections);
        timeval tv{kIoTimeoutMs / 1000, (kIoTimeoutMs % 1000) * 1000};
        for (serve::BlockingClient &c : clients) {
            if (!c.connect("127.0.0.1", server->port(), kIoTimeoutMs))
                return;
            ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv));
            ::setsockopt(c.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv,
                         sizeof(tv));
        }
        ready = true;
    }

    ~ServeWorld() { shutdown(); }
    ServeWorld(const ServeWorld &) = delete;
    ServeWorld &operator=(const ServeWorld &) = delete;

    /** Stop and join the server; its stats are readable after. */
    serve::ServeStats
    shutdown()
    {
        if (loop.joinable()) {
            server->stop();
            loop.join();
        }
        return server->stats();
    }

    bool ready = false;
    std::unique_ptr<core::MaddpgTrainer> trainer;
    serve::ServePolicy policy;
    std::unique_ptr<serve::Server> server;
    std::vector<serve::BlockingClient> clients;

  private:
    std::thread loop;
};

/** What one closed-loop connection saw, over all its slices. */
struct ClientResult
{
    std::vector<double> rttUs;
    std::uint64_t sent = 0;
    std::uint64_t bad = 0;
    bool broken = false;
    SpanLog log;
};

/** Closed loop on one connection until @p deadline; observations
 *  come from the seeded stream (@p seed, @p c, @p stream). */
void
clientLoop(serve::BlockingClient &client, const serve::ServePolicy &policy,
           std::uint64_t seed, std::size_t c, std::uint64_t stream,
           std::int64_t deadline, bool traced, ClientResult &out)
{
    Rng rng(seed * 1000003ULL + stream * kConnections + c + 1);
    std::vector<Real> obs;
    std::vector<Real> actions;
    std::vector<std::byte> frame;
    serve::Status status = serve::Status::Ok;
    while (!out.broken && nowNs() < deadline) {
        const std::uint64_t k = out.sent;
        const std::size_t agent = (c + k) % kAgents;
        obs.resize(policy.obsDim(agent));
        for (Real &v : obs)
            v = rng.uniformf() * 2 - 1;
        const auto id = static_cast<std::uint16_t>(agent);
        const std::int64_t t0 = nowNs();
        std::int64_t t1 = t0;
        bool ok = false;
        if (traced) {
            frame.clear();
            serve::encodeRequest(frame, id, obs.data(), obs.size());
            ok = client.sendRaw(frame.data(), frame.size());
            t1 = nowNs();
            ok = ok && client.recvResponse(actions, status);
        } else {
            ok = client.request(id, obs.data(), obs.size(), actions,
                                status);
        }
        const std::int64_t t2 = nowNs();
        ++out.sent;
        if (!ok) { // Timeout or dropped connection.
            ++out.bad;
            out.broken = true;
            return;
        }
        bool good = status == serve::Status::Ok &&
                    actions.size() == policy.actDim();
        for (const Real a : actions)
            good = good && std::isfinite(a);
        if (!good)
            ++out.bad;
        out.rttUs.push_back(static_cast<double>(t2 - t0) * 1e-3);
        if (traced) {
            const std::int64_t p = out.log.add("request", t0, t2, -1, k);
            out.log.add("send", t0, t1, p, k);
            out.log.add("wait_response", t1, t2, p, k);
        }
    }
}

/** The three connections' results, summed over slices. */
struct LoadResult
{
    std::vector<ClientResult> clients{kConnections};
    double wallS = 0;
    std::uint64_t slices = 0;

    std::uint64_t
    sent() const
    {
        std::uint64_t n = 0;
        for (const ClientResult &c : clients)
            n += c.sent;
        return n;
    }

    std::uint64_t
    bad() const
    {
        std::uint64_t n = 0;
        for (const ClientResult &c : clients)
            n += c.bad;
        return n;
    }

    std::vector<double>
    rttUs() const
    {
        std::vector<double> all;
        for (const ClientResult &c : clients)
            all.insert(all.end(), c.rttUs.begin(), c.rttUs.end());
        return all;
    }

    double
    qps() const
    {
        std::size_t n = 0;
        for (const ClientResult &c : clients)
            n += c.rttUs.size();
        return static_cast<double>(n) / wallS;
    }
};

/** Drive the three connections closed loop for @p seconds more. */
void
drive(ServeWorld &world, std::uint64_t seed, double seconds, bool traced,
      LoadResult &out)
{
    const std::uint64_t stream = out.slices++;
    // Room for a 20 s run, so no reallocation lands inside a request.
    for (ClientResult &c : out.clients)
        c.rttUs.reserve(1 << 18);
    const std::int64_t start = nowNs();
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            clientLoop(world.clients[c], world.policy, seed, c, stream,
                       deadline, traced, out.clients[c]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    out.wallS += secondsBetween(start, nowNs());
}

/**
 * Every agent's fixed probe observation through the server must
 * match an in-process ServePolicy::forward on the same weights.
 */
void
checkProbe(Report &report, ServeWorld &world, std::uint64_t seed)
{
    serve::ServePolicy local;
    local.adoptFrom(*world.trainer);
    Rng rng(seed ^ 0x5ca1ab1eULL);
    bool same = true;
    for (std::size_t a = 0; a < kAgents; ++a) {
        numeric::Matrix in(1, local.obsDim(a));
        for (std::size_t j = 0; j < in.cols(); ++j)
            in(0, j) = rng.uniformf() * 2 - 1;
        numeric::Matrix expect;
        local.forward(a, in, expect);
        std::vector<Real> actions;
        serve::Status status = serve::Status::Ok;
        const bool ok = world.clients[0].request(
            static_cast<std::uint16_t>(a), in.data(), in.cols(), actions,
            status);
        same = same && ok && status == serve::Status::Ok &&
               actions.size() == expect.cols() &&
               std::memcmp(actions.data(), expect.data(),
                           actions.size() * sizeof(Real)) == 0;
    }
    report.check(same, "probe responses equal in-process "
                       "ServePolicy::forward bit for bit (all agents)");
}

void
checkLoad(Report &report, const LoadResult &load)
{
    bool broken = false;
    for (const ClientResult &c : load.clients)
        broken = broken || c.broken;
    report.check(!broken, "no timeout or dropped connection");
    report.check(load.bad() == 0,
                 strprintf("every response is Ok with actDim finite "
                           "values (%llu bad of %llu)",
                           static_cast<unsigned long long>(load.bad()),
                           static_cast<unsigned long long>(load.sent())));
    report.attempted += load.sent();
    report.failed += load.bad();
}

/** The server's own counts must match what the clients sent. */
void
checkServer(Report &report, const serve::ServeStats &stats,
            std::uint64_t sent)
{
    report.check(stats.responses == sent && stats.protocolErrors == 0,
                 strprintf("server answered every request (%llu "
                           "responses, %llu sent, %llu protocol errors)",
                           static_cast<unsigned long long>(
                               stats.responses),
                           static_cast<unsigned long long>(sent),
                           static_cast<unsigned long long>(
                               stats.protocolErrors)));
}

void
untraced(const RunOptions &opt, Report &report)
{
    std::vector<double> setup_s;
    std::unique_ptr<ServeWorld> world;
    for (int r = 0; r < kSetupRepeatsServe; ++r) {
        world.reset();
        pauseBetweenSetups();
        const std::int64_t t0 = nowNs();
        world = std::make_unique<ServeWorld>(opt.seed);
        setup_s.push_back(secondsBetween(t0, nowNs()));
        if (!world->ready)
            break;
    }
    if (!report.check(world->ready, strprintf("server started and 3 "
                                              "clients connected in all "
                                              "%zu set-ups",
                                              setup_s.size())))
        return;
    reportSetup(report, setup_s,
                "trainer + policy + server start + 3 connects");
    LoadResult load;
    drive(*world, opt.seed, opt.seconds, false, load);
    checkProbe(report, *world, opt.seed);
    checkLoad(report, load);
    checkServer(report, world->shutdown(), load.sent() + kAgents);
    const std::vector<double> rtt = load.rttUs();
    report.set("throughput_per_s", load.qps(), "1/s");
    report.note(strprintf("serve_qps = %.1f req/s (= %zu responses / "
                          "%.3f s, %zu closed-loop connections)",
                          load.qps(), rtt.size(), load.wallS,
                          kConnections));
    reportLatency(report, rtt, "request round trip");
    report.note(strprintf("serve_p50_us = %.1f us, serve_p99_us = %.1f us "
                          "(client-side round trip, n=%zu)",
                          percentile(rtt, 50), percentile(rtt, 99),
                          rtt.size()));
}

/** Registry histogram (sum, count) pair, for deltas. */
std::pair<double, double>
histogramState(const char *name)
{
    for (const obs::MetricSample &m :
         obs::Registry::instance().snapshot()) {
        if (m.name == name)
            return {m.value, static_cast<double>(m.count)};
    }
    return {0.0, 0.0};
}

void
traced(const RunOptions &opt, Report &report)
{
    ServeWorld world(opt.seed);
    if (!report.check(world.ready, "server started and 3 clients "
                                   "connected"))
        return;
    const auto queue0 = histogramState("serve.request.queue_wait_us");
    const auto infer0 = histogramState("serve.batch.infer_us");
    // Untraced and traced slices alternate on the same connections,
    // so drift over the run does not land on one side of the
    // tracing-overhead comparison.
    constexpr double kSliceS = 0.5;
    const double half = opt.seconds / 2;
    LoadResult plain;
    LoadResult load;
    while (plain.wallS < half || load.wallS < half) {
        drive(world, opt.seed, kSliceS, false, plain);
        drive(world, opt.seed, kSliceS, true, load);
    }
    checkProbe(report, world, opt.seed);
    const serve::ServeStats stats = world.shutdown();
    checkLoad(report, plain);
    checkLoad(report, load);
    checkServer(report, stats, plain.sent() + load.sent() + kAgents);
    const auto queue1 = histogramState("serve.request.queue_wait_us");
    const auto infer1 = histogramState("serve.batch.infer_us");

    const double queue_mean = safeRatio(queue1.first - queue0.first,
                                        queue1.second - queue0.second);
    const double infer_mean = safeRatio(infer1.first - infer0.first,
                                        infer1.second - infer0.second);
    const double rtt_p50 = percentile(load.rttUs(), 50);
    report.set("serve.queue_wait_us_mean", queue_mean, "us");
    report.set("serve.infer_us_mean", infer_mean, "us");
    report.set("serve.batch_rows_mean",
               safeRatio(static_cast<double>(stats.responses),
                         static_cast<double>(stats.batches)),
               "count");
    report.note(strprintf(
        "serve.batch_rows_mean = %s (responses / batches)",
        formatRatio(static_cast<double>(stats.responses),
                    static_cast<double>(stats.batches))
            .c_str()));
    report.set("serve.frontend_us", rtt_p50 - queue_mean - infer_mean,
               "us");
    report.note(strprintf("serve.frontend_us = RTT p50 %.2f - queue "
                          "wait mean %.2f - infer mean %.2f",
                          rtt_p50, queue_mean, infer_mean));

    Reconciliation rec;
    std::vector<const SpanLog *> dump;
    for (const ClientResult &c : load.clients) {
        mergeLedger(rec, reconcile(c.log));
        dump.push_back(&c.log);
    }
    reportReconciliation(report, rec,
                         load.wallS * 1e9 *
                             static_cast<double>(kConnections));
    writeSpans(opt.workDir + "/serve-cn3.spans.json", dump);
    reportOverhead(report, plain.qps(), load.qps(),
                   "responses per second");
}

} // namespace

void
runServe(const RunOptions &opt, Report &report)
{
    base::ThreadPool::setGlobalThreads(1);
    if (opt.trace)
        traced(opt, report);
    else
        untraced(opt, report);
}

} // namespace marlbench

/**
 * @file
 * RunExecutor: the parallel-run determinism contract.
 *
 * The executor may only change *when* independent simulation runs
 * execute, never *what* they compute: results join in submission
 * order and each run owns its EventQueue/Deployment/RNGs, so a
 * Fig. 5-style sweep must be bit-identical at any worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/spec_io.h"
#include "hw/block_builder.h"
#include "obs/jaeger.h"
#include "sim/run_executor.h"
#include "workload/loadgen.h"

namespace {

using namespace ditto;
using bench::RunResult;

void
expectIdenticalReports(const profile::PerfReport &a,
                       const profile::PerfReport &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branchMispredictRate, b.branchMispredictRate);
    EXPECT_EQ(a.l1iMissRate, b.l1iMissRate);
    EXPECT_EQ(a.l1dMissRate, b.l1dMissRate);
    EXPECT_EQ(a.l2MissRate, b.l2MissRate);
    EXPECT_EQ(a.llcMissRate, b.llcMissRate);
    EXPECT_EQ(a.retiringFrac, b.retiringFrac);
    EXPECT_EQ(a.frontendFrac, b.frontendFrac);
    EXPECT_EQ(a.badSpecFrac, b.badSpecFrac);
    EXPECT_EQ(a.backendFrac, b.backendFrac);
    EXPECT_EQ(a.qps, b.qps);
    EXPECT_EQ(a.netBandwidthBytesPerSec, b.netBandwidthBytesPerSec);
    EXPECT_EQ(a.avgLatencyMs, b.avgLatencyMs);
    EXPECT_EQ(a.p50LatencyMs, b.p50LatencyMs);
    EXPECT_EQ(a.p95LatencyMs, b.p95LatencyMs);
    EXPECT_EQ(a.p99LatencyMs, b.p99LatencyMs);
    EXPECT_EQ(a.instructionsPerRequest, b.instructionsPerRequest);
    EXPECT_EQ(a.cyclesPerRequest, b.cyclesPerRequest);
}

void
expectIdenticalHistograms(const stats::LatencyHistogram &a,
                          const stats::LatencyHistogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    for (const double q : {0.5, 0.95, 0.99, 0.999})
        EXPECT_EQ(a.percentile(q), b.percentile(q));
}

TEST(RunExecutor, ParallelSweepBitIdenticalToSerial)
{
    // Fig. 5-shaped sweep: one app, three load levels, short
    // windows. Serial reference first, then the same thunks through
    // a 4-worker pool; every metric must match exactly.
    const bench::AppCase nginx{"NGINX", apps::nginxSpec(),
                               apps::nginxLoad()};
    const hw::PlatformSpec platform = hw::platformA();
    const double qpsLevels[] = {nginx.load.lowQps,
                                nginx.load.mediumQps,
                                nginx.load.highQps};

    auto makeTasks = [&] {
        std::vector<std::function<RunResult()>> tasks;
        for (const double qps : qpsLevels) {
            tasks.push_back([&nginx, qps, &platform] {
                return bench::runSingleTier(
                    nginx.spec, nginx.load.at(qps), platform,
                    sim::milliseconds(50), sim::milliseconds(80));
            });
        }
        return tasks;
    };

    std::vector<RunResult> serial;
    for (auto &task : makeTasks())
        serial.push_back(task());

    sim::RunExecutor pool(4);
    const std::vector<RunResult> parallel =
        pool.runOrdered<RunResult>(makeTasks());

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectIdenticalReports(serial[i].report, parallel[i].report);
        expectIdenticalHistograms(serial[i].clientLatency,
                                  parallel[i].clientLatency);
        EXPECT_EQ(serial[i].achievedQps, parallel[i].achievedQps);
    }
}

/**
 * Clone `app` at its medium load with fine tuning on `ex` (inline
 * when null): short windows and at most three tuning iterations keep
 * it to seconds.
 */
core::CloneResult
tunedClone(const bench::AppCase &app, sim::RunExecutor *ex)
{
    app::Deployment dep(79);
    os::Machine &machine = dep.addMachine("node", hw::platformA());
    app::ServiceInstance &svc = dep.deploy(app.spec, machine);
    dep.wireAll();
    const workload::LoadSpec load = app.load.at(app.load.mediumQps);
    workload::LoadGen gen(dep, svc, load, 79 ^ 0x10ad);
    gen.start();

    core::CloneOptions opts;
    opts.executor = ex;
    opts.maxTuneIterations = 3;
    opts.tuneWarmup = sim::milliseconds(40);
    opts.tuneWindow = sim::milliseconds(60);
    opts.profiling.warmup = sim::milliseconds(60);
    opts.profiling.window = sim::milliseconds(60);
    return core::cloneService(dep, svc, load, hw::platformA(), opts);
}

TEST(RunExecutor, TunedCloneIndependentOfJobsAndHistory)
{
    // One shared executor builds every figure's clone concurrently
    // (bench_paper), so a tuned clone may depend only on its inputs:
    // not on the worker count, nor on what ran on the executor
    // before, nor on whether there is an executor at all.
    const bench::AppCase redis{"Redis", apps::redisSpec(),
                               apps::redisLoad()};
    const bench::AppCase mongodb{"MongoDB", apps::mongodbSpec(),
                                 apps::mongodbLoad()};

    sim::RunExecutor serial(1);
    const core::CloneResult alone = tunedClone(redis, &serial);

    sim::RunExecutor pool(3);
    const core::CloneResult unrelated = tunedClone(mongodb, &pool);
    EXPECT_GT(unrelated.tuning.iterations, 0u);
    const core::CloneResult shared = tunedClone(redis, &pool);
    const core::CloneResult unpooled = tunedClone(redis, nullptr);

    EXPECT_GT(alone.tuning.iterations, 1u);
    for (const core::CloneResult *other : {&shared, &unpooled}) {
        EXPECT_EQ(core::specToString(alone.spec),
                  core::specToString(other->spec));
        EXPECT_EQ(alone.tuning.iterations, other->tuning.iterations);
        EXPECT_EQ(alone.tuning.finalIpcError,
                  other->tuning.finalIpcError);
    }
}

// ---------------------------------------------------------------------------
// Tracer determinism under concurrent runs
// ---------------------------------------------------------------------------

/**
 * One traced run: its own Deployment (and thus its own Tracer, span
 * id counter, and sampling state), a two-service RPC chain, and a
 * Jaeger export of everything recorded.
 */
std::string
tracedRun(std::uint64_t seed)
{
    app::Deployment dep(seed, /*traceSampleRate=*/0.5);
    os::Machine &m = dep.addMachine("n", hw::platformA());

    hw::BlockSpec bs;
    bs.label = "trace.h";
    bs.instCount = 64;
    bs.seed = 3;
    const hw::CodeBlock block = hw::buildBlock(bs);

    app::ServiceSpec back;
    back.name = "back";
    back.threads.workers = 2;
    back.blocks.push_back(block);
    app::EndpointSpec get;
    get.name = "get";
    get.handler.ops = {app::opCompute(0, 5)};
    back.endpoints.push_back(get);
    dep.deploy(back, m);

    app::ServiceSpec front;
    front.name = "front";
    front.threads.workers = 2;
    front.downstreams = {"back"};
    front.blocks.push_back(block);
    app::EndpointSpec page;
    page.name = "page";
    page.handler.ops = {app::opCompute(0, 3),
                        app::opRpc(0, 0, 128, 256),
                        app::opCompute(0, 3)};
    front.endpoints.push_back(page);
    dep.deploy(front, m);
    dep.wireAll();

    workload::LoadSpec load;
    load.qps = 2000;
    load.connections = 4;
    load.openLoop = true;
    workload::LoadGen gen(dep, *dep.find("front"), load,
                          seed ^ 0x7aceull);
    gen.start();
    dep.runFor(sim::milliseconds(40));
    return obs::exportJaegerJson(dep.tracer());
}

TEST(RunExecutor, TracerExportBitIdenticalUnderConcurrentRuns)
{
    // Head sampling and span/trace id assignment must be pure
    // per-deployment state: three traced runs exported serially have
    // to equal the same runs racing on a 4-worker pool, byte for
    // byte. A TSan build of this test additionally proves the runs
    // share no mutable tracer state.
    const std::uint64_t seeds[] = {41, 42, 43};

    std::vector<std::string> serial;
    for (const std::uint64_t seed : seeds)
        serial.push_back(tracedRun(seed));

    sim::RunExecutor pool(4);
    std::vector<std::function<std::string()>> tasks;
    for (const std::uint64_t seed : seeds)
        tasks.push_back([seed] { return tracedRun(seed); });
    const std::vector<std::string> parallel =
        pool.runOrdered(std::move(tasks));

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]);

    // Sampling engaged (rate 0.5 keeps a strict subset)...
    const trace::Tracer back = obs::importJaegerJson(serial[0]);
    EXPECT_GT(back.spans().size(), 0u);
    // ...and distinct seeds produce distinct traffic, so identical
    // bytes above are not a vacuous pass.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(RunExecutor, ResultsInSubmissionOrderUnderAdversarialDurations)
{
    // Task i sleeps longest for the *earliest* submissions, so a
    // completion-order join would return them reversed.
    sim::RunExecutor pool(4);
    constexpr int kTasks = 16;
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < kTasks; ++i) {
        tasks.push_back([i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kTasks - i));
            return i;
        });
    }
    const std::vector<int> results =
        pool.runOrdered<int>(std::move(tasks));
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i);
}

TEST(RunExecutor, PropagatesExceptions)
{
    sim::RunExecutor pool(4);
    std::vector<std::function<int()>> tasks;
    tasks.push_back([] { return 1; });
    tasks.push_back([]() -> int {
        throw std::runtime_error("run failed");
    });
    tasks.push_back([] { return 3; });
    EXPECT_THROW(pool.runOrdered<int>(std::move(tasks)),
                 std::runtime_error);
}

TEST(RunExecutor, PropagatesExceptionsInline)
{
    sim::RunExecutor serial(1);
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() -> int {
        throw std::runtime_error("run failed");
    });
    EXPECT_THROW(serial.runOrdered<int>(std::move(tasks)),
                 std::runtime_error);
}

TEST(RunExecutor, NestedSubmissionDoesNotDeadlock)
{
    // Cloning pipelines nest: an outer run fans out fine-tune
    // candidates on the same pool. Blocked waiters must help run
    // queued tasks, so this completes even with a tiny pool.
    sim::RunExecutor pool(2);
    std::vector<std::function<int()>> outer;
    for (int i = 0; i < 4; ++i) {
        outer.push_back([&pool, i] {
            std::vector<std::function<int()>> inner;
            for (int j = 0; j < 4; ++j)
                inner.push_back([i, j] { return 10 * i + j; });
            const std::vector<int> got =
                pool.runOrdered<int>(std::move(inner));
            int sum = 0;
            for (const int v : got)
                sum += v;
            return sum;
        });
    }
    const std::vector<int> sums =
        pool.runOrdered<int>(std::move(outer));
    ASSERT_EQ(sums.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sums[static_cast<std::size_t>(i)],
                  4 * 10 * i + (0 + 1 + 2 + 3));
}

TEST(RunExecutor, JobsFromArgsParsing)
{
    {
        const char *argv[] = {"bench", "--jobs", "7"};
        EXPECT_EQ(sim::RunExecutor::jobsFromArgs(
                      3, const_cast<char **>(argv)), 7u);
    }
    {
        const char *argv[] = {"bench", "--jobs=3"};
        EXPECT_EQ(sim::RunExecutor::jobsFromArgs(
                      2, const_cast<char **>(argv)), 3u);
    }
    {
        // Bad values fall back to the environment/default.
        const char *argv[] = {"bench", "--jobs", "zero"};
        EXPECT_GE(sim::RunExecutor::jobsFromArgs(
                      3, const_cast<char **>(argv)), 1u);
    }
}

TEST(RunExecutor, SerialExecutorRunsInline)
{
    // jobs=1 must execute on the calling thread (no pool, no
    // reordering hazards) -- the thread id proves it.
    sim::RunExecutor serial(1);
    EXPECT_EQ(serial.jobs(), 1u);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<std::function<std::thread::id()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([] { return std::this_thread::get_id(); });
    for (const std::thread::id id :
         serial.runOrdered<std::thread::id>(std::move(tasks)))
        EXPECT_EQ(id, self);
}

} // namespace

/**
 * @file
 * Substrate micro-benchmarks (google-benchmark): throughput of the
 * building blocks every experiment rests on -- event queue, cache
 * simulation, branch predictor, block interpretation with and
 * without replay acceleration, stack-distance profiling,
 * end-to-end simulated-requests-per-host-second, and Jaeger trace
 * parse and ingest throughput.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <string>
#include <vector>

#include "app/deployment.h"
#include "clone/foreign_fixture.h"
#include "clone/trace_clone.h"
#include "core/slab_arena.h"
#include "hw/block_builder.h"
#include "hw/cpu_core.h"
#include "hw/platform.h"
#include "obs/jaeger.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/register.h"
#include "os/machine.h"
#include "profile/stack_distance.h"
#include "sim/event_queue.h"
#include "sim/run_executor.h"
#include "workload/loadgen.h"

using namespace ditto;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < 1000; ++i)
            q.scheduleAt(static_cast<sim::Time>(i * 7 % 997), [] {});
        benchmark::DoNotOptimize(q.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    // RPC-deadline shape: N timeouts pending far in the future while
    // every one of them is cancelled (the request "completed").
    // Cancellation is O(1) tombstoning, so per-item cost must stay
    // flat as the pending population grows (used to be an O(n) scan,
    // i.e. O(n^2) for the loop below).
    const auto pending = static_cast<int>(state.range(0));
    std::vector<sim::EventId> ids(
        static_cast<std::size_t>(pending));
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue q;
        for (int i = 0; i < pending; ++i)
            ids[static_cast<std::size_t>(i)] = q.scheduleAt(
                static_cast<sim::Time>(1000000 + i), [] {});
        state.ResumeTiming();
        for (int i = 0; i < pending; ++i)
            benchmark::DoNotOptimize(
                q.cancel(ids[static_cast<std::size_t>(i)]));
    }
    state.SetItemsProcessed(state.iterations() * pending);
    state.SetComplexityN(pending);
}
BENCHMARK(BM_EventQueueCancelHeavy)
    ->RangeMultiplier(4)
    ->Range(256, 16384)
    ->Complexity(benchmark::oN);

static void
BM_EventQueueTimeoutPattern(benchmark::State &state)
{
    // Mixed steady-state: each simulated request schedules completion
    // plus a timeout, the completion fires and cancels the timeout --
    // the dominant schedule/cancel pattern of the RPC layer.
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < 1000; ++i) {
            const auto now = static_cast<sim::Time>(i * 3);
            const sim::EventId timeout = q.scheduleAt(
                now + 5000, [] {});
            q.scheduleAt(now + 2, [&q, timeout] {
                q.cancel(timeout);
            });
        }
        benchmark::DoNotOptimize(q.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueTimeoutPattern);

namespace {

/** Stand-in for os::Message-sized per-RPC hot allocations. */
struct FlightSized
{
    unsigned char payload[96];
    std::uint64_t id;
};

} // namespace

static void
BM_InFlightAllocNew(benchmark::State &state)
{
    // In-flight message churn via the general-purpose allocator: a
    // ring of live nodes (like messages on the wire), each iteration
    // retires the oldest and allocates a replacement.
    constexpr std::size_t kRing = 256;
    std::vector<FlightSized *> ring(kRing, nullptr);
    std::size_t head = 0;
    std::uint64_t id = 0;
    for (auto _ : state) {
        delete ring[head];
        ring[head] = new FlightSized{{}, id++};
        benchmark::DoNotOptimize(ring[head]);
        head = (head + 1) % kRing;
    }
    for (FlightSized *f : ring)
        delete f;
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InFlightAllocNew);

static void
BM_InFlightAllocSlab(benchmark::State &state)
{
    // Same churn through core::SlabArena -- the network layer's
    // in-flight pool: freed nodes are recycled from the free list, so
    // steady state touches no allocator locks and stays cache-hot.
    constexpr std::size_t kRing = 256;
    core::SlabArena<FlightSized> arena;
    std::vector<FlightSized *> ring(kRing, nullptr);
    std::size_t head = 0;
    std::uint64_t id = 0;
    for (auto _ : state) {
        if (ring[head])
            arena.destroy(ring[head]);
        ring[head] = arena.create(FlightSized{{}, id++});
        benchmark::DoNotOptimize(ring[head]);
        head = (head + 1) % kRing;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InFlightAllocSlab);

static void
BM_RunExecutorDispatch(benchmark::State &state)
{
    // Pure submit/join overhead per (trivial) run, serial vs pooled.
    sim::RunExecutor ex(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        std::vector<std::function<int()>> tasks;
        tasks.reserve(64);
        for (int i = 0; i < 64; ++i)
            tasks.push_back([i] { return i; });
        benchmark::DoNotOptimize(
            ex.runOrdered<int>(std::move(tasks)));
    }
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetLabel("jobs=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_RunExecutorDispatch)->Arg(1)->Arg(4);

static void
BM_CacheAccess(benchmark::State &state)
{
    hw::Cache cache(static_cast<std::uint64_t>(state.range(0)), 8);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr, false));
        addr += 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(32 << 10)->Arg(1 << 20)->Arg(30 << 20);

static void
BM_CacheStream(benchmark::State &state)
{
    // A data stream of stride range(0) lines through a Platform A
    // core's hierarchy with the prefetcher on: after two accesses
    // every access confirms the stream and runs a prefetch round, and
    // the stream never revisits a line, so the caches stay full and
    // every round evicts.
    const hw::PlatformSpec spec = hw::platformA();
    hw::Cache llc(spec.llcBytes, spec.llcWays);
    hw::CacheHierarchy caches(spec.l1iBytes, spec.l1iWays, spec.l1dBytes,
                              spec.l1dWays, spec.l2Bytes, spec.l2Ways,
                              &llc, true);
    const auto step = static_cast<std::uint64_t>(state.range(0)) * 64;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(caches.accessData(addr, false));
        addr += step;
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("stride=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CacheStream)->Arg(1)->Arg(8);

static void
BM_CachePollute(benchmark::State &state)
{
    // Context-switch pollution of a 1 MB 16-way L2 filled to
    // range(0) percent: the cost follows the valid lines, not the
    // capacity, because only set validity bits are visited.
    hw::Cache filled(1 << 20, 16);
    const std::uint64_t lines = filled.sets() * filled.ways();
    const std::uint64_t valid =
        lines * static_cast<std::uint64_t>(state.range(0)) / 100;
    for (std::uint64_t l = 0; l < valid; ++l)
        filled.access(l * 64, false);
    std::uint64_t salt = 0;
    // Assigned, not declared, in the loop, so that releasing the last
    // copy is paused too: freeing its arrays can trim the heap.
    hw::Cache cache = filled;
    for (auto _ : state) {
        state.PauseTiming();
        cache = filled;
        state.ResumeTiming();
        cache.invalidateFraction(0.075, ++salt);
        benchmark::DoNotOptimize(cache.stats().invalidations);
    }
    state.counters["valid_lines"] = static_cast<double>(valid);
}
BENCHMARK(BM_CachePollute)->Arg(1)->Arg(25)->Arg(100);

static void
BM_MachineConstruct(benchmark::State &state)
{
    // Building and tearing down one Platform A machine: 133 caches
    // (44 cores' L1i, L1d and L2, plus the LLC) and the OS around
    // them, as every pass of a benchmark does per simulated node.
    sim::EventQueue events;
    const hw::PlatformSpec spec = hw::platformA();
    for (auto _ : state) {
        os::Machine m("n", spec, events, 1);
        benchmark::DoNotOptimize(m.llc().sets());
    }
}
BENCHMARK(BM_MachineConstruct)->Unit(benchmark::kMicrosecond);

static void
BM_BranchPredictor(benchmark::State &state)
{
    hw::BranchPredictor bp(14, 12);
    hw::BranchDesc desc{3, 4};
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.predictAndUpdate(
            0x1000 + (i % 64) * 4,
            hw::BranchPattern::direction(desc, i)));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

static void
BM_StackDistance(benchmark::State &state)
{
    profile::StackDistanceCurve curve;
    sim::Rng rng(1);
    for (auto _ : state)
        curve.access(rng.uniformInt(std::uint64_t{1} << 16));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StackDistance);

static void
BM_BlockInterpret(benchmark::State &state)
{
    // 0: replay; 1: exact, on a block whose plan runs lean (memory and
    // branch instructions only); 2: exact, on a pointer-chase block,
    // and 3: exact with an observer attached, which walk every
    // instruction.
    static const char *const kLabels[] = {"replay", "exact", "chase",
                                          "observed"};
    const auto mode = static_cast<std::size_t>(state.range(0));
    hw::PlatformSpec spec = hw::platformA();
    hw::Cache llc(spec.llcBytes, spec.llcWays);
    hw::CacheHierarchy caches(spec.l1iBytes, spec.l1iWays,
                              spec.l1dBytes, spec.l1dWays,
                              spec.l2Bytes, spec.l2Ways, &llc, true);
    hw::CpuCore core(0, spec, caches, nullptr);
    core.setExactMode(mode != 0);
    hw::ExecObserver observer;
    if (mode == 3)
        core.setObserver(&observer);
    hw::ExecContext ctx(0, 1);
    hw::CodeImage image(0x400000, 0x10000000, 4);
    hw::BlockSpec bs;
    bs.label = "bench";
    bs.instCount = 256;
    bs.memFraction = 0.3;
    bs.branchFraction = 0.1;
    bs.streams = {{256 << 10, hw::StreamKind::Sequential, false, 1.0}};
    if (mode == 2)
        bs.streams.push_back({256 << 10, hw::StreamKind::PointerChase,
                              false, 0.5});
    bs.seed = 1;
    const auto block = image.addBlock(hw::buildBlock(bs));

    hw::ExecStats stats;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core.run(image, block, 4, ctx, stats));
    state.SetItemsProcessed(state.iterations() * 4 * 256);
    state.SetLabel(kLabels[mode]);
}
BENCHMARK(BM_BlockInterpret)->Arg(1)->Arg(0)->Arg(2)->Arg(3);

static void
BM_EndToEndRequests(benchmark::State &state)
{
    // Simulated requests per host second through the full stack.
    for (auto _ : state) {
        app::Deployment dep(1);
        os::Machine &m = dep.addMachine("n", hw::platformA());
        app::ServiceSpec spec;
        spec.name = "micro";
        spec.threads.workers = 2;
        hw::BlockSpec bs;
        bs.label = "micro.h";
        bs.instCount = 128;
        bs.seed = 2;
        spec.blocks.push_back(hw::buildBlock(bs));
        app::EndpointSpec ep;
        ep.name = "op";
        ep.handler.ops = {app::opCompute(0, 20)};
        spec.endpoints.push_back(ep);
        app::ServiceInstance &svc = dep.deploy(spec, m);
        dep.wireAll();
        workload::LoadSpec load;
        load.qps = 5000;
        load.connections = 4;
        workload::LoadGen gen(dep, svc, load, 3);
        gen.start();
        dep.runFor(sim::milliseconds(100));
        benchmark::DoNotOptimize(gen.completed());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(gen.completed()));
    }
}
BENCHMARK(BM_EndToEndRequests)->Unit(benchmark::kMillisecond);

static void
BM_JaegerExportImport(benchmark::State &state)
{
    // Cost of the observability round trip (export to Jaeger JSON,
    // parse it back) per recorded span. Runs offline relative to the
    // simulation, but bounds how often a long-running harness can
    // afford to snapshot traces.
    app::Deployment dep(9);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec;
    spec.name = "micro";
    spec.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = "micro.h";
    bs.instCount = 128;
    bs.seed = 2;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec ep;
    ep.name = "op";
    ep.handler.ops = {app::opCompute(0, 20)};
    spec.endpoints.push_back(ep);
    app::ServiceInstance &svc = dep.deploy(spec, m);
    dep.wireAll();
    workload::LoadSpec load;
    load.qps = 5000;
    load.connections = 4;
    workload::LoadGen gen(dep, svc, load, 3);
    gen.start();
    dep.runFor(sim::milliseconds(100));

    for (auto _ : state) {
        const std::string json = obs::exportJaegerJson(dep.tracer());
        const trace::Tracer back = obs::importJaegerJson(json);
        benchmark::DoNotOptimize(back.spans().size());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<std::int64_t>(dep.tracer().spans().size()));
    }
}
BENCHMARK(BM_JaegerExportImport)->Unit(benchmark::kMillisecond);

/** The 5000-trace foreign fixture (about 11 MB), built once. */
static const std::string &
foreignTrace()
{
    static const std::string json = clone::exampleForeignTraceJson(5000);
    return json;
}

static void
BM_JsonParseForeign(benchmark::State &state)
{
    // Parse alone: text to flat document and back to free memory.
    const std::string &json = foreignTrace();
    for (auto _ : state) {
        const obs::JsonDocument doc = obs::parseJson(json);
        benchmark::DoNotOptimize(doc.nodes().size());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_JsonParseForeign)->Unit(benchmark::kMillisecond);

static void
BM_IngestForeign(benchmark::State &state)
{
    // The trace-clone ingest stage: parse, import and topology fit.
    const std::string &json = foreignTrace();
    for (auto _ : state) {
        const clone::TraceModel model = clone::ingestTraceJson(json);
        benchmark::DoNotOptimize(model.spans);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_IngestForeign)->Unit(benchmark::kMillisecond);

static void
BM_MetricsSnapshot(benchmark::State &state)
{
    // Prometheus-text snapshot of a fully registered deployment.
    app::Deployment dep(9);
    os::Machine &m = dep.addMachine("n", hw::platformA());
    app::ServiceSpec spec;
    spec.name = "micro";
    spec.threads.workers = 2;
    hw::BlockSpec bs;
    bs.label = "micro.h";
    bs.instCount = 128;
    bs.seed = 2;
    spec.blocks.push_back(hw::buildBlock(bs));
    app::EndpointSpec ep;
    ep.name = "op";
    ep.handler.ops = {app::opCompute(0, 20)};
    spec.endpoints.push_back(ep);
    app::ServiceInstance &svc = dep.deploy(spec, m);
    dep.wireAll();
    workload::LoadSpec load;
    load.qps = 5000;
    load.connections = 4;
    workload::LoadGen gen(dep, svc, load, 3);
    gen.start();
    dep.runFor(sim::milliseconds(100));

    obs::MetricsRegistry registry;
    obs::registerDeploymentMetrics(registry, dep);
    for (auto _ : state) {
        const std::string text = registry.prometheusText();
        benchmark::DoNotOptimize(text.size());
    }
}
BENCHMARK(BM_MetricsSnapshot);

BENCHMARK_MAIN();

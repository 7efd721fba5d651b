/**
 * JobService lifecycle: admission validation, priority scheduling,
 * queue-capacity rejection, queued and mid-run cancellation, failure
 * capture (including HETARCH_FATAL from experiment code), and the
 * service.jobs.* counter contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/logging.hh"
#include "dse/builder_registry.hh"
#include "lint/dataflow.hh"
#include "obs/obs.hh"
#include "qec/decoder_cache.hh"
#include "qec/memory_experiment.hh"
#include "qec/noise_model.hh"
#include "qec/surface_circuit.hh"
#include "service/job_service.hh"
#include "service/job_validation.hh"

namespace {

using namespace hetarch;
using namespace hetarch::service;

JobSpec
memorySpec(const std::string& name, std::uint64_t seed,
           std::int64_t priority = 0)
{
    JobSpec spec;
    spec.name = name;
    spec.kind = JobKind::Memory;
    spec.priority = priority;
    spec.seed = seed;
    spec.add("distance", ParamValue::num(3));
    spec.add("rounds", ParamValue::num(2));
    spec.add("shots", ParamValue::num(200));
    return spec;
}

ServiceConfig
manualConfig(std::size_t max_concurrent = 1, std::size_t max_queued = 64)
{
    ServiceConfig config;
    config.autoStart = false;
    config.maxConcurrent = max_concurrent;
    config.maxQueued = max_queued;
    return config;
}

struct CounterDelta
{
    std::uint64_t submitted, rejected, completed, failed, cancelled;

    static CounterDelta now()
    {
        return {obs::counter("service.jobs.submitted").load(),
                obs::counter("service.jobs.rejected").load(),
                obs::counter("service.jobs.completed").load(),
                obs::counter("service.jobs.failed").load(),
                obs::counter("service.jobs.cancelled").load()};
    }

    CounterDelta since(const CounterDelta& base) const
    {
        return {submitted - base.submitted, rejected - base.rejected,
                completed - base.completed, failed - base.failed,
                cancelled - base.cancelled};
    }
};

TEST(Validation, RejectsMalformedSpecs)
{
    JobSpec spec = memorySpec("ok", 1);
    EXPECT_TRUE(validateJob(spec).ok);

    JobSpec unnamed = spec;
    unnamed.name.clear();
    EXPECT_FALSE(validateJob(unnamed).ok);

    JobSpec unknown_param = spec;
    unknown_param.add("window", ParamValue::num(2)); // stream-only key
    EXPECT_FALSE(validateJob(unknown_param).ok);

    JobSpec duplicate = spec;
    duplicate.add("shots", ParamValue::num(10));
    EXPECT_FALSE(validateJob(duplicate).ok);

    JobSpec even_distance = spec;
    even_distance.params[0].second = ParamValue::num(4);
    EXPECT_FALSE(validateJob(even_distance).ok);

    JobSpec fractional = spec;
    fractional.params[2].second = ParamValue::num(10.5);
    EXPECT_FALSE(validateJob(fractional).ok);

    JobSpec missing;
    missing.name = "missing";
    missing.kind = JobKind::Memory;
    EXPECT_FALSE(validateJob(missing).ok);

    JobSpec bad_decoder = spec;
    bad_decoder.add("decoder", ParamValue::str("mwpm"));
    EXPECT_FALSE(validateJob(bad_decoder).ok);

    // Each param in range, but distance^2 x rounds past the size cap:
    // d = 25 at 100,000 rounds is a ~1e9-op circuit.  The largest
    // admitted d = 25 job has 209 rounds (625 x 209 <= 2^17).
    for (const JobKind kind :
         {JobKind::Memory, JobKind::Stream, JobKind::SweepPoint}) {
        JobSpec sized = spec;
        sized.kind = kind;
        sized.params[0].second = ParamValue::num(25);     // distance
        sized.params[1].second = ParamValue::num(100000); // rounds
        sized.params[2].second = ParamValue::num(1);      // shots
        const Validation oversize = validateJob(sized);
        EXPECT_FALSE(oversize.ok) << jobKindName(kind);
        EXPECT_NE(oversize.error.find("kMaxDistanceSqRounds"),
                  std::string::npos)
            << oversize.error;
        sized.params[1].second = ParamValue::num(210);
        EXPECT_FALSE(validateJob(sized).ok) << jobKindName(kind);
        sized.params[1].second = ParamValue::num(209);
        EXPECT_TRUE(validateJob(sized).ok) << jobKindName(kind);
    }
}

TEST(Validation, StreamDecoderAndWindowConstraints)
{
    JobSpec spec = memorySpec("s", 1);
    spec.kind = JobKind::Stream;
    spec.add("window", ParamValue::num(2));
    spec.add("commit", ParamValue::num(1));
    EXPECT_TRUE(validateJob(spec).ok);

    JobSpec greedy_windowed = spec;
    greedy_windowed.add("decoder", ParamValue::str("greedy"));
    EXPECT_FALSE(validateJob(greedy_windowed).ok);

    JobSpec commit_too_big = memorySpec("s", 1);
    commit_too_big.kind = JobKind::Stream;
    commit_too_big.add("window", ParamValue::num(2));
    commit_too_big.add("commit", ParamValue::num(3));
    EXPECT_FALSE(validateJob(commit_too_big).ok);

    // The stream driver has no block queue, so `queue` is unknown.
    JobSpec with_queue = spec;
    with_queue.add("queue", ParamValue::num(8));
    const Validation queue_rejected = validateJob(with_queue);
    EXPECT_FALSE(queue_rejected.ok);
    EXPECT_NE(queue_rejected.error.find("unknown param 'queue'"),
              std::string::npos)
        << queue_rejected.error;
}

TEST(Validation, AnalysisResolvesCircuitSources)
{
    JobSpec builder;
    builder.name = "b";
    builder.kind = JobKind::Analysis;
    builder.add("builder", ParamValue::str("surface-d3"));
    EXPECT_TRUE(validateJob(builder).ok);

    JobSpec unknown_builder = builder;
    unknown_builder.params[0].second = ParamValue::str("surface-d99");
    EXPECT_FALSE(validateJob(unknown_builder).ok);

    JobSpec both = builder;
    both.add("circuit", ParamValue::str("H 0\n"));
    EXPECT_FALSE(validateJob(both).ok);

    JobSpec neither;
    neither.name = "n";
    neither.kind = JobKind::Analysis;
    EXPECT_FALSE(validateJob(neither).ok);

    JobSpec inline_ok;
    inline_ok.name = "inline";
    inline_ok.kind = JobKind::Analysis;
    inline_ok.add("circuit", ParamValue::str("H 0\nCX 0 1\nM 0 1\n"));
    EXPECT_TRUE(validateJob(inline_ok).ok);

    // A parse failure must reject the job, not kill the process.
    JobSpec inline_bad;
    inline_bad.name = "bad";
    inline_bad.kind = JobKind::Analysis;
    inline_bad.add("circuit", ParamValue::str("FROB 0 1\n"));
    const Validation v = validateJob(inline_bad);
    EXPECT_FALSE(v.ok);
    EXPECT_FALSE(v.error.empty());

    // Text that once parsed and then killed the daemon or failed the
    // job: a NaN probability (assert at admission), an observable past
    // the DEM's 32-bit mask (panic in the distance analysis), and a
    // 4e9-qubit register (std::bad_alloc).
    for (const char* text :
         {"X_ERROR p=nan 0\nM 0\n", "M 0\nOBSERVABLE_INCLUDE(40) 0\n",
          "H 4000000000\n"}) {
        JobSpec hostile = inline_bad;
        hostile.params[0].second = ParamValue::str(text);
        hostile.add("distance", ParamValue::num(1));
        const Validation rejected = validateJob(hostile);
        EXPECT_FALSE(rejected.ok) << text;
        EXPECT_NE(rejected.error.find("does not parse"),
                  std::string::npos)
            << rejected.error;
    }
}

TEST(JobService, SingleJobMatchesDirectApi)
{
    JobService jobs(manualConfig());
    const SubmitOutcome outcome = jobs.submit(memorySpec("m", 20260808));
    ASSERT_TRUE(outcome.accepted());
    EXPECT_EQ(outcome.id, 1u);
    jobs.drain();

    JobStatus status;
    ASSERT_TRUE(jobs.status(outcome.id, status));
    EXPECT_EQ(status.state, JobState::Done);

    Rng rng(20260808);
    const auto circuit = qec::surfaceMemoryZ(3, 2, qec::CircuitNoise{});
    const auto direct = qec::runMemoryExperiment(
        circuit, 200, 2, qec::DecoderKind::UnionFind, rng);
    EXPECT_EQ(status.result.find("failures")->u64, direct.failures);
    EXPECT_EQ(status.result.find("shots")->u64, direct.shots);
    EXPECT_EQ(status.result.find("per_round")->real, direct.perRound());
}

TEST(JobService, AnalysisFlowFieldsMatchDirectApi)
{
    JobService jobs(manualConfig());
    JobSpec spec;
    spec.name = "flow";
    spec.kind = JobKind::Analysis;
    spec.add("builder", ParamValue::str("surface-d3"));
    spec.add("distance", ParamValue::num(1));
    spec.add("flow", ParamValue::num(1));
    const SubmitOutcome outcome = jobs.submit(spec);
    ASSERT_TRUE(outcome.accepted()) << outcome.error;
    jobs.drain();

    JobStatus status;
    ASSERT_TRUE(jobs.status(outcome.id, status));
    ASSERT_EQ(status.state, JobState::Done);

    const auto circuit = dse::findBuilder("surface-d3")->make();
    const auto faults =
        qec::DecoderCache::instance().faultAnalysis(circuit, {});
    lint::flow::FlowOptions options;
    options.faults = faults.get();
    options.gateBudget = true;
    const auto direct = lint::flow::analyzeFlow(
        circuit, lint::sched::TimingModel::unit(circuit.numQubits()),
        options);

    EXPECT_EQ(status.result.find("flow_swaps")->u64, direct.swapCount);
    EXPECT_EQ(status.result.find("flow_movement_ns")->real,
              direct.movementNs);
    EXPECT_EQ(status.result.find("flow_peak_storage")->u64,
              direct.peakStorageOccupancy);
    EXPECT_EQ(status.result.find("flow_hazard_errors")->u64,
              direct.hazardErrors());
    ASSERT_NE(status.result.find("flow_budget"), nullptr);
    EXPECT_EQ(status.result.find("flow_budget")->real,
              direct.maxBudget());
    EXPECT_GT(status.result.find("flow_budget")->real, 0.0);
}

TEST(JobService, RejectionsDoNotConsumeIds)
{
    const CounterDelta base = CounterDelta::now();
    JobService jobs(manualConfig());

    JobSpec bad = memorySpec("bad", 1);
    bad.add("bogus", ParamValue::num(1));
    const SubmitOutcome rejected = jobs.submit(bad);
    EXPECT_FALSE(rejected.accepted());
    EXPECT_FALSE(rejected.error.empty());

    const SubmitOutcome accepted = jobs.submit(memorySpec("ok", 1));
    ASSERT_TRUE(accepted.accepted());
    EXPECT_EQ(accepted.id, 1u); // the rejection above used no id
    jobs.drain();

    const CounterDelta delta = CounterDelta::now().since(base);
    EXPECT_EQ(delta.submitted, 1u);
    EXPECT_EQ(delta.rejected, 1u);
    EXPECT_EQ(delta.completed, 1u);
}

TEST(JobService, QueueCapacityRejects)
{
    JobService jobs(manualConfig(1, 2));
    ASSERT_TRUE(jobs.submit(memorySpec("a", 1)).accepted());
    ASSERT_TRUE(jobs.submit(memorySpec("b", 2)).accepted());
    const SubmitOutcome overflow = jobs.submit(memorySpec("c", 3));
    EXPECT_FALSE(overflow.accepted());
    EXPECT_NE(overflow.error.find("queue full"), std::string::npos);
    EXPECT_EQ(jobs.queuedCount(), 2u);
    jobs.drain();
    EXPECT_EQ(jobs.queuedCount(), 0u);
}

TEST(JobService, PriorityOrderGovernsExecution)
{
    JobService jobs(manualConfig(1));
    std::vector<JobId> order;
    std::mutex order_mu;
    jobs.setRunner(JobKind::Memory,
                   [&](const JobSpec&, JobContext& ctx) {
                       std::lock_guard<std::mutex> lk(order_mu);
                       order.push_back(ctx.id());
                       return JobResult{};
                   });

    ASSERT_TRUE(jobs.submit(memorySpec("low", 1, 0)).accepted());
    ASSERT_TRUE(jobs.submit(memorySpec("mid-a", 2, 5)).accepted());
    ASSERT_TRUE(jobs.submit(memorySpec("mid-b", 3, 5)).accepted());
    ASSERT_TRUE(jobs.submit(memorySpec("high", 4, 9)).accepted());
    jobs.drain();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 4u); // priority 9
    EXPECT_EQ(order[1], 2u); // priority 5, submitted first
    EXPECT_EQ(order[2], 3u);
    EXPECT_EQ(order[3], 1u);
}

TEST(JobService, CancelWhileQueuedIsImmediate)
{
    const CounterDelta base = CounterDelta::now();
    JobService jobs(manualConfig());
    const JobId id = jobs.submit(memorySpec("victim", 7)).id;
    ASSERT_NE(id, kInvalidJobId);
    EXPECT_TRUE(jobs.cancel(id));
    EXPECT_EQ(jobs.queuedCount(), 0u);
    jobs.drain(); // nothing left to run

    JobStatus status;
    ASSERT_TRUE(jobs.status(id, status));
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_TRUE(status.result.empty());

    // Terminal jobs refuse a second cancellation.
    EXPECT_FALSE(jobs.cancel(id));
    EXPECT_FALSE(jobs.cancel(999));

    const CounterDelta delta = CounterDelta::now().since(base);
    EXPECT_EQ(delta.cancelled, 1u);
    EXPECT_EQ(delta.completed, 0u);
}

TEST(JobService, CancelMidRunRetiresAsCancelled)
{
    ServiceConfig config;
    config.maxConcurrent = 1;
    JobService jobs(config); // autoStart: dispatcher thread

    std::atomic<bool> entered{false};
    jobs.setRunner(JobKind::Distill,
                   [&](const JobSpec&, JobContext& ctx) {
                       entered.store(true);
                       while (!ctx.cancelled())
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(1));
                       JobResult partial;
                       partial.addU64("partial", 1);
                       return partial;
                   });

    JobSpec spec;
    spec.name = "blocker";
    spec.kind = JobKind::Distill;
    spec.add("trajectories", ParamValue::num(1));
    spec.add("horizon_us", ParamValue::num(1));
    const JobId id = jobs.submit(spec).id;
    ASSERT_NE(id, kInvalidJobId);

    while (!entered.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(jobs.cancel(id));

    const JobStatus status = jobs.wait(id);
    EXPECT_EQ(status.state, JobState::Cancelled);
    // The partial result a cancelled runner returned is discarded.
    EXPECT_TRUE(status.result.empty());
}

TEST(JobService, RunnerFailuresAreCaptured)
{
    JobService jobs(manualConfig());
    jobs.setRunner(JobKind::Memory,
                   [](const JobSpec&, JobContext&) -> JobResult {
                       throw std::runtime_error("kaput");
                   });
    jobs.setRunner(JobKind::Distill,
                   [](const JobSpec&, JobContext&) -> JobResult {
                       HETARCH_FATAL("fatal inside a runner");
                   });

    const JobId throwing = jobs.submit(memorySpec("throws", 1)).id;
    JobSpec fatal_spec;
    fatal_spec.name = "fatals";
    fatal_spec.kind = JobKind::Distill;
    fatal_spec.add("trajectories", ParamValue::num(1));
    fatal_spec.add("horizon_us", ParamValue::num(1));
    const JobId fataling = jobs.submit(fatal_spec).id;
    jobs.drain();

    JobStatus status;
    ASSERT_TRUE(jobs.status(throwing, status));
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_EQ(status.error, "kaput");

    // HETARCH_FATAL inside a runner fails the job, not the process.
    ASSERT_TRUE(jobs.status(fataling, status));
    EXPECT_EQ(status.state, JobState::Failed);
    EXPECT_NE(status.error.find("fatal inside a runner"),
              std::string::npos);
}

TEST(JobService, AutoModeRunsConcurrentJobsToCompletion)
{
    ServiceConfig config;
    config.maxConcurrent = 4;
    JobService jobs(config);
    std::vector<JobId> ids;
    for (int i = 0; i < 6; ++i) {
        const SubmitOutcome outcome =
            jobs.submit(memorySpec("auto", 100 + i));
        ASSERT_TRUE(outcome.accepted());
        ids.push_back(outcome.id);
    }
    jobs.waitIdle();
    for (JobId id : ids) {
        JobStatus status;
        ASSERT_TRUE(jobs.status(id, status));
        EXPECT_EQ(status.state, JobState::Done);
        EXPECT_EQ(status.result.find("shots")->u64, 200u);
    }
    EXPECT_EQ(jobs.statusAll().size(), 6u);
}

TEST(JobService, DestructorCancelsQueuedJobs)
{
    const CounterDelta base = CounterDelta::now();
    {
        JobService jobs(manualConfig());
        ASSERT_TRUE(jobs.submit(memorySpec("doomed-1", 1)).accepted());
        ASSERT_TRUE(jobs.submit(memorySpec("doomed-2", 2)).accepted());
        // No drain: destruction must retire both as cancelled.
    }
    const CounterDelta delta = CounterDelta::now().since(base);
    EXPECT_EQ(delta.submitted, 2u);
    EXPECT_EQ(delta.cancelled, 2u);
    EXPECT_EQ(delta.completed, 0u);
}

TEST(JobService, CapturedMetricsTravelWithTheStatus)
{
    ServiceConfig config = manualConfig();
    config.captureMetrics = true;
    JobService jobs(config);
    const JobId id = jobs.submit(memorySpec("metered", 5)).id;
    jobs.drain();

    JobStatus status;
    ASSERT_TRUE(jobs.status(id, status));
    ASSERT_EQ(status.state, JobState::Done);
    // One job ran alone, so its delta must show the experiment's own
    // shot counter moving.
    bool saw_shots = false;
    for (const auto& [name, delta] : status.metricsDelta)
        if (name == "qec.decode.shots")
            saw_shots = delta >= 200;
    EXPECT_TRUE(saw_shots);
}

} // namespace

/**
 * @file
 * Batch-runner robustness tests: seed-stream derivation, fault
 * injection through the runner.task failpoint, checkpoint crash
 * tolerance, resume round-trips, retry and quarantine semantics,
 * deadlines, graceful draining, parallel determinism and the worker
 * pool itself (deadlines, cancelAll, a pool lent to many runs). The
 * suite carries the "robustness" ctest label and CI also runs it under
 * ThreadSanitizer (-DVDRAM_SANITIZE=thread).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "presets/presets.h"
#include "runner/campaign.h"
#include "runner/checkpoint.h"
#include "runner/runner.h"
#include "core/montecarlo.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"

namespace vdram {
namespace {

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + "vdram_runner_" + name;
}

std::vector<TaskSpec>
simpleManifest(int count)
{
    std::vector<TaskSpec> manifest;
    for (int i = 0; i < count; ++i) {
        manifest.push_back(TaskSpec{"task-" + std::to_string(i),
                                    deriveStreamSeed(99, i)});
    }
    return manifest;
}

// ---------------------------------------------------------------------
// Seed streams
// ---------------------------------------------------------------------

TEST(SeedStreamTest, AffineRegressionNoCollision)
{
    // The old derivation (seed + 977 * sample) collided between
    // (base=1955, sample=0) and (base=1, sample=2) and any other pair
    // on the same lattice. The splitmix64 stream must not.
    EXPECT_NE(deriveStreamSeed(1955, 0), deriveStreamSeed(1, 2));
    EXPECT_NE(deriveStreamSeed(978, 1), deriveStreamSeed(1, 2));
}

TEST(SeedStreamTest, ManyStreamsDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t base = 0; base < 64; ++base)
        for (std::uint64_t s = 0; s < 64; ++s)
            seen.insert(deriveStreamSeed(base, s));
    EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(SeedStreamTest, UniformDoubleInUnitInterval)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        double u = uniformDoubleOf(splitmix64(i));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(SeedStreamTest, MonteCarloSampleSeedMatchesStream)
{
    EXPECT_EQ(monteCarloSampleSeed(7, 3), deriveStreamSeed(7, 3));
    EXPECT_NE(monteCarloSampleSeed(7, 3), monteCarloSampleSeed(7, 4));
}

/** Activates a VDRAM_FAILPOINTS spec for one test and clears it on
 *  destruction, so no activation leaks into the next test. */
struct ScopedFailpoints {
    explicit ScopedFailpoints(const std::string& spec)
    {
        Result<std::vector<FailpointConfig>> configs =
            parseFailpointSpec(spec);
        EXPECT_TRUE(configs.ok());
        if (configs.ok())
            configureFailpoints(configs.value());
    }
    ~ScopedFailpoints() { clearFailpoints(); }
};

// ---------------------------------------------------------------------
// Checkpoint records
// ---------------------------------------------------------------------

TEST(CheckpointTest, RecordRoundTrip)
{
    TaskRecord record;
    record.task = 42;
    record.name = "weird \"name\" \\ with\ttabs\nand newlines";
    record.status = "ok";
    record.attempts = 3;
    record.payload = "1.5 2.25e-300 -0";

    Result<TaskRecord> back = parseTaskRecord(formatTaskRecord(record));
    ASSERT_TRUE(back.ok()) << back.error().toString();
    EXPECT_EQ(back.value().task, 42);
    EXPECT_EQ(back.value().name, record.name);
    EXPECT_EQ(back.value().status, "ok");
    EXPECT_EQ(back.value().attempts, 3);
    EXPECT_EQ(back.value().payload, record.payload);
}

TEST(CheckpointTest, ErrorRecordRoundTrip)
{
    TaskRecord record;
    record.task = 7;
    record.name = "bad";
    record.status = "quarantined";
    record.error = "boom [E-MC-INVALID]";
    Result<TaskRecord> back = parseTaskRecord(formatTaskRecord(record));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().error, record.error);
    EXPECT_FALSE(back.value().ok());
}

TEST(CheckpointTest, ParseRejectsGarbage)
{
    EXPECT_FALSE(parseTaskRecord("").ok());
    EXPECT_FALSE(parseTaskRecord("not json").ok());
    EXPECT_FALSE(parseTaskRecord("{\"task\":1,\"status\"").ok());
    EXPECT_FALSE(parseTaskRecord("[1,2,3]").ok());
}

TEST(CheckpointTest, MissingFileIsEmpty)
{
    Result<std::vector<TaskRecord>> loaded =
        loadCheckpoint(tempPath("does_not_exist.jsonl"));
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.value().empty());
}

TEST(CheckpointTest, TruncatedTrailingLineTolerated)
{
    const std::string path = tempPath("truncated.jsonl");
    TaskRecord a;
    a.task = 0;
    a.name = "a";
    a.status = "ok";
    a.payload = "1";
    TaskRecord b = a;
    b.task = 1;
    b.name = "b";
    {
        std::ofstream out(path, std::ios::trunc);
        out << formatTaskRecord(a) << "\n"
            << formatTaskRecord(b) << "\n"
            << "{\"task\":2,\"name\":\"c\",\"sta"; // crash mid-write
    }
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value().size(), 2u);
    std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptMiddleLineIsError)
{
    const std::string path = tempPath("corrupt_middle.jsonl");
    TaskRecord a;
    a.task = 0;
    a.name = "a";
    a.status = "ok";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "garbage line\n" << formatTaskRecord(a) << "\n";
    }
    EXPECT_FALSE(loadCheckpoint(path).ok());
    std::remove(path.c_str());
}

TEST(CheckpointTest, ConsolidateReplacesAtomically)
{
    const std::string path = tempPath("consolidate.jsonl");
    {
        std::ofstream out(path, std::ios::trunc);
        out << "stale partial content\n";
    }
    std::vector<TaskRecord> records(3);
    for (int i = 0; i < 3; ++i) {
        records[i].task = i;
        records[i].name = "t" + std::to_string(i);
        records[i].status = "ok";
        records[i].payload = std::to_string(i * 10);
    }
    ASSERT_TRUE(consolidateCheckpoint(path, records).ok());
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), 3u);
    EXPECT_EQ(loaded.value()[2].payload, "20");
    std::remove(path.c_str());
}

TEST(CheckpointTest, ConsolidateSyncsAndRemovesTempFile)
{
    // The atomic-rename protocol fsyncs the temp file and its
    // directory; functionally, success must leave the final file in
    // place and no ".tmp" behind, including for paths inside a
    // subdirectory (the directory-fsync path).
    const std::string dir = tempPath("ckpt_subdir");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/consolidated.jsonl";
    std::vector<TaskRecord> records(1);
    records[0].task = 0;
    records[0].name = "t0";
    records[0].status = "ok";
    records[0].payload = "42";
    ASSERT_TRUE(consolidateCheckpoint(path, records).ok());
    EXPECT_TRUE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    Result<std::vector<TaskRecord>> loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), 1u);
    EXPECT_EQ(loaded.value()[0].payload, "42");
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, ConsolidateIntoMissingDirectoryFails)
{
    std::vector<TaskRecord> records;
    Status status = consolidateCheckpoint(
        tempPath("no_such_dir") + "/x/y/ckpt.jsonl", records);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "E-CKPT-WRITE");
}

// ---------------------------------------------------------------------
// Runner semantics
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, AllOkInManifestOrder)
{
    BatchRunner runner(
        simpleManifest(8),
        [](const TaskContext& context) -> Result<std::string> {
            return "p" + std::to_string(context.index);
        },
        {});
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().total, 8);
    EXPECT_EQ(report.value().ok, 8);
    EXPECT_TRUE(report.value().complete());
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(runner.results()[i].index, i);
        EXPECT_EQ(runner.results()[i].payload,
                  "p" + std::to_string(i));
    }
}

TEST(BatchRunnerTest, PermanentErrorQuarantinedWithoutRetry)
{
    std::atomic<int> calls{0};
    BatchRunner runner(
        simpleManifest(3),
        [&calls](const TaskContext& context) -> Result<std::string> {
            calls.fetch_add(1);
            if (context.index == 1)
                return Error{"bad variant", 0, 0, "", "E-MC-INVALID"};
            return std::string("ok");
        },
        {});
    DiagnosticEngine diags;
    Result<RunReport> report = runner.run(&diags);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().ok, 2);
    EXPECT_EQ(report.value().quarantined, 1);
    EXPECT_EQ(report.value().retried, 0);
    EXPECT_EQ(calls.load(), 3); // no retry of the permanent error
    EXPECT_EQ(runner.results()[1].outcome, TaskOutcome::Quarantined);
    EXPECT_EQ(runner.results()[1].attempts, 1);
    bool saw_quarantine = false;
    for (const Diagnostic& d : diags.diagnostics())
        saw_quarantine |= d.code == "E-RUNNER-QUARANTINE";
    EXPECT_TRUE(saw_quarantine);
}

TEST(BatchRunnerTest, TransientErrorRetriedThenFailed)
{
    std::atomic<int> calls{0};
    RunnerOptions options;
    options.maxRetries = 2;
    options.backoffSeconds = 0.0001;
    BatchRunner runner(
        simpleManifest(1),
        [&calls](const TaskContext&) -> Result<std::string> {
            calls.fetch_add(1);
            return Error{"flaky", 0, 0, "", "T-TEST-FLAKY"};
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(calls.load(), 3); // initial + 2 retries
    EXPECT_EQ(report.value().failed, 1);
    EXPECT_EQ(report.value().retried, 2);
    EXPECT_EQ(runner.results()[0].outcome, TaskOutcome::Failed);
}

TEST(BatchRunnerTest, TransientErrorRecoversOnRetry)
{
    std::atomic<int> calls{0};
    RunnerOptions options;
    options.backoffSeconds = 0.0001;
    BatchRunner runner(
        simpleManifest(1),
        [&calls](const TaskContext& context) -> Result<std::string> {
            calls.fetch_add(1);
            if (context.attempt < 2)
                return Error{"flaky", 0, 0, "", "T-TEST-FLAKY"};
            return std::string("recovered");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().ok, 1);
    EXPECT_EQ(report.value().retried, 1);
    EXPECT_EQ(runner.results()[0].payload, "recovered");
    EXPECT_EQ(runner.results()[0].attempts, 2);
}

TEST(BatchRunnerTest, ThrownExceptionIsQuarantined)
{
    BatchRunner runner(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 0)
                throw std::runtime_error("task blew up");
            return std::string("ok");
        },
        {});
    DiagnosticEngine diags;
    Result<RunReport> report = runner.run(&diags);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().quarantined, 1);
    EXPECT_EQ(report.value().ok, 1);
    // The exception is quarantined; the E-RUNNER-CRASH marker rides in
    // the diagnostic message so operators can tell crashes from plain
    // error Results.
    bool saw_crash = false;
    for (const Diagnostic& d : diags.diagnostics()) {
        saw_crash |= d.code == "E-RUNNER-QUARANTINE" &&
                     d.message.find("E-RUNNER-CRASH") !=
                         std::string::npos;
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_NE(runner.results()[0].error.find("task blew up"),
              std::string::npos);
}

TEST(BatchRunnerTest, DeadlineWatchdogCancelsSlowTask)
{
    RunnerOptions options;
    options.taskTimeoutSeconds = 0.02;
    BatchRunner runner(
        simpleManifest(2),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 0) {
                // Busy task that honors cooperative cancellation.
                auto start = std::chrono::steady_clock::now();
                while (!context.cancelled()) {
                    if (std::chrono::steady_clock::now() - start >
                        std::chrono::seconds(5))
                        break; // safety net, watchdog should fire first
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
                return std::string("late");
            }
            return std::string("fast");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().timedOut, 1);
    EXPECT_EQ(report.value().ok, 1);
    EXPECT_EQ(runner.results()[0].outcome, TaskOutcome::TimedOut);
    // The late result must have been discarded.
    EXPECT_TRUE(runner.results()[0].payload.empty());
}

TEST(BatchRunnerTest, StopFlagDrainsRemainingTasks)
{
    std::atomic<bool> stop{false};
    RunnerOptions options;
    options.stopFlag = &stop;
    BatchRunner runner(
        simpleManifest(10),
        [&stop](const TaskContext& context) -> Result<std::string> {
            if (context.index == 2)
                stop.store(true); // "SIGINT" arrives mid-run
            return std::string("done");
        },
        options);
    Result<RunReport> report = runner.run();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report.value().interrupted);
    EXPECT_FALSE(report.value().complete());
    EXPECT_GE(report.value().notRun, 1);
    // Tasks that ran before the stop still finished normally.
    EXPECT_GE(report.value().ok, 3);
    EXPECT_EQ(report.value().ok + report.value().notRun, 10);
}

TEST(BatchRunnerTest, FaultInjectionDeterministicSubset)
{
    ScopedFailpoints faults("runner.task=error@0.4");
    RunnerOptions options;
    options.maxRetries = 0;
    auto run_once = [&options]() {
        BatchRunner runner(
            simpleManifest(40),
            [](const TaskContext&) -> Result<std::string> {
                return std::string("ok");
            },
            options);
        EXPECT_TRUE(runner.run().ok());
        std::vector<long long> failed;
        for (const TaskResult& r : runner.results())
            if (!r.ok())
                failed.push_back(r.index);
        return failed;
    };
    std::vector<long long> first = run_once();
    std::vector<long long> second = run_once();
    EXPECT_FALSE(first.empty());
    EXPECT_LT(first.size(), 40u);
    EXPECT_EQ(first, second); // same variants fault every run
}

TEST(BatchRunnerTest, EffectiveJobCount)
{
    EXPECT_GE(effectiveJobCount(0), 1);
    EXPECT_EQ(effectiveJobCount(3), 3);
}

TEST(BatchRunnerTest, ReportRenderJsonHasCounters)
{
    BatchRunner runner(
        simpleManifest(2),
        [](const TaskContext&) -> Result<std::string> { return std::string("x"); },
        {});
    ASSERT_TRUE(runner.run().ok());
    std::string json = runner.report().renderJson();
    EXPECT_NE(json.find("\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\""), std::string::npos);
    EXPECT_NE(json.find("\"interrupted\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Checkpoint / resume through the runner
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, ResumeSkipsCompletedTasksByteIdentically)
{
    const std::string path = tempPath("resume.jsonl");
    std::remove(path.c_str());

    RunnerOptions first_options;
    first_options.checkpointPath = path;
    std::atomic<bool> stop{false};
    first_options.stopFlag = &stop;
    BatchRunner first(
        simpleManifest(12),
        [&stop](const TaskContext& context) -> Result<std::string> {
            if (context.index == 5)
                stop.store(true);
            return encodeDoublePayload(
                {uniformDoubleOf(context.seed), double(context.index)});
        },
        first_options);
    ASSERT_TRUE(first.run().ok());
    ASSERT_TRUE(first.report().interrupted);
    const long long done = first.report().ok;
    ASSERT_GE(done, 1);
    ASSERT_LT(done, 12);

    RunnerOptions resume_options;
    resume_options.checkpointPath = path;
    resume_options.resume = true;
    std::atomic<int> fresh_calls{0};
    BatchRunner second(
        simpleManifest(12),
        [&fresh_calls](const TaskContext& context)
            -> Result<std::string> {
            fresh_calls.fetch_add(1);
            return encodeDoublePayload(
                {uniformDoubleOf(context.seed), double(context.index)});
        },
        resume_options);
    DiagnosticEngine diags;
    ASSERT_TRUE(second.run(&diags).ok());
    EXPECT_EQ(second.report().skippedResume, done);
    EXPECT_EQ(fresh_calls.load(), 12 - done);
    EXPECT_TRUE(second.report().complete());

    // Reference: one uninterrupted serial run.
    BatchRunner reference(
        simpleManifest(12),
        [](const TaskContext& context) -> Result<std::string> {
            return encodeDoublePayload(
                {uniformDoubleOf(context.seed), double(context.index)});
        },
        {});
    ASSERT_TRUE(reference.run().ok());
    for (int i = 0; i < 12; ++i) {
        EXPECT_EQ(second.results()[i].payload,
                  reference.results()[i].payload)
            << "task " << i << " payload changed across resume";
    }
    std::remove(path.c_str());
}

TEST(BatchRunnerTest, ResumeReexecutesFailedTasks)
{
    const std::string path = tempPath("resume_failed.jsonl");
    std::remove(path.c_str());

    RunnerOptions options;
    options.checkpointPath = path;
    options.maxRetries = 0;
    BatchRunner first(
        simpleManifest(4),
        [](const TaskContext& context) -> Result<std::string> {
            if (context.index == 2)
                return Error{"bad", 0, 0, "", "E-MC-INVALID"};
            return std::string("ok");
        },
        options);
    ASSERT_TRUE(first.run().ok());
    EXPECT_EQ(first.report().quarantined, 1);

    options.resume = true;
    BatchRunner second(
        simpleManifest(4),
        [](const TaskContext&) -> Result<std::string> {
            return std::string("fixed");
        },
        options);
    ASSERT_TRUE(second.run().ok());
    // Only the previously-failed task runs again.
    EXPECT_EQ(second.report().skippedResume, 3);
    EXPECT_EQ(second.report().ok, 1);
    EXPECT_EQ(second.results()[2].payload, "fixed");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Parallel determinism (the TSan target exercises these heavily)
// ---------------------------------------------------------------------

TEST(BatchRunnerTest, ParallelRunMatchesSerial)
{
    auto payloads = [](int jobs) {
        RunnerOptions options;
        options.jobs = jobs;
        BatchRunner runner(
            simpleManifest(64),
            [](const TaskContext& context) -> Result<std::string> {
                return encodeDoublePayload(
                    {uniformDoubleOf(splitmix64(context.seed))});
            },
            options);
        EXPECT_TRUE(runner.run().ok());
        std::vector<std::string> result;
        for (const TaskResult& r : runner.results())
            result.push_back(r.payload);
        return result;
    };
    EXPECT_EQ(payloads(1), payloads(4));
    EXPECT_EQ(payloads(1), payloads(0)); // 0 = hardware concurrency
}

// ---------------------------------------------------------------------
// WorkerPool: deadlines without a scanner thread, cancelAll, borrowing
// ---------------------------------------------------------------------

/** OS threads of this process (the Threads: line of
 *  /proc/self/status). */
int
processThreadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (startsWith(line, "Threads:"))
            return std::stoi(line.substr(8));
    }
    return -1;
}

TEST(WorkerPoolTest, PolledDeadlineCancelsWithoutScannerThread)
{
    // A first pool lets a sanitizer runtime start its own helper thread
    // (it does so on the process's first thread) before the count.
    WorkerPool first(WorkerPool::Options{1, 0});
    const int before = processThreadCount();
    WorkerPool pool(WorkerPool::Options{2, 0});
    // Exactly the worker threads: nothing else watches the deadlines.
    EXPECT_EQ(processThreadCount(), before + 2);

    std::atomic<bool> saw_cancel{false};
    std::atomic<long long> waited_ms{0};
    pool.submit([&](WorkerPool::JobContext& job) {
        const auto start = std::chrono::steady_clock::now();
        job.armDeadline(0.02);
        while (!job.cancelled() &&
               std::chrono::steady_clock::now() - start <
                   std::chrono::seconds(5))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        saw_cancel = job.cancelled();
        waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    });
    pool.drain();
    EXPECT_TRUE(saw_cancel);
    EXPECT_GE(waited_ms.load(), 20);
    EXPECT_LT(waited_ms.load(), 5000);
}

TEST(WorkerPoolTest, UnpolledOverrunIsLateAfterClearDeadline)
{
    WorkerPool pool(WorkerPool::Options{1, 0});
    std::atomic<bool> overran_late{false};
    std::atomic<bool> prompt_late{true};
    pool.submit([&](WorkerPool::JobContext& job) {
        // Overruns a 5 ms deadline without ever polling cancelled().
        job.armDeadline(0.005);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        job.clearDeadline();
        overran_late = job.cancelled();
    });
    pool.submit([&](WorkerPool::JobContext& job) {
        // Finishes well inside its deadline.
        job.armDeadline(5.0);
        job.clearDeadline();
        prompt_late = job.cancelled();
    });
    std::atomic<int> endless_late{0};
    for (double seconds : {1e300, std::numeric_limits<double>::infinity()}) {
        // Too far out for the nanosecond clock: must never expire.
        pool.submit([&endless_late, seconds](WorkerPool::JobContext& job) {
            job.armDeadline(seconds);
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
            job.clearDeadline();
            endless_late += job.cancelled() ? 1 : 0;
        });
    }
    pool.drain();
    EXPECT_TRUE(overran_late);
    EXPECT_FALSE(prompt_late);
    EXPECT_EQ(endless_late.load(), 0);
}

TEST(WorkerPoolTest, CancelAllReachesInFlightJobs)
{
    WorkerPool pool(WorkerPool::Options{2, 0});
    std::atomic<int> started{0};
    std::atomic<int> cancelled{0};
    for (int i = 0; i < 2; ++i) {
        pool.submit([&](WorkerPool::JobContext& job) {
            ++started;
            const auto start = std::chrono::steady_clock::now();
            while (!job.cancelled() &&
                   std::chrono::steady_clock::now() - start <
                       std::chrono::seconds(5))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            if (job.cancelled())
                ++cancelled;
        });
    }
    while (started.load() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    pool.cancelAll();
    pool.drain();
    EXPECT_EQ(cancelled.load(), 2);
}

TEST(WorkerPoolTest, BorrowedPoolRunsMatchOwnPools)
{
    auto payloads = [](const std::vector<TaskSpec>& manifest,
                       WorkerPool* pool) {
        RunnerOptions options;
        options.jobs = 3;
        options.pool = pool;
        BatchRunner runner(
            manifest,
            [](const TaskContext& context) -> Result<std::string> {
                if (context.worker < 0 || context.worker >= 3)
                    return Error{"worker index out of range"};
                return encodeDoublePayload(
                    {uniformDoubleOf(splitmix64(context.seed)),
                     double(context.index)});
            },
            options);
        EXPECT_TRUE(runner.run().ok());
        EXPECT_TRUE(runner.report().complete());
        EXPECT_EQ(runner.report().ok, runner.report().total);
        std::string out;
        for (const TaskResult& r : runner.results())
            out += r.payload + "\n";
        return out;
    };
    std::vector<TaskSpec> other;
    for (int i = 0; i < 17; ++i)
        other.push_back(TaskSpec{"other-" + std::to_string(i),
                                 deriveStreamSeed(7, i)});
    const std::string own_first = payloads(simpleManifest(40), nullptr);
    const std::string own_second = payloads(other, nullptr);

    setMetricsEnabled(true);
    const MetricsSnapshot before = globalMetrics().snapshot();
    WorkerPool pool(WorkerPool::Options{3, 0});
    EXPECT_EQ(payloads(simpleManifest(40), &pool), own_first);
    EXPECT_EQ(payloads(other, &pool), own_second);
    const MetricsSnapshot delta =
        globalMetrics().snapshot().diffSince(before);
    setMetricsEnabled(false);

    // One pool for both runs, and the per-worker counters account for
    // every task under their usual names.
    EXPECT_EQ(delta.counters.at("pool.created"), 1u);
    std::uint64_t worker_tasks = 0;
    for (const auto& [name, value] : delta.counters) {
        if (startsWith(name, "runner.worker.") && endsWith(name, ".tasks"))
            worker_tasks += value;
    }
    EXPECT_EQ(worker_tasks, 40u + 17u);

    // The runs drained the borrowed pool but left it running.
    std::atomic<bool> ran{false};
    EXPECT_TRUE(
        pool.submit([&ran](WorkerPool::JobContext&) { ran = true; }));
    pool.drain();
    EXPECT_TRUE(ran);
}

TEST(CampaignTest, MonteCarloParallelMatchesSerial)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    const std::vector<IddMeasure> measures = {IddMeasure::Idd0,
                                              IddMeasure::Idd4R};
    RunnerOptions serial;
    RunnerOptions parallel;
    parallel.jobs = 4;
    Result<MonteCarloCampaign> a =
        runMonteCarloCampaign(nominal, measures, 60, {}, 7, serial);
    Result<MonteCarloCampaign> b =
        runMonteCarloCampaign(nominal, measures, 60, {}, 7, parallel);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().distributions.size(), 2u);
    for (size_t m = 0; m < 2; ++m) {
        EXPECT_DOUBLE_EQ(a.value().distributions[m].mean,
                         b.value().distributions[m].mean);
        EXPECT_DOUBLE_EQ(a.value().distributions[m].p95,
                         b.value().distributions[m].p95);
    }
}

TEST(CampaignTest, MonteCarloRejectsBadSampleCount)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    Result<MonteCarloCampaign> r =
        runMonteCarloCampaign(nominal, {IddMeasure::Idd0}, 0, {}, 1, {});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, "E-MC-SAMPLES");
}

TEST(CampaignTest, FaultInjectedCampaignStillAggregates)
{
    DramDescription nominal = preset1GbDdr3(55e-9, 16, 1333);
    ScopedFailpoints faults("runner.task=error@0.3");
    RunnerOptions options;
    options.maxRetries = 0;
    DiagnosticEngine diags;
    Result<MonteCarloCampaign> r = runMonteCarloCampaign(
        nominal, {IddMeasure::Idd0}, 50, {}, 7, options, &diags);
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().report.failed, 0);
    EXPECT_GT(r.value().report.ok, 0);
    EXPECT_EQ(r.value().report.ok + r.value().report.failed, 50);
    // Distributions come from the surviving samples.
    ASSERT_EQ(r.value().distributions.size(), 1u);
    EXPECT_GT(r.value().distributions[0].mean, 0.0);
}

// ---------------------------------------------------------------------
// Metrics sidecar continuity across interrupt + resume
// ---------------------------------------------------------------------

namespace {

/** The deterministic campaign counters of a checkpoint's metrics
 *  sidecar (scheduling-dependent ones — queue depth, per-worker load —
 *  are deliberately excluded from the comparison). */
std::map<std::string, std::uint64_t>
sidecarTaskCounters(const std::string& checkpoint_path)
{
    std::ifstream in(checkpoint_path + ".metrics.json",
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << "metrics sidecar missing for "
                           << checkpoint_path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<MetricsSnapshot> snapshot =
        parseMetricsSnapshot(buffer.str());
    EXPECT_TRUE(snapshot.ok());
    std::map<std::string, std::uint64_t> counters;
    if (!snapshot.ok())
        return counters;
    for (const char* name :
         {"runner.tasks.ok", "runner.tasks.failed",
          "runner.tasks.quarantined", "runner.tasks.timeout",
          "runner.tasks.retried"}) {
        auto it = snapshot.value().counters.find(name);
        counters[name] =
            it != snapshot.value().counters.end() ? it->second : 0;
    }
    return counters;
}

/** Fails transiently on the first attempt of every third task: unlike
 *  a seeded runner.task failpoint (whose faults repeat on every attempt,
 *  so a failed record fails again when resume re-executes it), this
 *  converges — exactly what the cumulative-counter identity needs. */
Result<std::string>
firstAttemptFlakyTask(const TaskContext& context)
{
    if (context.index % 3 == 0 && context.attempt == 1)
        return Error{"flaky once", 0, 0, "", "T-TEST-FLAKY"};
    return encodeDoublePayload(
        {uniformDoubleOf(context.seed), double(context.index)});
}

} // namespace

TEST(BatchRunnerTest, ResumedCampaignMetricsMatchUninterruptedRun)
{
    const std::string interrupted_path =
        tempPath("metrics_interrupted.jsonl");
    const std::string reference_path =
        tempPath("metrics_reference.jsonl");
    for (const std::string& p : {interrupted_path, reference_path}) {
        std::remove(p.c_str());
        std::remove((p + ".metrics.json").c_str());
    }
    setMetricsEnabled(true);

    RunnerOptions common;
    common.backoffSeconds = 0; // retries need no pacing in tests

    // Uninterrupted reference campaign.
    RunnerOptions reference_options = common;
    reference_options.checkpointPath = reference_path;
    BatchRunner reference(simpleManifest(12), firstAttemptFlakyTask,
                          reference_options);
    ASSERT_TRUE(reference.run().ok());
    ASSERT_TRUE(reference.report().complete());
    ASSERT_GT(reference.report().retried, 0);

    // Same campaign, interrupted at task 5 (not a retrying index, so
    // the drain never races a retry decision)...
    RunnerOptions first_options = common;
    first_options.checkpointPath = interrupted_path;
    std::atomic<bool> stop{false};
    first_options.stopFlag = &stop;
    BatchRunner first(
        simpleManifest(12),
        [&stop](const TaskContext& context) -> Result<std::string> {
            if (context.index == 5)
                stop.store(true);
            return firstAttemptFlakyTask(context);
        },
        first_options);
    ASSERT_TRUE(first.run().ok());
    ASSERT_TRUE(first.report().interrupted);
    ASSERT_GT(first.report().notRun, 0);

    // ... then resumed to completion.
    RunnerOptions resume_options = common;
    resume_options.checkpointPath = interrupted_path;
    resume_options.resume = true;
    BatchRunner second(simpleManifest(12), firstAttemptFlakyTask,
                       resume_options);
    ASSERT_TRUE(second.run().ok());
    ASSERT_TRUE(second.report().complete());
    EXPECT_EQ(second.report().skippedResume, first.report().ok);

    // The cumulative sidecar of the interrupted+resumed campaign must
    // equal the uninterrupted run's counters exactly.
    EXPECT_EQ(sidecarTaskCounters(interrupted_path),
              sidecarTaskCounters(reference_path));

    setMetricsEnabled(false);
    for (const std::string& p : {interrupted_path, reference_path}) {
        std::remove(p.c_str());
        std::remove((p + ".metrics.json").c_str());
    }
}

TEST(CampaignTest, DoublePayloadRoundTripsBitExactly)
{
    std::vector<double> values = {0.1, -1.5e300, 3.0,
                                  0.12345678901234567, -0.0};
    Result<std::vector<double>> back =
        decodeDoublePayload(encodeDoublePayload(values));
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().size(), values.size());
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(back.value()[i], values[i]);
    EXPECT_FALSE(decodeDoublePayload("1.5 bogus").ok());
}

} // namespace
} // namespace vdram

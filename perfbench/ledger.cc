/**
 * @file
 * perfbench_ledger — the traced per-layer run of the benchmark.
 *
 * Rebuilds the benchmark's CLI workloads in-process from the library's
 * public calls and times each call at its layer boundary:
 *
 *   dsl       parseDescription on emitted preset text
 *   core      DramPowerModel::create, VariantEvaluator perturbations,
 *             iddBatch, evaluateMonteCarloSampleFast
 *   power     makeChargeTable, patternExternalCurrent
 *   runner    BatchRunner::run fixed cost and per-task envelope, the
 *             Monte-Carlo campaign's pool wall against its total wall
 *   protocol  workload generation, FR-FCFS scheduling, trace streaming,
 *             checking and parallel slicing
 *   fit       runFitCampaign (also with and without a span, for the
 *             tracing overhead) and one candidate evaluation
 *
 * Every timed call (or batch of calls) is a span: name, layer, start,
 * end and parent, kept in memory and written as a chrome trace when the
 * run ends. The serve layers are probed by perfbench/traced.py with the
 * load generator.
 *
 * The in-process outputs (Monte-Carlo JSON, command trace, `trace
 * --check` text, calibrated description) are written under --work so
 * the caller can compare them byte for byte with the CLI's.
 *
 *   perfbench_ledger --seed=N --jobs=N --work=DIR --trace-out=FILE
 *                    [--targets=FILE]
 *
 * The fit is the one of `vdram fit --targets=FILE` when given, else the
 * DDR3-1333 x16 datasheet fit.
 *
 * Prints one JSON object of metrics on stdout.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/montecarlo.h"
#include "core/report.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "datasheet/reference_data.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "fit/fit_engine.h"
#include "fit/target_spec.h"
#include "power/pattern_power.h"
#include "presets/presets.h"
#include "protocol/address_map.h"
#include "protocol/command_trace.h"
#include "protocol/controller.h"
#include "protocol/idd.h"
#include "protocol/trace_stream.h"
#include "protocol/workload.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "runner/trace_campaign.h"
#include "util/diag.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/units.h"

using namespace vdram;

namespace {

using Clock = std::chrono::steady_clock;

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               Clock::now().time_since_epoch())
        .count();
}

/** In-memory span log; one thread (the library's own workers are
 *  inside the spans, not spanned themselves). */
class Spans {
  public:
    struct Span {
        std::string name;
        const char* layer;
        double start;
        double end;
        int parent;
    };

    int open(std::string name, const char* layer)
    {
        spans_.push_back({std::move(name), layer, nowUs(), 0,
                          stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = nowUs();
        stack_.pop_back();
    }

    double seconds(int id) const
    {
        const Span& s = spans_[static_cast<std::size_t>(id)];
        return (s.end - s.start) / 1e6;
    }

    bool write(const std::string& path) const
    {
        JsonWriter json;
        json.beginObject();
        json.key("traceEvents").beginArray();
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            json.beginObject();
            json.key("name").value(s.name);
            json.key("cat").value(s.layer);
            json.key("ph").value("X");
            json.key("ts").value(s.start);
            json.key("dur").value(s.end - s.start);
            json.key("pid").value(1);
            json.key("tid").value(1);
            json.key("args").beginObject();
            json.key("id").value(static_cast<long long>(i));
            json.key("parent").value(s.parent);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::ofstream out(path, std::ios::trunc);
        out << json.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

Spans g_spans;

/** RAII span around one call (or one batch of calls). */
class Scoped {
  public:
    Scoped(std::string name, const char* layer)
        : id_(g_spans.open(std::move(name), layer))
    {
    }
    ~Scoped() { close(); }
    double close()
    {
        if (!closed_) {
            g_spans.close(id_);
            closed_ = true;
        }
        return g_spans.seconds(id_);
    }

  private:
    int id_;
    bool closed_ = false;
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/**
 * Median seconds per call of @p fn, over @p batches spans of @p calls
 * calls each. @p fn gets the running call index.
 */
double
perCall(const char* name, const char* layer, int batches, int calls,
        const std::function<void(long long)>& fn)
{
    std::vector<double> perBatch;
    long long index = 0;
    for (int b = 0; b < batches; ++b) {
        Scoped span(name, layer);
        for (int c = 0; c < calls; ++c)
            fn(index++);
        perBatch.push_back(span.close() / calls);
    }
    return median(perBatch);
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

bool
writeFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

volatile double g_sink = 0;

[[noreturn]] void
die(const std::string& message)
{
    std::fprintf(stderr, "perfbench_ledger: %s\n", message.c_str());
    std::exit(1);
}

DramDescription
presetDescription(const std::string& name)
{
    for (const NamedPreset& preset : namedPresets()) {
        if (preset.name == name)
            return preset.build();
    }
    die("unknown preset " + name);
}

const SweepParam&
paramWithMask(const std::vector<SweepParam>& params, DirtyMask mask)
{
    for (const SweepParam& param : params) {
        if (param.dirty == mask)
            return param;
    }
    die("no sweep parameter with the requested dirty mask");
}

struct Ledger {
    std::uint64_t seed = 1;
    int jobs = 1;
    std::string work;
    std::string targets;
    JsonWriter metrics;
    DramDescription desc = presetDescription("ddr3_1g_55");

    void put(const char* name, double value)
    {
        metrics.key(name).value(value);
    }

    void dslAndCore()
    {
        const std::string text = writeDescription(desc);
        put("dsl.parse_us",
            1e6 * perCall("parseDescription", "dsl", 15, 20,
                          [&](long long) {
                              Result<DramDescription> parsed =
                                  parseDescription(text);
                              if (!parsed.ok())
                                  die("preset text does not parse");
                          }));
        put("core.create_us",
            1e6 * perCall("DramPowerModel::create", "core", 15, 20,
                          [&](long long) {
                              Result<DramPowerModel> model =
                                  DramPowerModel::create(desc);
                              if (!model.ok())
                                  die("preset does not validate");
                          }));
    }

    void corePower()
    {
        const std::vector<IddMeasure> measures = {
            IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
            IddMeasure::Idd4W, IddMeasure::Idd5};
        const VariationModel variation;
        VariantEvaluator evaluator{DramPowerModel(desc)};
        double out[8];

        // Perturb and evaluate alternately, timing each call on its own.
        std::vector<double> perturb, batch;
        {
            Scoped span("applyPerturbation+iddBatch (MC mask)", "core");
            for (int i = 0; i < 20000; ++i) {
                const std::uint64_t s = monteCarloSampleSeed(seed, i);
                const double t0 = nowUs();
                Status applied = evaluator.applyPerturbation(
                    [&](DramDescription& d) {
                        applyVariantPerturbation(d, variation, s);
                    },
                    kMonteCarloDirtyMask);
                const double t1 = nowUs();
                evaluator.iddBatch(measures.data(), measures.size(), out);
                const double t2 = nowUs();
                if (applied.ok()) {
                    perturb.push_back(t1 - t0);
                    batch.push_back(t2 - t1);
                }
            }
        }
        put("core.perturb_mc_us", median(perturb));
        put("core.idd_batch_us", median(batch));

        put("core.sample_us",
            1e6 * perCall("evaluateMonteCarloSampleFast", "core", 20, 1000,
                          [&](long long i) {
                              Result<std::vector<double>> values =
                                  evaluateMonteCarloSampleFast(
                                      evaluator, variation, measures,
                                      monteCarloSampleSeed(seed + 1, i));
                              if (values.ok())
                                  g_sink = g_sink + values.value()[0];
                          }));

        const DramPowerModel model(desc);
        put("power.charge_table_us",
            1e6 * perCall("makeChargeTable", "power", 20, 1000,
                          [&](long long) {
                              ChargeTable table = makeChargeTable(
                                  model.operations(), desc.elec);
                              g_sink = g_sink + table.ext[0][0];
                          }));
        const ChargeTable table = makeChargeTable(model.operations(),
                                                  desc.elec);
        const PatternStats stats = makePatternStats(
            makeIddPattern(IddMeasure::Idd0, desc.spec, desc.timing));
        put("power.idd_dot_ns",
            1e9 * perCall("patternExternalCurrent", "power", 20, 50000,
                          [&](long long) {
                              g_sink = g_sink + patternExternalCurrent(
                                                    stats, table, desc.elec,
                                                    desc.timing.tCkSeconds);
                          }));

        // Single-parameter perturbations: charges stage only, and the
        // technology group (loads, signal cache, charges).
        const std::vector<SweepParam> params =
            sweepParameters(SweepMode::Detailed);
        const SweepParam& elec = paramWithMask(params, kDirtyElectrical);
        const SweepParam& tech = paramWithMask(params, kDirtyTechnology);
        for (const SweepParam* param : {&elec, &tech}) {
            const double us =
                1e6 * perCall(("applyPerturbation " + param->name).c_str(),
                              "core", 20, 200, [&](long long i) {
                                  const double f = i % 2 ? 1.01 : 0.99;
                                  Status applied =
                                      evaluator.applyPerturbation(
                                          [param, f](DramDescription& d) {
                                              param->apply(d, f);
                                          },
                                          param->dirty);
                                  if (!applied.ok())
                                      die("perturbation rejected");
                              });
            put(param == &elec ? "core.perturb_elec_us"
                               : "core.perturb_tech_us",
                us);
        }
    }

    double runNoop(long long tasks, int runJobs)
    {
        std::vector<TaskSpec> manifest(static_cast<std::size_t>(tasks));
        RunnerOptions options;
        options.jobs = runJobs;
        BatchRunner runner(
            std::move(manifest),
            [](const TaskContext&) -> Result<std::string> {
                return std::string();
            },
            options);
        const double t0 = nowUs();
        Result<RunReport> report = runner.run();
        if (!report.ok() || report.value().ok != tasks)
            die("no-op batch failed");
        return (nowUs() - t0) / 1e6;
    }

    /** runner.run_fixed_us: one BatchRunner::run over 13 no-op tasks at
     *  the fit's default job count (1). Returns microseconds. */
    double runnerEnvelope()
    {
        std::vector<double> fixed;
        {
            Scoped span("BatchRunner::run x13 no-op (x200)", "runner");
            for (int i = 0; i < 200; ++i)
                fixed.push_back(runNoop(13, 1));
        }
        const double fixedUs = 1e6 * median(fixed);
        put("runner.run_fixed_us", fixedUs);
        const long long tasks = 200000;
        for (int runJobs : {1, 4}) {
            Scoped span(strformat("BatchRunner::run %lld no-op, %d job(s)",
                                  tasks, runJobs),
                        "runner");
            put(runJobs == 1 ? "runner.task_us_j1" : "runner.task_us_j4",
                1e6 * runNoop(tasks, runJobs) / tasks);
        }
        return fixedUs;
    }

    std::string monteCarloJson(long long samples,
                               const MonteCarloCampaign& mc)
    {
        // Same document as `vdram montecarlo --json`.
        JsonWriter json;
        json.beginObject();
        json.key("samples").value(samples);
        json.key("distributions").beginArray();
        for (const IddDistribution& d : mc.distributions) {
            json.beginObject();
            json.key("measure").value(iddName(d.measure));
            json.key("nominal").value(d.nominal);
            json.key("mean").value(d.mean);
            json.key("min").value(d.minimum);
            json.key("max").value(d.maximum);
            json.key("p05").value(d.p05);
            json.key("p95").value(d.p95);
            json.key("relativeSpread").value(d.relativeSpread());
            json.endObject();
        }
        json.endArray();
        json.key("report");
        json.beginObject();
        json.key("total").value(mc.report.total);
        json.key("ok").value(mc.report.ok);
        json.key("failed").value(mc.report.failed);
        json.key("quarantined").value(mc.report.quarantined);
        json.key("timedOut").value(mc.report.timedOut);
        json.key("retried").value(mc.report.retried);
        json.key("skippedResume").value(mc.report.skippedResume);
        json.key("notRun").value(mc.report.notRun);
        json.key("interrupted").value(mc.report.interrupted);
        json.endObject();
        json.endObject();
        return json.str() + "\n";
    }

    double monteCarlo(long long samples, int runJobs, std::uint64_t mcSeed,
                      const char* output)
    {
        const std::vector<IddMeasure> measures = {
            IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
            IddMeasure::Idd4W, IddMeasure::Idd5};
        RunnerOptions options;
        options.jobs = runJobs;
        const double cpu0 = cpuSeconds();
        Scoped span(strformat("runMonteCarloCampaign %lld samples, %d "
                              "job(s)",
                              samples, runJobs),
                    "runner");
        Result<MonteCarloCampaign> mc = runMonteCarloCampaign(
            desc, measures, static_cast<int>(samples), {}, mcSeed, options);
        const double wall = span.close();
        if (!mc.ok() || mc.value().report.ok != samples)
            die("Monte-Carlo campaign failed");
        if (output) {
            const double pool = mc.value().report.wallSeconds;
            put("runner.pool_wall_s", pool);
            put("runner.outside_pool_s", wall - pool);
            put("runner.busy_share",
                (cpuSeconds() - cpu0) / (wall * runJobs));
            writeFile(work + "/" + output, monteCarloJson(samples, mc.value()));
        }
        return samples / wall;
    }

    void protocol()
    {
        const long long count = 2'000'000;
        AddressMap map(desc.spec, MapScheme::RowBankCol);
        WorkloadParams params;
        params.count = count;
        params.seed = static_cast<unsigned>(seed);
        params.writeFraction = 0.3;
        Scoped pipeline("sched pipeline", "protocol");
        Scoped gen("makeWorkload mixed", "protocol");
        std::vector<MemoryAccess> accesses =
            makeWorkload(desc.spec, map, WorkloadKind::Mixed, params);
        put("protocol.workload_gen_ns", 1e9 * gen.close() / count);
        SchedulerOptions options;
        options.policy = SchedPolicy::FrFcfs;
        CommandScheduler scheduler(desc.spec, desc.timing, options);
        Scoped sched("CommandScheduler::schedule", "protocol");
        Result<ScheduledStream> stream = scheduler.schedule(accesses);
        put("protocol.schedule_ns", 1e9 * sched.close() / count);
        if (!stream.ok())
            die("schedule failed");
        Scoped write("writeCommandTrace", "protocol");
        const std::string tracePath = work + "/ledger.trace";
        if (!writeFile(tracePath, writeCommandTrace(stream.value().pattern)))
            die("cannot write " + tracePath);
        write.close();
        pipeline.close();

        TraceStreamOptions streamOptions;
        streamOptions.banks = desc.spec.banks();
        streamOptions.timing = desc.timing;
        TraceStreamResult result;
        for (bool check : {false, true}) {
            streamOptions.check = check;
            std::vector<double> walls;
            for (int rep = 0; rep < 5; ++rep) {
                Scoped span(check ? "evaluateTraceStreamFile --check"
                                  : "evaluateTraceStreamFile",
                            "protocol");
                Result<TraceStreamResult> streamed =
                    evaluateTraceStreamFile(tracePath, streamOptions);
                walls.push_back(span.close());
                if (!streamed.ok())
                    die("trace stream failed");
                result = std::move(streamed).value();
            }
            put(check ? "protocol.trace_check_ns"
                      : "protocol.trace_stream_ns",
                1e9 * median(walls) / result.commands);
        }
        if (result.violationCount != 0)
            die("scheduled trace has protocol violations");
        const DramPowerModel model(desc);
        const PatternPower power = computePatternPowerFromStats(
            result.stats, model.operations(), desc.elec,
            desc.timing.tCkSeconds, desc.spec);
        // Same text as `vdram trace <target> <file> --check` on stdout.
        writeFile(work + "/ledger-check.out",
                  strformat("streamed %lld cycles (%lld commands): current "
                            "%s, power %s, %.1f pJ/bit\n\n",
                            result.cycles, result.commands,
                            formatEng(power.externalCurrent, "A").c_str(),
                            formatEng(power.power, "W").c_str(),
                            power.energyPerBit * 1e12) +
                      renderBreakdown(power));

        TraceCampaignOptions parallel;
        parallel.jobs = jobs;
        std::vector<double> walls;
        for (int rep = 0; rep < 5; ++rep) {
            Scoped span("evaluateTraceFileParallel", "protocol");
            Result<TraceCampaignResult> merged =
                evaluateTraceFileParallel(tracePath, parallel);
            walls.push_back(span.close());
            if (!merged.ok() ||
                merged.value().trace.commands != result.commands)
                die("parallel trace evaluation failed");
        }
        put("protocol.trace_parallel_ns",
            1e9 * median(walls) / result.commands);
    }

    void fit(double runFixedUs)
    {
        DiagnosticEngine diags;
        Result<FitTargetSpec> spec =
            targets.empty()
                ? specFromDatasheet(ddr3_1gb_datasheet(), 1333, 16, 0.5,
                                    "ddr3-1333-x16")
                : loadFitTargetSpec(targets, diags);
        if (!spec.ok())
            die("fit target spec failed: " + spec.error().toString());
        FitOptions options;
        options.starts = 24;
        options.seed = seed;
        Scoped span("runFitCampaign", "fit");
        Result<FitResult> fitted =
            runFitCampaign(desc, spec.value(), options, RunnerOptions{});
        const double wall = span.close();
        if (!fitted.ok() || !fitted.value().converged)
            die("fit did not converge");
        // Tracing overhead: the same call with no span open, alternating
        // with spanned calls, three of each; medians. The extra spans are
        // not a layer's, so they leave the layers' self times alone.
        std::vector<double> traced{wall}, untraced;
        for (int rep = 0; rep < 3; ++rep) {
            const double t0 = nowUs();
            if (!runFitCampaign(desc, spec.value(), options, RunnerOptions{})
                     .ok())
                die("untraced fit failed");
            untraced.push_back((nowUs() - t0) / 1e6);
            if (rep == 2)
                break;
            Scoped again("runFitCampaign (overhead)", "overhead");
            if (!runFitCampaign(desc, spec.value(), options, RunnerOptions{})
                     .ok())
                die("traced fit failed");
            traced.push_back(again.close());
        }
        put("fit.traced_wall_s", median(traced));
        put("fit.untraced_wall_s", median(untraced));
        const FitResult& result = fitted.value();
        const double generations =
            static_cast<double>(result.history.size());
        double worst = 0;
        for (const FitResidual& r : result.residuals)
            worst = std::max(worst, std::abs(r.residual()) * 100);
        put("fit.generations", generations);
        put("fit.evaluations", static_cast<double>(result.evaluations));
        put("fit.generation_us", 1e6 * wall / generations);
        put("fit.max_residual_pct", worst);
        put("fit.runner_fixed_share", runFixedUs * generations / 1e6 / wall);
        writeFile(work + "/ledger-fit.out",
                  writeDescription(result.calibrated));

        // One candidate straight on a VariantEvaluator: every default
        // free parameter moved at once, then the three target IDDs.
        std::vector<const SweepParam*> free;
        DirtyMask dirty = 0;
        for (const std::string& name : defaultFitParameters()) {
            for (const SweepParam& param : fitParameterVocabulary()) {
                if (param.name == name) {
                    free.push_back(&param);
                    dirty |= param.dirty;
                }
            }
        }
        VariantEvaluator evaluator{DramPowerModel(desc)};
        const IddMeasure targets[] = {IddMeasure::Idd0, IddMeasure::Idd4R,
                                      IddMeasure::Idd4W};
        put("fit.eval_us",
            1e6 * perCall("candidate evaluation", "fit", 20, 200,
                          [&](long long i) {
                              const double f = 1.0 + 0.001 * (i % 7);
                              Status applied = evaluator.applyPerturbation(
                                  [&](DramDescription& d) {
                                      for (const SweepParam* p : free)
                                          p->apply(d, f);
                                  },
                                  dirty);
                              if (!applied.ok())
                                  die("fit candidate rejected");
                              for (IddMeasure m : targets)
                                  g_sink = g_sink + evaluator.idd(m);
                          }));
    }
};

bool
flagValue(const std::string& arg, const char* name, std::string& out)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Ledger ledger;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], v;
        if (flagValue(arg, "--seed", v))
            ledger.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flagValue(arg, "--jobs", v))
            ledger.jobs = std::max(1, std::atoi(v.c_str()));
        else if (flagValue(arg, "--work", v))
            ledger.work = v;
        else if (flagValue(arg, "--trace-out", v))
            traceOut = v;
        else if (flagValue(arg, "--targets", v))
            ledger.targets = v;
        else {
            std::fprintf(stderr,
                         "usage: perfbench_ledger --seed=N --jobs=N "
                         "--work=DIR --trace-out=FILE [--targets=FILE]\n");
            return 2;
        }
    }
    if (ledger.work.empty() || traceOut.empty()) {
        std::fprintf(stderr, "perfbench_ledger needs --work and "
                             "--trace-out\n");
        return 2;
    }

    ledger.metrics.beginObject();
    ledger.dslAndCore();
    ledger.corePower();
    const double runFixedUs = ledger.runnerEnvelope();
    ledger.monteCarlo(400000, ledger.jobs, ledger.seed, "ledger-mc.out");
    const double base = ledger.monteCarlo(100000, 1, ledger.seed + 1, nullptr);
    const double four = ledger.monteCarlo(100000, 4, ledger.seed + 1, nullptr);
    ledger.put("runner.mc_1job_samples_per_s", base);
    ledger.put("runner.scaling_4v1", four / base);
    ledger.protocol();
    ledger.fit(runFixedUs);
    ledger.metrics.endObject();

    if (!g_spans.write(traceOut))
        die("cannot write " + traceOut);
    std::printf("%s\n", ledger.metrics.str().c_str());
    return 0;
}

/**
 * @file
 * vdram_cli — command-line front end to the model; `vdram_cli --help`
 * lists every command and flag.
 *
 * <target> is either a path to a .dram description file or
 * "preset:<name>" (see `vdram_cli list`).
 *
 * Campaign commands (montecarlo, sensitivity, sweep, trends) route
 * through the resilient batch runner (src/runner/): --jobs=N
 * parallelism, --task-timeout, --checkpoint/--resume and graceful
 * SIGINT draining; VDRAM_FAILPOINTS=runner.task=ACTION@RATE injects
 * task faults.
 *
 * Every flag is one row of kFlags: its name, the commands that own it,
 * the kind and range of its value, where it is stored, and its --help
 * line. One parser reads that table for every command, and --help is
 * printed from it and from the command table, kCommands.
 *
 * Exit codes: 0 success, 1 runtime error, 2 usage error, 3 syntax
 * (parse) error in the description, 4 validation error, 5 interrupted
 * (partial results; checkpoint flushed).
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "circuit/rc_timing.h"
#include "core/json_export.h"
#include "core/montecarlo.h"
#include "core/variant_evaluator.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "core/model.h"
#include "core/report.h"
#include "core/schemes.h"
#include "core/sensitivity.h"
#include "core/trends.h"
#include "datasheet/reference_data.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "fit/fit_engine.h"
#include "fit/target_spec.h"
#include "presets/presets.h"
#include "protocol/bank_fsm.h"
#include "protocol/controller.h"
#include "protocol/command_trace.h"
#include "protocol/trace.h"
#include "protocol/trace_stream.h"
#include "runner/sched_campaign.h"
#include "runner/trace_campaign.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/trace.h"

using namespace vdram;

namespace {

// Exit codes (documented in README, docs/diagnostics.md and
// docs/runner.md).
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitValidate = 4;
/** A campaign was interrupted (SIGINT drain): partial results were
 *  reported and the checkpoint, if any, was flushed. */
constexpr int kExitPartial = 5;
/** An input or checkpoint file could not be opened or read (distinct
 *  from 3/4: the file is unreadable, not wrong). */
constexpr int kExitIo = 6;

/**
 * Map a diagnostic code onto the documented exit codes, so scripts can
 * distinguish "the trace file is unreadable" (6) from "the trace file
 * is malformed" (3), "the trace content is invalid" (4) and "the run
 * was drained" (5) without parsing stderr.
 */
int
exitCodeForError(const Error& error)
{
    const std::string& code = error.code;
    if (code == "E-RUNNER-STOP")
        return kExitPartial;
    if (code == "E-IO-OPEN" || code == "E-IO-READ" ||
        code == "E-CKPT-OPEN" || code == "E-CKPT-WRITE")
        return kExitIo;
    if (code == "E-TRACE-PARSE" || code == "E-CKPT-PARSE" ||
        code == "E-JSON-PARSE" || code == "E-METRICS-PARSE" ||
        code == "E-FIT-PARSE" || startsWith(code, "E-SYNTAX-"))
        return kExitParse;
    if (startsWith(code, "E-TRACE-") || startsWith(code, "E-FIT-") ||
        startsWith(code, "E-DATASHEET-"))
        return kExitValidate;
    return kExitRuntime;
}

/** Diagnostic output options (global flags). */
struct DiagOptions {
    bool lint = false;
    std::string format = "text";
};

/**
 * Everything the command line sets: each flag-table row stores its value
 * in one of these fields. The library option structs keep their own
 * defaults.
 */
struct CliArgs {
    /** The arguments that are not flags; [0] is the command word. */
    std::vector<std::string> words;
    DiagOptions diag;
    /** Observability outputs, written by main() after the command,
     *  whatever its exit path. */
    std::string metricsOut;
    std::string traceOut;
    RunnerOptions runner;
    /** True once any campaign flag is given: the run report then prints
     *  even when every task succeeded at the first try. */
    bool campaignFlags = false;

    bool detailed = false;       ///< sensitivity
    bool csv = false;            ///< trends
    bool closed = false;         ///< workload
    bool json = false;           ///< montecarlo, fit
    bool listParameters = false; ///< fit
    bool matrix = false;         ///< sched
    bool check = false;          ///< trace
    bool serial = false;         ///< trace
    /** Shared by commands whose defaults and ranges differ; each
     *  command applies (and, for sched, narrows) them itself. */
    std::optional<long long> seed;   ///< montecarlo, fit, sched
    std::optional<long long> window; ///< sched, trace

    long long samples = 200; ///< montecarlo

    FitOptions fit;
    std::string targets;
    std::string datasheet;
    std::string report;
    double rate = 0;
    long long width = 0;
    double edge = 0.5;

    WorkloadParams workload;
    WorkloadKind workloadKind = WorkloadKind::Local;
    MapScheme map = MapScheme::RowBankCol;
    SchedulerOptions sched{.policy = SchedPolicy::FrFcfs};

    std::string format = "text"; ///< trace

    /** serve; also the socket/port of fleet and serve-send and the
     *  worker options fleet hands to its workers. */
    ServeOptions serve;
    FleetOptions fleet;
    ServeSendOptions send;
};

/** --ready-marker: announce on stderr when the SIGINT drain handler is
 *  armed, so scripted tests know when a signal drains instead of
 *  killing (default disposition). */
bool g_ready_marker = false;
constexpr const char* kReadyMarker = "VDRAM-READY";

/** Raised by the SIGINT handler; polled by the batch runner. */
std::atomic<bool> g_stop_requested{false};

/** argv[0], kept for the fleet's worker re-exec fallback. */
std::string g_argv0;

/** Path of this binary, for `fleet` to exec `<self> serve` workers.
 *  /proc/self/exe survives PATH-relative invocation and chdir;
 *  argv[0] is the portable fallback. */
std::string
resolveSelfExe()
{
#if !defined(_WIN32)
    char buffer[4096];
    ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (got > 0) {
        buffer[got] = '\0';
        return std::string(buffer);
    }
#endif
    return g_argv0;
}

extern "C" void
onSigint(int)
{
    g_stop_requested.store(true, std::memory_order_relaxed);
    // A second Ctrl-C kills the process the normal way instead of
    // re-requesting the drain.
    std::signal(SIGINT, SIG_DFL);
}

extern "C" void
onSigterm(int)
{
    g_stop_requested.store(true, std::memory_order_relaxed);
    std::signal(SIGTERM, SIG_DFL);
}

/** Print the --ready-marker line, once per process. */
void
announceReady()
{
    if (g_ready_marker) {
        std::fprintf(stderr, "%s\n", kReadyMarker);
        std::fflush(stderr);
        g_ready_marker = false;
    }
}

/** Install the graceful-drain handler (campaign commands only). A
 *  command that can resume passes the checkpoint that --resume without
 *  --checkpoint resumes from. */
void
installDrainHandler(RunnerOptions& options,
                    const char* defaultCheckpoint = nullptr)
{
    if (defaultCheckpoint && options.resume &&
        options.checkpointPath.empty()) {
        options.checkpointPath = defaultCheckpoint;
        std::fprintf(stderr, "using default checkpoint '%s'\n",
                     defaultCheckpoint);
    }
    options.stopFlag = &g_stop_requested;
    std::signal(SIGINT, onSigint);
    announceReady();
}

/** serve and fleet drain on SIGINT and SIGTERM. They write to sockets
 *  whose peer may vanish any time; a dying client must surface as EPIPE
 *  on that one session's write (handled, session closes), never as
 *  process-killing SIGPIPE. */
void
installDaemonHandlers()
{
#if !defined(_WIN32)
    std::signal(SIGPIPE, SIG_IGN);
#endif
    std::signal(SIGINT, onSigint);
    std::signal(SIGTERM, onSigterm);
}

/**
 * Print accumulated diagnostics. Text goes to stderr (it annotates
 * whatever the command prints); JSON goes to stdout (it IS the output,
 * only used in lint mode or when the load failed).
 */
void
printDiagnostics(const DiagnosticEngine& diags, const DiagOptions& opts)
{
    if (opts.format == "json") {
        std::printf("%s\n", diags.renderJson().c_str());
        return;
    }
    if (!diags.diagnostics().empty())
        std::fprintf(stderr, "%s", diags.renderText().c_str());
}

/**
 * Load and validate @p target into @p out.
 *
 * Returns kExitOk on success; kExitUsage for an unknown preset;
 * kExitParse when the description has syntax errors; kExitValidate when
 * it parses but fails completeness/consistency validation. Parse errors
 * do NOT stop validation: both stages run so a single invocation
 * reports every defect it can find.
 */
int
loadTarget(const std::string& target, const DiagOptions& opts,
           DramDescription& out)
{
    if (startsWith(target, "preset:")) {
        std::string name = target.substr(7);
        for (const NamedPreset& preset : namedPresets()) {
            if (preset.name == name) {
                out = preset.build();
                if (opts.lint) {
                    DiagnosticEngine diags;
                    validateDescription(out, diags, nullptr);
                    printDiagnostics(diags, opts);
                    if (diags.hasErrors())
                        return kExitValidate;
                }
                return kExitOk;
            }
        }
        std::fprintf(stderr, "unknown preset '%s' (try: vdram_cli list)\n",
                     name.c_str());
        return kExitUsage;
    }

    DiagnosticEngine diags;
    ParsedDescription parsed = parseDescriptionFileDiag(target, diags);
    const bool parse_failed = diags.hasErrors();
    // An unreadable file yields nothing to validate; reporting
    // "missing section" for every section would only bury E-IO-OPEN.
    const bool unopened = parse_failed &&
                          diags.diagnostics().front().code == "E-IO-OPEN";
    if (!unopened)
        validateDescription(parsed.description, diags, &parsed.source);
    if (opts.lint || diags.hasErrors() ||
        !diags.diagnostics().empty()) {
        // In JSON mode only lint/failure runs print (stdout belongs to
        // the command output otherwise).
        if (opts.format != "json" || opts.lint || diags.hasErrors())
            printDiagnostics(diags, opts);
    }
    if (parse_failed)
        return kExitParse;
    if (diags.hasErrors())
        return kExitValidate;
    out = std::move(parsed.description);
    return kExitOk;
}

int
cmdList(CliArgs&, const DramDescription&)
{
    Table table({"preset", "device"});
    for (const NamedPreset& preset : namedPresets())
        table.addRow({preset.name, preset.build().name});
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdDescribe(CliArgs&, const DramDescription& desc)
{
    DramPowerModel model(desc);
    std::printf("%s\n", renderSummary(model).c_str());
    std::printf("%s\n", renderIddTable(model).c_str());
    std::printf("%s\n", renderBreakdown(model.evaluateDefault()).c_str());
    std::printf("%s", renderAreaReport(model.area()).c_str());
    return 0;
}

int
cmdIdd(CliArgs&, const DramDescription& desc)
{
    DramPowerModel model(desc);
    std::printf("%s", renderIddTable(model).c_str());
    return 0;
}

int
cmdJson(CliArgs&, const DramDescription& desc)
{
    DramPowerModel model(desc);
    std::printf("%s\n", modelToJson(model).c_str());
    return 0;
}

int
cmdEmit(CliArgs&, const DramDescription& desc)
{
    std::printf("%s", writeDescription(desc).c_str());
    return 0;
}

int
cmdPattern(CliArgs& a, const DramDescription& desc)
{
    Pattern pattern;
    for (size_t i = 2; i < a.words.size(); ++i) {
        std::string t = toLower(a.words[i]);
        if (t == "act") pattern.loop.push_back(Op::Act);
        else if (t == "pre") pattern.loop.push_back(Op::Pre);
        else if (t == "rd" || t == "read") pattern.loop.push_back(Op::Rd);
        else if (t == "wrt" || t == "wr" || t == "write")
            pattern.loop.push_back(Op::Wr);
        else if (t == "nop") pattern.loop.push_back(Op::Nop);
        else if (t == "ref") pattern.loop.push_back(Op::Ref);
        else if (t == "pdn") pattern.loop.push_back(Op::Pdn);
        else if (t == "srf") pattern.loop.push_back(Op::Srf);
        else {
            std::fprintf(stderr, "unknown op '%s'\n", a.words[i].c_str());
            return 2;
        }
    }
    if (pattern.loop.empty()) {
        std::fprintf(stderr, "empty pattern\n");
        return 2;
    }

    DramPowerModel model(desc);
    PatternCheckResult check =
        checkPattern(pattern, desc.timing, desc.spec.banks());
    if (!check.ok())
        std::printf("warning: %s\n\n", check.summary().c_str());

    PatternPower power = model.evaluate(pattern);
    std::printf("loop: %d cycles (%.1f ns), current %s, power %s\n",
                pattern.cycles(), power.loopTime * 1e9,
                formatEng(power.externalCurrent, "A").c_str(),
                formatEng(power.power, "W").c_str());
    if (power.bitsPerLoop > 0) {
        std::printf("data: %.0f bits/loop, %.1f pJ/bit, bus utilization "
                    "%.0f%%\n", power.bitsPerLoop,
                    power.energyPerBit * 1e12,
                    power.busUtilization * 100);
    }
    std::printf("\n%s", renderBreakdown(power).c_str());
    return 0;
}

/** Parse all of @p text as a base-10 integer; out-of-range text
 *  saturates, as strtoll does. */
bool
parseInteger(const std::string& text, long long& out)
{
    char* end = nullptr;
    out = std::strtoll(text.c_str(), &end, 10);
    return !text.empty() && end == text.c_str() + text.size();
}

/** Parse all of @p text as a floating-point number (strtod syntax). */
bool
parseReal(const std::string& text, double& out)
{
    char* end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end == text.c_str() + text.size();
}

/** The report is only noise when every task just succeeded first try. */
bool
reportIsTrivial(const RunReport& report)
{
    return !report.interrupted && report.failed == 0 &&
           report.quarantined == 0 && report.timedOut == 0 &&
           report.retried == 0 && report.skippedResume == 0;
}

/**
 * Print the campaign accounting to stderr (stdout carries the
 * aggregate result, which must stay byte-identical across
 * serial/parallel/resumed runs — wall time and throughput never belong
 * there).
 */
void
printRunReport(const RunReport& report, const DiagnosticEngine& diags,
               bool force)
{
    if (!diags.diagnostics().empty())
        std::fprintf(stderr, "%s", diags.renderText().c_str());
    if (force || !reportIsTrivial(report))
        std::fprintf(stderr, "%s", report.renderText().c_str());
}

int
exitCodeFor(const RunReport& report)
{
    return report.interrupted ? kExitPartial : kExitOk;
}

int
cmdSensitivity(CliArgs& a, const DramDescription& desc)
{
    installDrainHandler(a.runner);
    DiagnosticEngine diags;
    Result<SensitivityCampaign> campaign = runSensitivityCampaign(
        desc, 0.20,
        a.detailed ? SweepMode::Detailed : SweepMode::Grouped,
        a.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return kExitRuntime;
    }
    Table table({"parameter", "+20%", "-20%", "spread"});
    for (const SensitivityResult& r : campaign.value().results) {
        table.addRow({r.name, strformat("%+.1f%%", r.plus * 100),
                      strformat("%+.1f%%", r.minus * 100),
                      strformat("%.1f%%", r.spread() * 100)});
    }
    std::printf("%s", table.render().c_str());
    printRunReport(campaign.value().report, diags, a.campaignFlags);
    return exitCodeFor(campaign.value().report);
}

int
cmdMonteCarlo(CliArgs& a, const DramDescription& desc)
{
    installDrainHandler(a.runner, "vdram_montecarlo.jsonl");

    const std::vector<IddMeasure> measures = {
        IddMeasure::Idd0, IddMeasure::Idd2N, IddMeasure::Idd4R,
        IddMeasure::Idd4W, IddMeasure::Idd5};
    DiagnosticEngine diags;
    Result<MonteCarloCampaign> campaign = runMonteCarloCampaign(
        desc, measures, static_cast<int>(a.samples), {},
        static_cast<std::uint64_t>(a.seed.value_or(1)), a.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return exitCodeForError(campaign.error());
    }
    const MonteCarloCampaign& mc = campaign.value();

    if (a.json) {
        JsonWriter json;
        json.beginObject();
        json.key("samples").value(a.samples);
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
        // renderJson() yields a complete object; splice its fields by
        // re-emitting the counters here to keep one valid document.
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
        std::printf("%s\n", json.str().c_str());
    } else {
        Table table({"measure", "nominal", "mean", "p05", "p95", "min",
                     "max", "spread"});
        for (const IddDistribution& d : mc.distributions) {
            table.addRow({iddName(d.measure),
                          strformat("%.1f mA", d.nominal * 1e3),
                          strformat("%.1f mA", d.mean * 1e3),
                          strformat("%.1f mA", d.p05 * 1e3),
                          strformat("%.1f mA", d.p95 * 1e3),
                          strformat("%.1f mA", d.minimum * 1e3),
                          strformat("%.1f mA", d.maximum * 1e3),
                          strformat("%.0f%%", d.relativeSpread() * 100)});
        }
        std::printf("%s", table.render().c_str());
    }
    printRunReport(mc.report, diags, true);
    return exitCodeFor(mc.report);
}

int
cmdFit(CliArgs& a, const DramDescription& desc)
{
    if (a.targets.empty() && a.datasheet.empty()) {
        std::fprintf(stderr, "fit needs --targets=FILE or "
                             "--datasheet=ddr2|ddr3 (see --help)\n");
        return kExitUsage;
    }
    if (a.targets.empty() && (!(a.rate > 0) || a.width <= 0)) {
        std::fprintf(stderr, "--datasheet needs --rate=MBPS and "
                             "--width=BITS\n");
        return kExitUsage;
    }
    if (a.seed)
        a.fit.seed = static_cast<std::uint64_t>(*a.seed);

    DiagnosticEngine diags;
    Result<FitTargetSpec> spec =
        !a.targets.empty()
            ? loadFitTargetSpec(a.targets, diags)
            : specFromDatasheet(a.datasheet == "ddr2"
                                    ? ddr2_1gb_datasheet()
                                    : ddr3_1gb_datasheet(),
                                a.rate, static_cast<int>(a.width), a.edge,
                                strformat("%s-%.0f-x%lld",
                                          a.datasheet.c_str(), a.rate,
                                          a.width));
    if (!spec.ok()) {
        if (!diags.diagnostics().empty())
            std::fprintf(stderr, "%s", diags.renderText().c_str());
        else
            std::fprintf(stderr, "%s\n",
                         spec.error().toString().c_str());
        return exitCodeForError(spec.error());
    }

    installDrainHandler(a.runner, "vdram_fit.jsonl");

    Result<FitResult> fitted =
        runFitCampaign(desc, spec.value(), a.fit, a.runner, &diags);
    if (!fitted.ok()) {
        if (!diags.diagnostics().empty())
            std::fprintf(stderr, "%s", diags.renderText().c_str());
        std::fprintf(stderr, "%s\n", fitted.error().toString().c_str());
        return exitCodeForError(fitted.error());
    }
    const FitResult& result = fitted.value();

    const std::string reportJson =
        renderFitReportJson(result, spec.value());
    if (!a.report.empty()) {
        std::ofstream out(a.report, std::ios::trunc);
        if (out)
            out << reportJson << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write fit report to %s\n",
                         a.report.c_str());
            return kExitIo;
        }
    }
    std::fprintf(stderr, "%s",
                 renderFitReportText(result, spec.value()).c_str());
    printRunReport(result.report, diags, a.campaignFlags);
    if (result.interrupted) {
        std::fprintf(stderr, "fit interrupted; continue with --resume "
                             "--checkpoint=PATH\n");
        return kExitPartial;
    }
    if (a.json)
        std::printf("%s\n", reportJson.c_str());
    else
        std::printf("%s", writeDescription(result.calibrated).c_str());
    return result.converged ? kExitOk : kExitRuntime;
}

int
cmdSweep(CliArgs& a, const DramDescription& desc)
{
    const std::string& param_name = a.words[2];
    // Search the grouped sweep list first, then the detailed one.
    const SweepParam* param = nullptr;
    static std::vector<SweepParam> all;
    all = sweepParameters(SweepMode::Grouped);
    auto detailed = sweepParameters(SweepMode::Detailed);
    all.insert(all.end(), detailed.begin(), detailed.end());
    for (const SweepParam& p : all) {
        if (equalsIgnoreCase(p.name, param_name)) {
            param = &p;
            break;
        }
    }
    if (!param) {
        std::fprintf(stderr,
                     "unknown parameter '%s'; known parameters:\n",
                     param_name.c_str());
        for (const SweepParam& p : sweepParameters(SweepMode::Grouped))
            std::fprintf(stderr, "  %s\n", p.name.c_str());
        return kExitUsage;
    }

    std::vector<double> factors;
    std::vector<TaskSpec> manifest;
    for (size_t i = 3; i < a.words.size(); ++i) {
        const char* text = a.words[i].c_str();
        double factor = 0;
        if (!parseReal(a.words[i], factor) || !std::isfinite(factor) ||
            factor <= 0) {
            std::fprintf(stderr,
                         "sweep factor must be a finite number > 0, "
                         "got '%s'\n",
                         text);
            return kExitUsage;
        }
        factors.push_back(factor);
        manifest.push_back(
            TaskSpec{strformat("factor-%s", text),
                     deriveStreamSeed(0x53EE9, factors.size() - 1)});
    }

    installDrainHandler(a.runner);
    DiagnosticEngine diags;

    // Delta-evaluation fast path: one evaluator per worker slot, lazily
    // built from the nominal model. An invalid base description falls
    // back to the copying path, which reports it per row.
    FastPathMode fast_path = fastPathMode();
    std::vector<std::unique_ptr<VariantEvaluator>> evaluators(
        static_cast<size_t>(
            std::max(1, effectiveJobCount(a.runner.jobs))));
    if (fast_path != FastPathMode::Off &&
        !DramPowerModel::create(desc).ok()) {
        fast_path = FastPathMode::Off;
    }

    auto slowRow = [&desc, param, &factors](long long index)
        -> std::string {
        DramDescription variant = desc;
        param->apply(variant, factors[index]);
        // A factor can push the description out of its valid range;
        // report that row as not evaluable instead of dying.
        Result<DramPowerModel> model =
            DramPowerModel::create(std::move(variant));
        if (!model.ok())
            return "not evaluable: " + model.error().toString() +
                   "\t-\t-\t-";
        PatternPower power = model.value().evaluateDefault();
        return formatEng(power.power, "W") + "\t" +
               formatEng(model.value().idd(IddMeasure::Idd0), "A") +
               "\t" +
               formatEng(model.value().idd(IddMeasure::Idd4R), "A") +
               "\t" +
               strformat("%.1f pJ", power.energyPerBit * 1e12);
    };
    auto fastRow = [&](const TaskContext& context) -> std::string {
        std::unique_ptr<VariantEvaluator>& slot =
            evaluators[static_cast<size_t>(context.worker) %
                       evaluators.size()];
        if (!slot) {
            // The base description validated above; build() panics only
            // on internal invariant violations.
            slot = std::make_unique<VariantEvaluator>(
                DramPowerModel(desc));
        }
        Status status = slot->applyPerturbation(
            [&](DramDescription& d) {
                param->apply(d, factors[context.index]);
            },
            param->dirty);
        if (!status.ok())
            return "not evaluable: " + status.error().toString() +
                   "\t-\t-\t-";
        PatternPower power = slot->evaluateDefault();
        return formatEng(power.power, "W") + "\t" +
               formatEng(slot->idd(IddMeasure::Idd0), "A") + "\t" +
               formatEng(slot->idd(IddMeasure::Idd4R), "A") + "\t" +
               strformat("%.1f pJ", power.energyPerBit * 1e12);
    };

    BatchRunner runner(
        std::move(manifest),
        [&](const TaskContext& context) -> Result<std::string> {
            std::string row = fast_path == FastPathMode::Off
                                  ? slowRow(context.index)
                                  : fastRow(context);
            if (fast_path == FastPathMode::Verify &&
                row != slowRow(context.index)) {
                return Error{strformat("fast-path result of task %lld "
                                       "differs from the full-rebuild "
                                       "result",
                                       context.index),
                             0, 0, "", "E-FASTPATH-MISMATCH"};
            }
            return row;
        },
        a.runner);
    Result<RunReport> report = runner.run(&diags);
    if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.error().toString().c_str());
        return kExitRuntime;
    }

    Table table({"factor", "pattern power", "IDD0", "IDD4R",
                 "energy/bit"});
    for (const TaskResult& task : runner.results()) {
        std::vector<std::string> row = {
            strformat("%.3g", factors[task.index])};
        if (task.ok()) {
            for (const std::string& cell : splitChar(task.payload, '\t'))
                row.push_back(cell);
        } else if (task.outcome == TaskOutcome::NotRun) {
            row.insert(row.end(), {"(not run)", "-", "-", "-"});
        } else {
            row.insert(row.end(),
                       {"failed: " + task.error, "-", "-", "-"});
        }
        // Quarantined rows may carry fewer cells than the header; the
        // table renderer pads, but keep the shape regular anyway.
        while (row.size() < 5)
            row.push_back("-");
        table.addRow(row);
    }
    std::printf("sweep of '%s':\n%s", param->name.c_str(),
                table.render().c_str());
    printRunReport(report.value(), diags, a.campaignFlags);
    return exitCodeFor(report.value());
}

int
cmdSchemes(CliArgs&, const DramDescription& desc)
{
    SchemeEvaluator evaluator(desc, 64);
    Table table({"scheme", "energy/access", "savings", "caveat"});
    for (const SchemeResult& r : evaluator.evaluateAll()) {
        table.addRow({r.name,
                      strformat("%.2f nJ", r.energyPerAccess * 1e9),
                      strformat("%.1f%%", r.savingsVsBaseline * 100),
                      r.caveat});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

int
cmdTiming(CliArgs&, const DramDescription& desc)
{
    TimingEstimate t = estimateTiming(desc);
    Table table({"quantity", "estimate"});
    table.addRow({"master wordline rise",
                  strformat("%.2f ns", t.masterWordlineDelay * 1e9)});
    table.addRow({"local wordline rise",
                  strformat("%.2f ns", t.localWordlineDelay * 1e9)});
    table.addRow({"signal development",
                  strformat("%.2f ns", t.signalDevelopment * 1e9)});
    table.addRow({"sense time",
                  strformat("%.2f ns", t.senseTime * 1e9)});
    table.addRow({"column path",
                  strformat("%.2f ns", t.columnPathDelay * 1e9)});
    table.addRow({"precharge",
                  strformat("%.2f ns", t.prechargeTime * 1e9)});
    table.addSeparator();
    table.addRow({"tRCD estimate",
                  strformat("%.1f ns", t.tRcdEstimate * 1e9)});
    table.addRow({"tRC estimate",
                  strformat("%.1f ns", t.tRcEstimate * 1e9)});
    table.addRow({"max core frequency",
                  strformat("%.0f MHz", t.maxCoreFrequency / 1e6)});
    std::printf("%s", table.render().c_str());
    std::printf("(device timing inputs: tRCD %.1f ns, tRC %.1f ns)\n",
                desc.timing.tRcd * desc.timing.tCkSeconds * 1e9,
                desc.timing.tRcSeconds() * 1e9);
    return 0;
}

int
cmdWorkload(CliArgs& a, const DramDescription& desc)
{
    const std::string& trace_path = a.words[2];
    auto trace = loadTraceFile(trace_path);
    if (!trace.ok()) {
        std::fprintf(stderr, "%s\n", trace.error().toString().c_str());
        return exitCodeForError(trace.error());
    }
    Status addresses = validateAccesses(trace.value(), desc.spec);
    if (!addresses.ok()) {
        std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                     addresses.error().toString().c_str());
        return exitCodeForError(addresses.error());
    }
    CommandScheduler scheduler(desc.spec, desc.timing,
                               a.closed ? PagePolicy::ClosedPage
                                           : PagePolicy::OpenPage);
    Result<ScheduledStream> scheduled = scheduler.schedule(trace.value());
    if (!scheduled.ok()) {
        std::fprintf(stderr, "%s: %s\n", trace_path.c_str(),
                     scheduled.error().toString().c_str());
        return exitCodeForError(scheduled.error());
    }
    ScheduledStream stream = std::move(scheduled).value();
    DramPowerModel model(desc);
    PatternPower power = model.evaluate(stream.pattern);

    std::printf("%lld accesses: %lld hits / %lld misses / %lld "
                "conflicts (hit rate %.0f%%), %lld cycles\n",
                stream.stats.accesses, stream.stats.rowHits,
                stream.stats.rowMisses, stream.stats.rowConflicts,
                stream.stats.rowHitRate() * 100, stream.stats.cycles);
    std::printf("power %s, %.1f pJ/bit, bus utilization %.0f%%\n\n",
                formatEng(power.power, "W").c_str(),
                power.energyPerBit * 1e12, power.busUtilization * 100);
    std::printf("%s", renderBreakdown(power).c_str());
    return 0;
}

int
cmdGenTrace(CliArgs& a, const DramDescription& desc)
{
    const std::string count = a.words.size() > 3 ? a.words[3] : "1000";
    WorkloadParams params;
    if (!parseInteger(count, params.count) || params.count < 1 ||
        params.count > 100'000'000) {
        std::fprintf(stderr,
                     "trace count must be in [1, 100000000], got %s\n",
                     count.c_str());
        return kExitUsage;
    }
    Result<WorkloadKind> parsed = parseWorkloadKind(a.words[2]);
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.error().toString().c_str());
        return kExitUsage;
    }
    AddressMap map(desc.spec, MapScheme::RowBankCol);
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, parsed.value(), params);
    std::printf("%s", writeTrace(accesses).c_str());
    return 0;
}

/**
 * `vdram sched`: generate a synthetic workload, schedule it under the
 * configured scheduling policy / page policy / address mapping, and
 * emit the scheduled `<cycle> <command>` trace to stdout — the format
 * `vdram trace` consumes, so `vdram sched T | vdram trace T /dev/stdin
 * --check` replays the schedule through the streaming checker. The
 * stream statistics go to stderr. --matrix instead runs the full
 * workload × mapping × policy × page-policy campaign through the batch
 * runner (checkpointable, parallel, drainable) and renders one table;
 * any protocol violation in any cell fails the run (exit 4).
 */
int
cmdSched(CliArgs& a, const DramDescription& desc)
{
    // --seed and --window are shared with commands that take wider
    // values; sched narrows them here.
    if (a.seed && *a.seed > UINT32_MAX) {
        std::fprintf(stderr, "--seed must be below 2^32 for sched, got "
                             "'%lld'\n", *a.seed);
        return kExitUsage;
    }
    if (a.window && (*a.window < 1 || *a.window > 4096)) {
        std::fprintf(stderr, "--window must be in [1, 4096] for sched, "
                             "got '%lld'\n", *a.window);
        return kExitUsage;
    }
    if (a.seed)
        a.workload.seed = static_cast<unsigned>(*a.seed);
    if (a.window)
        a.sched.windowSize = static_cast<int>(*a.window);
    const WorkloadParams& params = a.workload;
    const SchedulerOptions& sched = a.sched;

    if (a.matrix) {
        installDrainHandler(a.runner);
        SchedMatrixOptions options;
        options.workloads = allWorkloadKinds();
        options.schemes = allMapSchemes();
        options.policies = {SchedPolicy::InOrder, SchedPolicy::FrFcfs};
        options.pagePolicies = {PagePolicy::OpenPage,
                                PagePolicy::ClosedPage};
        options.params = params;
        options.windowSize = sched.windowSize;
        DiagnosticEngine diags;
        Result<SchedMatrixCampaign> campaign =
            runSchedMatrixCampaign(desc, options, a.runner, &diags);
        if (!campaign.ok()) {
            std::fprintf(stderr, "%s\n",
                         campaign.error().toString().c_str());
            return exitCodeForError(campaign.error());
        }
        Table table({"workload", "map", "policy", "page", "hit rate",
                     "reordered", "violations", "pJ/bit"});
        long long violations = 0;
        for (const SchedMatrixCell& cell : campaign.value().cells) {
            if (!cell.ok) {
                table.addRow({workloadKindName(cell.workload),
                              mapSchemeName(cell.scheme),
                              schedPolicyName(cell.policy),
                              pagePolicyName(cell.pagePolicy), "-", "-",
                              "-", "-"});
                continue;
            }
            violations += cell.violations;
            table.addRow(
                {workloadKindName(cell.workload),
                 mapSchemeName(cell.scheme),
                 schedPolicyName(cell.policy),
                 pagePolicyName(cell.pagePolicy),
                 strformat("%.0f%%", cell.stats.rowHitRate() * 100),
                 strformat("%lld", cell.stats.reordered),
                 strformat("%lld", cell.violations),
                 strformat("%.1f", cell.energyPerBit * 1e12)});
        }
        std::printf("%s", table.render().c_str());
        printRunReport(campaign.value().report, diags, a.campaignFlags);
        if (violations > 0) {
            std::fprintf(stderr,
                         "scheduler matrix: %lld protocol violations\n",
                         violations);
            return kExitValidate;
        }
        return exitCodeFor(campaign.value().report);
    }

    AddressMap map(desc.spec, a.map);
    std::vector<MemoryAccess> accesses =
        makeWorkload(desc.spec, map, a.workloadKind, params);
    CommandScheduler scheduler(desc.spec, desc.timing, sched);
    Result<ScheduledStream> scheduled = scheduler.schedule(accesses);
    if (!scheduled.ok()) {
        std::fprintf(stderr, "%s\n",
                     scheduled.error().toString().c_str());
        return exitCodeForError(scheduled.error());
    }
    const ScheduledStream& stream = scheduled.value();
    std::fprintf(stderr,
                 "%lld accesses (%s/%s/%s/%s): %lld hits / %lld misses "
                 "/ %lld conflicts (hit rate %.0f%%), %lld reordered, "
                 "%lld cycles\n",
                 stream.stats.accesses,
                 workloadKindName(a.workloadKind).c_str(),
                 mapSchemeName(a.map).c_str(),
                 schedPolicyName(sched.policy).c_str(),
                 pagePolicyName(sched.pagePolicy).c_str(),
                 stream.stats.rowHits, stream.stats.rowMisses,
                 stream.stats.rowConflicts,
                 stream.stats.rowHitRate() * 100, stream.stats.reordered,
                 stream.stats.cycles);
    std::printf("%s", writeCommandTrace(stream.pattern).c_str());
    return 0;
}

/**
 * `vdram trace`: streaming command-trace evaluation. Serial by default
 * (and always serial with --check: bank-FSM state threads through the
 * whole trace); --jobs=0/N routes line-aligned byte slices through the
 * batch runner and merges the integer counts, bit-identical to the
 * serial result.
 */
int
cmdTrace(CliArgs& a, const DramDescription& desc)
{
    const std::string& path = a.words[2];
    const long long window = a.window.value_or(0);
    // A numeric but unusable window — zero, negative, or wide enough to
    // overflow the window index math — is a content defect, not a
    // syntax defect: report the structured E-TRACE-WINDOW diagnostic
    // (exit 4), same code the library's validateTraceWindow() uses.
    if (a.window) {
        Status valid = window == 0
                           ? Status(Error{
                                 "--window=0 would request a timeline of "
                                 "zero-cycle windows; drop --window to "
                                 "evaluate without a timeline",
                                 0, 0, "", "E-TRACE-WINDOW"})
                           : validateTraceWindow(window);
        if (!valid.ok()) {
            std::fprintf(stderr, "%s\n", valid.error().toString().c_str());
            return exitCodeForError(valid.error());
        }
    }
    if (a.format == "csv" && window <= 0) {
        std::fprintf(stderr,
                     "--format=csv emits the per-window timeline and "
                     "needs --window=N\n");
        return kExitUsage;
    }

    installDrainHandler(a.runner);

    const bool parallel = !a.serial && !a.check && a.runner.jobs != 1;
    DiagnosticEngine diags;
    TraceStreamResult result;
    RunReport report;
    bool have_report = false;
    if (parallel) {
        TraceCampaignOptions options;
        options.windowCycles = window;
        options.jobs = a.runner.jobs;
        options.stopFlag = a.runner.stopFlag;
        Result<TraceCampaignResult> campaign =
            evaluateTraceFileParallel(path, options, &diags);
        if (!campaign.ok()) {
            printDiagnostics(diags, DiagOptions{});
            std::fprintf(stderr, "%s\n",
                         campaign.error().toString().c_str());
            return exitCodeForError(campaign.error());
        }
        result = std::move(campaign.value().trace);
        report = campaign.value().report;
        have_report = true;
    } else {
        TraceStreamOptions options;
        options.windowCycles = window;
        options.check = a.check;
        options.banks = desc.spec.banks();
        options.timing = desc.timing;
        Result<TraceStreamResult> streamed =
            evaluateTraceStreamFile(path, options);
        if (!streamed.ok()) {
            std::fprintf(stderr, "%s\n",
                         streamed.error().toString().c_str());
            return exitCodeForError(streamed.error());
        }
        result = std::move(streamed).value();
    }

    DramPowerModel model(desc);
    const double tck = desc.timing.tCkSeconds;
    PatternPower power = computePatternPowerFromStats(
        result.stats, model.operations(), desc.elec, tck, desc.spec);

    if (a.check) {
        if (result.violationCount == 0) {
            std::fprintf(stderr, "trace is protocol-clean\n");
        } else {
            std::fprintf(stderr, "%lld protocol violation(s):\n",
                         result.violationCount);
            for (const TimingViolation& v : result.violations) {
                std::fprintf(stderr, "  cycle %lld %s: %s (%s)\n",
                             v.cycle, opName(v.op).c_str(),
                             v.rule.c_str(), v.detail.c_str());
            }
            const long long shown =
                static_cast<long long>(result.violations.size());
            if (shown < result.violationCount) {
                std::fprintf(stderr, "  ... and %lld more\n",
                             result.violationCount - shown);
            }
        }
    }

    auto window_power = [&](const TraceWindow& w) {
        return computePatternPowerFromStats(
            w.stats, model.operations(), desc.elec, tck, desc.spec);
    };

    if (a.format == "json") {
        JsonWriter json;
        json.beginObject();
        json.key("cycles").value(result.cycles);
        json.key("commands").value(result.commands);
        json.key("loop_time_s").value(power.loopTime);
        json.key("external_current_a").value(power.externalCurrent);
        json.key("power_w").value(power.power);
        json.key("energy_per_bit_j").value(power.energyPerBit);
        json.key("bus_utilization").value(power.busUtilization);
        if (a.check)
            json.key("violations").value(result.violationCount);
        if (window > 0) {
            json.key("window_cycles").value(window);
            json.key("windows").beginArray();
            for (const TraceWindow& w : result.windows) {
                PatternPower wp = window_power(w);
                json.beginObject();
                json.key("start_cycle").value(w.startCycle);
                json.key("cycles").value(w.cycles);
                json.key("external_current_a").value(wp.externalCurrent);
                json.key("power_w").value(wp.power);
                json.key("energy_j").value(wp.power * wp.loopTime);
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
        std::printf("%s\n", json.str().c_str());
    } else if (a.format == "csv") {
        std::printf("window,start_cycle,cycles,current_a,power_w,"
                    "energy_j\n");
        for (size_t i = 0; i < result.windows.size(); ++i) {
            const TraceWindow& w = result.windows[i];
            PatternPower wp = window_power(w);
            std::printf("%zu,%lld,%lld,%.9g,%.9g,%.9g\n", i,
                        w.startCycle, w.cycles, wp.externalCurrent,
                        wp.power, wp.power * wp.loopTime);
        }
    } else {
        std::printf("streamed %lld cycles (%lld commands): current %s, "
                    "power %s, %.1f pJ/bit\n\n%s",
                    result.cycles, result.commands,
                    formatEng(power.externalCurrent, "A").c_str(),
                    formatEng(power.power, "W").c_str(),
                    power.energyPerBit * 1e12,
                    renderBreakdown(power).c_str());
        if (window > 0 && !result.windows.empty()) {
            Table table({"window", "start cycle", "cycles", "current",
                         "power"});
            for (size_t i = 0; i < result.windows.size(); ++i) {
                const TraceWindow& w = result.windows[i];
                PatternPower wp = window_power(w);
                table.addRow(
                    {strformat("%zu", i), strformat("%lld", w.startCycle),
                     strformat("%lld", w.cycles),
                     formatEng(wp.externalCurrent, "A"),
                     formatEng(wp.power, "W")});
            }
            std::printf("\n%s", table.render().c_str());
        }
    }
    if (have_report) {
        printRunReport(report, diags, a.campaignFlags);
        return exitCodeFor(report);
    }
    return kExitOk;
}

int
cmdTrends(CliArgs& a, const DramDescription&)
{
    installDrainHandler(a.runner);
    DiagnosticEngine diags;
    Result<TrendsCampaign> campaign =
        runTrendsCampaign({}, a.runner, &diags);
    if (!campaign.ok()) {
        std::fprintf(stderr, "%s\n",
                     campaign.error().toString().c_str());
        return kExitRuntime;
    }
    Table table({"node", "year", "device", "die mm2", "pJ/bit", "IDD0 mA",
                 "IDD4R mA"});
    for (const TrendPoint& p : campaign.value().points) {
        table.addRow({strformat("%.0f", p.generation.featureSize * 1e9),
                      strformat("%d", p.generation.year),
                      p.generation.label(),
                      strformat("%.1f", p.dieAreaMm2),
                      strformat("%.1f", p.energyPerBit * 1e12),
                      strformat("%.0f", p.idd0 * 1e3),
                      strformat("%.0f", p.idd4r * 1e3)});
    }
    std::printf("%s", a.csv ? table.renderCsv().c_str()
                            : table.render().c_str());
    printRunReport(campaign.value().report, diags, a.campaignFlags);
    return exitCodeFor(campaign.value().report);
}

/** serve, fleet and serve-send need a socket path or a port. */
bool
missingEndpoint(const CliArgs& a, const char* command)
{
    if (!a.serve.socketPath.empty() || a.serve.port != 0)
        return false;
    std::fprintf(stderr, "%s needs --socket=PATH or --port=N\n", command);
    return true;
}

/**
 * `vdram serve`: the long-running evaluation daemon (src/serve).
 * SIGINT and SIGTERM both drain: already-read requests are answered,
 * then the process exits with the standard drain code 5.
 */
int
cmdServe(CliArgs& a, const DramDescription&)
{
    ServeOptions options = a.serve;
    options.threads = a.runner.jobs;
    if (missingEndpoint(a, "serve"))
        return kExitUsage;

    options.stopFlag = &g_stop_requested;
    options.onReady = announceReady;
    installDaemonHandlers();

    Result<ServeStats> stats = runServeServer(options);
    if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.error().toString().c_str());
        return kExitRuntime;
    }
    std::fprintf(stderr, "serve: %s\n",
                 stats.value().renderJson().c_str());
    return stats.value().drained ? kExitPartial : kExitOk;
}

/**
 * `vdram fleet`: N supervised `vdram serve` workers behind one front
 * socket (src/serve/fleet.h). SIGINT/SIGTERM drain the whole fleet;
 * exit 5 certifies the summed accounting invariant held and every
 * worker drained cleanly.
 */
int
cmdFleet(CliArgs& a, const DramDescription&)
{
    // The worker flags are serve's; fleet hands them to each worker.
    FleetOptions options = a.fleet;
    options.socketPath = a.serve.socketPath;
    options.port = a.serve.port;
    options.idleSessionSeconds = a.serve.idleSessionSeconds;
    options.serve.threads = a.runner.jobs;
    options.serve.queueCapacity = a.serve.queueCapacity;
    options.serve.deadlineSeconds = a.serve.deadlineSeconds;
    options.serve.maxDeadlineSeconds = a.serve.maxDeadlineSeconds;
    options.serve.idleSessionSeconds = a.serve.idleSessionSeconds;
    options.serve.cacheCapacity =
        static_cast<long long>(a.serve.cacheCapacity);
    if (missingEndpoint(a, "fleet"))
        return kExitUsage;
    if (options.socketDir.empty()) {
        if (options.socketPath.empty()) {
            std::fprintf(stderr,
                         "fleet with --port needs --worker-dir=DIR "
                         "for the worker sockets\n");
            return kExitUsage;
        }
        options.socketDir = options.socketPath + ".d";
    }
    options.exePath = resolveSelfExe();
    if (options.exePath.empty()) {
        std::fprintf(stderr,
                     "fleet cannot resolve its own binary path\n");
        return kExitRuntime;
    }

    options.stopFlag = &g_stop_requested;
    options.onReady = announceReady;
    installDaemonHandlers();
    options.onEvent = [](const std::string& event) {
        // One supervision event per line; scripted tests parse the
        // "worker N pid P" lines to aim their kill -9.
        std::fprintf(stderr, "fleet: %s\n", event.c_str());
        std::fflush(stderr);
    };

    Result<FleetStats> stats = runFleet(options);
    if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.error().toString().c_str());
        return kExitRuntime;
    }
    std::fprintf(stderr, "fleet: %s\n",
                 stats.value().renderJson().c_str());
    if (stats.value().cleanDrain())
        return kExitPartial;
    if (stats.value().drained) {
        // Drain commanded but the accounting did not close: a worker
        // was killed hard or a response went missing. Scripts must not
        // read this as a clean drain.
        return kExitRuntime;
    }
    return kExitOk;
}

/** `vdram serve-send`: pipe stdin request lines to a daemon. */
int
cmdServeSend(CliArgs& a, const DramDescription&)
{
    ServeSendOptions options = a.send;
    options.socketPath = a.serve.socketPath;
    options.port = a.serve.port;
    if (missingEndpoint(a, "serve-send"))
        return kExitUsage;

    std::string input;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, stdin)) > 0)
        input.append(chunk, got);
    if (trim(input).empty()) {
        std::fprintf(stderr, "serve-send: no requests on stdin\n");
        return kExitUsage;
    }

    Result<std::string> responses = serveSendLinesRetry(options, input);
    if (!responses.ok()) {
        std::fprintf(stderr, "%s\n",
                     responses.error().toString().c_str());
        return kExitRuntime;
    }
    std::fputs(responses.value().c_str(), stdout);
    return kExitOk;
}

int
cmdReplay(CliArgs& a, const DramDescription& desc)
{
    const std::string& path = a.words[2];
    Result<Pattern> trace = loadCommandTraceFile(path);
    if (!trace.ok()) {
        std::fprintf(stderr, "%s\n", trace.error().toString().c_str());
        return exitCodeForError(trace.error());
    }
    if (trace.value().loop.empty()) {
        std::fprintf(stderr, "%s: trace contains no commands\n",
                     path.c_str());
        return kExitRuntime;
    }
    DramPowerModel model(desc);
    PatternPower power = model.evaluate(trace.value());
    std::printf("replayed %d cycles: current %s, power %s, %.1f "
                "pJ/bit\n\n%s",
                trace.value().cycles(),
                formatEng(power.externalCurrent, "A").c_str(),
                formatEng(power.power, "W").c_str(),
                power.energyPerBit * 1e12,
                renderBreakdown(power).c_str());
    return 0;
}

int cmdHelp(CliArgs&, const DramDescription&);

/** The commands that own a flag-table row (bits of Flag::owners). */
enum : unsigned {
    kSensitivity = 1u << 0,
    kTrends = 1u << 1,
    kWorkload = 1u << 2,
    kMonteCarlo = 1u << 3,
    kFit = 1u << 4,
    kSched = 1u << 5,
    kTrace = 1u << 6,
    kServe = 1u << 7,
    kFleet = 1u << 8,
    kServeSend = 1u << 9,
    /** Every command: diagnostics, observability, test hooks. */
    kGlobal = 1u << 30,
    /** Every command: the batch-runner (campaign) flags. */
    kCampaign = 1u << 31,
};

/** What a flag's value must be. */
enum class FlagKind {
    Switch,  ///< no value: `--name`
    Integer, ///< `--name=N`, an integer in [lo, hi]
    Real,    ///< `--name=X`, a number in [lo, hi]
    Enum,    ///< `--name=C`, one of the '|'-separated choices in meta
    String,  ///< `--name=TEXT`, at least lo characters
    File,    ///< a non-empty path, `--name=FILE` or `--name FILE`
};

/** A flag's value as parsed for its kind. The row has range-checked an
 *  Integer, so setters may narrow it. */
struct FlagValue {
    long long integer = 0;
    double real = 0;
    std::string text;
};

/** One row of the flag table. */
struct Flag {
    const char* name;
    /** Command bits (kMonteCarlo, ...) of the commands that accept it. */
    unsigned owners;
    FlagKind kind;
    /** Integer/Real: the inclusive range. String: the minimum length. */
    double lo;
    double hi;
    /** Value placeholder in --help; for an Enum, its choices. */
    const char* meta;
    /** One line for --help. */
    const char* help;
    /** Stores the validated value. */
    void (*set)(CliArgs&, const FlagValue&);
    /** Usage-error wording of the range; derived from kind and range
     *  when null. */
    const char* expects = nullptr;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Lower bound of "a number > 0". */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
constexpr double kMinInteger = static_cast<double>(INT64_MIN);
constexpr double kMaxInteger = static_cast<double>(INT64_MAX);
constexpr unsigned kDaemons = kServe | kFleet;
constexpr unsigned kEndpoints = kServe | kFleet | kServeSend;

using enum FlagKind;

constexpr Flag kFlags[] = {
    {"--lint", kGlobal, Switch, 0, 0, "",
     "validate the target only, report every diagnostic",
     [](auto& a, auto&) { a.diag.lint = true; }},
    {"--diag-format", kGlobal, Enum, 0, 0, "text|json", "diagnostic format",
     [](auto& a, auto& v) { a.diag.format = v.text; }},
    {"--metrics-out", kGlobal, File, 0, 0, "FILE",
     "metrics snapshot (JSON) on exit; enables counters",
     [](auto& a, auto& v) {
         a.metricsOut = v.text;
         setMetricsEnabled(true);
     }},
    {"--trace-out", kGlobal, File, 0, 0, "FILE",
     "chrome://tracing JSON file on exit", [](auto& a, auto& v) {
         a.traceOut = v.text;
         setMetricsEnabled(true);
         globalTrace().enable();
     }},
    {"--ready-marker", kGlobal, Switch, 0, 0, "",
     "VDRAM-READY on stderr once SIGINT drains (test)",
     [](auto&, auto&) { g_ready_marker = true; }},

    {"--jobs", kCampaign, Integer, 0, 1024, "N", "worker threads (0 = all)",
     [](auto& a, auto& v) { a.runner.jobs = v.integer; }},
    {"--task-timeout", kCampaign, Real, kPositive, kInf, "S", "task deadline",
     [](auto& a, auto& v) { a.runner.taskTimeoutSeconds = v.real; }},
    {"--checkpoint", kCampaign, String, 1, 0, "PATH", "JSONL checkpoint",
     [](auto& a, auto& v) { a.runner.checkpointPath = v.text; }},
    {"--resume", kCampaign, Switch, 0, 0, "", "skip checkpointed tasks",
     [](auto& a, auto&) { a.runner.resume = true; }},

    {"--detailed", kSensitivity, Switch, 0, 0, "", "sweep every parameter",
     [](auto& a, auto&) { a.detailed = true; }},
    {"--csv", kTrends, Switch, 0, 0, "", "CSV instead of a table",
     [](auto& a, auto&) { a.csv = true; }},
    {"--closed", kWorkload, Switch, 0, 0, "", "closed-page policy",
     [](auto& a, auto&) { a.closed = true; }},

    {"--samples", kMonteCarlo, Integer, 1, 10'000'000, "N", "samples",
     [](auto& a, auto& v) { a.samples = v.integer; }},
    {"--seed", kMonteCarlo | kFit | kSched, Integer, 0, kMaxInteger, "N",
     "random seed (sched: below 2^32)",
     [](auto& a, auto& v) { a.seed = v.integer; }},
    {"--json", kMonteCarlo | kFit, Switch, 0, 0, "", "JSON on stdout",
     [](auto& a, auto&) { a.json = true; }},

    {"--targets", kFit, String, 0, 0, "FILE", "IDD targets (JSON spec)",
     [](auto& a, auto& v) { a.targets = v.text; }},
    {"--datasheet", kFit, Enum, 0, 0, "ddr2|ddr3", "datasheet IDD bands",
     [](auto& a, auto& v) { a.datasheet = v.text; }},
    {"--rate", kFit, Real, 1, 1e6, "MBPS", "datasheet data rate",
     [](auto& a, auto& v) { a.rate = v.real; }},
    {"--width", kFit, Integer, 1, 128, "BITS", "datasheet I/O width",
     [](auto& a, auto& v) { a.width = v.integer; }},
    {"--edge", kFit, Real, 0, 1, "F", "aim point in each datasheet band",
     [](auto& a, auto& v) { a.edge = v.real; }},
    {"--starts", kFit, Integer, 1, 64, "N", "independent starts",
     [](auto& a, auto& v) { a.fit.starts = v.integer; }},
    {"--max-generations", kFit, Integer, 1, 100'000, "N", "generation cap",
     [](auto& a, auto& v) { a.fit.maxGenerations = v.integer; }},
    {"--step", kFit, Real, 1e-9, 10, "F", "initial relative step",
     [](auto& a, auto& v) { a.fit.initialStep = v.real; }},
    {"--shrink", kFit, Real, 1e-9, 0.999, "F", "step factor on no progress",
     [](auto& a, auto& v) { a.fit.stepShrink = v.real; }},
    {"--min-step", kFit, Real, 1e-12, 1, "F", "step at which a start ends",
     [](auto& a, auto& v) { a.fit.minStep = v.real; }},
    {"--spread", kFit, Real, 0, 10, "F", "spread of the restart points",
     [](auto& a, auto& v) { a.fit.restartSpread = v.real; }},
    {"--report", kFit, String, 0, 0, "FILE", "write the JSON fit report",
     [](auto& a, auto& v) { a.report = v.text; }},
    {"--list-parameters", kFit, Switch, 0, 0, "", "print fittable names",
     [](auto& a, auto&) { a.listParameters = true; }},

    {"--workload", kSched, Enum, 0, 0, "random|stream|local|zipf|chase|mixed",
     "synthetic workload", [](auto& a, auto& v) {
         a.workloadKind = parseWorkloadKind(v.text).value();
     }},
    {"--count", kSched, Integer, 1, 10'000'000, "N", "accesses",
     [](auto& a, auto& v) { a.workload.count = v.integer; }},
    {"--policy", kSched, Enum, 0, 0, "inorder|fcfs|frfcfs|fr-fcfs",
     "scheduling policy (default frfcfs)", [](auto& a, auto& v) {
         a.sched.policy = parseSchedPolicy(v.text).value();
     }},
    {"--page", kSched, Enum, 0, 0, "open|closed", "page policy",
     [](auto& a, auto& v) {
         a.sched.pagePolicy = parsePagePolicy(v.text).value();
     }},
    {"--map", kSched, Enum, 0, 0,
     "row-bank-col|bank-row-col|xor-bank-row-col|xor", "address mapping",
     [](auto& a, auto& v) { a.map = parseMapScheme(v.text).value(); }},
    {"--window", kSched | kTrace, Integer, kMinInteger, kMaxInteger, "N",
     "sched: reorder window; trace: timeline window",
     [](auto& a, auto& v) { a.window = v.integer; }, "an integer cycle count"},
    {"--write-frac", kSched, Real, 0, 1, "F", "share of writes",
     [](auto& a, auto& v) { a.workload.writeFraction = v.real; }},
    {"--locality", kSched, Real, 0, 1, "F", "row locality",
     [](auto& a, auto& v) { a.workload.locality = v.real; }},
    {"--zipf", kSched, Real, 0, 4, "F", "zipf exponent",
     [](auto& a, auto& v) { a.workload.zipfExponent = v.real; }},
    {"--run-length", kSched, Integer, 1, 1'000'000, "N", "accesses per run",
     [](auto& a, auto& v) { a.workload.runLength = v.integer; }},
    {"--jump", kSched, Real, 0, 1, "F", "share of random jumps",
     [](auto& a, auto& v) { a.workload.jumpFraction = v.real; }},
    {"--matrix", kSched, Switch, 0, 0, "",
     "run every workload x map x policy x page cell",
     [](auto& a, auto&) { a.matrix = true; }},

    {"--format", kTrace, Enum, 0, 0, "text|csv|json", "csv = timeline",
     [](auto& a, auto& v) { a.format = v.text; }},
    {"--check", kTrace, Switch, 0, 0, "", "protocol check (serial)",
     [](auto& a, auto&) { a.check = true; }},
    {"--serial", kTrace, Switch, 0, 0, "", "serial despite --jobs",
     [](auto& a, auto&) { a.serial = true; }},

    {"--socket", kEndpoints, String, 0, 0, "PATH", "unix socket",
     [](auto& a, auto& v) { a.serve.socketPath = v.text; }},
    {"--port", kEndpoints, Integer, 1, 65535, "N", "loopback TCP port",
     [](auto& a, auto& v) { a.serve.port = v.integer; }},
    {"--queue", kDaemons, Integer, 1, 1 << 20, "N", "queue before shedding",
     [](auto& a, auto& v) { a.serve.queueCapacity = v.integer; }},
    {"--deadline", kDaemons, Real, 0, kInf, "S", "per-request deadline",
     [](auto& a, auto& v) { a.serve.deadlineSeconds = v.real; }},
    {"--max-deadline", kDaemons, Real, kPositive, kInf, "S", "deadline cap",
     [](auto& a, auto& v) { a.serve.maxDeadlineSeconds = v.real; }},
    {"--idle-timeout", kDaemons, Real, 0, kInf, "S", "idle session timeout",
     [](auto& a, auto& v) { a.serve.idleSessionSeconds = v.real; }},
    {"--cache", kDaemons, Integer, 1, 4096, "N", "model cache entries",
     [](auto& a, auto& v) { a.serve.cacheCapacity = v.integer; }},

    {"--workers", kFleet, Integer, 1, 64, "N", "worker processes",
     [](auto& a, auto& v) { a.fleet.workers = v.integer; }},
    {"--worker-dir", kFleet, String, 0, 0, "DIR", "worker socket directory",
     [](auto& a, auto& v) { a.fleet.socketDir = v.text; }},
    {"--heartbeat", kFleet, Real, kPositive, kInf, "S", "heartbeat period",
     [](auto& a, auto& v) { a.fleet.heartbeatSeconds = v.real; }},
    {"--heartbeat-deadline", kFleet, Real, kPositive, kInf, "S",
     "restart a worker silent this long",
     [](auto& a, auto& v) { a.fleet.heartbeatDeadlineSeconds = v.real; }},
    {"--restart-budget", kFleet, Integer, 0, 1000, "N", "restarts per worker",
     [](auto& a, auto& v) { a.fleet.restartBudget = v.integer; }},
    {"--restart-base-ms", kFleet, Integer, 1, 60'000, "MS", "restart backoff",
     [](auto& a, auto& v) { a.fleet.restartBaseSeconds = v.integer / 1e3; }},
    {"--drain-timeout", kFleet, Real, kPositive, kInf, "S", "drain deadline",
     [](auto& a, auto& v) { a.fleet.drainTimeoutSeconds = v.real; }},
    {"--failover-wait", kFleet, Real, kPositive, kInf, "S", "wait for a worker",
     [](auto& a, auto& v) { a.fleet.failoverWaitSeconds = v.real; }},

    {"--retries", kServeSend, Integer, 0, 100, "N", "connect and shed retries",
     [](auto& a, auto& v) { a.send.retries = v.integer; }},
    {"--retry-base-ms", kServeSend, Integer, 1, 60'000, "MS", "retry backoff",
     [](auto& a, auto& v) { a.send.retryBaseSeconds = v.integer / 1e3; }},
};

/** How a flag's value is described in its usage error. */
std::string
flagExpects(const Flag& flag)
{
    if (flag.expects)
        return flag.expects;
    if (flag.kind == Enum)
        return std::string("one of ") + flag.meta;
    if (flag.kind == String || flag.kind == File)
        return "a non-empty path";
    const char* what = flag.kind == Integer ? "an integer" : "a number";
    if (flag.hi == kMaxInteger || flag.hi == kInf) {
        return flag.lo == kPositive ? strformat("%s > 0", what)
                                    : strformat("%s >= %g", what, flag.lo);
    }
    return strformat("%s in [%.10g, %.10g]", what, flag.lo, flag.hi);
}

/** Parse @p text as @p flag's value; false when it is out of range. */
bool
parseFlagValue(const Flag& flag, const std::string& text, FlagValue& value)
{
    value.text = text;
    switch (flag.kind) {
    case Switch:
        return true;
    case Integer:
        return parseInteger(text, value.integer) &&
               static_cast<double>(value.integer) >= flag.lo &&
               static_cast<double>(value.integer) <= flag.hi;
    case Real:
        return parseReal(text, value.real) && value.real >= flag.lo &&
               value.real <= flag.hi;
    case Enum:
        for (const std::string& choice : splitChar(flag.meta, '|')) {
            if (text == choice)
                return true;
        }
        return false;
    case String:
        return static_cast<double>(text.size()) >= flag.lo;
    case File:
        return !text.empty();
    }
    return false;
}

struct Command {
    const char* name;
    /** The owner bit its own rows carry in kFlags; 0 when it has none. */
    unsigned flags;
    /** Positional arguments, for --help. */
    const char* args;
    /** Whether the first positional argument is a <target>. */
    bool target;
    /** Positional-argument count, target included; -1 = no limit. */
    int minArgs;
    int maxArgs;
    const char* help;
    int (*run)(CliArgs&, const DramDescription&);
};

const Command kCommands[] = {
    {"list", 0, "", false, 0, 0, "list built-in presets", cmdList},
    {"describe", 0, "<target>", true, 1, 1,
     "summary, IDD table, breakdown, die", cmdDescribe},
    {"idd", 0, "<target>", true, 1, 1, "IDD table only", cmdIdd},
    {"json", 0, "<target>", true, 1, 1, "full evaluation as JSON", cmdJson},
    {"emit", 0, "<target>", true, 1, 1, "the description language text",
     cmdEmit},
    {"pattern", 0, "<target> OP...", true, 1, -1,
     "evaluate a loop of act pre rd wr nop ref pdn srf", cmdPattern},
    {"sensitivity", kSensitivity, "<target>", true, 1, 1,
     "Table I: each parameter at +/-20%", cmdSensitivity},
    {"montecarlo", kMonteCarlo, "<target>", true, 1, 1,
     "vendor-variation IDD distributions", cmdMonteCarlo},
    {"sweep", 0, "<target> <parameter> F...", true, 3, -1,
     "what-if factors on one parameter", cmdSweep},
    {"fit", kFit, "<target>", true, 1, 1,
     "calibrate to IDD targets (docs/calibration.md)", cmdFit},
    {"schemes", 0, "<target>", true, 1, 1, "Section V power-reduction study",
     cmdSchemes},
    {"timing", 0, "<target>", true, 1, 1, "RC timing estimate", cmdTiming},
    {"trends", kTrends, "", false, 0, 0, "generation ladder trends",
     cmdTrends},
    {"workload", kWorkload, "<target> <trace>", true, 2, 2,
     "schedule an access trace and evaluate it", cmdWorkload},
    {"gen-trace", 0, "<target> <workload> [count]", true, 2, 3,
     "synthetic access trace (count 1000) to stdout", cmdGenTrace},
    {"sched", kSched, "<target>", true, 1, 1,
     "schedule a workload, command trace to stdout", cmdSched},
    {"replay", 0, "<target> <cmdtrace>", true, 2, 2,
     "evaluate a command trace (dense, capped)", cmdReplay},
    {"trace", kTrace, "<target> <cmdtrace>", true, 2, 2,
     "stream a command trace in bounded memory", cmdTrace},
    {"serve", kServe, "", false, 0, 0, "JSON evaluation daemon (docs/serve.md)",
     cmdServe},
    {"serve-send", kServeSend, "", false, 0, 0,
     "send stdin lines to a daemon, print the replies", cmdServeSend},
    {"fleet", kFleet, "", false, 0, 0, "supervised serve workers, one socket",
     cmdFleet},
    {"help", 0, "", false, 0, -1, "print this text (also --help)", cmdHelp},
};

const Command*
findCommand(const std::string& name)
{
    for (const Command& command : kCommands) {
        if (name == command.name)
            return &command;
    }
    return nullptr;
}

/** One --help line: @p lead, then @p help from column 30. */
void
printHelpLine(std::FILE* out, const std::string& lead, const char* help)
{
    if (lead.size() < 30)
        std::fprintf(out, "%-30s%s\n", lead.c_str(), help);
    else
        std::fprintf(out, "%s\n%30s%s\n", lead.c_str(), "", help);
}

/** Print the synopsis of every row owned by @p owners. */
void
printFlags(std::FILE* out, unsigned owners)
{
    for (const Flag& flag : kFlags) {
        if (!(flag.owners & owners))
            continue;
        std::string lead = std::string("    ") + flag.name;
        if (flag.kind != Switch)
            lead += (flag.kind == File ? " " : "=") + std::string(flag.meta);
        printHelpLine(out, lead, flag.help);
    }
}

void
printUsage(std::FILE* out)
{
    std::fprintf(out, "usage: vdram_cli [flags] <command> [args]\n"
                      "<target> = file.dram | preset:<name>\n"
                      "commands:\n");
    for (const Command& command : kCommands) {
        printHelpLine(out, strformat("  %s %s", command.name, command.args),
                      command.help);
        if (command.flags)
            printFlags(out, command.flags);
    }
    std::fprintf(out, "flags (every command):\n");
    printFlags(out, kGlobal);
    std::fprintf(out, "campaign flags (montecarlo, sensitivity, sweep, "
                      "trends,\n  trace, sched --matrix, fit):\n");
    printFlags(out, kCampaign);
    std::fprintf(
        out,
        "env: VDRAM_FAILPOINTS=name=action[:arg][@rate][,...] injects faults\n"
        "     at named sites, e.g. runner.task=error@0.2 (docs/runner.md)\n"
        "SIGINT drains a campaign or daemon: in-flight work finishes, the\n"
        "checkpoint is flushed, partial results are reported (exit 5).\n"
        "exit codes: 0 ok, 1 runtime (fit: outside tolerance), 2 usage,\n"
        "3 syntax error, 4 validation error, 5 interrupted (partial\n"
        "results), 6 unreadable input/checkpoint file\n");
}

int
cmdHelp(CliArgs&, const DramDescription&)
{
    printUsage(stdout);
    return kExitOk;
}

int
usage()
{
    printUsage(stderr);
    return kExitUsage;
}

/** The row @p arg names, with its value in @p text; null when no row
 *  matches its spelling. May consume the next argument. */
const Flag*
matchFlag(int argc, char** argv, int& i, std::string& text)
{
    const std::string arg = argv[i];
    for (const Flag& flag : kFlags) {
        const size_t n = std::strlen(flag.name);
        if (arg.compare(0, n, flag.name) != 0)
            continue;
        if (arg.size() == n) {
            if (flag.kind == Switch)
                return &flag;
            if (flag.kind == File) {
                text = i + 1 < argc ? argv[++i] : "";
                return &flag;
            }
        } else if (arg[n] == '=' && flag.kind != Switch) {
            text = arg.substr(n + 1);
            return &flag;
        }
    }
    return nullptr;
}

/**
 * Parse argv into @p a: every argument that starts with "--" through
 * its kFlags row, every other one into a.words. A flag must be owned by
 * the command (the first word) or by every command. Returns kExitOk, or
 * kExitUsage after printing the error.
 */
int
parseArgs(int argc, char** argv, CliArgs& a)
{
    // Before the command word, only the rows every command owns apply.
    unsigned owners = kGlobal | kCampaign;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.compare(0, 2, "--") != 0) {
            const Command* command =
                a.words.empty() ? findCommand(arg) : nullptr;
            if (command)
                owners |= command->flags;
            a.words.push_back(arg);
            continue;
        }
        std::string text;
        const Flag* flag = matchFlag(argc, argv, i, text);
        if (!flag || !(flag->owners & owners)) {
            std::fprintf(stderr,
                         "unknown flag '%s' for command '%s' "
                         "(see vdram_cli --help)\n",
                         arg.c_str(),
                         a.words.empty() ? "" : a.words[0].c_str());
            return kExitUsage;
        }
        FlagValue value;
        if (!parseFlagValue(*flag, text, value)) {
            std::fprintf(stderr, "%s must be %s, got '%s'\n", flag->name,
                         flagExpects(*flag).c_str(), text.c_str());
            return kExitUsage;
        }
        flag->set(a, value);
        if (flag->owners & kCampaign)
            a.campaignFlags = true;
    }
    return kExitOk;
}

/** Flush the --metrics-out / --trace-out files. Runs after dispatch on
 *  every exit path of runCli() (including usage and load errors), so a
 *  partial campaign still leaves its observability data behind. */
void
writeObservabilityOutputs(const CliArgs& a)
{
    if (!a.metricsOut.empty()) {
        std::ofstream out(a.metricsOut, std::ios::trunc);
        if (out)
            out << globalMetrics().snapshot().renderJson() << "\n";
        if (!out) {
            std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                         a.metricsOut.c_str());
        }
    }
    if (!a.traceOut.empty()) {
        globalTrace().disable();
        std::ofstream out(a.traceOut, std::ios::trunc);
        if (out)
            out << globalTrace().renderChromeJson() << "\n";
        if (!out) {
            std::fprintf(stderr, "warning: cannot write trace to %s\n",
                         a.traceOut.c_str());
        }
    }
}

int
runCli(int argc, char** argv, CliArgs& a)
{
    // A malformed VDRAM_FAILPOINTS spec is a usage error up front;
    // silently ignoring it would run chaos tests without any chaos.
    Status failpoints = initFailpointsFromEnv();
    if (!failpoints.ok()) {
        std::fprintf(stderr, "VDRAM_FAILPOINTS: %s\n",
                     failpoints.error().toString().c_str());
        return kExitUsage;
    }
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            return cmdHelp(a, DramDescription{});
    }
    if (int status = parseArgs(argc, argv, a); status != kExitOk)
        return status;

    if (a.diag.lint) {
        // Lint mode needs only a target: the last argument (so both
        // "vdram_cli --lint file.dram" and
        // "vdram_cli describe file.dram --lint" work).
        if (a.words.empty())
            return usage();
        DramDescription desc;
        return loadTarget(a.words.back(), a.diag, desc);
    }

    const Command* command =
        a.words.empty() ? nullptr : findCommand(a.words[0]);
    if (!command)
        return usage();
    if (a.listParameters) { // fit --list-parameters needs no target
        for (const std::string& name : fitParameterNames())
            std::printf("%s\n", name.c_str());
        return kExitOk;
    }
    DramDescription desc;
    if (command->target) {
        if (a.words.size() < 2)
            return usage();
        if (int status = loadTarget(a.words[1], a.diag, desc);
            status != kExitOk)
            return status;
    }
    const int given = static_cast<int>(a.words.size()) - 1;
    if (given < command->minArgs)
        return usage();
    if (command->maxArgs >= 0 && given > command->maxArgs) {
        std::fprintf(stderr,
                     "unexpected argument '%s' for command '%s' "
                     "(see vdram_cli --help)\n",
                     a.words[command->maxArgs + 1].c_str(), command->name);
        return kExitUsage;
    }
    return command->run(a, desc);
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc > 0 && argv[0])
        g_argv0 = argv[0];
    CliArgs args;
    int code = runCli(argc, argv, args);
    writeObservabilityOutputs(args);
    return code;
}

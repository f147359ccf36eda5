/**
 * @file
 * Calibration-to-measurement fitting engine.
 *
 * The paper's model is parameterized by the 39-entry Table I technology
 * space plus electrical and peripheral-logic knobs — and uncalibrated
 * DRAM power models diverge widely from real vendor parts ("Calibrating
 * DRAMPower for HPC", Ghose et al.'s VAMPIRE study). The fitting engine
 * closes that gap: given an IDD target spec (datasheet or measured
 * currents, see fit/target_spec.h) it searches the bounded
 * multiplicative factor space of the selected sweep parameters until
 * the model's IDD currents land inside the spec's tolerance bands.
 *
 * Search: coordinate descent with adaptive step shrink. Every
 * generation evaluates the current point plus an up/down candidate per
 * free parameter; the best strictly-improving candidate is accepted,
 * otherwise the step shrinks. A restart-from-perturbed-seed multi-start
 * mode (splitmix64 seed streams) escapes bad basins. Every candidate
 * rides the delta-evaluation fast path through a per-worker
 * VariantEvaluator, and each generation is a batch-runner campaign —
 * gaining parallelism, per-candidate fault isolation, deadlines and
 * graceful SIGINT draining (exit 5).
 *
 * Crash safety: completed generations are appended to a JSONL
 * trajectory checkpoint (runner/checkpoint.h discipline: append +
 * flush, torn trailing lines dropped, atomic consolidation). --resume
 * replays recorded generations without re-evaluating and provably
 * reproduces the identical trajectory — a resumed fit's calibrated
 * preset and report are byte-identical to an uninterrupted run's
 * (tests/cli_fit_resume_test.sh kills the process mid-fit to prove
 * it). Failpoints `fit.step` and `fit.checkpoint` make the failure
 * paths forceable on demand.
 */
#ifndef VDRAM_FIT_FIT_ENGINE_H
#define VDRAM_FIT_FIT_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/description.h"
#include "core/sensitivity.h"
#include "fit/target_spec.h"
#include "runner/runner.h"

namespace vdram {

/** Search configuration of one fit run. */
struct FitOptions {
    /** Multi-start count; start 0 is the nominal point, every further
     *  start begins from a seed-perturbed point. */
    int starts = 1;
    /** Generation cap per start. */
    int maxGenerations = 48;
    /** Initial relative coordinate step (factor *= 1 +/- step). */
    double initialStep = 0.2;
    /** Step multiplier after a generation without improvement. */
    double stepShrink = 0.5;
    /** A start converges once its step falls below this. */
    double minStep = 1e-3;
    /** Relative spread of the perturbed multi-start seeds. */
    double restartSpread = 0.2;
    /** Seed of the splitmix64 streams (multi-start perturbations and
     *  per-task seeds). */
    std::uint64_t seed = 1;
};

/** One recorded generation of the search trajectory. */
struct FitStep {
    int start = 0;
    int generation = 0;
    /** True when a candidate improved and was accepted. */
    bool accepted = false;
    /** True when the generation was restored from the checkpoint. */
    bool restored = false;
    /** Best objective after the generation (non-increasing per start). */
    double objective = 0;
    /** Step size after the generation. */
    double step = 0;
    /** Current factor vector after the generation. */
    std::vector<double> factors;
};

/** Fit quality of one target after calibration. */
struct FitResidual {
    IddMeasure measure = IddMeasure::Idd0;
    double targetAmps = 0;
    double fittedAmps = 0;
    double weight = 1.0;
    double tolerance = 0.05;

    /** Signed relative miss: fitted/target - 1. */
    double residual() const { return fittedAmps / targetAmps - 1.0; }
    /** Inside the spec's tolerance band? */
    bool within() const
    {
        return residual() >= -tolerance && residual() <= tolerance;
    }
};

/** Result of a fit campaign. */
struct FitResult {
    /** The free parameters, in search order. */
    std::vector<std::string> parameters;
    /** Calibrated multiplicative factor per parameter. */
    std::vector<double> factors;
    /** Weighted least-squares objective at the calibrated point. */
    double objective = 0;
    /** Index of the start that produced the best point. */
    int bestStart = 0;
    /** Per-target fit quality at the calibrated point. */
    std::vector<FitResidual> residuals;
    /** Full trajectory over all starts (the convergence history). */
    std::vector<FitStep> history;
    /** Freshly evaluated candidates (excludes restored generations). */
    long long evaluations = 0;
    /** Generations restored from the trajectory checkpoint. */
    long long restoredGenerations = 0;
    /** Every weighted residual inside its tolerance band. */
    bool converged = false;
    /** Stopped by the graceful-drain flag before finishing (exit 5). */
    bool interrupted = false;
    /** The calibrated description (nominal with factors applied). */
    DramDescription calibrated;
    /** Summed batch-runner accounting over all generation campaigns. */
    RunReport report;
};

/**
 * The fit search vocabulary: every individually sweepable parameter
 * (sweepParameters(SweepMode::Detailed) — the 39 Table I technology
 * parameters plus the electrical, peripheral-logic and architecture
 * knobs).
 */
const std::vector<SweepParam>& fitParameterVocabulary();

/** Names of the vocabulary, in search order. */
std::vector<std::string> fitParameterNames();

/** True if @p name is in the fit vocabulary. */
bool isFitParameterName(const std::string& name);

/**
 * The default free-parameter set when a spec names none: the
 * charge-dominant calibration knobs (array capacitances, peripheral
 * logic size and activity, generator efficiency, constant current).
 */
std::vector<std::string> defaultFitParameters();

/**
 * Run the fit campaign. Infrastructure failures (invalid nominal
 * description, unusable spec, unreadable or mismatched checkpoint) are
 * errors; per-candidate failures are contained by the batch runner.
 * Every generation's batch runs on one worker pool that the fit starts
 * and stops itself (@p runner.pool is not used). A raised stop flag
 * drains gracefully: the result has interrupted = true and the
 * trajectory checkpoint keeps every completed generation for --resume.
 */
Result<FitResult> runFitCampaign(const DramDescription& nominal,
                                 const FitTargetSpec& spec,
                                 const FitOptions& fit,
                                 const RunnerOptions& runner,
                                 DiagnosticEngine* diags = nullptr);

/**
 * Deterministic fit-quality report (JSON): spec name, calibrated
 * factors, per-IDD residuals and the convergence history. Contains no
 * wall-clock or resume-leg-dependent fields, so an uninterrupted run
 * and a crash+resume run render byte-identical reports (the golden
 * regression fixture relies on this).
 */
std::string renderFitReportJson(const FitResult& result,
                                const FitTargetSpec& spec);

/** Human-readable fit summary (residual table + convergence line). */
std::string renderFitReportText(const FitResult& result,
                                const FitTargetSpec& spec);

} // namespace vdram

#endif // VDRAM_FIT_FIT_ENGINE_H

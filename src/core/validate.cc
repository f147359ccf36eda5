/**
 * @file
 * The completeness and consistency stages of the paper's program flow
 * (Fig. 4). Every check reports into a DiagnosticEngine so one run
 * surfaces every problem of a description; nothing here terminates the
 * process.
 */
#include "core/description.h"

#include <cmath>

#include "protocol/bank_fsm.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/trace.h"

namespace vdram {

SourceLocation
DescriptionSource::locationOf(const std::string& key) const
{
    auto it = paramLocations.find(key);
    if (it != paramLocations.end()) {
        SourceLocation loc = it->second;
        if (loc.file.empty())
            loc.file = file;
        return loc;
    }
    SourceLocation loc;
    loc.file = file;
    return loc;
}

namespace {

/** Binds the engine and source so checks stay one-liners. */
class Checker {
  public:
    Checker(DiagnosticEngine& diags, const DescriptionSource* source)
        : diags_(diags), source_(source) {}

    /** Location of a DSL key (file-only location without a source). */
    SourceLocation at(const std::string& key) const
    {
        if (source_)
            return source_->locationOf(key);
        return SourceLocation{};
    }

    void error(const std::string& code, const std::string& message,
               const SourceLocation& loc = {})
    {
        diags_.error(code, message, loc);
    }

    void warning(const std::string& code, const std::string& message,
                 const SourceLocation& loc = {})
    {
        diags_.warning(code, message, loc);
    }

  private:
    DiagnosticEngine& diags_;
    const DescriptionSource* source_;
};

/**
 * Completeness (Fig. 4, second stage): everything the model will read
 * must be present in the input. Only meaningful for parsed
 * descriptions, where the provenance is known.
 */
void
checkCompleteness(const DescriptionSource& src, DiagnosticEngine& diags)
{
    SourceLocation file_loc;
    file_loc.file = src.file;

    struct SectionFlag {
        bool seen;
        const char* name;
    };
    const SectionFlag required[] = {
        {src.sawFloorplanPhysical, "FloorplanPhysical"},
        {src.sawFloorplanSignaling, "FloorplanSignaling"},
        {src.sawSpecification, "Specification"},
        {src.sawTechnology, "Technology"},
        {src.sawElectrical, "Electrical"},
    };
    for (const SectionFlag& section : required) {
        if (!section.seen) {
            diags.error("E-COMPLETE-SECTION",
                        strformat("required section '%s' is missing",
                                  section.name), file_loc);
        }
    }
    if (!src.sawLogicBlocks) {
        diags.warning("W-COMPLETE-SECTION",
                      "no LogicBlocks section: peripheral logic power "
                      "will be zero", file_loc);
    }
    if (!src.sawPattern) {
        diags.note("N-COMPLETE-PATTERN",
                   "no Pattern given; the default pareto pattern is used",
                   file_loc);
    }

    // All 39 Table I technology parameters (and the electrical group)
    // should be given explicitly; a silently defaulted parameter is the
    // classic source of wrong energy numbers.
    if (src.sawTechnology) {
        for (const ParamInfo& info : technologyParamRegistry()) {
            if (!src.providedParams.count(info.key)) {
                diags.warning("W-COMPLETE-PARAM",
                              strformat("Table I parameter '%s' (%s) not "
                                        "given; using the built-in default",
                                        info.key, info.name), file_loc);
            }
        }
    }
    if (src.sawElectrical) {
        for (const ParamInfo& info : electricalParamRegistry()) {
            if (!src.providedParams.count(info.key)) {
                diags.warning("W-COMPLETE-PARAM",
                              strformat("electrical parameter '%s' (%s) not "
                                        "given; using the built-in default",
                                        info.key, info.name), file_loc);
            }
        }
    }
}

void
checkTechnology(const DramDescription& desc, Checker& check)
{
    const TechnologyParams& t = desc.tech;
    ElectricalParams dummy;
    for (const ParamInfo& info : technologyParamRegistry()) {
        double value = getParam(info, t, dummy);
        if (!std::isfinite(value)) {
            check.error("E-TECH-RANGE",
                        strformat("technology parameter '%s' is not finite",
                                  info.name), check.at(info.key));
            continue;
        }
        // NaN never satisfies (value > 0), so the negations also guard
        // against non-finite values slipping through elsewhere.
        if (!(value > 0) && info.dim != Dimension::Fraction) {
            check.error("E-TECH-RANGE",
                        strformat("technology parameter '%s' must be "
                                  "positive", info.name),
                        check.at(info.key));
        } else if (value < 0) {
            check.error("E-TECH-RANGE",
                        strformat("technology parameter '%s' is negative",
                                  info.name), check.at(info.key));
        }
    }
    // Physical plausibility (warnings: accepted, but probably a unit
    // mistake — e.g. "55" instead of "55nm").
    if (t.featureSize > 0 &&
        (t.featureSize < 2e-9 || t.featureSize > 2e-6)) {
        check.warning("W-TECH-PLAUSIBLE",
                      strformat("feature size %g m is outside the "
                                "plausible DRAM range [2nm, 2um]",
                                t.featureSize), check.at("featuresize"));
    }
    if (t.bitlineCap > 0 &&
        (t.bitlineCap < 1e-15 || t.bitlineCap > 1e-12)) {
        check.warning("W-TECH-PLAUSIBLE",
                      strformat("bitline capacitance %g F is outside the "
                                "plausible range [1fF, 1pF]",
                                t.bitlineCap), check.at("bitlinecap"));
    }
    if (t.cellCap > 0 && (t.cellCap < 1e-15 || t.cellCap > 1e-12)) {
        check.warning("W-TECH-PLAUSIBLE",
                      strformat("cell capacitance %g F is outside the "
                                "plausible range [1fF, 1pF]", t.cellCap),
                      check.at("cellcap"));
    }
    // The predecode ratio becomes a 2^n wire fan-out in the decoder
    // model; group sizes past 16 bits are certainly input mistakes and
    // would overflow the wire count.
    if (!(t.predecodeMasterWordline >= 1) ||
        t.predecodeMasterWordline > 16) {
        check.error("E-TECH-RANGE",
                    strformat("pre-decode ratio %g is outside the "
                              "supported range [1, 16]",
                              t.predecodeMasterWordline),
                    check.at("predecodemasterwordline"));
    }
}

void
checkElectrical(const DramDescription& desc, Checker& check)
{
    const ElectricalParams& e = desc.elec;
    TechnologyParams dummy;
    for (const ParamInfo& info : electricalParamRegistry()) {
        double value = getParam(info, dummy, e);
        if (!std::isfinite(value)) {
            check.error("E-ELEC-RANGE",
                        strformat("electrical parameter '%s' is not finite",
                                  info.name), check.at(info.key));
        }
    }
    if (!(e.vdd > 0) || !(e.vint > 0) || !(e.vbl > 0) || !(e.vpp > 0)) {
        check.error("E-ELEC-RANGE", "all voltages must be positive",
                    check.at("vdd"));
        return; // ordering checks are meaningless on rejected voltages
    }
    // Ordering: the bitline level may sit slightly above the logic rail
    // in hypothetical what-if sweeps, but never above the boosted
    // wordline voltage (write-back would fail).
    if (e.vbl > e.vpp) {
        check.error("E-ELEC-RANGE",
                    "bitline voltage above the boosted wordline voltage",
                    check.at("vbl"));
    }
    if (e.vpp < e.vint) {
        check.error("E-ELEC-RANGE",
                    "boosted wordline voltage below the logic voltage",
                    check.at("vpp"));
    }
    if (!(e.efficiencyVint > 0 && e.efficiencyVint <= 1) ||
        !(e.efficiencyVbl > 0 && e.efficiencyVbl <= 1) ||
        !(e.efficiencyVpp > 0 && e.efficiencyVpp <= 1)) {
        check.error("E-ELEC-RANGE",
                    "generator efficiencies must be in (0, 1]",
                    check.at("efficiencyvint"));
    }
    if (!(e.constantCurrent >= 0)) {
        check.error("E-ELEC-RANGE", "constant current must be non-negative",
                    check.at("constantcurrent"));
    }
    if (e.vdd > 0 && (e.vdd < 0.5 || e.vdd > 6)) {
        check.warning("W-ELEC-PLAUSIBLE",
                      strformat("supply voltage %g V is outside the "
                                "plausible DRAM range [0.5V, 6V]", e.vdd),
                      check.at("vdd"));
    }
}

/** @return true when the architecture numbers are usable downstream. */
bool
checkArchitecture(const DramDescription& desc, Checker& check)
{
    const ArrayArchitecture& a = desc.arch;
    bool usable = true;
    if (!(a.bitsPerBitline > 0) || !(a.bitsPerLocalWordline > 0)) {
        check.error("E-ARCH-RANGE", "cells per line must be positive",
                    check.at("bitsperbl"));
        usable = false;
    }
    if (!(a.wordlinePitch > 0) || !(a.bitlinePitch > 0)) {
        check.error("E-ARCH-RANGE", "cell pitches must be positive",
                    check.at("wlpitch"));
    }
    if (!(a.saStripeWidth > 0) || !(a.lwdStripeWidth > 0)) {
        check.error("E-ARCH-RANGE", "stripe widths must be positive",
                    check.at("sastripe"));
    }
    if (a.arrayBlocksPerCsl < 1) {
        check.error("E-ARCH-RANGE",
                    "at least one array block must share a column select",
                    check.at("blockspercsl"));
    }
    if (a.bankSplit < 1) {
        check.error("E-ARCH-RANGE", "bank split must be at least 1",
                    check.at("banksplit"));
        usable = false;
    }
    if (!(a.pageActivationFraction > 0 && a.pageActivationFraction <= 1)) {
        check.error("E-ARCH-RANGE",
                    "page activation fraction must be in (0, 1]",
                    check.at("activationfraction"));
    }
    if (!(a.cellRestoreShare >= 0 && a.cellRestoreShare <= 1)) {
        check.error("E-ARCH-RANGE",
                    "cell restore share must be in [0, 1]",
                    check.at("restoreshare"));
    }
    return usable;
}

/** @return true when the specification numbers are usable downstream. */
bool
checkSpecification(const DramDescription& desc, Checker& check)
{
    const Specification& s = desc.spec;
    bool usable = true;
    if (!(s.ioWidth > 0) || !(s.dataRate > 0) ||
        !std::isfinite(s.dataRate)) {
        check.error("E-SPEC-RANGE",
                    "interface width and data rate must be positive",
                    check.at("width"));
        usable = false;
    }
    if (s.ioWidth > 1024) {
        check.error("E-SPEC-RANGE",
                    strformat("interface width %d is beyond the supported "
                              "maximum of 1024 DQ", s.ioWidth),
                    check.at("width"));
        usable = false;
    }
    if (!(s.prefetch > 0) || !(s.burstLength > 0)) {
        check.error("E-SPEC-RANGE",
                    "prefetch and burst length must be positive",
                    check.at("prefetch"));
        usable = false;
    } else if (s.burstLength % s.prefetch != 0 &&
               s.prefetch % s.burstLength != 0) {
        check.error("E-SPEC-RANGE",
                    "burst length and prefetch must divide each other",
                    check.at("prefetch"));
    }
    if (s.bankAddressBits < 0 || s.rowAddressBits <= 0 ||
        s.columnAddressBits <= 0) {
        check.error("E-SPEC-RANGE", "address widths must be positive",
                    check.at("bankadd"));
        usable = false;
    }
    // Upper bounds keep the derived shift arithmetic (1 << bits) and
    // page/density products within range: 8+30+24 bits and x1024 stay
    // far below 2^63.
    if (s.bankAddressBits > 8 || s.rowAddressBits > 30 ||
        s.columnAddressBits > 24) {
        check.error("E-SPEC-RANGE",
                    strformat("address widths beyond the supported maximum "
                              "(bank<=8, row<=30, column<=24): bank=%d "
                              "row=%d column=%d", s.bankAddressBits,
                              s.rowAddressBits, s.columnAddressBits),
                    check.at("bankadd"));
        usable = false;
    }
    if (!(s.controlClockFrequency > 0) || !(s.dataClockFrequency > 0) ||
        !std::isfinite(s.controlClockFrequency) ||
        !std::isfinite(s.dataClockFrequency)) {
        check.error("E-SPEC-RANGE", "clock frequencies must be positive",
                    check.at("frequency"));
        usable = false;
    }
    if (s.clockWires < 0) {
        check.error("E-SPEC-RANGE", "clock wire count must be non-negative",
                    check.at("number"));
    }
    if (s.miscControlSignals < 0) {
        check.error("E-SPEC-RANGE",
                    "miscellaneous control signal count must be "
                    "non-negative", check.at("misc"));
    }
    // Datarate vs clock: the interface is either SDR (1 beat/cycle) or
    // DDR (2 beats/cycle); anything else is probably a unit mistake.
    if (usable) {
        double beats = s.dataRate / s.dataClockFrequency;
        bool sdr = beats > 0.75 && beats < 1.25;
        bool ddr = beats > 1.6 && beats < 2.4;
        if (!sdr && !ddr) {
            check.warning("W-SPEC-DATARATE",
                          strformat("data rate %g b/s is %.3g beats per "
                                    "cycle of the %g Hz data clock "
                                    "(expected ~1 for SDR or ~2 for DDR)",
                                    s.dataRate, beats,
                                    s.dataClockFrequency),
                          check.at("datarate"));
        }
    }
    return usable;
}

void
checkDivisibility(const DramDescription& desc, Checker& check)
{
    const ArrayArchitecture& a = desc.arch;
    const Specification& s = desc.spec;
    const double folded = a.foldedBitline ? 2.0 : 1.0;
    if (s.pageBits() % (static_cast<long long>(a.bankSplit) *
                        a.bitsPerLocalWordline) != 0) {
        check.error("E-ARCH-DIVIDE",
                    "page is not divisible into sub-wordlines",
                    check.at("bitspersubwl"));
    }
    const long long rows_per_subarray =
        static_cast<long long>(a.bitsPerBitline * folded);
    if (rows_per_subarray <= 0 ||
        s.rowsPerBank() % rows_per_subarray != 0) {
        check.error("E-ARCH-DIVIDE",
                    "rows per bank are not divisible into sub-arrays",
                    check.at("bitsperbl"));
    }
}

void
checkFloorplan(const DramDescription& desc, Checker& check,
               const DescriptionSource* source)
{
    // When the parser already reported the axes as missing
    // (completeness), do not repeat the finding here.
    bool axes_reported = source && (!source->sawVerticalAxis ||
                                    !source->sawHorizontalAxis);
    if (desc.floorplan.columns() == 0 || desc.floorplan.rows() == 0) {
        if (!axes_reported) {
            check.error("E-FLOORPLAN-GRID", "floorplan axes are empty",
                        check.at("vertical"));
        }
        return;
    }
    if (desc.floorplan.arrayBlockCount() == 0) {
        check.error("E-FLOORPLAN-GRID", "floorplan has no array blocks",
                    check.at("vertical"));
    }
}

void
checkSignals(const DramDescription& desc, Checker& check)
{
    bool has_read = false, has_write = false, has_clock = false;
    bool grid_usable = desc.floorplan.columns() > 0 &&
                       desc.floorplan.rows() > 0;
    for (const SignalNet& net : desc.signals) {
        SourceLocation net_loc = check.at("net:" + net.name);
        if (net.wireCount <= 0) {
            check.error("E-SIGNAL-RANGE",
                        "signal net '" + net.name + "' has no wires",
                        net_loc);
        }
        if (!(net.toggleRate >= 0 && net.toggleRate <= 4)) {
            check.error("E-SIGNAL-RANGE",
                        strformat("signal net '%s' toggle rate %g must be "
                                  "in [0, 4]", net.name.c_str(),
                                  net.toggleRate), net_loc);
        }
        for (const Segment& seg : net.segments) {
            GridRef refs[2] = {seg.insideBlock ? seg.inside : seg.from,
                               seg.insideBlock ? seg.inside : seg.to};
            // An inside-block segment has one reference, not two.
            const int ref_count = seg.insideBlock ? 1 : 2;
            SourceLocation seg_loc = net_loc;
            if (seg.sourceLine > 0) {
                seg_loc.line = seg.sourceLine;
                seg_loc.column = 0;
            }
            for (int r = 0; r < ref_count; ++r) {
                const GridRef& ref = refs[r];
                if (grid_usable && !desc.floorplan.contains(ref)) {
                    check.error("E-FLOORPLAN-GRID", strformat(
                        "signal '%s' references block %d_%d outside the "
                        "floorplan", net.name.c_str(), ref.col, ref.row),
                        seg_loc);
                }
            }
            if (!(seg.fraction >= 0 && seg.fraction <= 1)) {
                check.error("E-SIGNAL-RANGE",
                            strformat("signal '%s' segment fraction %g "
                                      "must be in [0, 1]",
                                      net.name.c_str(), seg.fraction),
                            seg_loc);
            }
        }
        has_read |= net.role == SignalRole::ReadData;
        has_write |= net.role == SignalRole::WriteData;
        has_clock |= net.role == SignalRole::Clock;
    }
    if (!has_read || !has_write || !has_clock) {
        check.error("E-SIGNAL-ROLE",
                    "description must define read data, write data and "
                    "clock signal nets", check.at("floorplansignaling"));
    }
}

void
checkLogicBlocks(const DramDescription& desc, Checker& check)
{
    for (const LogicBlock& block : desc.logicBlocks) {
        // Build the location key only when a diagnostic is actually
        // emitted: this check runs per variant on the campaign fast
        // path, and the happy path must not allocate.
        const bool activity_bad =
            !(block.gateCount >= 0) || !(block.toggleRate >= 0);
        const bool density_bad =
            !(block.layoutDensity > 0 && block.layoutDensity <= 1);
        if (!activity_bad && !density_bad)
            continue;
        SourceLocation loc = check.at("block:" + block.name);
        if (activity_bad) {
            check.error("E-LOGIC-RANGE",
                        "logic block '" + block.name + "' has negative "
                        "activity", loc);
        }
        if (density_bad) {
            check.error("E-LOGIC-RANGE",
                        "logic block '" + block.name + "' layout density "
                        "must be in (0, 1]", loc);
        }
    }
}

void
checkPatternConsistency(const DramDescription& desc,
                        DiagnosticEngine& diags, Checker& check)
{
    if (desc.pattern.loop.empty()) {
        check.error("E-PATTERN-EMPTY", "default pattern is empty",
                    check.at("pattern"));
        return;
    }
    // Protocol-level legality (commands vs bank/timing constraints) is
    // only meaningful once everything the checker reads is valid.
    if (diags.hasErrors() || !(desc.timing.tCkSeconds > 0))
        return;
    PatternCheckResult result =
        checkPattern(desc.pattern, desc.timing, desc.spec.banks());
    constexpr int kMaxReported = 5;
    int reported = 0;
    for (const TimingViolation& v : result.violations) {
        if (reported++ == kMaxReported) {
            check.warning("W-PATTERN-TIMING",
                          strformat("... and %d further pattern timing "
                                    "violations",
                                    static_cast<int>(
                                        result.violations.size()) -
                                        kMaxReported),
                          check.at("pattern"));
            break;
        }
        check.warning("W-PATTERN-TIMING",
                      strformat("pattern violates %s at cycle %lld: %s",
                                v.rule.c_str(), v.cycle,
                                v.detail.c_str()), check.at("pattern"));
    }
}

} // namespace

void
validateDescription(const DramDescription& desc, DiagnosticEngine& diags,
                    const DescriptionSource* source)
{
    static Histogram& validateNanos =
        globalMetrics().histogram("dsl.validate.ns");
    ScopedTimerNs timer(metricsEnabled() ? &validateNanos : nullptr);
    TraceSpan span("dsl.validate", "dsl");
    Checker check(diags, source);

    // Completeness stage (parsed descriptions only).
    if (source)
        checkCompleteness(*source, diags);

    // Consistency stage. Order matters only for the legacy first-error
    // wrapper, which existing callers and tests rely on.
    checkTechnology(desc, check);
    checkElectrical(desc, check);
    bool arch_usable = checkArchitecture(desc, check);
    bool spec_usable = checkSpecification(desc, check);
    if (arch_usable && spec_usable)
        checkDivisibility(desc, check);
    checkFloorplan(desc, check, source);
    checkSignals(desc, check);
    checkLogicBlocks(desc, check);
    checkPatternConsistency(desc, diags, check);
}

Status
revalidateDirtyGroups(const DramDescription& desc, DirtyMask dirty)
{
    if (dirty & kDirtyStructure)
        return validateDescription(desc);

    DiagnosticEngine diags;
    Checker check(diags, nullptr);
    // Same relative order as validateDescription() so the first error
    // (the quarantine reason) is identical to the full pass.
    if (dirty & kDirtyTechnology)
        checkTechnology(desc, check);
    if (dirty & kDirtyElectrical)
        checkElectrical(desc, check);
    if (dirty & kDirtySignals)
        checkSignals(desc, check);
    if (dirty & kDirtyLogicBlocks)
        checkLogicBlocks(desc, check);
    if (diags.hasErrors())
        return Status(diags.firstError());
    return Status::okStatus();
}

} // namespace vdram

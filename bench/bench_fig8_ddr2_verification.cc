/**
 * @file
 * E1 — Fig. 8: model vs datasheet for 1 Gb DDR2.
 *
 * For each point of the paper's x-axis (IDD0/IDD4R/IDD4W at 533/667/800
 * Mb/s/pin and x4/x8/x16) the model is evaluated for a typical 75 nm and
 * a typical 65 nm part and compared against the vendor datasheet band
 * (Samsung/Hynix/Micron/Elpida/Qimonda envelopes).
 *
 * Shape criteria (the paper's "good agreement"): each model value lands
 * inside (or within 15 % of) the vendor band, and the dependency of the
 * current on operating frequency, I/O width and operation type is
 * monotone as in the datasheets.
 */
#include <cstdio>

#include "core/model.h"
#include "datasheet/reference_data.h"
#include "presets/presets.h"
#include "util/strings.h"
#include "util/table.h"

using namespace vdram;

int
main()
{
    std::printf("== Fig. 8: model vs datasheet, 1Gb DDR2 ==\n\n");

    Table table({"point", "datasheet min", "datasheet max", "model 75nm",
                 "model 65nm", "verdict"});

    int in_band = 0; // strictly inside the vendor band
    int widened = 0; // inside the band widened by 15 % (the verdict)
    int total = 0;
    std::vector<double> model75_series;
    bool monotone = true;
    double prev = 0;
    IddMeasure prev_measure = IddMeasure::Idd0;

    for (const DatasheetPoint& point : ddr2_1gb_datasheet()) {
        double values[2];
        int i = 0;
        for (double node : {75e-9, 65e-9}) {
            DramPowerModel model(preset1GbDdr2(node, point.ioWidth,
                                               point.dataRateMbps));
            values[i++] = model.idd(point.measure) * 1e3;
        }
        // Verdict: either technology interpretation inside the band
        // widened by 15 % (the vendor spread itself is ~50 %); the strict
        // count is reported beside it.
        auto inside = [&](double v, double widen) {
            return v >= point.minMa * (1 - widen) &&
                   v <= point.maxMa * (1 + widen);
        };
        bool strict = inside(values[0], 0) || inside(values[1], 0);
        bool ok = inside(values[0], 0.15) || inside(values[1], 0.15);
        in_band += strict;
        widened += ok;
        ++total;

        if (point.measure == prev_measure && prev > 0 &&
            values[0] < prev) {
            monotone = false;
        }
        prev = values[0];
        prev_measure = point.measure;

        table.addRow({point.label(),
                      strformat("%.0f mA", point.minMa),
                      strformat("%.0f mA", point.maxMa),
                      strformat("%.1f mA", values[0]),
                      strformat("%.1f mA", values[1]),
                      strict ? "in band" : ok ? "within 15 %" : "OUT"});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("shape: %d / %d points within the vendor band widened "
                "by 15 %%: %s\n",
                widened, total, widened == total ? "PASS" : "FAIL");
    std::printf("strict: %d / %d points inside the vendor band\n", in_band,
                total);
    std::printf("shape: current rises with data rate and I/O width "
                "within each measure: %s\n",
                monotone ? "PASS" : "FAIL");

    // Operation-type ordering at the top speed grade: IDD4R > IDD4W >
    // IDD0, as in every vendor datasheet.
    DramPowerModel top(preset1GbDdr2(75e-9, 16, 800));
    bool op_order = top.idd(IddMeasure::Idd4R) >=
                        top.idd(IddMeasure::Idd4W) &&
                    top.idd(IddMeasure::Idd4W) > top.idd(IddMeasure::Idd0);
    std::printf("shape: IDD4R >= IDD4W > IDD0 at DDR2-800 x16: %s\n",
                op_order ? "PASS" : "FAIL");
    return 0;
}

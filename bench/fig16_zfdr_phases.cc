/**
 * @file
 * Fig. 16 reproduction: per-phase effect of ZFDR (compute-only, i.e. the
 * reshape scheme in isolation), plus the SArray input-storage saving.
 *
 * Paper: distinct speedups on DCGAN/cGAN/3D-GAN/GPGAN/DiscoGAN; no
 * speedup on the fully-connected MAGAN discriminator; up to 5.2x SArray
 * space saved for inputs (DCGAN), 3.86x on average.
 */

#include "runner.hh"

#include "zfdr/cost.hh"

namespace {

using namespace lergan;

/** Compute-only cost of one phase (MMV waves + per-item operand writes),
 *  in nanoseconds per item, under one reshape scheme. */
double
phaseComputeNs(const GanModel &model, Phase phase, bool zfdr,
               const ReRamParams &params)
{
    const CrossbarGeom geom;
    double total = 0;
    for (const LayerOp &op : opsForPhase(model, phase)) {
        OpCost cost;
        if (zfdr && op.zfdrApplicable()) {
            const ReshapeAnalysis analysis = analyzeReshape(op);
            cost = zfdrOpCost(op, analysis, ReplicaVector{}, geom);
        } else {
            cost = normalOpCost(op, 1, geom);
        }
        total += params.mmvWaveNs * static_cast<double>(cost.waves);
        const bool writes = phase == Phase::DBwdWeight ||
                            phase == Phase::GBwdWeight;
        if (writes && op.pattern != OpPattern::DenseFc) {
            total += params.weightWriteNsPerElem *
                     static_cast<double>(cost.weightElems);
        }
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 16: ZFDR speedup per GAN phase + input storage "
                  "saving",
                  "speedup where T-CONVs exist; none on FC layers; SArray "
                  "input saving up to 5.2x (DCGAN), avg 3.86x");
    runner.parse(argc, argv, "Fig. 16 reproduction");

    const ReRamParams params;
    TextTable table({"benchmark", "G.fwd", "D.fwd", "D.bwd_err",
                     "D.bwd_w", "G.bwd_err", "G.bwd_w",
                     "input storage saving"});

    Mean storage_mean;
    double storage_max = 0;
    for (const GanModel &model : allBenchmarks()) {
        std::vector<std::string> row{model.name};
        for (Phase phase : kAllPhases) {
            const double normal =
                phaseComputeNs(model, phase, false, params);
            const double zfdr =
                phaseComputeNs(model, phase, true, params);
            row.push_back(TextTable::num(normal / zfdr) + "x");
        }
        // SArray saving: stored input elements with vs without
        // zeros, summed over all ops of all phases.
        OpZeroStats stats = analyzeModel(model);
        const double saving = stats.storageBlowup();
        storage_mean.add(saving);
        storage_max = std::max(storage_max, saving);
        row.push_back(TextTable::num(saving) + "x");
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\ninput storage saving: max "
              << TextTable::num(storage_max)
              << "x (paper: up to 5.2x), mean "
              << TextTable::num(storage_mean.value())
              << "x (paper: 3.86x)\n";
    runner.finish();
    return 0;
}

/**
 * @file
 * Endurance analysis (paper Sec. II-A): with >1e10 cell endurance and
 * 1e5 iterations per training run, a ReRAM PIM should survive
 * "1e5 ~ 1e7 such networks". Reproduces that estimate from simulated
 * write counts and shows how duplication spends lifetime.
 */

#include "bench_util.hh"

#include "reram/endurance.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Endurance: trainable networks before cell wear-out",
           "paper Sec. II-A: 1e5 ~ 1e7 trainings at 1e10 ~ 1e12 "
           "endurance");

    TextTable table({"benchmark", "config", "writes/cell/iter",
                     "trainings @1e10", "trainings @1e12"});
    for (const char *name : {"DCGAN", "cGAN", "MAGAN-MNIST"}) {
        const GanModel model = makeBenchmark(name);
        for (const auto &[label, config] :
             {std::pair<const char *, AcceleratorConfig>{
                  "LerGAN-low", AcceleratorConfig::lerGan(
                                    ReplicaDegree::Low)},
              {"LerGAN-high",
               AcceleratorConfig::lerGan(ReplicaDegree::High)},
              {"PRIME", AcceleratorConfig::prime()}}) {
            LerGanAccelerator accelerator(model, config);
            const TrainingReport report = accelerator.trainIterations(1);
            const std::uint64_t stored =
                accelerator.compiled().weightElems;

            EnduranceParams low_end;   // 1e10 cycles
            EnduranceParams high_end;
            high_end.cellEndurance = 1e12;
            const EnduranceReport at10 =
                estimateEndurance(report.stats, stored, low_end);
            const EnduranceReport at12 =
                estimateEndurance(report.stats, stored, high_end);
            table.addRow({model.name, label,
                          TextTable::num(
                              at10.writesPerCellPerIteration, 2),
                          TextTable::num(at10.survivableTrainings, 0),
                          TextTable::num(at12.survivableTrainings, 0)});
        }
    }
    table.print(std::cout);
    std::cout << "\nNote: the per-item gradient writes of Dw<-/Gw<- are "
                 "the dominant wear component; kernel updates add one "
                 "write per stored copy per iteration.\n";
    return 0;
}

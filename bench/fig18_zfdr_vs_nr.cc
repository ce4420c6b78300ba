/**
 * @file
 * Fig. 18 reproduction: ZFDR versus normal reshaping (NR), both on the
 * 3D connection, normalized to the 2D+NR baseline.
 *
 * Paper: ZFDR with duplication 5.11x, ZFDR without duplication 2.77x,
 * NR only 1.31x — both techniques are needed.
 */

#include "runner.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;
    using namespace lergan::bench;
    Runner runner("Fig. 18: ZFDR vs normal reshape, on the 3D connection",
                  "vs 2D+NR: ZFDR+dup 5.11x, ZFDR 2.77x, NR 1.31x on "
                  "average");
    runner.parse(argc, argv, "Fig. 18 reproduction");

    TextTable table({"benchmark", "NR+3D", "ZFDR+3D",
                     "ZFDR+3D+dup"});
    Mean m_nr, m_zfdr, m_dup;
    for (const GanModel &model : allBenchmarks()) {
        const double base =
            simulateTraining(model,
                             makeConfig(Connection::HTree,
                                        ReshapeMode::Normal, false))
                .timeMs();
        const double nr_3d =
            simulateTraining(model,
                             makeConfig(Connection::ThreeD,
                                        ReshapeMode::Normal, false))
                .timeMs();
        const double zfdr_3d =
            simulateTraining(model,
                             makeConfig(Connection::ThreeD,
                                        ReshapeMode::Zfdr, false))
                .timeMs();
        const double zfdr_dup =
            simulateTraining(model,
                             makeConfig(Connection::ThreeD,
                                        ReshapeMode::Zfdr, true,
                                        ReplicaDegree::High))
                .timeMs();
        m_nr.add(base / nr_3d);
        m_zfdr.add(base / zfdr_3d);
        m_dup.add(base / zfdr_dup);
        table.addRow({model.name,
                      TextTable::num(base / nr_3d) + "x",
                      TextTable::num(base / zfdr_3d) + "x",
                      TextTable::num(base / zfdr_dup) + "x"});
    }
    table.addRow({"MEAN (paper 1.31 / 2.77 / 5.11)",
                  TextTable::num(m_nr.value()) + "x",
                  TextTable::num(m_zfdr.value()) + "x",
                  TextTable::num(m_dup.value()) + "x"});
    table.print(std::cout);
    runner.finish();
    return 0;
}

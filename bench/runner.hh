/**
 * @file
 * Unified driver for the figure/table bench binaries.
 *
 * Every bench used to copy-paste the same plumbing: an ArgParser, the
 * shared Observability options, a --threads knob for sweep-based grids
 * and the final export calls. bench::Runner owns all of that. Host
 * performance is measured by perfbench (BENCHMARK.json), not here.
 *
 * Usage (sweep-based bench):
 * @code
 *   bench::Runner runner("Fig. 19: ...", "paper claim ...");
 *   runner.args().addOption("trace", "...");     // bench-specific flags
 *   runner.parse(argc, argv, "Fig. 19 reproduction");
 *   ExperimentSweep sweep;  ...build grid...
 *   const auto results = runner.runSweep(sweep, kIterations);
 *   ...print tables from results...
 *   runner.finish();
 * @endcode
 */

#ifndef LERGAN_BENCH_RUNNER_HH
#define LERGAN_BENCH_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/sweep.hh"

namespace lergan {
namespace bench {

/** Unified bench driver: argument parsing and observability. */
class Runner
{
  public:
    /**
     * @param title       banner headline.
     * @param paper_claim banner "paper:" line.
     */
    Runner(std::string title, std::string paper_claim);

    /** Declare bench-specific options here before parse(). */
    ArgParser &args() { return args_; }

    /**
     * Declare the shared options (threads, observability), parse argv,
     * construct the Observability plumbing and print the banner — the
     * exact sequence every bench main used to open with.
     */
    void parse(int argc, char **argv, const std::string &program_doc);

    /** The shared observability plumbing (valid after parse()). */
    Observability &obs();

    /** --threads value (0 = hardware concurrency). */
    int threads() const;

    /**
     * Run @p sweep once under the shared flags (--threads, --metrics
     * telemetry, --progress, span tracing) and return the results for
     * printing.
     */
    std::vector<SweepResult> runSweep(ExperimentSweep &sweep,
                                      int iterations);

    /** Export the Observability (--metrics / --self-profile / span
     *  log) output. Bench mains call it last. */
    void finish();

  private:
    std::string title_;
    std::string paperClaim_;
    ArgParser args_;
    std::unique_ptr<Observability> obs_;
};

} // namespace bench
} // namespace lergan

#endif // LERGAN_BENCH_RUNNER_HH

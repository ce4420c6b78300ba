#include "runner.hh"

namespace lergan {
namespace bench {

Runner::Runner(std::string title, std::string paper_claim)
    : title_(std::move(title)), paperClaim_(std::move(paper_claim))
{
}

void
Runner::parse(int argc, char **argv, const std::string &program_doc)
{
    args_.addOption("threads", "worker threads (0 = hardware threads)",
                    "0");
    Observability::addOptions(args_);
    args_.parse(argc, argv, program_doc);
    obs_ = std::make_unique<Observability>(args_);
    banner(title_, paperClaim_);
}

Observability &
Runner::obs()
{
    LERGAN_ASSERT(obs_ != nullptr, "Runner::parse() not called");
    return *obs_;
}

int
Runner::threads() const
{
    return args_.getInt("threads");
}

std::vector<SweepResult>
Runner::runSweep(ExperimentSweep &sweep, int iterations)
{
    if (obs().registry())
        sweep.withTelemetry(obs().registry());
    if (obs().recorder())
        sweep.withTracing(obs().recorder());

    RunOptions options;
    options.threads = threads();
    options.iterations = iterations;
    options.onProgress = obs().progress();
    // The anomaly report ranks points by host time, so the traced run
    // needs the per-point telemetry it is ranked by.
    options.pointTelemetry = obs().anomaliesWanted();
    auto results = sweep.run(options);
    obs().reportSweep(results);
    return results;
}

void
Runner::finish()
{
    obs().finish();
}

} // namespace bench
} // namespace lergan

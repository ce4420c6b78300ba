#include "core/sweep_io.hh"

#include "common/json.hh"
#include "critpath/critpath.hh"
#include "telemetry/tracing.hh"

namespace lergan {

namespace {

/**
 * RFC 4180 field quoting: a field containing a comma, quote, CR or LF
 * is wrapped in quotes with embedded quotes doubled. Everything else
 * passes through unchanged (so ordinary exports stay byte-stable).
 */
/** Emit one TrialDistribution as a JSON object. */
void
writeDistribution(JsonWriter &json, const char *key,
                  const TrialDistribution &dist)
{
    json.key(key).beginObject();
    json.key("mean").value(dist.mean);
    json.key("p95").value(dist.p95);
    json.key("min").value(dist.min);
    json.key("max").value(dist.max);
    json.endObject();
}

std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\r\n") == std::string::npos)
        return text;
    std::string quoted;
    quoted.reserve(text.size() + 2);
    quoted += '"';
    for (char c : text) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

} // namespace

void
writeSweepJson(std::ostream &os, const std::vector<SweepResult> &results,
               const SweepTelemetrySummary *summary)
{
    Span span("export");
    JsonWriter json(os);
    if (summary)
        json.beginObject().key("points");
    json.beginArray();
    for (const SweepResult &result : results) {
        json.beginObject();
        json.key("benchmark").value(result.benchmark);
        json.key("config").value(result.configLabel);
        if (result.failed) {
            json.key("failed").value(true);
            json.key("error").value(result.error);
            if (result.faults.ran()) {
                // A Monte Carlo point whose every trial failed still
                // reports how many trials it attempted.
                json.key("faults").beginObject();
                json.key("trials").value(
                    static_cast<std::uint64_t>(result.faults.trials));
                json.key("failed_trials")
                    .value(static_cast<std::uint64_t>(
                        result.faults.failedTrials));
                json.endObject();
            }
            json.endObject();
            continue;
        }
        json.key("ms_per_iteration").value(result.report.timeMs());
        json.key("mj_per_iteration")
            .value(pjToMj(result.report.totalEnergyPj()));
        json.key("crossbars").value(result.crossbarsUsed);
        json.key("oversubscribed").value(result.oversubscribed);
        if (result.faults.ran()) {
            json.key("faults").beginObject();
            json.key("trials").value(
                static_cast<std::uint64_t>(result.faults.trials));
            json.key("failed_trials").value(static_cast<std::uint64_t>(
                result.faults.failedTrials));
            writeDistribution(json, "ms_per_iteration",
                              result.faults.msPerIteration);
            writeDistribution(json, "mj_per_iteration",
                              result.faults.mjPerIteration);
            writeDistribution(json, "capacity_lost",
                              result.faults.capacityLost);
            json.endObject();
        }
        if (result.audit.ran) {
            json.key("audit").beginObject();
            json.key("ok").value(result.audit.ok());
            json.key("checks")
                .value(static_cast<std::uint64_t>(
                    result.audit.checksRun));
            if (!result.audit.ok()) {
                json.key("failures").beginArray();
                for (const AuditFinding &finding :
                     result.audit.failures) {
                    json.beginObject();
                    json.key("check").value(finding.check);
                    json.key("detail").value(finding.detail);
                    json.endObject();
                }
                json.endArray();
            }
            json.endObject();
        }
        if (result.telemetry.ran) {
            json.key("telemetry").beginObject();
            json.key("cache_hit").value(result.telemetry.cacheHit);
            json.key("host_ms").value(result.telemetry.hostMs);
            if (result.telemetry.traced) {
                // Only traced runs carry the span fields, so untraced
                // exports keep the exact historical shape.
                json.key("spans").value(result.telemetry.spanCount);
                json.key("queue_wait_ms")
                    .value(result.telemetry.queueWaitMs);
            }
            json.endObject();
        }
        if (result.report.critpath) {
            // Only points that recorded carry the object, so default
            // sweeps export the exact historical shape.
            const CriticalPath &path = result.report.critpath->path;
            json.key("critpath").beginObject();
            json.key("makespan_ms").value(psToMs(path.makespan));
            json.key("links").value(
                static_cast<std::uint64_t>(path.entries.size()));
            json.key("zero_slack_tasks").value(
                static_cast<std::uint64_t>(path.zeroSlackTasks()));
            json.key("by_phase").beginObject();
            for (const auto &[name, time] : path.phaseRollup)
                json.key(name).value(psToMs(time));
            json.endObject();
            json.key("by_resource").beginObject();
            for (const auto &[name, time] : path.resourceRollup)
                json.key(name).value(psToMs(time));
            json.endObject();
            json.endObject();
        }
        json.key("stats").beginObject();
        for (const auto &[name, value] : result.report.stats)
            json.key(name).value(value);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    if (summary) {
        json.key("cache").beginObject();
        json.key("hits").value(summary->cacheHits);
        json.key("misses").value(summary->cacheMisses);
        json.endObject();
        json.key("wall_ms").value(summary->wallMs);
        json.endObject();
    }
    os << '\n';
}

void
writeSweepCsv(std::ostream &os, const std::vector<SweepResult> &results,
              const SweepTelemetrySummary *summary)
{
    Span span("export");
    // Monte Carlo columns appear only when some result carries trial
    // distributions, so plain sweeps export the exact historical shape;
    // telemetry columns follow the same pattern.
    bool any_faults = false;
    bool any_telemetry = false;
    bool any_traced = false;
    bool any_critpath = false;
    for (const SweepResult &result : results) {
        any_faults = any_faults || result.faults.ran();
        any_telemetry = any_telemetry || result.telemetry.ran;
        any_traced = any_traced || result.telemetry.traced;
        any_critpath = any_critpath || result.report.critpath != nullptr;
    }

    os << "benchmark,config,ms_per_iteration,mj_per_iteration,"
          "crossbars,oversubscribed,energy_compute_pj,energy_comm_pj,"
          "energy_update_pj,error";
    if (any_faults) {
        os << ",trials,failed_trials,ms_mean,ms_p95,mj_mean,mj_p95,"
              "capacity_lost_mean,capacity_lost_p95";
    }
    if (any_telemetry)
        os << ",cache_hit,host_ms";
    if (any_traced)
        os << ",span_count,queue_wait_ms";
    if (any_critpath)
        os << ",crit_links,crit_zero_slack,crit_top_phase";
    os << '\n';
    for (const SweepResult &result : results) {
        os << csvField(result.benchmark) << ','
           << csvField(result.configLabel) << ',';
        if (result.failed) {
            // No metrics exist for a failed point; emitting a
            // default-constructed report's zeros would be
            // indistinguishable from real values.
            os << ",,,,,,," << csvField(result.error);
            if (any_faults) {
                if (result.faults.ran()) {
                    os << ',' << result.faults.trials << ','
                       << result.faults.failedTrials << ",,,,,,";
                } else {
                    os << ",,,,,,,,";
                }
            }
            if (any_telemetry)
                os << ",,";
            if (any_traced)
                os << ",,";
            if (any_critpath)
                os << ",,,";
            os << '\n';
            continue;
        }
        os << result.report.timeMs() << ','
           << pjToMj(result.report.totalEnergyPj()) << ','
           << result.crossbarsUsed << ',' << result.oversubscribed << ','
           << result.report.computeEnergyPj() << ','
           << result.report.commEnergyPj() << ','
           << result.report.stats.get("energy.update") << ',';
        if (any_faults) {
            if (result.faults.ran()) {
                os << ',' << result.faults.trials << ','
                   << result.faults.failedTrials << ','
                   << result.faults.msPerIteration.mean << ','
                   << result.faults.msPerIteration.p95 << ','
                   << result.faults.mjPerIteration.mean << ','
                   << result.faults.mjPerIteration.p95 << ','
                   << result.faults.capacityLost.mean << ','
                   << result.faults.capacityLost.p95;
            } else {
                os << ",,,,,,,,";
            }
        }
        if (any_telemetry) {
            if (result.telemetry.ran) {
                os << ',' << (result.telemetry.cacheHit ? 1 : 0) << ','
                   << result.telemetry.hostMs;
            } else {
                os << ",,";
            }
        }
        if (any_traced) {
            if (result.telemetry.traced) {
                os << ',' << result.telemetry.spanCount << ','
                   << result.telemetry.queueWaitMs;
            } else {
                os << ",,";
            }
        }
        if (any_critpath) {
            if (result.report.critpath) {
                const CriticalPath &path = result.report.critpath->path;
                os << ',' << path.entries.size() << ','
                   << path.zeroSlackTasks() << ','
                   << csvField(path.phaseRollup.empty()
                                   ? ""
                                   : path.phaseRollup.front().first);
            } else {
                os << ",,,";
            }
        }
        os << '\n';
    }
    if (summary) {
        os << "# cache_hits=" << summary->cacheHits
           << " cache_misses=" << summary->cacheMisses
           << " wall_ms=" << summary->wallMs << '\n';
    }
}

} // namespace lergan

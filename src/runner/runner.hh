/**
 * @file
 * The experiment-execution subsystem: turns (config, seed) simulation
 * jobs into SimResults, in parallel, with a persistent result cache.
 *
 * Deterministic by construction: callers submit an ordered job list
 * and every job writes its result into its own index slot, so the
 * returned vector is bit-identical whatever the worker count or
 * completion order (per-job randomness is already sealed inside the
 * job via SimConfig::traceSeed). The ideal-oracle two-phase
 * methodology runs as a single job -- its phase-1 log never leaves
 * the worker -- which is also what makes ideal runs cacheable.
 *
 * Knobs: --jobs / KAGURA_JOBS (worker count, default
 * hardware_concurrency), KAGURA_CACHE=off, KAGURA_CACHE_DIR,
 * KAGURA_PROGRESS=1 (live per-job lines on stderr).
 */

#ifndef KAGURA_RUNNER_RUNNER_HH
#define KAGURA_RUNNER_RUNNER_HH

#include <optional>
#include <string_view>
#include <vector>

#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace kagura
{
namespace runner
{

/** One schedulable unit of simulation work. */
struct SimJob
{
    /** How to execute the config. */
    enum class Kind
    {
        Plain,        ///< one Simulator::run()
        IdealAware,   ///< two-phase ideal, phase 1 under the real trace
        IdealUnaware, ///< two-phase ideal, phase 1 at infinite energy
    };

    SimConfig config;
    Kind kind = Kind::Plain;
};

/** Stable tag naming a job kind (part of the cache key). */
const char *jobKindName(SimJob::Kind kind);

/** jobKindName() inverse (nullopt for an unknown tag). */
std::optional<SimJob::Kind> parseJobKind(std::string_view tag);

/**
 * Set the worker count for subsequent runJobs() calls; 0 restores the
 * default (KAGURA_JOBS env, else hardware_concurrency). Call from the
 * harness before the sweep starts, not concurrently with one.
 */
void setJobCount(unsigned n);

/** The worker count runJobs() would use right now (>= 1). */
unsigned jobCount();

/**
 * Execute one job: consult the persistent cache, simulate on a miss,
 * store the encoded result. Safe to call from any thread.
 */
SimResult runJob(const SimJob &job);

/** How one job was satisfied (benchmark / telemetry consumers). */
struct JobOutcome
{
    SimResult result;
    /** Served from the persistent result cache, no simulation run. */
    bool cacheHit = false;
    /** Wall seconds spent inside this job. */
    double seconds = 0.0;
};

/** runJob() with the cache/timing detail exposed to the caller. */
JobOutcome runJobDetailed(const SimJob &job);

/**
 * Execute @p jobs across jobCount() workers and return their results
 * in job order. results[i] corresponds to jobs[i], always.
 */
std::vector<SimResult> runJobs(const std::vector<SimJob> &jobs);

} // namespace runner
} // namespace kagura

#endif // KAGURA_RUNNER_RUNNER_HH

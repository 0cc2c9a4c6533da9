/**
 * @file
 * The benchmark's workloads: which simulation jobs each one submits,
 * and how a benchmark seed becomes the jobs' ambient-trace seed. The
 * simulator only ever sees the generated SimConfigs.
 */

#ifndef KAGURA_SIMBENCH_JOBS_HH
#define KAGURA_SIMBENCH_JOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/runner.hh"

namespace simbench
{

/** The three named workloads. */
enum class Workload
{
    ColdCompressed, ///< compression-on sweep against an empty cache
    ColdRaw,        ///< compression-off sweep over all EHS designs
    WarmReplay,     ///< ColdCompressed's jobs against a full cache
};

/** Parse a --workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload workload);

/** True for the two workloads that simulate (empty result cache). */
inline bool
isCold(Workload workload)
{
    return workload != Workload::WarmReplay;
}

/**
 * Ambient-trace seed for benchmark seed @p seed. Seed 0 is the
 * SimConfig default, the seed the committed reference and the repo's
 * goldens were captured at; seed n >= 1 is suiteSeed(n - 1) (the index
 * taken mod 2^32), so seed 1 is the seed `fig13_main_speedup
 * --repeats 1` runs at.
 */
std::uint64_t traceSeedFor(std::uint64_t seed);

/** One job plus the labels the checks and reports need. */
struct BenchJob
{
    kagura::runner::SimJob job;
    std::string app;
    /** Config label, e.g. "acc+kagura/bdi" (unique per app). */
    std::string label;
};

/**
 * The ordered job list of @p workload over @p apps at trace seed
 * @p trace_seed. WarmReplay returns ColdCompressed's list.
 */
std::vector<BenchJob> makeJobs(Workload workload,
                               const std::vector<std::string> &apps,
                               std::uint64_t trace_seed);

/** Config labels of the Fig. 13 speedup pair (baseline, ACC+Kagura). */
constexpr const char *baselineLabel = "base";
constexpr const char *kaguraLabel = "acc+kagura/bdi";

} // namespace simbench

#endif // KAGURA_SIMBENCH_JOBS_HH

/**
 * @file
 * Correctness references for the benchmark's simulated results.
 *
 * A result's fingerprint is FNV-1a over its canonical encoding, the
 * same fingerprint the repo's golden tables pin. At trace seed 0 every
 * job is checked against reference.txt (one fingerprint per job,
 * keyed by the job's cache hash) and, where a job's config is one the
 * golden tables pin, against those tables too. The golden files are
 * only read.
 */

#ifndef KAGURA_SIMBENCH_REFERENCE_HH
#define KAGURA_SIMBENCH_REFERENCE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "jobs.hh"
#include "sim/sim_result.hh"

namespace simbench
{

/** FNV-1a of the canonical result encoding. */
std::uint64_t fingerprint(const kagura::SimResult &result);

/** Cache hash of a plain job (names its reference row). */
std::uint64_t jobHash(const BenchJob &job);

/** One pinned fingerprint and the file row it came from. */
struct Pin
{
    std::uint64_t fingerprint = 0;
    std::string source;
};
/** Pins by job hash; a config the golden tables pin twice has two. */
using Pins = std::multimap<std::uint64_t, Pin>;

/**
 * Load reference.txt rows ("<job hash> <fingerprint> <app> <label>",
 * hex). False when the file cannot be read.
 */
bool loadReference(const std::string &path, Pins &out);

/**
 * Add the golden tables' pins (golden_results.txt: baseline, ACC,
 * ACC+Kagura; golden_ehs_results.txt: ACC+Kagura under NVSRAM, NvMR,
 * SweepCache) for the apps in @p apps, at the default trace seed.
 * False when a table cannot be read or lacks an app.
 */
bool loadGoldens(const std::string &data_dir,
                 const std::vector<std::string> &apps, Pins &out);

/** Write reference.txt rows for @p jobs / @p results. */
bool writeReference(const std::string &path,
                    const std::vector<BenchJob> &jobs,
                    const std::vector<kagura::SimResult> &results);

/**
 * True when @p result matches every pin of @p job (a job with no pin
 * matches); each mismatch is reported on stderr.
 */
bool matchesPins(const Pins &pins, const BenchJob &job,
                 const kagura::SimResult &result);

} // namespace simbench

#endif // KAGURA_SIMBENCH_REFERENCE_HH

#include "runner/runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/progress.hh"
#include "runner/result_codec.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace runner
{

namespace
{

/** Harness-requested worker count; 0 = auto. Set before a sweep. */
std::atomic<unsigned> requestedJobs{0};

/**
 * Per-simulation record export is opt-in (KAGURA_METRICS_PER_SIM=1):
 * a fleet sweep runs thousands of simulations and the default export
 * keeps only the aggregate runner counters and bench headlines.
 */
bool
perSimExport()
{
    static const bool enabled = [] {
        const char *env = std::getenv("KAGURA_METRICS_PER_SIM");
        return env && env[0] == '1' && env[1] == '\0';
    }();
    return enabled;
}

SimResult
execute(const SimJob &job)
{
    progress().noteSimulation();
    metrics::Registry::global().counter("runner/simulations").add();
    switch (job.kind) {
      case SimJob::Kind::Plain: {
          Simulator sim(job.config);
          SimResult result = sim.run();
          if (perSimExport() && metrics::defaultSink())
              metrics::emitRegistry(sim.metricSet());
          return result;
      }
      case SimJob::Kind::IdealAware:
        return runIdealOnce(job.config, true);
      case SimJob::Kind::IdealUnaware:
        return runIdealOnce(job.config, false);
    }
    panic("unknown SimJob::Kind %d", static_cast<int>(job.kind));
}

} // namespace

const char *
jobKindName(SimJob::Kind kind)
{
    switch (kind) {
      case SimJob::Kind::Plain:
        return "plain";
      case SimJob::Kind::IdealAware:
        return "ideal-aware";
      case SimJob::Kind::IdealUnaware:
        return "ideal-unaware";
    }
    panic("unknown SimJob::Kind %d", static_cast<int>(kind));
}

std::optional<SimJob::Kind>
parseJobKind(std::string_view tag)
{
    for (SimJob::Kind kind :
         {SimJob::Kind::Plain, SimJob::Kind::IdealAware,
          SimJob::Kind::IdealUnaware}) {
        if (tag == jobKindName(kind))
            return kind;
    }
    return std::nullopt;
}

void
setJobCount(unsigned n)
{
    requestedJobs = n;
}

unsigned
jobCount()
{
    const unsigned n = requestedJobs.load();
    return n ? n : ThreadPool::defaultThreadCount();
}

JobOutcome
runJobDetailed(const SimJob &job)
{
    // The ideal kinds carry the *base* config; the phases derive
    // their own oracle modes inside runIdealOnce.
    if (job.kind != SimJob::Kind::Plain)
        kagura_assert(job.config.oracle == OracleMode::Off);
    // A Replay config points at a caller-owned phase-1 log the cache
    // key cannot capture; such jobs always simulate.
    const bool cacheable = job.config.oracleLog == nullptr;

    CacheStore &cache = CacheStore::global();
    metrics::Registry &reg = metrics::Registry::global();
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const auto finish = [&](const std::string &what, bool cached_hit,
                            double seconds) {
        progress().noteDone(seconds);
        reg.counter("runner/jobs_done").add();
        reg.timer("runner/job_seconds").observe(seconds);
        liveProgressLine(what, cached_hit, seconds);
    };

    JobOutcome outcome;
    progress().noteStarted();
    if (cacheable && cache.enabled()) {
        const std::string key = jobKeyText(job.config,
                                           jobKindName(job.kind));
        const std::uint64_t hash = fnv1a64(key);
        std::string payload;
        SimResult cached;
        if (cache.lookup(hash, key, payload) &&
            decodeResult(payload, cached)) {
            progress().noteCacheHit();
            reg.counter("runner/cache_hits").add();
            outcome.seconds = elapsed();
            finish(job.config.describe(), true, outcome.seconds);
            outcome.result = std::move(cached);
            outcome.cacheHit = true;
            return outcome;
        }
        progress().noteCacheMiss();
        reg.counter("runner/cache_misses").add();
        SimResult result = execute(job);
        cache.store(hash, key, encodeResult(result));
        outcome.seconds = elapsed();
        finish(job.config.describe(), false, outcome.seconds);
        outcome.result = std::move(result);
        return outcome;
    }

    SimResult result = execute(job);
    outcome.seconds = elapsed();
    finish(job.config.describe(), false, outcome.seconds);
    outcome.result = std::move(result);
    return outcome;
}

SimResult
runJob(const SimJob &job)
{
    return runJobDetailed(job).result;
}

std::vector<SimResult>
runJobs(const std::vector<SimJob> &jobs)
{
    progress().noteQueued(jobs.size());
    std::vector<SimResult> results(jobs.size());
    const unsigned workers = jobCount();
    if (workers <= 1 || jobs.size() <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            results[i] = runJob(jobs[i]);
        return results;
    }

    // Deterministic aggregation: every job owns slot i regardless of
    // which worker runs it or when it finishes.
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        pool.submit([&jobs, &results, i] {
            results[i] = runJob(jobs[i]);
        });
    pool.wait();
    return results;
}

} // namespace runner
} // namespace kagura

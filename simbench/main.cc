/**
 * @file
 * simbench -- the simulator benchmark (see README.md beside this file).
 *
 *   simbench --workload cold_compressed|cold_raw|warm_replay
 *            --seed N --seconds S --trace 0|1 [--root DIR]
 *            [--apps A,B] [--reference FILE]
 *   simbench --write-reference FILE [--root DIR]
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 is the separate
 * traced run that yields the per-layer metrics. Either prints one
 * "metric <name> <value> <unit>" line per metric and, last, one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Exit status:
 * 0 measured (even with failed jobs, which the JSON reports), 1 a
 * reference could not be read, 2 bad arguments, 3 a workload reached a
 * layer it must bypass.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "core/workload.hh"
#include "jobs.hh"
#include "layers.hh"
#include "metrics/registry.hh"
#include "reference.hh"
#include "runner/cache_store.hh"
#include "runner/thread_pool.hh"
#include "sim/experiment.hh"

namespace fs = std::filesystem;
using namespace simbench;
using kagura::SimResult;
using kagura::runner::CacheStore;
using kagura::runner::JobOutcome;

namespace
{

/** Set-up is repeated this many times; setup_s is the median. */
constexpr unsigned setupReps = 3;
/**
 * At most this many runner workers (the sizing host's nproc) re-run
 * the parallel-determinism sample.
 */
constexpr unsigned maxWorkers = 4;
/**
 * warm_replay submits its job set this many times per pass, so a pass
 * times thousands of lookups rather than a thread-pool start-up.
 */
constexpr std::size_t warmRepeats = 20;
/**
 * Every timed pass, and warm_replay's cache population, runs on one
 * worker. With as many busy workers as CPUs, two busy threads of
 * another process on the host slowed a cold pass by 40%; at one worker
 * they slowed it by 4%. At two to four workers warm_replay's 60 us
 * lookups also stalled for up to 40 ms once or more per pass.
 */
constexpr unsigned timedWorkers = 1;
/** Every this-many jobs, one is re-run at N workers (1-vs-N check). */
constexpr std::size_t parallelCheckStride = 20;
/** The paper's Fig. 13 ACC+Kagura mean speedup, in %. */
constexpr double paperKaguraSpeedupPct = 4.74;

struct Options
{
    Workload workload = Workload::ColdCompressed;
    bool haveWorkload = false;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = ".";
    std::vector<std::string> apps;
    std::string reference;
    std::string writeReference;
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload cold_compressed|cold_raw|"
                 "warm_replay --seed N --seconds S --trace 0|1\n"
                 "                [--root DIR] [--apps A,B] "
                 "[--reference FILE]\n"
                 "       simbench --write-reference FILE [--root DIR]\n");
    return 2;
}

/** A whole decimal number that fits in 64 bits. */
bool
parseNumber(const char *text, std::uint64_t &out)
{
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            if (!parseWorkload(value, opt.workload))
                return false;
            opt.haveWorkload = true;
        } else if (arg == "--seed") {
            if (!parseNumber(value, opt.seed))
                return false;
        } else if (arg == "--seconds") {
            if (!parseNumber(value, n) || n == 0 || n > 3600)
                return false;
            opt.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                return false;
            opt.trace = value[0] == '1';
        } else if (arg == "--root") {
            opt.root = value;
        } else if (arg == "--apps") {
            std::string csv = value;
            std::size_t start = 0;
            while (start <= csv.size()) {
                const std::size_t comma = csv.find(',', start);
                const std::string app = csv.substr(
                    start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
                if (!kagura::workloadExists(app))
                    return false;
                opt.apps.push_back(app);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else if (arg == "--reference") {
            opt.reference = value;
        } else if (arg == "--write-reference") {
            opt.writeReference = value;
        } else {
            return false;
        }
    }
    return opt.haveWorkload || !opt.writeReference.empty();
}

/** Scratch directories under the checkout, removed on every exit. */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &root)
        : base(fs::path(root) / ".bench_build" /
               ("simbench-" + std::to_string(::getpid())))
    {
        fs::remove_all(base);
        fs::create_directories(base);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(base, ec);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    /** A fresh, empty result-cache directory. */
    std::string
    freshCache()
    {
        const fs::path dir = base / ("cache-" + std::to_string(next++));
        fs::create_directories(dir);
        return dir.string();
    }

  private:
    fs::path base;
    unsigned next = 0;
};

void
removeCache(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

/** One parallel pass of a job list through runJobDetailed. */
struct Pass
{
    double wall = 0.0;
    std::vector<JobOutcome> outcomes;
    std::vector<char> threw;

    double
    jobSeconds() const
    {
        double sum = 0.0;
        for (const JobOutcome &o : outcomes)
            sum += o.seconds;
        return sum;
    }
};

/**
 * Execute @p jobs over @p workers the way runner::runJobs does (one
 * ThreadPool, job i into slot i), keeping each job's JobOutcome.
 */
Pass
runPass(const std::vector<BenchJob> &jobs, unsigned workers)
{
    Pass pass;
    pass.outcomes.resize(jobs.size());
    pass.threw.assign(jobs.size(), 0);
    const double start = now();
    {
        kagura::runner::ThreadPool pool(workers);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            pool.submit([&jobs, &pass, i] {
                try {
                    pass.outcomes[i] =
                        kagura::runner::runJobDetailed(jobs[i].job);
                } catch (...) {
                    pass.threw[i] = 1;
                }
            });
        pool.wait();
    }
    pass.wall = now() - start;
    return pass;
}

std::vector<SimResult>
resultsOf(const Pass &pass)
{
    std::vector<SimResult> results;
    results.reserve(pass.outcomes.size());
    for (const JobOutcome &o : pass.outcomes)
        results.push_back(o.result);
    return results;
}

std::uint64_t
simulationsSoFar()
{
    return kagura::metrics::Registry::global()
        .counter("runner/simulations")
        .get();
}

/** Seed-paired Fig. 13 mean speedup of ACC+Kagura over the baseline. */
bool
kaguraSpeedup(const std::vector<BenchJob> &jobs,
              const std::vector<SimResult> &results, double &pct)
{
    kagura::SuiteResult base, kagura_suite;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        kagura::SuiteResult *suite =
            jobs[i].label == baselineLabel  ? &base
            : jobs[i].label == kaguraLabel ? &kagura_suite
                                           : nullptr;
        if (suite)
            suite->apps.push_back({jobs[i].app, {results[i]}});
    }
    if (base.apps.empty() || kagura_suite.apps.empty())
        return false;
    pct = kagura::meanSpeedupPct(kagura_suite, base);
    return true;
}

/** One named metric of the final report. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printReport(const std::vector<Metric> &metrics, std::uint64_t attempted,
            std::uint64_t failed)
{
    for (const Metric &m : metrics)
        std::printf("metric %-36s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("jobs_failed %" PRIu64 " of %" PRIu64 " attempted\n",
                failed, attempted);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Everything the workload runs share. */
struct Context
{
    Options opt;
    std::vector<std::string> apps;
    std::uint64_t traceSeed = 0;
    std::vector<BenchJob> jobs;
    unsigned workers = 1;
    WorkDir *work = nullptr;
    CacheStore *store = nullptr;
    /** Expected fingerprint per job (seed 0: the reference). */
    std::vector<std::uint64_t> expected;
    std::vector<char> haveExpected;
    /** Jobs found wrong by a whole-job check. */
    std::vector<char> badJob;
    /** Per-job executions and the ones whose result was wrong. */
    std::vector<std::uint64_t> execs;
    std::vector<std::uint64_t> execFailed;

    /** Set-up times and, for warm_replay, the populated cache. */
    std::vector<double> setupSeconds;
    std::string warmDir;
    std::vector<SimResult> warmResults;

    /**
     * Count one execution of job @p i; compare its result with the
     * job's expected fingerprint, adopting it when none is set yet.
     */
    void
    noteExecution(std::size_t i, const SimResult *result)
    {
        ++execs[i];
        if (!result) {
            ++execFailed[i];
            return;
        }
        const std::uint64_t fp = fingerprint(*result);
        if (!haveExpected[i]) {
            expected[i] = fp;
            haveExpected[i] = 1;
        } else if (fp != expected[i]) {
            std::fprintf(stderr,
                         "simbench: %s %s result differs from its "
                         "expected fingerprint\n",
                         jobs[i].app.c_str(), jobs[i].label.c_str());
            ++execFailed[i];
        }
    }

    /** Note a pass over @p jobs, or over jobs repeated in order. */
    void
    notePass(const Pass &pass)
    {
        for (std::size_t i = 0; i < pass.outcomes.size(); ++i)
            noteExecution(i % jobs.size(),
                          pass.threw[i] ? nullptr
                                        : &pass.outcomes[i].result);
    }

    std::uint64_t
    attempted() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t e : execs)
            n += e;
        return n;
    }

    std::uint64_t
    failed() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i)
            n += badJob[i] ? std::max<std::uint64_t>(execs[i], 1)
                           : execFailed[i];
        return n;
    }
};

/**
 * Load the seed-0 expectations: reference.txt for every job (a job
 * without a row fails) and the golden tables where they pin a job.
 * Returns false when a file cannot be read.
 */
bool
loadExpectations(Context &ctx, Pins &goldens)
{
    if (ctx.opt.seed != 0)
        return true;
    Pins reference;
    if (!loadReference(ctx.opt.reference, reference)) {
        std::fprintf(stderr, "simbench: cannot read reference %s\n",
                     ctx.opt.reference.c_str());
        return false;
    }
    const std::string data = ctx.opt.root + "/tests/data";
    if (!loadGoldens(data, ctx.apps, goldens)) {
        std::fprintf(stderr, "simbench: cannot read the golden tables "
                             "under %s\n",
                     data.c_str());
        return false;
    }
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
        const auto it = reference.find(jobHash(ctx.jobs[i]));
        if (it == reference.end()) {
            std::fprintf(stderr, "simbench: %s %s has no reference row\n",
                         ctx.jobs[i].app.c_str(),
                         ctx.jobs[i].label.c_str());
            ctx.badJob[i] = 1;
            continue;
        }
        ctx.expected[i] = it->second.fingerprint;
        ctx.haveExpected[i] = 1;
    }
    return true;
}

/** Golden-table check of one full result set (seed 0 only). */
void
checkGoldens(Context &ctx, const Pins &goldens,
             const std::vector<SimResult> &results)
{
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
        if (!matchesPins(goldens, ctx.jobs[i], results[i]))
            ctx.badJob[i] = 1;
    }
}

/**
 * Build every app's workload (rep 0 fills the process-wide memo the
 * simulator reads; later reps rebuild the same kernels) and, for
 * warm_replay, populate a fresh result cache with the job set.
 */
bool
setUp(Context &ctx, Tracer *tracer)
{
    for (unsigned rep = 0; rep < setupReps; ++rep) {
        const double start = now();
        for (const std::string &app : ctx.apps) {
            Span span(tracer, SpanId::WorkloadBuild);
            if (rep == 0)
                kagura::cachedWorkload(app);
            else
                kagura::makeWorkload(app);
        }
        Pass population;
        std::string dir;
        if (ctx.opt.workload == Workload::WarmReplay) {
            dir = ctx.work->freshCache();
            ctx.store->setDirectory(dir);
            population = runPass(ctx.jobs, timedWorkers);
        }
        ctx.setupSeconds.push_back(now() - start);
        if (ctx.opt.workload != Workload::WarmReplay)
            continue;
        ctx.notePass(population);
        for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
            if (population.outcomes[i].cacheHit) {
                std::fprintf(stderr, "simbench: set-up hit a populated "
                                     "cache\n");
                return false;
            }
        }
        if (rep + 1 < setupReps) {
            removeCache(dir);
        } else {
            ctx.warmDir = dir;
            ctx.warmResults = resultsOf(population);
        }
    }
    return true;
}

/**
 * Re-run every parallelCheckStride-th job as one pass at ctx.workers
 * with the result cache off; each must equal its one-worker result.
 */
void
checkParallelSample(Context &ctx, const std::vector<SimResult> &serial)
{
    std::vector<std::size_t> index;
    std::vector<BenchJob> sample;
    for (std::size_t i = 0; i < ctx.jobs.size(); i += parallelCheckStride) {
        index.push_back(i);
        sample.push_back(ctx.jobs[i]);
    }
    ctx.store->setEnabled(false);
    const Pass pass = runPass(sample, ctx.workers);
    ctx.store->setEnabled(true);
    for (std::size_t k = 0; k < index.size(); ++k) {
        const std::size_t i = index[k];
        if (pass.threw[k] || fingerprint(pass.outcomes[k].result) !=
                                 fingerprint(serial[i])) {
            std::fprintf(stderr,
                         "simbench: %s %s differs at %u workers vs 1\n",
                         ctx.jobs[i].app.c_str(),
                         ctx.jobs[i].label.c_str(), ctx.workers);
            ctx.badJob[i] = 1;
        }
    }
}

/**
 * Serve the job set again from the cache directory @p dir the cold
 * pass @p cold wrote; every job must hit and decode to its cold result
 * byte for byte.
 */
void
checkWarmEqualsCold(Context &ctx, const std::string &dir,
                    const std::vector<SimResult> &cold)
{
    ctx.store->setDirectory(dir);
    for (std::size_t i = 0; i < ctx.jobs.size(); ++i) {
        const JobOutcome warm =
            kagura::runner::runJobDetailed(ctx.jobs[i].job);
        if (!warm.cacheHit ||
            fingerprint(warm.result) != fingerprint(cold[i])) {
            std::fprintf(stderr,
                         "simbench: %s %s warm result differs from "
                         "cold\n",
                         ctx.jobs[i].app.c_str(),
                         ctx.jobs[i].label.c_str());
            ctx.badJob[i] = 1;
        }
    }
}

double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
printSpeedup(const Context &ctx, const std::vector<SimResult> &results)
{
    double pct = 0.0;
    if (!kaguraSpeedup(ctx.jobs, results, pct))
        return;
    std::printf("kagura_speedup_pct %.9f %% (simulated, seed-paired mean "
                "over %zu apps; paper +%.2f%%, model error %+.9f pp)\n",
                pct, ctx.apps.size(), paperKaguraSpeedupPct,
                pct - paperKaguraSpeedupPct);
}

/** --trace 0: the end-to-end metrics. */
int
measureEndToEnd(Context &ctx, const Pins &goldens)
{
    const bool cold = isCold(ctx.opt.workload);
    std::vector<double> walls, job_secs, minstr, tails, latencies_ms;
    std::vector<SimResult> first;
    std::string last_dir;
    std::size_t passes = 0;
    const std::size_t repeats = cold ? 1 : warmRepeats;
    const unsigned workers = timedWorkers;
    std::vector<BenchJob> batch;
    for (std::size_t r = 0; r < repeats; ++r)
        batch.insert(batch.end(), ctx.jobs.begin(), ctx.jobs.end());
    const double deadline = now() + ctx.opt.seconds;
    do {
        if (cold) {
            removeCache(last_dir);
            last_dir = ctx.work->freshCache();
            ctx.store->setDirectory(last_dir);
        }
        const std::uint64_t sims_before = simulationsSoFar();
        const Pass pass = runPass(batch, workers);
        const std::uint64_t sims = simulationsSoFar() - sims_before;
        ++passes;

        std::vector<double> ms;
        double instructions = 0.0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const JobOutcome &o = pass.outcomes[i];
            ms.push_back(o.seconds * 1e3);
            instructions +=
                static_cast<double>(o.result.committedInstructions);
            if (!pass.threw[i] && o.cacheHit == cold) {
                std::fprintf(stderr,
                             "simbench: %s %s was %s a cache hit\n",
                             batch[i].app.c_str(), batch[i].label.c_str(),
                             cold ? "unexpectedly" : "not");
                ++ctx.execFailed[i % ctx.jobs.size()];
            }
        }
        if (!cold && sims != 0) {
            std::fprintf(stderr,
                         "simbench: warm_replay ran %" PRIu64
                         " simulations; it must run none\n",
                         sims);
            return 3;
        }
        ctx.notePass(pass);
        walls.push_back(pass.wall);
        job_secs.push_back(pass.jobSeconds());
        minstr.push_back(instructions / pass.jobSeconds() / 1e6);
        latencies_ms.insert(latencies_ms.end(), ms.begin(), ms.end());
        // The tail: the latency with exactly ten jobs of the pass
        // beyond it (the pass's maximum when it has ten or fewer).
        std::sort(ms.begin(), ms.end());
        tails.push_back(ms[ms.size() > 10 ? ms.size() - 11 : ms.size() - 1]);
        if (cold && passes == 1)
            first = resultsOf(pass);
    } while (now() < deadline);

    // Every pass matched the first (notePass), so checking the first
    // covers them all.
    const std::vector<SimResult> &results = cold ? first : ctx.warmResults;
    if (cold)
        checkWarmEqualsCold(ctx, last_dir, results);
    checkParallelSample(ctx, results);
    if (ctx.opt.seed == 0)
        checkGoldens(ctx, goldens, results);

    const std::size_t n = batch.size();
    const double tail_pct =
        n > 10 ? 100.0 * static_cast<double>(n - 10) / n : 100.0;
    std::printf("simbench %s seed=%" PRIu64 " trace_seed=0x%" PRIx64
                " workers=%u jobs/pass=%zu passes=%zu\n",
                workloadName(ctx.opt.workload), ctx.opt.seed,
                ctx.traceSeed, workers, n, passes);
    std::printf("job_ms_tail is p%.2f of each pass (%zu jobs, 10 beyond "
                "it), median over %zu passes; job_ms_p50 pools %zu "
                "samples\n",
                tail_pct, n, passes, latencies_ms.size());
    if (ctx.opt.workload != Workload::ColdRaw)
        printSpeedup(ctx, results);
    printReport({{"wall_s", median(walls), "s"},
                 {"job_s", median(job_secs), "s"},
                 {"sim_minstr_per_s", median(minstr), "Minstr/s"},
                 {"job_ms_p50", median(latencies_ms), "ms"},
                 {"job_ms_tail", median(tails), "ms"},
                 {"setup_s", median(ctx.setupSeconds), "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}},
                ctx.attempted(), ctx.failed());
    return 0;
}

/** Mean of a span's calls in @p scale units (ns = 1). */
double
perCall(const SpanStats &s, double scale, bool self = false)
{
    return ratio(static_cast<double>(self ? s.selfNs() : s.totalNs),
                 static_cast<double>(s.calls)) /
           scale;
}

/** --trace 1: the per-layer metrics. */
int
measureLayers(Context &ctx, Tracer &tracer, const Pins &goldens)
{
    const bool cold = isCold(ctx.opt.workload);
    const std::size_t n = ctx.jobs.size();

    // One untraced pass at the timed run's worker count: the results
    // every traced job must reproduce, and the workers' idle time.
    std::string dir = cold ? ctx.work->freshCache() : ctx.warmDir;
    ctx.store->setDirectory(dir);
    const std::uint64_t sims_at_start = simulationsSoFar();
    const unsigned workers = timedWorkers;
    const Pass pass = runPass(ctx.jobs, workers);
    ctx.notePass(pass);
    const std::vector<SimResult> results = resultsOf(pass);
    const double idle_worker_s = workers * pass.wall - pass.jobSeconds();
    if (cold)
        removeCache(dir);
    if (ctx.opt.seed == 0)
        checkGoldens(ctx, goldens, results);
    if (ctx.opt.workload == Workload::ColdRaw) {
        for (const SimResult &r : results) {
            if (r.compressions() != 0 || r.l2cache.compressions != 0) {
                std::fprintf(stderr, "simbench: cold_raw compressed a "
                                     "block; it must never compress\n");
                return 3;
            }
        }
    }

    // Fixed samples: a quarter of a cold job set for the runner/sim
    // spans and half of those for the memory-path replay; every job
    // of warm_replay (lookups are cheap).
    const std::size_t stride = cold ? 4 : 1;
    std::vector<std::size_t> sample, replay_sample;
    for (std::size_t i = 0; i < n; i += stride) {
        if (cold && sample.size() % 2 == 0)
            replay_sample.push_back(i);
        sample.push_back(i);
    }

    ReplayCounts counts;
    std::uint64_t lookups = 0, hits = 0, sim_runs = 0;
    double untraced_s = 0.0, traced_s = 0.0;
    double replay_untraced_s = 0.0, replay_traced_s = 0.0;
    double unattributed_ms = 0.0;
    std::size_t unattributed_n = 0, rounds = 0;
    std::vector<double> run_ms(n, 0.0);

    const auto untraced_round = [&] {
        dir = cold ? ctx.work->freshCache() : ctx.warmDir;
        ctx.store->setDirectory(dir);
        const double start = now();
        std::vector<SimResult> got;
        for (std::size_t i : sample)
            got.push_back(
                kagura::runner::runJobDetailed(ctx.jobs[i].job).result);
        untraced_s += now() - start;
        for (std::size_t k = 0; k < sample.size(); ++k)
            ctx.noteExecution(sample[k], &got[k]);
        if (cold)
            removeCache(dir);
    };
    const auto traced_round = [&] {
        dir = cold ? ctx.work->freshCache() : ctx.warmDir;
        ctx.store->setDirectory(dir);
        std::vector<TracedJob> got;
        const double start = now();
        for (std::size_t i : sample)
            got.push_back(runTracedJob(ctx.jobs[i].job, *ctx.store, tracer));
        traced_s += now() - start;
        for (std::size_t k = 0; k < sample.size(); ++k) {
            ++lookups;
            hits += got[k].cacheHit ? 1 : 0;
            sim_runs += got[k].cacheHit ? 0 : 1;
            run_ms[sample[k]] = got[k].runMs;
            ctx.noteExecution(sample[k], &got[k].result);
        }
        if (cold)
            removeCache(dir);
    };
    const auto replay_round = [&] {
        for (std::size_t i : replay_sample) {
            ReplayCounts discard;
            double start = now();
            replayMemoryPath(ctx.jobs[i].job, results[i], nullptr, discard);
            const double untraced = now() - start;
            replay_untraced_s += untraced;
            start = now();
            replayMemoryPath(ctx.jobs[i].job, results[i], &tracer, counts);
            replay_traced_s += now() - start;
            // The untraced replay prices the memory path without the
            // spans' own clock reads.
            unattributed_ms += run_ms[i] - untraced * 1e3;
            ++unattributed_n;
        }
    };

    const double deadline = now() + ctx.opt.seconds;
    do {
        // Alternate which twin runs first so drift favours neither.
        if (rounds % 2 == 0) {
            untraced_round();
            traced_round();
        } else {
            traced_round();
            untraced_round();
        }
        replay_round();
        ++rounds;
    } while (now() < deadline);

    // Layer-bypass assertions: a workload meant to skip a layer
    // provably does, or the run fails loudly.
    std::uint64_t probes = 0;
    for (std::uint64_t p : counts.probes)
        probes += p;
    if (ctx.opt.workload == Workload::ColdRaw && probes != 0) {
        std::fprintf(stderr,
                     "simbench: cold_raw made %" PRIu64
                     " compressor calls; it must make none\n",
                     probes);
        return 3;
    }
    const std::uint64_t warm_sims = simulationsSoFar() - sims_at_start;
    if (!cold && (sim_runs != 0 || warm_sims != 0)) {
        std::fprintf(stderr,
                     "simbench: warm_replay made %" PRIu64
                     " Simulator::run calls; it must make none\n",
                     sim_runs + warm_sims);
        return 3;
    }
    const double hit_ratio = ratio(hits, lookups);
    if (hit_ratio != (cold ? 0.0 : 1.0)) {
        std::fprintf(stderr, "simbench: result-cache hit ratio %.6f on "
                             "%s\n",
                     hit_ratio, workloadName(ctx.opt.workload));
        return 3;
    }
    if (counts.roundTripFailures) {
        std::fprintf(stderr,
                     "simbench: %" PRIu64
                     " probed blocks failed the round trip\n",
                     counts.roundTripFailures);
    }

    double failures = 0.0, minstr = 0.0;
    for (std::size_t i : sample) {
        failures += static_cast<double>(results[i].powerFailures);
        minstr += static_cast<double>(results[i].committedInstructions) /
                  1e6;
    }

    std::printf("simbench %s seed=%" PRIu64 " trace_seed=0x%" PRIx64
                " traced: %zu rounds x %zu jobs at 1 worker, replay %zu "
                "jobs per round\n",
                workloadName(ctx.opt.workload), ctx.opt.seed,
                ctx.traceSeed, rounds, sample.size(),
                replay_sample.size());
    std::printf("sim.unattributed_ms is a difference of two runs: "
                "Simulator::run minus the untraced memory-path replay, "
                "same jobs\n");

    const double kop = static_cast<double>(counts.memOps) / 1e3;
    std::vector<Metric> metrics = {
        {"runner.key_us", perCall(tracer[SpanId::Key], 1e3), "us"},
        {"runner.cache_store.lookup_us",
         perCall(tracer[SpanId::Lookup], 1e3), "us"},
        {"runner.cache_store.store_us", perCall(tracer[SpanId::Store], 1e3),
         "us"},
        {"runner.result_codec.encode_us",
         perCall(tracer[SpanId::Encode], 1e3), "us"},
        {"runner.result_codec.decode_us",
         perCall(tracer[SpanId::Decode], 1e3), "us"},
        {"runner.cache_store.hit_ratio", hit_ratio, "ratio"},
        {"runner.idle_worker_s", idle_worker_s, "s"},
        {"sim.setup_ms", perCall(tracer[SpanId::SimSetup], 1e6), "ms"},
        {"sim.run_ms", perCall(tracer[SpanId::SimRun], 1e6), "ms"},
        {"sim.run_calls", static_cast<double>(sim_runs), "count"},
        {"sim.power_failures_per_minstr", ratio(failures, minstr),
         "1/Minstr"},
        {"sim.unattributed_ms", ratio(unattributed_ms, unattributed_n),
         "ms"},
        {"core.workload_build_ms",
         perCall(tracer[SpanId::WorkloadBuild], 1e6), "ms"},
        {"cache.access_ns", perCall(tracer[SpanId::CacheAccess], 1, true),
         "ns"},
        {"cache.flush_us", perCall(tracer[SpanId::CacheFlush], 1e3), "us"},
        {"cache.hit_ratio", ratio(counts.replayHits, counts.replayAccesses),
         "ratio"},
        {"cache.sim_hit_ratio", ratio(counts.simHits, counts.simAccesses),
         "ratio"},
    };
    for (int a = 0; a < 3; ++a) {
        const std::string p =
            std::string("compress.") + compressorNames[a] + ".";
        const SpanStats &probe = tracer[algSpan(SpanId::ProbeBdi, a)];
        const SpanStats &comp = tracer[algSpan(SpanId::CompressBdi, a)];
        const SpanStats &decomp = tracer[algSpan(SpanId::DecompressBdi, a)];
        const double alg_kop =
            static_cast<double>(counts.compressorMemOps[a]) / 1e3;
        metrics.push_back({p + "size_probe_ns", perCall(probe, 1), "ns"});
        metrics.push_back({p + "compress_ns", perCall(comp, 1), "ns"});
        metrics.push_back({p + "decompress_ns", perCall(decomp, 1), "ns"});
        metrics.push_back(
            {p + "bytes_per_s",
             ratio(static_cast<double>(counts.probeBytes[a]),
                   static_cast<double>(probe.totalNs) / 1e9),
             "B/s"});
        metrics.push_back(
            {p + "probes_per_kop",
             ratio(static_cast<double>(counts.probes[a]), alg_kop),
             "1/kop"});
        metrics.push_back(
            {p + "useful_ratio",
             ratio(static_cast<double>(counts.usefulProbes[a]),
                   static_cast<double>(counts.probes[a])),
             "ratio"});
    }
    const SpanStats &kag = tracer[SpanId::Kagura];
    metrics.insert(
        metrics.end(),
        {
            {"mem.fetch_ns", perCall(tracer[SpanId::MemFetch], 1), "ns"},
            {"mem.absorb_ns", perCall(tracer[SpanId::MemAbsorb], 1), "ns"},
            {"mem.bytes_per_kop",
             ratio(static_cast<double>(counts.memBytes), kop), "B/kop"},
            {"kagura.govern_ns", perCall(kag, 1, true), "ns"},
            {"kagura.calls_per_kop",
             ratio(static_cast<double>(kag.calls),
                   static_cast<double>(counts.kaguraMemOps) / 1e3),
             "1/kop"},
            {"kagura.veto_ratio",
             ratio(static_cast<double>(counts.kaguraVetoes),
                   static_cast<double>(counts.kaguraDecisions)),
             "ratio"},
            {"acc.govern_ns", perCall(tracer[SpanId::Acc], 1, true), "ns"},
            {"trace_overhead_pct", 100.0 * (ratio(traced_s, untraced_s) - 1.0),
             "%"},
            {"replay.trace_overhead_pct",
             cold ? 100.0 * (ratio(replay_traced_s, replay_untraced_s) - 1.0)
                  : 0.0,
             "%"},
        });
    const std::uint64_t failed = ctx.failed() + counts.roundTripFailures;
    printReport(metrics, ctx.attempted(), failed);
    return 0;
}

/** --write-reference: fingerprint both cold job sets at seed 0. */
int
writeReferenceFile(Context &ctx)
{
    std::vector<BenchJob> all;
    for (Workload w : {Workload::ColdCompressed, Workload::ColdRaw}) {
        std::vector<BenchJob> jobs = makeJobs(w, ctx.apps, traceSeedFor(0));
        all.insert(all.end(), jobs.begin(), jobs.end());
    }
    ctx.store->setEnabled(false);
    const Pass pass = runPass(all, ctx.workers);
    for (char threw : pass.threw) {
        if (threw)
            return 1;
    }
    const std::vector<SimResult> results = resultsOf(pass);
    Pins goldens;
    if (!loadGoldens(ctx.opt.root + "/tests/data", ctx.apps, goldens))
        return 1;
    bool agree = true;
    for (std::size_t i = 0; i < all.size(); ++i)
        agree = matchesPins(goldens, all[i], results[i]) && agree;
    if (!agree) {
        std::fprintf(stderr, "simbench: results disagree with the golden "
                             "tables; reference not written\n");
        return 1;
    }
    if (!writeReference(ctx.opt.writeReference, all, results))
        return 1;
    std::printf("wrote %zu reference rows to %s\n", all.size(),
                ctx.opt.writeReference.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    kagura::informEnabled = false;
    Context ctx;
    if (!parseOptions(argc, argv, ctx.opt))
        return usage();
    if (ctx.opt.reference.empty())
        ctx.opt.reference = ctx.opt.root + "/simbench/reference.txt";
    ctx.apps = ctx.opt.apps.empty() ? kagura::workloadNames() : ctx.opt.apps;
    ctx.traceSeed = traceSeedFor(ctx.opt.seed);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ctx.workers = std::min(maxWorkers, hw);

    WorkDir work(ctx.opt.root);
    ctx.work = &work;
    ctx.store = &CacheStore::global();
    ctx.store->setEnabled(true);
    if (!ctx.opt.writeReference.empty())
        return writeReferenceFile(ctx);

    ctx.jobs = makeJobs(ctx.opt.workload, ctx.apps, ctx.traceSeed);
    const std::size_t n = ctx.jobs.size();
    ctx.expected.assign(n, 0);
    ctx.haveExpected.assign(n, 0);
    ctx.badJob.assign(n, 0);
    ctx.execs.assign(n, 0);
    ctx.execFailed.assign(n, 0);
    Pins goldens;
    if (!loadExpectations(ctx, goldens))
        return 1;

    Tracer tracer;
    Tracer *t = ctx.opt.trace ? &tracer : nullptr;
    if (!setUp(ctx, t))
        return 1;
    if (ctx.opt.seed == 0 && !ctx.warmResults.empty())
        checkGoldens(ctx, goldens, ctx.warmResults);
    return ctx.opt.trace ? measureLayers(ctx, tracer, goldens)
                         : measureEndToEnd(ctx, goldens);
}

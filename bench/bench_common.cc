#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "metrics/registry.hh"
#include "metrics/sink.hh"
#include "runner/cache_store.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "trace/trace_workload.hh"

namespace kagura
{
namespace bench
{

namespace
{

/**
 * Final telemetry, registered atexit so it lands after the tables:
 * the human-readable [runner] line, and -- when a metrics sink is
 * attached -- the runner headlines plus the full global registry as
 * schema-stable records.
 */
void
printTelemetry()
{
    runner::printSummary(stdout, runner::jobCount());
    metrics::Sink *sink = metrics::defaultSink();
    if (!sink)
        return;
    const runner::TelemetrySnapshot t = runner::progress().snapshot();
    metrics::emitHeadline("runner/jobs_done",
                          static_cast<double>(t.jobsDone));
    metrics::emitHeadline("runner/simulations",
                          static_cast<double>(t.simulations));
    metrics::emitHeadline("runner/cache_hits",
                          static_cast<double>(t.cacheHits));
    metrics::emitHeadline("runner/cache_misses",
                          static_cast<double>(t.cacheMisses));
    metrics::emitHeadline("runner/cache_hit_rate", t.hitRate());
    metrics::emitHeadline("runner/job_seconds", t.jobSeconds);
    metrics::emitHeadline("runner/threads",
                          static_cast<double>(runner::jobCount()));
    metrics::emitRegistry(metrics::Registry::global());
    sink->flush();
}

} // namespace

void
emitCell(const char *name, const std::string &app,
         const std::string &config, double value)
{
    metrics::Record rec;
    rec.kind = metrics::RecordKind::Gauge;
    rec.name = name;
    rec.labels = {{"app", app}, {"config", config}};
    rec.value = value;
    metrics::emitRecord(std::move(rec));
}

double
speedupGeomean(const SuiteResult &cfg, const SuiteResult &baseline)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const AppResult &entry : baseline.apps) {
        const double ratio =
            1.0 + speedupPct(cfg.forApp(entry.app), entry) / 100.0;
        if (ratio <= 0.0)
            continue; // degenerate; keep the geomean defined
        log_sum += std::log(ratio);
        ++n;
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 1.0;
}

namespace
{

/** Mean-over-runs total energy (pJ) summed over a suite's apps. */
double
suiteEnergyPj(const SuiteResult &suite)
{
    double total = 0.0;
    for (const AppResult &entry : suite.apps) {
        double app_sum = 0.0;
        for (const SimResult &run : entry.runs)
            app_sum += run.ledger.grandTotal();
        if (!entry.runs.empty())
            total += app_sum / static_cast<double>(entry.runs.size());
    }
    return total;
}

} // namespace

std::vector<std::string>
parseAppList(const std::string &csv)
{
    std::vector<std::string> apps;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        const std::string name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (!workloadExists(name))
            fatal("unknown workload '%s' in app selection; %s",
                  name.c_str(), knownWorkloadsSummary().c_str());
        apps.push_back(name);
    }
    if (apps.empty())
        fatal("empty app selection; %s",
              knownWorkloadsSummary().c_str());
    return apps;
}

void
init(int argc, char **argv)
{
    std::string metrics_out;
    std::string apps_csv;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg);
            return argv[++i];
        };
        if (std::strcmp(arg, "--jobs") == 0) {
            const long n = std::strtol(value(), nullptr, 10);
            if (n < 1)
                fatal("--jobs wants an integer >= 1");
            runner::setJobCount(static_cast<unsigned>(n));
        } else if (std::strcmp(arg, "--repeats") == 0) {
            const long n = std::strtol(value(), nullptr, 10);
            if (n < 1)
                fatal("--repeats wants an integer >= 1");
            suiteRepeats = static_cast<unsigned>(n);
        } else if (std::strcmp(arg, "--no-cache") == 0) {
            runner::CacheStore::global().setEnabled(false);
        } else if (std::strcmp(arg, "--metrics-out") == 0) {
            metrics_out = value();
        } else if (std::strcmp(arg, "--metrics-timeseries") == 0) {
            metrics::setTimeseriesEnabled(true);
        } else if (std::strcmp(arg, "--apps") == 0) {
            apps_csv = value();
        } else if (std::strcmp(arg, "--daemon") == 0) {
            // Every run is in-process. "--daemon off" stays accepted,
            // as a no-op, for callers written when it chose that.
            if (std::strcmp(value(), "off") != 0)
                fatal("--daemon takes only 'off': every run is "
                      "in-process");
        } else if (std::strcmp(arg, "--register-trace") == 0) {
            const std::string spec = value();
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == spec.size())
                fatal("--register-trace wants NAME=FILE, got '%s'",
                      spec.c_str());
            trace::registerTraceFile(spec.substr(0, eq),
                                     spec.substr(eq + 1));
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("usage: %s [--jobs N] [--repeats N] "
                        "[--no-cache] [--metrics-out PATH] "
                        "[--metrics-timeseries] "
                        "[--register-trace NAME=FILE] [--apps A,B,...]\n",
                        argv[0]);
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (bench binaries take --jobs N, "
                  "--repeats N, --no-cache, --metrics-out PATH, "
                  "--metrics-timeseries, --register-trace NAME=FILE, "
                  "--apps A,B,...)",
                  arg);
        }
    }
    if (apps_csv.empty()) {
        if (const char *env = std::getenv("KAGURA_APPS"))
            apps_csv = env;
    }
    if (!apps_csv.empty())
        setSuiteApps(parseAppList(apps_csv));
    if (metrics_out.empty()) {
        if (const char *env = std::getenv("KAGURA_METRICS_OUT"))
            metrics_out = env;
    }
    if (const char *env = std::getenv("KAGURA_METRICS_TIMESERIES")) {
        if (std::strcmp(env, "0") != 0 && std::strcmp(env, "off") != 0)
            metrics::setTimeseriesEnabled(true);
    }
    if (!metrics_out.empty()) {
        auto sink = metrics::openSink(metrics_out);
        if (!sink)
            fatal("cannot open metrics output '%s'",
                  metrics_out.c_str());
        // Every record from this process carries the bench identity.
        const char *slash = std::strrchr(argv[0], '/');
        metrics::defaultLabels()["bench"] = slash ? slash + 1 : argv[0];
        metrics::setDefaultSink(std::move(sink));
    }
    std::atexit(printTelemetry);
}

void
banner(const std::string &experiment_id, const std::string &title,
       const std::string &paper_summary)
{
    // Bench binaries run quiet: status chatter would drown the tables.
    informEnabled = false;
    std::printf("\n==============================================="
                "=========================\n");
    std::printf("%s -- %s\n", experiment_id.c_str(), title.c_str());
    std::printf("Paper reports: %s\n", paper_summary.c_str());
    std::printf("================================================"
                "========================\n");
}

void
printSpeedupTable(const SuiteResult &baseline,
                  const std::vector<SuiteResult> &configs)
{
    TextTable table;
    std::vector<std::string> header = {"app"};
    for (const SuiteResult &cfg : configs)
        header.push_back(cfg.label);
    table.setHeader(header);

    for (const AppResult &entry : baseline.apps) {
        std::vector<std::string> row = {entry.app};
        for (const SuiteResult &cfg : configs)
            row.push_back(
                TextTable::pct(speedupPct(cfg.forApp(entry.app), entry)));
        table.addRow(row);
    }
    std::vector<std::string> avg = {"AVERAGE"};
    for (const SuiteResult &cfg : configs)
        avg.push_back(TextTable::pct(meanSpeedupPct(cfg, baseline)));
    table.addRow(avg);
    table.print();

    if (!metrics::defaultSink())
        return;
    for (const SuiteResult &cfg : configs) {
        for (const AppResult &entry : baseline.apps)
            emitCell("bench/speedup_pct", entry.app, cfg.label,
                     speedupPct(cfg.forApp(entry.app), entry));
        metrics::emitHeadline("bench/speedup_avg_pct",
                              meanSpeedupPct(cfg, baseline),
                              {{"config", cfg.label}});
        metrics::emitHeadline("bench/speedup_geomean",
                              speedupGeomean(cfg, baseline),
                              {{"config", cfg.label}});
    }
}

void
printEnergyTable(const SuiteResult &baseline,
                 const std::vector<SuiteResult> &configs)
{
    TextTable table;
    std::vector<std::string> header = {"app"};
    for (const SuiteResult &cfg : configs)
        header.push_back(cfg.label + " dE");
    table.setHeader(header);

    for (const AppResult &entry : baseline.apps) {
        std::vector<std::string> row = {entry.app};
        for (const SuiteResult &cfg : configs)
            row.push_back(TextTable::pct(
                energyDeltaPct(cfg.forApp(entry.app), entry)));
        table.addRow(row);
    }
    std::vector<std::string> avg = {"AVERAGE"};
    for (const SuiteResult &cfg : configs)
        avg.push_back(TextTable::pct(meanEnergyDeltaPct(cfg, baseline)));
    table.addRow(avg);
    table.print();

    if (!metrics::defaultSink())
        return;
    metrics::emitHeadline("bench/energy_total_pj",
                          suiteEnergyPj(baseline),
                          {{"config", baseline.label}});
    for (const SuiteResult &cfg : configs) {
        for (const AppResult &entry : baseline.apps)
            emitCell("bench/energy_delta_pct", entry.app, cfg.label,
                     energyDeltaPct(cfg.forApp(entry.app), entry));
        metrics::emitHeadline("bench/energy_delta_avg_pct",
                              meanEnergyDeltaPct(cfg, baseline),
                              {{"config", cfg.label}});
        metrics::emitHeadline("bench/energy_total_pj",
                              suiteEnergyPj(cfg),
                              {{"config", cfg.label}});
    }
}

const std::vector<std::string> &
sweepApps()
{
    static const std::vector<std::string> apps = {
        "adpcm_d", "blowfish", "crc32",  "fft",
        "g721d",   "jpegd",    "susans", "typeset",
    };
    return apps;
}

} // namespace bench
} // namespace kagura

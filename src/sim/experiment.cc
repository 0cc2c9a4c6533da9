#include "sim/experiment.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runner/env.hh"
#include "runner/runner.hh"
#include "sim/config_fields.hh"

namespace kagura
{

// Process-wide mutable state: read on the main thread when a suite's
// job list is built, never from runner workers; benches may assign it
// before their sweeps (the KAGURA_REPEATS env is applied once here,
// at static initialisation, so cheap 1-seed smoke sweeps need no
// recompile).
unsigned suiteRepeats = runner::envCount("KAGURA_REPEATS", 5);

std::uint64_t
suiteSeed(unsigned index)
{
    return mixSeeds(0x6b616775, index * 7919 + 1);
}

// Process-wide mutable state, same discipline as suiteRepeats: set by
// the harness before sweeps start, read on the submitting thread only.
static std::vector<std::string> suiteAppsOverride;

const std::vector<std::string> &
suiteApps()
{
    return suiteAppsOverride.empty() ? workloadNames()
                                     : suiteAppsOverride;
}

void
setSuiteApps(std::vector<std::string> apps)
{
    for (const std::string &app : apps) {
        if (!workloadExists(app))
            fatal("unknown workload '%s' in suite selection; %s",
                  app.c_str(), knownWorkloadsSummary().c_str());
    }
    suiteAppsOverride = std::move(apps);
}

const AppResult &
SuiteResult::forApp(const std::string &app) const
{
    for (const AppResult &entry : apps) {
        if (entry.app == app)
            return entry;
    }
    fatal("suite '%s' has no result for app '%s'", label.c_str(),
          app.c_str());
}

SimConfig
baselineConfig(const std::string &workload)
{
    SimConfig cfg;
    cfg.workload = workload;
    return cfg;
}

SimConfig
accConfig(const std::string &workload)
{
    SimConfig cfg = baselineConfig(workload);
    cfg.governor = GovernorKind::Acc;
    cfg.compressor = CompressorKind::Bdi;
    return cfg;
}

SimConfig
accKaguraConfig(const std::string &workload)
{
    SimConfig cfg = accConfig(workload);
    cfg.enableKagura = true;
    return cfg;
}

std::vector<NamedConfig>
axisSampleConfigs(const std::string &trace_workload)
{
    std::vector<NamedConfig> out;
    const SimConfig base = accKaguraConfig("crc32");
    auto add = [&out](std::string label, SimConfig config) {
        out.push_back({std::move(label), std::move(config)});
    };
    // One row per value of a named enum axis, labelled "key=Name".
    auto axis = [&]<typename E>(const char *key,
                                void (*set)(SimConfig &, E)) {
        for (E value : EnumNames<E>::values()) {
            SimConfig config = base;
            set(config, value);
            add(std::string(key) + "=" + EnumNames<E>::name(value),
                config);
        }
    };

    add("baseline", baselineConfig("crc32"));
    add("acc+kagura", base);
    axis("governor", +[](SimConfig &c, GovernorKind v) { c.governor = v; });
    axis("compressor",
         +[](SimConfig &c, CompressorKind v) { c.compressor = v; });
    axis("ehs", +[](SimConfig &c, EhsKind v) { c.ehs = v; });
    axis("nvm.type", +[](SimConfig &c, NvmType v) { c.nvmType = v; });
    axis("trace.kind", +[](SimConfig &c, TraceKind v) { c.trace = v; });
    axis("replacement", +[](SimConfig &c, ReplKind v) {
        c.icache.replacement = v;
        c.dcache.replacement = v;
    });
    axis("tag_layout", +[](SimConfig &c, TagLayoutKind v) {
        c.icache.tagLayout = v;
        c.dcache.tagLayout = v;
    });
    axis("kagura.scheme",
         +[](SimConfig &c, AdaptScheme v) { c.kagura.scheme = v; });
    axis("kagura.trigger",
         +[](SimConfig &c, TriggerKind v) { c.kagura.trigger = v; });
    for (OracleMode mode :
         {OracleMode::Off, OracleMode::Record, OracleMode::Replay}) {
        SimConfig config = base;
        config.oracle = mode;
        add("oracle.mode=" + std::to_string(static_cast<int>(mode)),
            config);
    }

    // One row per shape that switches optional key lines on.
    auto shape = [&](const char *label, void (*set)(SimConfig &)) {
        SimConfig config = base;
        set(config);
        add(label, config);
    };
    shape("dcache.sig_bits=10", [](SimConfig &c) {
        c.dcache.tagLayout = TagLayoutKind::Signature;
        c.dcache.sigBits = 10;
    });
    SimConfig hier = base;
    hier.enableL2 = true;
    hier.l2Governor = GovernorKind::Acc;
    hier.l2Kagura = true;
    add("l2=1024x4:acc+kagura", hier);
    hier.l2.sizeBytes = 2048;
    hier.l2.ways = 8;
    hier.l2.tagLayout = TagLayoutKind::Signature;
    hier.l2.sigBits = 8;
    add("l2=2048x8:acc+kagura/signature/sig_bits=8", hier);
    shape("decay", [](SimConfig &c) { c.enableDecay = true; });
    shape("prefetch", [](SimConfig &c) { c.enablePrefetch = true; });
    shape("infinite_energy", [](SimConfig &c) { c.infiniteEnergy = true; });
    shape("io_region", [](SimConfig &c) {
        c.ioRegionInterval = 1000;
        c.ioRegionLength = 64;
    });

    // Every remaining field off its default at once.
    SimConfig config = accKaguraConfig("fft");
    config.compressor = CompressorKind::Fvc;
    config.ehs = EhsKind::SweepCache;
    config.nvmType = NvmType::SttRam;
    config.nvmBytes = 8ull * 1024 * 1024;
    config.trace = TraceKind::Thermal;
    config.traceSeed = 77;
    config.traceScale = 1.75;
    config.traceIntervals = 1234;
    config.dcache.replacement = ReplKind::Fifo;
    config.dcache.ways = 4;
    config.icache.sizeBytes = 512;
    config.icache.blockSize = 64;
    config.icache.segmentBytes = 16;
    config.kagura.scheme = AdaptScheme::Mimd;
    config.kagura.trigger = TriggerKind::Voltage;
    config.kagura.counterBits = 3;
    config.kagura.historyDepth = 2;
    config.kagura.increaseStep = 12.5;
    config.kagura.initialThreshold = 48;
    config.kagura.rewardBand = 0.3;
    config.kagura.voltageTriggerFraction = 0.5;
    config.kagura.applyAdjustment = false;
    config.kagura.adaptiveThreshold = false;
    config.enableDecay = true;
    config.decay.decayInterval = 900;
    config.enablePrefetch = true;
    config.capacitor.capacitance = 10e-6;
    config.capacitor.vMax = 3.6;
    config.capacitor.vRestore = 3.1;
    config.capacitor.vCheckpoint = 2.3;
    config.capacitor.vShutdown = 1.9;
    config.capacitor.leakagePerFarad = 1e-3;
    config.energy.clockHz = 100e6;
    config.energy.corePerInstr *= 1.5;
    config.energy.coreLeakage *= 1.5;
    config.energy.cacheAccess *= 1.5;
    config.energy.cacheLeakagePerByte *= 1.5;
    config.energy.nvffWrite *= 1.5;
    config.energy.nvffRead *= 1.5;
    config.energy.monitorSample *= 1.5;
    config.energy.extendedMonitorSample *= 1.5;
    config.energy.rebootLatency += 7;
    config.energy.rebootEnergy *= 1.5;
    config.energy.compactionEnergy *= 1.5;
    config.energy.traceInterval *= 2;
    config.ioRegionInterval = 1000;
    config.ioRegionLength = 64;
    config.oracle = OracleMode::Record;
    add("heavily-non-default", config);

    add("trace-workload", accKaguraConfig(trace_workload));
    return out;
}

/**
 * Translate the suite-runner oracle convention into a runner job:
 * OracleMode::Record marks the intermittence-aware ideal and Replay
 * the infinite-energy phase-1 variant; both run two-phase as a single
 * job carrying the oracle-free base config.
 */
static runner::SimJob
suiteJob(SimConfig cfg)
{
    runner::SimJob job;
    if (cfg.oracle != OracleMode::Off) {
        job.kind = cfg.oracle == OracleMode::Record
                       ? runner::SimJob::Kind::IdealAware
                       : runner::SimJob::Kind::IdealUnaware;
        cfg.oracle = OracleMode::Off;
        cfg.oracleLog = nullptr;
    }
    job.config = std::move(cfg);
    return job;
}

SuiteResult
runSuite(const std::string &label,
         const std::function<SimConfig(const std::string &)> &make,
         const std::vector<std::string> &apps)
{
    // Build the full (app x seed) job list up front, then let the
    // runner execute it in parallel. Aggregation is index-based --
    // job (a, rep) lands in apps[a].runs[rep] -- so the SuiteResult
    // is bit-identical whatever the worker count.
    const unsigned repeats = suiteRepeats;
    std::vector<runner::SimJob> jobs;
    jobs.reserve(apps.size() * repeats);
    for (const std::string &app : apps) {
        for (unsigned rep = 0; rep < repeats; ++rep) {
            SimConfig cfg = make(app);
            cfg.traceSeed = suiteSeed(rep);
            jobs.push_back(suiteJob(std::move(cfg)));
        }
    }
    std::vector<SimResult> results = runner::runJobs(jobs);

    SuiteResult suite;
    suite.label = label;
    suite.apps.reserve(apps.size());
    std::size_t next = 0;
    for (const std::string &app : apps) {
        AppResult entry;
        entry.app = app;
        entry.runs.reserve(repeats);
        for (unsigned rep = 0; rep < repeats; ++rep)
            entry.runs.push_back(std::move(results[next++]));
        suite.apps.push_back(std::move(entry));
    }
    return suite;
}

SimResult
runIdealOnce(SimConfig base, bool intermittence_aware)
{
    // Phase 1: record per-block compression outcomes.
    SimConfig record = base;
    record.oracle = OracleMode::Record;
    record.infiniteEnergy = !intermittence_aware;
    Simulator phase1(record);
    const SimResult recorded = phase1.run();

    // Phase 2: replay with the log vetoing useless compressions.
    SimConfig replay = base;
    replay.oracle = OracleMode::Replay;
    replay.oracleLog = &recorded.oracle;
    Simulator phase2(replay);
    return phase2.run();
}

std::vector<SimResult>
runIdeal(SimConfig base, bool intermittence_aware)
{
    const unsigned repeats = suiteRepeats;
    std::vector<runner::SimJob> jobs;
    jobs.reserve(repeats);
    for (unsigned rep = 0; rep < repeats; ++rep) {
        runner::SimJob job;
        job.kind = intermittence_aware
                       ? runner::SimJob::Kind::IdealAware
                       : runner::SimJob::Kind::IdealUnaware;
        job.config = base;
        job.config.traceSeed = suiteSeed(rep);
        jobs.push_back(std::move(job));
    }
    return runner::runJobs(jobs);
}

double
speedupPct(const SimResult &config, const SimResult &baseline)
{
    kagura_assert(config.wallCycles > 0);
    return (static_cast<double>(baseline.wallCycles) /
                static_cast<double>(config.wallCycles) -
            1.0) *
           100.0;
}

double
energyDeltaPct(const SimResult &config, const SimResult &baseline)
{
    const double base = baseline.ledger.grandTotal();
    kagura_assert(base > 0.0);
    return (config.ledger.grandTotal() / base - 1.0) * 100.0;
}

double
speedupPct(const AppResult &config, const AppResult &baseline)
{
    kagura_assert(!config.runs.empty());
    kagura_assert(config.runs.size() == baseline.runs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < config.runs.size(); ++i)
        sum += speedupPct(config.runs[i], baseline.runs[i]);
    return sum / static_cast<double>(config.runs.size());
}

double
energyDeltaPct(const AppResult &config, const AppResult &baseline)
{
    kagura_assert(!config.runs.empty());
    kagura_assert(config.runs.size() == baseline.runs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < config.runs.size(); ++i)
        sum += energyDeltaPct(config.runs[i], baseline.runs[i]);
    return sum / static_cast<double>(config.runs.size());
}

double
meanSpeedupPct(const SuiteResult &config, const SuiteResult &baseline)
{
    kagura_assert(!config.apps.empty());
    double sum = 0.0;
    for (const AppResult &entry : config.apps)
        sum += speedupPct(entry, baseline.forApp(entry.app));
    return sum / static_cast<double>(config.apps.size());
}

double
meanEnergyDeltaPct(const SuiteResult &config, const SuiteResult &baseline)
{
    kagura_assert(!config.apps.empty());
    double sum = 0.0;
    for (const AppResult &entry : config.apps)
        sum += energyDeltaPct(entry, baseline.forApp(entry.app));
    return sum / static_cast<double>(config.apps.size());
}

} // namespace kagura

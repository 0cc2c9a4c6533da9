#include "jobs.hh"

#include <functional>
#include <utility>

#include "sim/experiment.hh"

namespace simbench
{

using kagura::CompressorKind;
using kagura::EhsKind;
using kagura::ReplKind;
using kagura::SimConfig;
using kagura::TagLayoutKind;

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::ColdCompressed, Workload::ColdRaw,
                       Workload::WarmReplay}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::ColdCompressed:
        return "cold_compressed";
      case Workload::ColdRaw:
        return "cold_raw";
      case Workload::WarmReplay:
        return "warm_replay";
    }
    return "?";
}

std::uint64_t
traceSeedFor(std::uint64_t seed)
{
    return seed == 0 ? SimConfig{}.traceSeed
                     : kagura::suiteSeed(static_cast<unsigned>(seed - 1));
}

namespace
{

using Make = std::function<SimConfig(const std::string &)>;

SimConfig
withCompressor(SimConfig cfg, CompressorKind kind)
{
    cfg.compressor = kind;
    return cfg;
}

SimConfig
withTags(SimConfig cfg, TagLayoutKind layout)
{
    cfg.icache.tagLayout = layout;
    cfg.dcache.tagLayout = layout;
    return cfg;
}

SimConfig
withRepl(SimConfig cfg, ReplKind policy)
{
    cfg.icache.replacement = policy;
    cfg.dcache.replacement = policy;
    return cfg;
}

SimConfig
withCacheBytes(SimConfig cfg, unsigned bytes)
{
    cfg.icache.sizeBytes = bytes;
    cfg.dcache.sizeBytes = bytes;
    return cfg;
}

SimConfig
withEhs(SimConfig cfg, EhsKind kind)
{
    cfg.ehs = kind;
    return cfg;
}

/**
 * ACC and ACC+Kagura under the three paper compressors, the baseline
 * as the speedup denominator, and one point off the default on each
 * axis the paper's figures sweep (tag layout, replacement, cache
 * size), all under NVSRAM.
 */
std::vector<std::pair<std::string, Make>>
compressedConfigs()
{
    using kagura::accConfig;
    using kagura::accKaguraConfig;
    return {
        {baselineLabel, kagura::baselineConfig},
        {"acc/bdi", accConfig},
        {"acc/fpc",
         [](const std::string &a) {
             return withCompressor(accConfig(a), CompressorKind::Fpc);
         }},
        {"acc/cpack",
         [](const std::string &a) {
             return withCompressor(accConfig(a), CompressorKind::CPack);
         }},
        {kaguraLabel, accKaguraConfig},
        {"acc+kagura/fpc",
         [](const std::string &a) {
             return withCompressor(accKaguraConfig(a),
                                   CompressorKind::Fpc);
         }},
        {"acc+kagura/cpack",
         [](const std::string &a) {
             return withCompressor(accKaguraConfig(a),
                                   CompressorKind::CPack);
         }},
        {"acc+kagura/bdi/superblock",
         [](const std::string &a) {
             return withTags(accKaguraConfig(a),
                             TagLayoutKind::Superblock);
         }},
        {"acc+kagura/bdi/signature",
         [](const std::string &a) {
             return withTags(accKaguraConfig(a),
                             TagLayoutKind::Signature);
         }},
        {"acc+kagura/bdi/camp",
         [](const std::string &a) {
             return withRepl(accKaguraConfig(a), ReplKind::Camp);
         }},
        {"acc+kagura/bdi/crrip",
         [](const std::string &a) {
             return withRepl(accKaguraConfig(a), ReplKind::Crrip);
         }},
        {"acc+kagura/bdi/512B",
         [](const std::string &a) {
             return withCacheBytes(accKaguraConfig(a), 512);
         }},
    };
}

/** The compression-off baseline under each of the five EHS designs. */
std::vector<std::pair<std::string, Make>>
rawConfigs()
{
    std::vector<std::pair<std::string, Make>> configs;
    for (EhsKind kind : {EhsKind::NvsramCache, EhsKind::NvMR,
                         EhsKind::SweepCache, EhsKind::TaskBased,
                         EhsKind::SpecPersist}) {
        configs.emplace_back(
            std::string("base/") + kagura::ehsKindName(kind),
            [kind](const std::string &a) {
                return withEhs(kagura::baselineConfig(a), kind);
            });
    }
    return configs;
}

} // namespace

std::vector<BenchJob>
makeJobs(Workload workload, const std::vector<std::string> &apps,
         std::uint64_t trace_seed)
{
    const auto configs = workload == Workload::ColdRaw
                             ? rawConfigs()
                             : compressedConfigs();
    std::vector<BenchJob> jobs;
    jobs.reserve(configs.size() * apps.size());
    // Config-major order, as runSuite submits one suite after another.
    for (const auto &[label, make] : configs) {
        for (const std::string &app : apps) {
            BenchJob bench_job;
            bench_job.job.config = make(app);
            bench_job.job.config.traceSeed = trace_seed;
            bench_job.app = app;
            bench_job.label = label;
            jobs.push_back(std::move(bench_job));
        }
    }
    return jobs;
}

} // namespace simbench

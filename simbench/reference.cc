#include "reference.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/experiment.hh"

namespace simbench
{

using kagura::SimConfig;

std::uint64_t
fingerprint(const kagura::SimResult &result)
{
    return kagura::runner::fnv1a64(kagura::runner::encodeResult(result));
}

std::uint64_t
jobHash(const BenchJob &job)
{
    return kagura::runner::jobHash(
        job.job.config, kagura::runner::jobKindName(job.job.kind));
}

bool
loadReference(const std::string &path, Pins &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string hash, print, app, label;
        if (!(fields >> hash >> print >> app >> label) || hash[0] == '#')
            continue;
        out.emplace(std::stoull(hash, nullptr, 16),
                    Pin{std::stoull(print, nullptr, 16),
                        "reference.txt (" + app + " " + label + ")"});
    }
    return true;
}

namespace
{

/**
 * Read one golden table: "<app> <name>=<hex> ..." rows, the named
 * columns produced by @p configs in order.
 */
bool
loadTable(const std::string &path, const std::vector<std::string> &apps,
          const std::vector<SimConfig (*)(const std::string &)> &configs,
          Pins &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::map<std::string, std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string app, cell;
        if (!(fields >> app))
            continue;
        while (fields >> cell)
            rows[app].push_back(cell);
    }
    for (const std::string &app : apps) {
        const auto row = rows.find(app);
        if (row == rows.end() || row->second.size() != configs.size())
            return false;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const std::string &cell = row->second[i];
            const SimConfig cfg = configs[i](app);
            out.emplace(
                kagura::runner::jobHash(cfg, "plain"),
                Pin{std::stoull(cell.substr(cell.find('=') + 1), nullptr,
                                16),
                    path + " (" + app + " " +
                        cell.substr(0, cell.find('=')) + ")"});
        }
    }
    return true;
}

SimConfig
ehsNvsram(const std::string &app)
{
    SimConfig cfg = kagura::accKaguraConfig(app);
    cfg.ehs = kagura::EhsKind::NvsramCache;
    return cfg;
}

SimConfig
ehsNvmr(const std::string &app)
{
    SimConfig cfg = kagura::accKaguraConfig(app);
    cfg.ehs = kagura::EhsKind::NvMR;
    return cfg;
}

SimConfig
ehsSweep(const std::string &app)
{
    SimConfig cfg = kagura::accKaguraConfig(app);
    cfg.ehs = kagura::EhsKind::SweepCache;
    return cfg;
}

} // namespace

bool
loadGoldens(const std::string &data_dir,
            const std::vector<std::string> &apps, Pins &out)
{
    return loadTable(data_dir + "/golden_results.txt", apps,
                     {kagura::baselineConfig, kagura::accConfig,
                      kagura::accKaguraConfig},
                     out) &&
           loadTable(data_dir + "/golden_ehs_results.txt", apps,
                     {ehsNvsram, ehsNvmr, ehsSweep}, out);
}

bool
writeReference(const std::string &path, const std::vector<BenchJob> &jobs,
               const std::vector<kagura::SimResult> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "# job-hash fingerprint app config (trace seed 0)\n");
    for (std::size_t i = 0; i < jobs.size(); ++i)
        std::fprintf(f, "%016" PRIx64 " %016" PRIx64 " %s %s\n",
                     jobHash(jobs[i]), fingerprint(results[i]),
                     jobs[i].app.c_str(), jobs[i].label.c_str());
    return std::fclose(f) == 0;
}

bool
matchesPins(const Pins &pins, const BenchJob &job,
            const kagura::SimResult &result)
{
    const std::uint64_t got = fingerprint(result);
    bool ok = true;
    const auto [first, last] = pins.equal_range(jobHash(job));
    for (auto it = first; it != last; ++it) {
        if (it->second.fingerprint == got)
            continue;
        std::fprintf(stderr,
                     "simbench: %s %s fingerprint %016" PRIx64
                     " != %016" PRIx64 " from %s\n",
                     job.app.c_str(), job.label.c_str(), got,
                     it->second.fingerprint, it->second.source.c_str());
        ok = false;
    }
    return ok;
}

} // namespace simbench

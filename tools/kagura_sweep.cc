/**
 * @file
 * kagura_sweep -- control CLI for the sweep daemon.
 *
 * Subcommands:
 *   start        launch kagura_sweepd and wait until it accepts
 *   stop         ask a running daemon to shut down
 *   status       print a daemon's counters
 *   grid         expand a capacitor x trace x compressor x EHS grid
 *                and run it through the daemon with live progress
 *   cache stats  result-cache statistics (entries, bytes, shard skew)
 *   cache gc     trim the result cache by size and/or age
 *
 * Examples:
 *   kagura_sweep start --socket /tmp/kagura.sock --jobs 8
 *   kagura_sweep grid --socket /tmp/kagura.sock \
 *       --apps crc32,dijkstra --compressors bdi,fpc --cap-uf 4.7,10
 *   kagura_sweep cache gc --max-bytes 512M --max-age 30d
 *   kagura_sweep stop --socket /tmp/kagura.sock
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "runner/cache_store.hh"
#include "runner/progress.hh"
#include "runner/runner.hh"
#include "sim/config_fields.hh"
#include "sim/experiment.hh"
#include "sweepd/cache_maint.hh"
#include "sweepd/client.hh"

using namespace kagura;

namespace
{

void
usage()
{
    std::printf(
        "kagura_sweep -- sweep daemon control (kagura.sweep/v1)\n"
        "\n"
        "usage: kagura_sweep COMMAND [options]\n"
        "\n"
        "common options:\n"
        "  --socket PATH    daemon socket (default: $KAGURA_SWEEPD,\n"
        "                   else .kagura-sweepd.sock)\n"
        "\n"
        "start [--jobs N] [--bin PATH] [--log FILE] [--wait SECS]\n"
        "  launch kagura_sweepd detached and wait for the socket\n"
        "stop [--wait SECS]\n"
        "  request shutdown and wait for the socket to close\n"
        "status\n"
        "  print pool width, client/batch counts, cache counters\n"
        "grid [--apps A,B|all] [--compressors C,..] [--ehs E,..]\n"
        "     [--cap-uf X,..] [--traces T,..] [--l2 L,..] [--seeds N]\n"
        "     [--kagura] [--manifest ID] [--local]\n"
        "  expand the cross product and run it (via the daemon, or\n"
        "  in-process with --local / when the daemon is unreachable)\n"
        "  --compressors: %s\n"
        "  --ehs:         %s\n"
        "  --traces:      %s\n"
        "  (case-insensitive, '-' optional)\n"
        "  --l2:          none | SIZExWAYS[:GOVERNOR[+kagura]]\n"
        "                 (e.g. none,1024x4,1024x4:acc+kagura)\n"
        "cache stats [--dir PATH]\n"
        "cache gc [--dir PATH] [--max-bytes N[K|M|G]] [--max-age N[h|d]]\n",
        enumChoices<CompressorKind>().c_str(),
        enumChoices<EhsKind>().c_str(), enumChoices<TraceKind>().c_str());
}

std::string
defaultSocket()
{
    const char *env = std::getenv("KAGURA_SWEEPD");
    return env && env[0] ? env : ".kagura-sweepd.sock";
}

/** "512M" -> bytes; suffixes K/M/G (binary). */
std::uint64_t
parseBytes(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0)
        fatal("bad byte count '%s'", text.c_str());
    double scale = 1;
    if (*end == 'K' || *end == 'k')
        scale = 1024.0;
    else if (*end == 'M' || *end == 'm')
        scale = 1024.0 * 1024;
    else if (*end == 'G' || *end == 'g')
        scale = 1024.0 * 1024 * 1024;
    else if (*end != '\0')
        fatal("bad byte suffix in '%s'", text.c_str());
    return static_cast<std::uint64_t>(value * scale);
}

/** "12h" / "30d" / "3600" (seconds) -> seconds. */
std::uint64_t
parseAge(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || value < 0)
        fatal("bad age '%s'", text.c_str());
    double scale = 1;
    if (*end == 's')
        scale = 1;
    else if (*end == 'm')
        scale = 60;
    else if (*end == 'h')
        scale = 3600;
    else if (*end == 'd')
        scale = 86400;
    else if (*end != '\0')
        fatal("bad age suffix in '%s'", text.c_str());
    return static_cast<std::uint64_t>(value * scale);
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Simple flag cursor over argv after the subcommand. */
struct Args
{
    int argc;
    char **argv;
    int i;

    bool more() const { return i < argc; }
    std::string next() { return argv[i++]; }

    std::string
    value(const std::string &flag)
    {
        if (i >= argc)
            fatal("%s needs a value", flag.c_str());
        return argv[i++];
    }
};

/** A grid axis's names, each through the config enum's one parser. */
template <typename E>
std::vector<E>
parseAxis(const std::vector<std::string> &names, const char *axis)
{
    std::vector<E> out;
    for (const std::string &name : names) {
        const auto value = parseEnum<E>(name);
        if (!value)
            fatal("grid: unknown %s '%s' (want %s)", axis, name.c_str(),
                  enumChoices<E>().c_str());
        out.push_back(*value);
    }
    return out;
}

bool
connectOrDie(sweepd::SweepClient &client, const std::string &socket)
{
    std::string error;
    if (!client.connect(socket, &error))
        fatal("cannot reach daemon at '%s': %s", socket.c_str(),
              error.c_str());
    return true;
}

int
cmdStart(const std::string &socket, Args &args)
{
    unsigned jobs = 0;
    unsigned waitSecs = 15;
    std::string bin;
    std::string log;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--jobs")
            jobs = static_cast<unsigned>(
                std::strtoul(args.value(arg).c_str(), nullptr, 10));
        else if (arg == "--bin")
            bin = args.value(arg);
        else if (arg == "--log")
            log = args.value(arg);
        else if (arg == "--wait")
            waitSecs = static_cast<unsigned>(
                std::strtoul(args.value(arg).c_str(), nullptr, 10));
        else
            fatal("start: unknown option '%s'", arg.c_str());
    }

    {
        // Refuse to double-start: a live daemon answers the probe.
        sweepd::SweepClient probe;
        std::string error;
        if (probe.connect(socket, &error)) {
            inform("daemon already running on %s (%u workers)",
                   socket.c_str(), probe.daemonThreads());
            return 0;
        }
    }

    if (bin.empty()) {
        // Prefer the kagura_sweepd that shipped next to this binary.
        char self[4096];
        const ssize_t n =
            ::readlink("/proc/self/exe", self, sizeof(self) - 1);
        if (n > 0) {
            self[n] = '\0';
            std::string dir(self);
            const std::size_t slash = dir.rfind('/');
            if (slash != std::string::npos) {
                const std::string sibling =
                    dir.substr(0, slash + 1) + "kagura_sweepd";
                if (::access(sibling.c_str(), X_OK) == 0)
                    bin = sibling;
            }
        }
        if (bin.empty())
            bin = "kagura_sweepd"; // fall back to PATH lookup
    }

    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork(): %s", std::strerror(errno));
    if (pid == 0) {
        ::setsid(); // survive the launching shell
        if (!log.empty()) {
            if (!std::freopen(log.c_str(), "a", stdout) ||
                !std::freopen(log.c_str(), "a", stderr))
                _exit(127);
        }
        std::vector<std::string> argvStrings = {bin, "--socket", socket};
        if (jobs) {
            argvStrings.push_back("--jobs");
            argvStrings.push_back(std::to_string(jobs));
        }
        std::vector<char *> argvPtrs;
        for (std::string &s : argvStrings)
            argvPtrs.push_back(s.data());
        argvPtrs.push_back(nullptr);
        ::execvp(bin.c_str(), argvPtrs.data());
        std::fprintf(stderr, "kagura_sweep: exec %s: %s\n", bin.c_str(),
                     std::strerror(errno));
        _exit(127);
    }

    // Poll until the daemon answers HELLO (it may still be binding).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(waitSecs);
    std::string error;
    while (std::chrono::steady_clock::now() < deadline) {
        int wstatus = 0;
        if (::waitpid(pid, &wstatus, WNOHANG) == pid)
            fatal("kagura_sweepd (pid %d) exited during startup%s",
                  static_cast<int>(pid),
                  log.empty() ? "" : ("; see " + log).c_str());
        sweepd::SweepClient client;
        if (client.connect(socket, &error)) {
            inform("kagura_sweepd running: pid %d, socket %s, "
                   "%u workers",
                   static_cast<int>(pid), socket.c_str(),
                   client.daemonThreads());
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    fatal("daemon did not come up on '%s' within %us: %s",
          socket.c_str(), waitSecs, error.c_str());
}

int
cmdStop(const std::string &socket, Args &args)
{
    unsigned waitSecs = 15;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--wait")
            waitSecs = static_cast<unsigned>(
                std::strtoul(args.value(arg).c_str(), nullptr, 10));
        else
            fatal("stop: unknown option '%s'", arg.c_str());
    }
    sweepd::SweepClient client;
    std::string error;
    if (!client.connect(socket, &error)) {
        inform("no daemon on '%s' (%s)", socket.c_str(), error.c_str());
        return 0;
    }
    if (!client.shutdownDaemon(&error))
        fatal("shutdown failed: %s", error.c_str());
    client.close();

    // The daemon unlinks its socket as it stops; wait for that.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(waitSecs);
    while (std::chrono::steady_clock::now() < deadline) {
        sweepd::SweepClient probe;
        if (!probe.connect(socket, &error)) {
            inform("daemon on %s stopped", socket.c_str());
            return 0;
        }
        probe.close();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    warn("daemon acknowledged shutdown but '%s' is still accepting "
         "after %us",
         socket.c_str(), waitSecs);
    return 1;
}

int
cmdStatus(const std::string &socket)
{
    sweepd::SweepClient client;
    connectOrDie(client, socket);
    sweepd::StatusBody status;
    std::string error;
    if (!client.status(status, &error))
        fatal("status failed: %s", error.c_str());
    std::printf("socket:        %s\n", socket.c_str());
    std::printf("workers:       %u\n", status.poolThreads);
    std::printf("clients:       %u\n", status.clients);
    std::printf("batches:       %llu\n",
                static_cast<unsigned long long>(status.batches));
    std::printf("jobs done:     %llu\n",
                static_cast<unsigned long long>(status.jobsDone));
    std::printf("simulations:   %llu\n",
                static_cast<unsigned long long>(status.simulations));
    std::printf("cache hits:    %llu\n",
                static_cast<unsigned long long>(status.cacheHits));
    std::printf("cache misses:  %llu\n",
                static_cast<unsigned long long>(status.cacheMisses));
    std::printf("uptime:        %.1fs\n", status.uptimeSeconds);
    return 0;
}

int
cmdGrid(const std::string &socket, Args &args)
{
    std::vector<std::string> apps;
    std::vector<std::string> compressors = {"bdi"};
    std::vector<std::string> ehsKinds = {"nvsramcache"};
    std::vector<double> capUf = {4.7};
    std::vector<std::string> traces = {"rfhome"};
    std::vector<std::string> l2Specs = {"none"};
    unsigned seeds = 1;
    bool withKagura = false;
    bool local = false;
    std::string manifest;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--apps") {
            const std::string v = args.value(arg);
            apps = v == "all" ? suiteApps() : splitList(v);
        } else if (arg == "--compressors") {
            compressors = splitList(args.value(arg));
        } else if (arg == "--ehs") {
            ehsKinds = splitList(args.value(arg));
        } else if (arg == "--cap-uf") {
            capUf.clear();
            for (const std::string &item : splitList(args.value(arg)))
                capUf.push_back(std::atof(item.c_str()));
        } else if (arg == "--traces") {
            traces = splitList(args.value(arg));
        } else if (arg == "--l2") {
            l2Specs = splitList(args.value(arg));
        } else if (arg == "--seeds") {
            seeds = static_cast<unsigned>(
                std::strtoul(args.value(arg).c_str(), nullptr, 10));
        } else if (arg == "--kagura") {
            withKagura = true;
        } else if (arg == "--manifest") {
            manifest = args.value(arg);
        } else if (arg == "--local") {
            local = true;
        } else {
            fatal("grid: unknown option '%s'", arg.c_str());
        }
    }
    if (apps.empty())
        apps = {"crc32", "dijkstra", "sha"};
    if (seeds == 0)
        seeds = 1;

    // Validate axis values up front so a typo fails before any work.
    const auto comp = parseAxis<CompressorKind>(compressors, "compressor");
    const auto ehs = parseAxis<EhsKind>(ehsKinds, "ehs");
    const auto traceKinds = parseAxis<TraceKind>(traces, "trace");
    if (l2Specs.empty())
        l2Specs = {"none"};
    for (const std::string &spec : l2Specs) {
        SimConfig probe;
        std::string error;
        if (!applyL2Spec(spec, probe, error))
            fatal("grid: %s", error.c_str());
    }

    std::vector<runner::SimJob> jobs;
    for (const std::string &app : apps) {
        for (CompressorKind c : comp) {
            for (EhsKind e : ehs) {
                for (double uf : capUf) {
                    for (TraceKind t : traceKinds) {
                      for (const std::string &l2 : l2Specs) {
                        for (unsigned s = 0; s < seeds; ++s) {
                            runner::SimJob job;
                            job.kind = runner::SimJob::Kind::Plain;
                            job.config = withKagura
                                             ? accKaguraConfig(app)
                                             : accConfig(app);
                            job.config.compressor = c;
                            job.config.ehs = e;
                            job.config.capacitor.capacitance =
                                uf * 1e-6;
                            job.config.trace = t;
                            std::string l2_error;
                            applyL2Spec(l2, job.config, l2_error);
                            job.config.traceSeed = suiteSeed(s);
                            jobs.push_back(std::move(job));
                        }
                      }
                    }
                }
            }
        }
    }
    inform("grid: %zu jobs (%zu apps x %zu compressors x %zu ehs x "
           "%zu capacitances x %zu traces x %zu l2 x %u seeds)",
           jobs.size(), apps.size(), comp.size(), ehs.size(),
           capUf.size(), traceKinds.size(), l2Specs.size(), seeds);

    const auto started = std::chrono::steady_clock::now();
    std::vector<SimResult> results;
    sweepd::BatchDoneBody done;
    bool viaDaemon = false;
    if (!local) {
        sweepd::SweepClient client;
        std::string error;
        if (client.connect(socket, &error)) {
            const bool tty = ::isatty(::fileno(stderr));
            const auto onProgress =
                [&](const sweepd::ProgressBody &p) {
                    if (p.total == 0)
                        return;
                    std::fprintf(
                        stderr,
                        "grid: %u/%u done (%u cached, %u simulated"
                        "%s%u resumed)%s",
                        p.done, p.total, p.cacheHits, p.simulations,
                        p.resumed ? ", " : ", ", p.resumed,
                        tty ? "    \r" : "\n");
                    std::fflush(stderr);
                };
            if (!client.runJobs(jobs, results, &error, &done, manifest,
                                onProgress))
                fatal("grid: daemon sweep failed: %s", error.c_str());
            if (tty)
                std::fprintf(stderr, "\n");
            viaDaemon = true;
        } else {
            warn("grid: daemon unreachable on '%s' (%s); running "
                 "in-process",
                 socket.c_str(), error.c_str());
        }
    }
    if (!viaDaemon) {
        // In-process, the runner's own counters say how each job was
        // served (only the daemon fills BATCH_DONE).
        const runner::TelemetrySnapshot before =
            runner::progress().snapshot();
        results = runner::runJobs(jobs);
        const runner::TelemetrySnapshot after =
            runner::progress().snapshot();
        done.total = static_cast<std::uint32_t>(jobs.size());
        done.cacheHits =
            static_cast<std::uint32_t>(after.cacheHits - before.cacheHits);
        done.simulations = static_cast<std::uint32_t>(after.simulations -
                                                      before.simulations);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();

    double wallSum = 0;
    for (const SimResult &r : results)
        wallSum += static_cast<double>(r.wallCycles);
    inform("grid: %u jobs in %.1fs via %s (%u cache hits, "
           "%u simulations, %u resumed); mean wall %.0f cycles",
           done.total, elapsed, viaDaemon ? "daemon" : "in-process",
           done.cacheHits, done.simulations, done.resumed,
           results.empty() ? 0.0 : wallSum / results.size());
    return 0;
}

int
cmdCache(Args &args)
{
    if (!args.more())
        fatal("cache: expected 'stats' or 'gc'");
    const std::string sub = args.next();
    std::string dir;
    sweepd::GcOptions gc;
    while (args.more()) {
        const std::string arg = args.next();
        if (arg == "--dir")
            dir = args.value(arg);
        else if (arg == "--max-bytes" && sub == "gc")
            gc.maxBytes = parseBytes(args.value(arg));
        else if (arg == "--max-age" && sub == "gc")
            gc.maxAgeSeconds = parseAge(args.value(arg));
        else
            fatal("cache %s: unknown option '%s'", sub.c_str(),
                  arg.c_str());
    }
    runner::CacheStore &store = runner::CacheStore::global();
    if (!dir.empty())
        store.setDirectory(dir);

    if (sub == "stats") {
        const sweepd::CacheStatsReport s = sweepd::cacheStats(store);
        std::printf("directory:      %s\n", store.directory().c_str());
        std::printf("entries:        %llu\n",
                    static_cast<unsigned long long>(s.entries));
        std::printf("bytes:          %llu\n",
                    static_cast<unsigned long long>(s.totalBytes));
        std::printf("legacy (flat):  %llu\n",
                    static_cast<unsigned long long>(s.legacyEntries));
        std::printf("temp files:     %llu\n",
                    static_cast<unsigned long long>(s.tempFiles));
        std::printf("manifests:      %llu\n",
                    static_cast<unsigned long long>(s.manifests));
        std::printf("shards:         %u\n", s.shards);
        std::printf("shard min/max:  %llu / %llu\n",
                    static_cast<unsigned long long>(s.minShardEntries),
                    static_cast<unsigned long long>(s.maxShardEntries));
        std::printf("shard skew:     %.2f\n", s.skew());
        return 0;
    }
    if (sub == "gc") {
        if (gc.maxBytes == 0 && gc.maxAgeSeconds == 0)
            fatal("cache gc: need --max-bytes and/or --max-age");
        const sweepd::GcReport r = sweepd::cacheGc(store, gc);
        std::printf("scanned:        %llu entries\n",
                    static_cast<unsigned long long>(r.scanned));
        std::printf("deleted:        %llu entries, %llu bytes\n",
                    static_cast<unsigned long long>(r.deleted),
                    static_cast<unsigned long long>(r.deletedBytes));
        std::printf("stale temps:    %llu removed\n",
                    static_cast<unsigned long long>(r.tempFilesRemoved));
        std::printf("remaining:      %llu entries, %llu bytes\n",
                    static_cast<unsigned long long>(r.remainingEntries),
                    static_cast<unsigned long long>(r.remainingBytes));
        return 0;
    }
    fatal("cache: unknown subcommand '%s'", sub.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        usage();
        return 0;
    }

    // Pull a leading/interspersed --socket out; subcommand parsers see
    // the rest.
    std::string socket = defaultSocket();
    std::vector<char *> rest;
    for (int i = 2; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--socket") {
            if (i + 1 >= argc)
                fatal("--socket needs a value");
            socket = argv[++i];
            continue;
        }
        rest.push_back(argv[i]);
    }
    Args args{static_cast<int>(rest.size()), rest.data(), 0};

    if (command == "start")
        return cmdStart(socket, args);
    if (command == "stop")
        return cmdStop(socket, args);
    if (command == "status")
        return cmdStatus(socket);
    if (command == "grid")
        return cmdGrid(socket, args);
    if (command == "cache")
        return cmdCache(args);
    usage();
    fatal("unknown command '%s'", command.c_str());
}

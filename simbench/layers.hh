/**
 * @file
 * Per-layer tracing from outside the simulator.
 *
 * No span lives inside src/: every span here wraps a call into a
 * module's public interface. The runner and sim layers are traced by
 * running a job through the same public calls runJobDetailed makes
 * (key, lookup, decode | construct, run, encode, store), each inside
 * a span. The cache, compress, mem and kagura layers are traced by a
 * memory-path replay: the job's workload is fed through public Cache
 * objects whose compressor, governors and next level are
 * span-recording decorators, with power cycles cut where the job's
 * own SimResult says they fell.
 *
 * Spans are aggregated in memory per boundary (calls, total time,
 * time covered by child spans) rather than kept one by one: a replay
 * records millions of them. A layer's self time is its total minus its
 * children's.
 */

#ifndef KAGURA_SIMBENCH_LAYERS_HH
#define KAGURA_SIMBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "runner/cache_store.hh"
#include "runner/runner.hh"

namespace simbench
{

/** Every traced boundary. */
enum class SpanId : unsigned
{
    Key,
    Lookup,
    Store,
    Encode,
    Decode,
    SimSetup,
    SimRun,
    WorkloadBuild,
    CacheAccess,
    CacheFlush,
    MemFetch,
    MemAbsorb,
    Kagura,
    Acc,
    ProbeBdi,
    ProbeFpc,
    ProbeCpack,
    CompressBdi,
    CompressFpc,
    CompressCpack,
    DecompressBdi,
    DecompressFpc,
    DecompressCpack,
    Count
};

/** The paper's compressors, in ReplayCounts' per-algorithm order. */
constexpr const char *compressorNames[] = {"bdi", "fpc", "cpack"};

/** The span of compressor @p alg, given its BDI span (they follow). */
inline SpanId
algSpan(SpanId bdi, int alg)
{
    return static_cast<SpanId>(static_cast<unsigned>(bdi) +
                               static_cast<unsigned>(alg));
}

/** Aggregate of one boundary's spans. */
struct SpanStats
{
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t childNs = 0;

    std::uint64_t selfNs() const { return totalNs - childNs; }
};

/** Single-threaded span recorder with a parent stack. */
class Tracer
{
  public:
    void
    enter(SpanId id)
    {
        stack.push_back({id, clock::now(), 0});
    }

    void
    exit()
    {
        const Frame frame = stack.back();
        stack.pop_back();
        const std::uint64_t ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock::now() - frame.start)
                .count());
        SpanStats &s = spans[static_cast<unsigned>(frame.id)];
        ++s.calls;
        s.totalNs += ns;
        s.childNs += frame.childNs;
        if (!stack.empty())
            stack.back().childNs += ns;
    }

    const SpanStats &
    operator[](SpanId id) const
    {
        return spans[static_cast<unsigned>(id)];
    }

  private:
    using clock = std::chrono::steady_clock;
    struct Frame
    {
        SpanId id;
        clock::time_point start;
        std::uint64_t childNs;
    };
    std::vector<Frame> stack;
    std::array<SpanStats, static_cast<unsigned>(SpanId::Count)> spans{};
};

/** RAII span; a null tracer records nothing (the untraced twin). */
class Span
{
  public:
    Span(Tracer *tracer, SpanId id) : t(tracer)
    {
        if (t)
            t->enter(id);
    }
    ~Span()
    {
        if (t)
            t->exit();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t;
};

/** What one traced job did at the runner and sim boundaries. */
struct TracedJob
{
    kagura::SimResult result;
    bool cacheHit = false;
    /** Simulator::run time of this job (0 on a cache hit). */
    double runMs = 0.0;
};

/**
 * Run @p job the way runJobDetailed does -- key, lookup, decode on a
 * hit, else construct, run, encode, store -- with each call in a span.
 */
TracedJob runTracedJob(const kagura::runner::SimJob &job,
                       kagura::runner::CacheStore &store, Tracer &tracer);

/** Counters one memory-path replay collects beside its spans. */
struct ReplayCounts
{
    std::uint64_t memOps = 0;
    /** Per paper compressor (bdi, fpc, cpack). */
    std::array<std::uint64_t, 3> probes{};
    std::array<std::uint64_t, 3> probeBytes{};
    std::array<std::uint64_t, 3> usefulProbes{};
    /** Memory ops of jobs configured with each compressor. */
    std::array<std::uint64_t, 3> compressorMemOps{};
    /** Probed blocks whose compress/decompress round trip failed. */
    std::uint64_t roundTripFailures = 0;
    std::uint64_t memBytes = 0;
    /** Kagura gate decisions and the ones it vetoed (Regular Mode). */
    std::uint64_t kaguraDecisions = 0;
    std::uint64_t kaguraVetoes = 0;
    std::uint64_t kaguraMemOps = 0;
    /** Replay vs simulator demand accesses and hits, both caches. */
    std::uint64_t replayAccesses = 0;
    std::uint64_t replayHits = 0;
    std::uint64_t simAccesses = 0;
    std::uint64_t simHits = 0;
};

/**
 * Replay @p job's memory path. With a null @p tracer the same replay
 * runs on the undecorated objects (the untraced twin that prices the
 * tracing). @p sim is the job's own simulated result: its per-cycle
 * load and store counts say where power failures cut the replay.
 */
void replayMemoryPath(const kagura::runner::SimJob &job,
                      const kagura::SimResult &sim, Tracer *tracer,
                      ReplayCounts &counts);

} // namespace simbench

#endif // KAGURA_SIMBENCH_LAYERS_HH

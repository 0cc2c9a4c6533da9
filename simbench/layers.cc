#include "layers.hh"

#include <memory>
#include <optional>
#include <string>

#include "cache/acc.hh"
#include "cache/cache.hh"
#include "common/logging.hh"
#include "compress/compressor.hh"
#include "core/workload.hh"
#include "kagura/kagura.hh"
#include "mem/nvm.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "sim/simulator.hh"

namespace simbench
{

using namespace kagura;

TracedJob
runTracedJob(const runner::SimJob &job, runner::CacheStore &store,
             Tracer &tracer)
{
    TracedJob out;
    // runJobDetailed describes every job for its progress line.
    const std::string what = job.config.describe();
    std::string key;
    std::uint64_t hash = 0;
    {
        Span span(&tracer, SpanId::Key);
        key = runner::jobKeyText(job.config, runner::jobKindName(job.kind));
        hash = runner::fnv1a64(key);
    }
    std::string payload;
    bool hit = false;
    {
        Span span(&tracer, SpanId::Lookup);
        hit = store.lookup(hash, key, payload);
    }
    if (hit) {
        bool decoded = false;
        {
            Span span(&tracer, SpanId::Decode);
            decoded = runner::decodeResult(payload, out.result);
        }
        // An undecodable entry is a miss, as in runJobDetailed.
        if (decoded) {
            out.cacheHit = true;
            return out;
        }
    }
    std::unique_ptr<Simulator> sim;
    {
        Span span(&tracer, SpanId::SimSetup);
        sim = std::make_unique<Simulator>(job.config);
    }
    const std::uint64_t run_before = tracer[SpanId::SimRun].totalNs;
    {
        Span span(&tracer, SpanId::SimRun);
        out.result = sim->run();
    }
    out.runMs =
        static_cast<double>(tracer[SpanId::SimRun].totalNs - run_before) /
        1e6;
    std::string bytes;
    {
        Span span(&tracer, SpanId::Encode);
        bytes = runner::encodeResult(out.result);
    }
    Span span(&tracer, SpanId::Store);
    store.store(hash, key, bytes);
    return out;
}

namespace
{

/** Index of a paper compressor in the per-algorithm arrays, or -1. */
int
algIndex(CompressorKind kind)
{
    switch (kind) {
      case CompressorKind::Bdi:
        return 0;
      case CompressorKind::Fpc:
        return 1;
      case CompressorKind::CPack:
        return 2;
      default:
        return -1;
    }
}

/** Every this-many size probes, the probed block is round-tripped. */
constexpr std::uint64_t roundTripEvery = 16;

/** Span-recording Compressor decorator. */
class TracedCompressor final : public Compressor
{
  public:
    TracedCompressor(const Compressor &inner_, int alg_, Tracer &tracer_,
                     ReplayCounts &counts_)
        : inner(inner_), alg(alg_), tracer(tracer_), counts(counts_)
    {
    }

    CompressorKind kind() const override { return inner.kind(); }
    const char *name() const override { return inner.name(); }
    CompressionCosts costs() const override { return inner.costs(); }

    std::uint64_t
    compress(ConstByteSpan block, PayloadBuffer &out) const override
    {
        Span span(&tracer, algSpan(SpanId::CompressBdi, alg));
        return inner.compress(block, out);
    }

    std::uint64_t
    sizeBits(ConstByteSpan block) const override
    {
        std::uint64_t bits = 0;
        {
            Span span(&tracer, algSpan(SpanId::ProbeBdi, alg));
            bits = inner.sizeBits(block);
        }
        const std::uint64_t n = ++counts.probes[alg];
        counts.probeBytes[alg] += block.size();
        if (ceilDiv(bits, 8) < block.size())
            ++counts.usefulProbes[alg];
        if (n % roundTripEvery == 0)
            samples.emplace_back(block.begin(), block.end());
        return bits;
    }

    void
    decompress(ConstByteSpan payload, MutByteSpan block) const override
    {
        Span span(&tracer, algSpan(SpanId::DecompressBdi, alg));
        inner.decompress(payload, block);
    }

    /**
     * The simulator only probes sizes; compress and decompress are
     * priced by round-tripping the sampled probed blocks, which also
     * checks that each decodes to itself at the probed size.
     */
    void
    roundTripSamples() const
    {
        PayloadBuffer buf;
        std::vector<std::uint8_t> back;
        for (const std::vector<std::uint8_t> &block : samples) {
            const std::uint64_t bits = compress(block, buf);
            back.assign(block.size(), 0);
            decompress(buf.span(), MutByteSpan{back});
            if (back != block || bits != inner.sizeBits(block))
                ++counts.roundTripFailures;
        }
    }

  private:
    const Compressor &inner;
    int alg;
    Tracer &tracer;
    ReplayCounts &counts;
    mutable std::vector<std::vector<std::uint8_t>> samples;
};

/**
 * Span-recording CompressionGovernor decorator. Wrapped around a
 * KaguraGate it also counts the gate's decisions and the ones Regular
 * Mode vetoes.
 */
class TracedGovernor final : public CompressionGovernor
{
  public:
    TracedGovernor(CompressionGovernor &inner_, SpanId id_,
                   Tracer &tracer_, ReplayCounts &counts_,
                   const KaguraController *gate_of = nullptr)
        : inner(inner_), id(id_), tracer(tracer_), counts(counts_),
          kagura(gate_of)
    {
    }

    bool
    shouldCompress(Addr addr) override
    {
        Span span(&tracer, id);
        noteDecision();
        return inner.shouldCompress(addr);
    }

    bool
    runCompressor(Addr addr) override
    {
        Span span(&tracer, id);
        noteDecision();
        return inner.runCompressor(addr);
    }

    void
    noteCompressionEnabledHit(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteCompressionEnabledHit(addr);
    }

    void
    noteWastedDecompression(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteWastedDecompression(addr);
    }

    void
    noteCompressionContribution(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteCompressionContribution(addr);
    }

    void
    noteEviction(Addr addr, bool avoidable) override
    {
        Span span(&tracer, id);
        inner.noteEviction(addr, avoidable);
    }

    void
    noteCompression(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteCompression(addr);
    }

    void
    noteRecompression(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteRecompression(addr);
    }

    void
    noteIncompressible(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteIncompressible(addr);
    }

    void
    noteCompressionDisabledMiss(Addr addr) override
    {
        Span span(&tracer, id);
        inner.noteCompressionDisabledMiss(addr);
    }

    void
    noteCacheCleared() override
    {
        Span span(&tracer, id);
        inner.noteCacheCleared();
    }

  private:
    void
    noteDecision()
    {
        if (!kagura)
            return;
        ++counts.kaguraDecisions;
        if (kagura->mode() == KaguraController::Mode::Regular)
            ++counts.kaguraVetoes;
    }

    CompressionGovernor &inner;
    SpanId id;
    Tracer &tracer;
    ReplayCounts &counts;
    const KaguraController *kagura;
};

/** Span-recording decorator of the NVM terminal level. */
class TracedLevel final : public hier::MemLevel
{
  public:
    TracedLevel(hier::MemLevel &inner_, Tracer &tracer_,
                ReplayCounts &counts_)
        : inner(inner_), tracer(tracer_), counts(counts_)
    {
    }

    void
    fetchBlock(Addr base, MutByteSpan dst, hier::LevelEvents &ev,
               Cycles now) override
    {
        Span span(&tracer, SpanId::MemFetch);
        counts.memBytes += dst.size();
        inner.fetchBlock(base, dst, ev, now);
    }

    void
    absorbBlock(Addr base, ConstByteSpan src, hier::LevelEvents &ev,
                Cycles now) override
    {
        Span span(&tracer, SpanId::MemAbsorb);
        counts.memBytes += src.size();
        inner.absorbBlock(base, src, ev, now);
    }

    const char *levelName() const override { return inner.levelName(); }

  private:
    hier::MemLevel &inner;
    Tracer &tracer;
    ReplayCounts &counts;
};

/** One cache's governor chain, ACC innermost, as makeGovernorChain. */
struct Chain
{
    std::unique_ptr<AccController> acc;
    std::unique_ptr<TracedGovernor> tracedAcc;
    std::unique_ptr<KaguraGate> gate;
    std::unique_ptr<TracedGovernor> tracedGate;
    CompressionGovernor *head = nullptr;
};

Chain
makeChain(const SimConfig &cfg, KaguraController *kagura, Tracer *tracer,
          ReplayCounts &counts)
{
    Chain chain;
    if (cfg.governor == GovernorKind::None)
        return chain;
    if (cfg.governor != GovernorKind::Acc)
        fatal("simbench replay: governor %s is not replayed",
              governorKindName(cfg.governor));
    chain.acc = std::make_unique<AccController>();
    chain.head = chain.acc.get();
    if (tracer) {
        chain.tracedAcc = std::make_unique<TracedGovernor>(
            *chain.head, SpanId::Acc, *tracer, counts);
        chain.head = chain.tracedAcc.get();
    }
    if (kagura) {
        chain.gate = std::make_unique<KaguraGate>(*kagura, chain.head);
        chain.head = chain.gate.get();
        if (tracer) {
            chain.tracedGate = std::make_unique<TracedGovernor>(
                *chain.head, SpanId::Kagura, *tracer, counts, kagura);
            chain.head = chain.tracedGate.get();
        }
    }
    return chain;
}

} // namespace

void
replayMemoryPath(const runner::SimJob &job, const SimResult &sim,
                 Tracer *tracer, ReplayCounts &counts)
{
    const SimConfig &cfg = job.config;
    if (cfg.enableL2 || cfg.oracle != OracleMode::Off ||
        (cfg.enableKagura && cfg.kagura.trigger != TriggerKind::Memory))
        fatal("simbench replay: %s is outside the replayed subset",
              cfg.describe().c_str());

    Nvm nvm(cfg.nvmType, cfg.nvmBytes);
    std::optional<TracedLevel> traced_nvm;
    hier::MemLevel *next = &nvm;
    if (tracer)
        next = &traced_nvm.emplace(nvm, *tracer, counts);

    std::unique_ptr<Compressor> raw_comp;
    std::optional<TracedCompressor> traced_comp;
    const Compressor *comp = nullptr;
    const int alg = algIndex(cfg.compressor);
    if (cfg.governor != GovernorKind::None) {
        if (alg < 0)
            fatal("simbench replay: compressor %s is not traced",
                  compressorKindName(cfg.compressor));
        raw_comp = makeCompressor(cfg.compressor);
        comp = raw_comp.get();
        if (tracer)
            comp = &traced_comp.emplace(*raw_comp, alg, *tracer, counts);
    }

    std::unique_ptr<KaguraController> kagura;
    if (cfg.enableKagura)
        kagura = std::make_unique<KaguraController>(cfg.kagura, nullptr);
    Chain ichain = makeChain(cfg, kagura.get(), tracer, counts);
    Chain dchain = makeChain(cfg, kagura.get(), tracer, counts);
    Cache icache(cfg.icache, *next, comp, ichain.head);
    Cache dcache(cfg.dcache, *next, comp, dchain.head);

    const Workload &wl = cachedWorkload(cfg.workload);
    wl.applyImage(nvm);

    // Power failures fall after these cumulative memory-op counts.
    std::vector<std::uint64_t> cuts;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < sim.powerFailures && i < sim.cycles.size();
         ++i) {
        cum += sim.cycles[i].loads + sim.cycles[i].stores;
        cuts.push_back(cum);
    }
    std::size_t next_cut = 0;

    Cycles now = 0;
    bool fetch_valid = false;
    Addr fetch_block = 0;
    // Core::fetch's line buffer: only a new block touches the ICache.
    const auto fetch = [&](Addr pc) {
        const Addr block = pc / cfg.icache.blockSize;
        if (fetch_valid && block == fetch_block) {
            ++now;
            return;
        }
        AccessOutcome out;
        {
            Span span(tracer, SpanId::CacheAccess);
            out = icache.access(pc, false, nullptr, 4, now);
        }
        now += out.latency;
        fetch_valid = true;
        fetch_block = block;
    };

    std::uint64_t mem_ops = 0;
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu) {
            for (unsigned i = 0; i < op.count; ++i)
                fetch(op.pc + 4ULL * i);
            continue;
        }
        fetch(op.pc);
        const bool is_store = op.type == MicroOp::Type::Store;
        std::uint8_t bytes[8];
        if (is_store) {
            for (unsigned i = 0; i < op.size; ++i)
                bytes[i] = static_cast<std::uint8_t>(op.value >> (8 * i));
        }
        AccessOutcome out;
        {
            Span span(tracer, SpanId::CacheAccess);
            out = dcache.access(op.addr, is_store, bytes, op.size, now);
        }
        now += out.latency;
        if (kagura) {
            Span span(tracer, SpanId::Kagura);
            kagura->onMemOpCommit();
        }
        ++mem_ops;
        while (next_cut < cuts.size() && cuts[next_cut] <= mem_ops) {
            ++next_cut;
            if (kagura) {
                Span span(tracer, SpanId::Kagura);
                kagura->onPowerFailure();
            }
            {
                Span span(tracer, SpanId::CacheFlush);
                icache.flushAndInvalidate();
            }
            {
                Span span(tracer, SpanId::CacheFlush);
                dcache.flushAndInvalidate();
            }
            fetch_valid = false;
            if (kagura) {
                Span span(tracer, SpanId::Kagura);
                kagura->onReboot();
            }
        }
    }

    if (!tracer)
        return;
    if (traced_comp)
        traced_comp->roundTripSamples();
    counts.memOps += mem_ops;
    if (comp)
        counts.compressorMemOps[alg] += mem_ops;
    if (kagura)
        counts.kaguraMemOps += mem_ops;
    counts.replayAccesses +=
        icache.stats().accesses + dcache.stats().accesses;
    counts.replayHits += icache.stats().hits + dcache.stats().hits;
    counts.simAccesses += sim.icache.accesses + sim.dcache.accesses;
    counts.simHits += sim.icache.hits + sim.dcache.hits;
}

} // namespace simbench

/**
 * @file
 * Tests for the core model (fetch line buffer, step accounting) and
 * the 20 synthetic workloads (determinism, structural properties,
 * arithmetic-intensity ordering, alignment invariants).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>

#include "core/core.hh"
#include "core/workload.hh"
#include "mem/nvm.hh"

namespace kagura
{
namespace
{

// --- trace recorder -----------------------------------------------------

TEST(TraceRecorder, RecordsOpsInOrder)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(64);
    rec.alu(3);
    rec.store(a, 0x12345678, 4);
    const std::uint64_t v = rec.load(a, 4);
    EXPECT_EQ(v, 0x12345678u);
    Workload wl = rec.finish("t");
    ASSERT_EQ(wl.ops().size(), 3u);
    EXPECT_EQ(wl.ops()[0].type, MicroOp::Type::Alu);
    EXPECT_EQ(wl.ops()[0].count, 3u);
    EXPECT_EQ(wl.ops()[1].type, MicroOp::Type::Store);
    EXPECT_EQ(wl.ops()[2].type, MicroOp::Type::Load);
    EXPECT_EQ(wl.committedInstructions(), 5u);
    EXPECT_EQ(wl.memoryOps(), 2u);
}

TEST(TraceRecorder, FunctionalMemorySeesInitAndStores)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(16);
    rec.initValue(a, 0xaabb, 2);
    EXPECT_EQ(rec.peek(a, 2), 0xaabbu);
    rec.store(a, 0xccdd, 2);
    EXPECT_EQ(rec.peek(a, 2), 0xccddu);
    // Initial image keeps the pre-store value.
    Workload wl = rec.finish("t");
    EXPECT_EQ(wl.initialImage().at(a), 0xbb);
}

TEST(TraceRecorder, LoopsResetThePc)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(8);
    rec.beginLoop();
    for (int i = 0; i < 3; ++i) {
        rec.load(a, 4);
        rec.endIteration();
    }
    rec.endLoop();
    Workload wl = rec.finish("t");
    ASSERT_EQ(wl.ops().size(), 3u);
    EXPECT_EQ(wl.ops()[0].pc, wl.ops()[1].pc);
    EXPECT_EQ(wl.ops()[1].pc, wl.ops()[2].pc);
}

TEST(TraceRecorder, NestedLoopsRestorePcPastTheBody)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(8);
    rec.beginLoop();
    rec.load(a, 4); // pc P
    rec.beginLoop();
    rec.load(a, 4);
    rec.endIteration();
    rec.endLoop();
    rec.endIteration();
    rec.endLoop();
    rec.load(a, 4); // must be beyond every loop pc
    Workload wl = rec.finish("t");
    const Addr last = wl.ops().back().pc;
    for (std::size_t i = 0; i + 1 < wl.ops().size(); ++i)
        EXPECT_LT(wl.ops()[i].pc, last);
}

TEST(TraceRecorder, AllocationsAreAligned)
{
    TraceRecorder rec;
    const Addr a = rec.allocate(3);
    const Addr b = rec.allocate(5);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 8, 0u);
    EXPECT_GE(b, a + 8);
}

TEST(TraceRecorder, CodeImageIsGenerated)
{
    TraceRecorder rec;
    rec.alu(10);
    Workload wl = rec.finish("t");
    // The executed PC range carries synthetic instruction bytes.
    const Addr pc0 = wl.ops()[0].pc;
    bool nonzero = false;
    for (unsigned i = 0; i < 40; ++i) {
        auto it = wl.initialImage().find(pc0 + i);
        if (it != wl.initialImage().end() && it->second != 0)
            nonzero = true;
    }
    EXPECT_TRUE(nonzero);
}

// --- workload registry ---------------------------------------------------

TEST(Workloads, TwentyApplications)
{
    EXPECT_EQ(workloadNames().size(), 20u);
    std::set<std::string> unique(workloadNames().begin(),
                                 workloadNames().end());
    EXPECT_EQ(unique.size(), 20u);
}

TEST(Workloads, PaperAppsArePresent)
{
    const std::set<std::string> names(workloadNames().begin(),
                                      workloadNames().end());
    for (const char *app :
         {"blowfish", "blowfishd", "g721d", "g721e", "jpeg", "jpegd",
          "mpeg2d", "susans", "typeset", "patricia", "strings"}) {
        EXPECT_TRUE(names.count(app)) << app;
    }
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_EXIT({ makeWorkload("nonexistent"); },
                testing::ExitedWithCode(1), "unknown workload");
}

TEST(Workloads, CachedBuilderReturnsSameObject)
{
    const Workload &a = cachedWorkload("crc32");
    const Workload &b = cachedWorkload("crc32");
    EXPECT_EQ(&a, &b);
}

TEST(Workloads, DeterministicAcrossBuilds)
{
    const Workload a = makeWorkload("dijkstra");
    const Workload b = makeWorkload("dijkstra");
    ASSERT_EQ(a.ops().size(), b.ops().size());
    for (std::size_t i = 0; i < a.ops().size(); i += 97) {
        EXPECT_EQ(a.ops()[i].pc, b.ops()[i].pc);
        EXPECT_EQ(a.ops()[i].addr, b.ops()[i].addr);
        EXPECT_EQ(a.ops()[i].value, b.ops()[i].value);
    }
    EXPECT_EQ(a.initialImage(), b.initialImage());
}

// Workload::fingerprint() of every suite app against
// tests/data/workload_fingerprints.txt (`capture_goldens workloads`).
// Unlike DeterministicAcrossBuilds, which compares two builds by the
// same recorder, this catches a recorder change that alters the op
// stream or the initial image.
TEST(Workloads, EveryAppMatchesTheFingerprintGolden)
{
    std::ifstream in(std::string(KAGURA_TEST_DATA_DIR) +
                     "/workload_fingerprints.txt");
    ASSERT_TRUE(in) << "missing workload_fingerprints.txt";
    std::map<std::string, std::uint64_t> golden;
    std::string app, hex;
    while (in >> app >> hex)
        golden[app] = std::stoull(hex, nullptr, 16);
    ASSERT_EQ(golden.size(), workloadNames().size());
    for (const std::string &name : workloadNames()) {
        ASSERT_EQ(golden.count(name), 1u) << name;
        EXPECT_EQ(makeWorkload(name).fingerprint(), golden[name])
            << name << " op stream or initial image changed";
    }
}

class WorkloadProperties : public testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadProperties, ReasonableLength)
{
    const Workload &wl = cachedWorkload(GetParam());
    EXPECT_GE(wl.committedInstructions(), 75000u);
    EXPECT_LE(wl.committedInstructions(), 1200000u);
}

TEST_P(WorkloadProperties, AccessesNeverCrossBlocks)
{
    const Workload &wl = cachedWorkload(GetParam());
    for (const MicroOp &op : wl.ops()) {
        if (op.type == MicroOp::Type::Alu)
            continue;
        ASSERT_EQ(op.addr / 32, (op.addr + op.size - 1) / 32)
            << "addr " << op.addr << " size " << unsigned(op.size);
    }
}

TEST_P(WorkloadProperties, HasMemoryTraffic)
{
    const Workload &wl = cachedWorkload(GetParam());
    EXPECT_GT(wl.memoryOps(), 1000u);
}

TEST_P(WorkloadProperties, PcsCoverABoundedCodeFootprint)
{
    const Workload &wl = cachedWorkload(GetParam());
    Addr min_pc = ~0ULL, max_pc = 0;
    for (const MicroOp &op : wl.ops()) {
        min_pc = std::min(min_pc, op.pc);
        max_pc = std::max(max_pc, op.pc);
    }
    // Embedded kernels: code footprints in the hundreds of bytes to a
    // few tens of kilobytes.
    EXPECT_LT(max_pc - min_pc, 64u * 1024u) << wl.name();
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadProperties,
                         testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(Workloads, IntensityStudySpansTheRange)
{
    // Fig. 17 premise: the six selected apps cover low -> high
    // arithmetic intensity, with jpegd/jpeg at the memory-bound end
    // and patricia/strings at the compute-bound end.
    const auto &names = intensityStudyNames();
    ASSERT_EQ(names.size(), 6u);
    const double lo =
        std::min(cachedWorkload(names[0]).arithmeticIntensity(),
                 cachedWorkload(names[1]).arithmeticIntensity());
    const double hi =
        std::max(cachedWorkload(names[4]).arithmeticIntensity(),
                 cachedWorkload(names[5]).arithmeticIntensity());
    EXPECT_LT(lo, 2.5);
    EXPECT_GT(hi, 6.0);
}

// --- core ----------------------------------------------------------------

struct CoreTest : testing::Test
{
    CoreTest()
        : nvm(NvmType::ReRam, 1 << 20), icache(cfg, nvm),
          dcache(cfg, nvm), core(icache, dcache)
    {
    }

    CacheConfig cfg{};
    Nvm nvm;
    Cache icache;
    Cache dcache;
    Core core;
};

TEST_F(CoreTest, AluGroupFetchesThroughLineBuffer)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 8; // exactly one 32 B block of instructions
    op.pc = 0x8000;
    const StepResult r = core.step(op, 1);
    EXPECT_EQ(r.instructions, 8u);
    // One array access (the line-buffer fill), seven buffered fetches.
    EXPECT_EQ(r.icacheArrayAccesses, 1u);
    EXPECT_EQ(icache.stats().accesses, 1u);
}

TEST_F(CoreTest, LineBufferPersistsAcrossSteps)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 1;
    op.pc = 0x8000;
    core.step(op, 1);
    op.pc = 0x8004; // same block
    const StepResult r = core.step(op, 2);
    EXPECT_EQ(r.icacheArrayAccesses, 0u);
}

TEST_F(CoreTest, FlushFetchBufferForcesRefetch)
{
    MicroOp op;
    op.type = MicroOp::Type::Alu;
    op.count = 1;
    op.pc = 0x8000;
    core.step(op, 1);
    core.flushFetchBuffer();
    const StepResult r = core.step(op, 2);
    EXPECT_EQ(r.icacheArrayAccesses, 1u);
}

TEST_F(CoreTest, LoadGoesThroughDCache)
{
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x1000;
    const StepResult r = core.step(op, 1);
    EXPECT_TRUE(r.isMem);
    EXPECT_FALSE(r.isStore);
    EXPECT_EQ(dcache.stats().accesses, 1u);
    EXPECT_EQ(r.dcache.nvmBlockReads, 1u);
}

TEST_F(CoreTest, StoreWritesThroughTheCache)
{
    MicroOp op;
    op.type = MicroOp::Type::Store;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x2000;
    op.value = 0xfeedface;
    const StepResult r = core.step(op, 1);
    EXPECT_TRUE(r.isStore);
    EXPECT_EQ(dcache.dirtyLines(), 1u);
    dcache.flushAndInvalidate();
    std::uint8_t raw[4];
    nvm.readBytes(0x2000, raw, 4);
    std::uint32_t v;
    std::memcpy(&v, raw, 4);
    EXPECT_EQ(v, 0xfeedfaceu);
}

TEST_F(CoreTest, CyclesAccumulateLatencies)
{
    MicroOp op;
    op.type = MicroOp::Type::Load;
    op.size = 4;
    op.pc = 0x8000;
    op.addr = 0x1000;
    const StepResult miss = core.step(op, 1);
    const StepResult hit = core.step(op, 2);
    EXPECT_GT(miss.cycles, hit.cycles);
    // A hot load: 1 cycle fetch (buffered) + 1 cycle dcache hit.
    EXPECT_EQ(hit.cycles, 2u);
}

} // namespace
} // namespace kagura

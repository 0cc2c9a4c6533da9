/**
 * @file
 * Tests for the EHS persistence designs and the NVM model:
 * NVSRAMCache's JIT checkpoint, NvMR's store-through renaming,
 * SweepCache's region sweeping + rollback, TaskBased's idempotent
 * task commits, and SpecPersist's speculative epoch persistence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "ehs/ehs.hh"
#include "ehs/nvmr.hh"
#include "ehs/nvsram.hh"
#include "ehs/specpersist.hh"
#include "ehs/sweepcache.hh"
#include "ehs/taskbased.hh"
#include "mem/nvm.hh"

namespace kagura
{
namespace
{

struct EhsTest : testing::Test
{
    EhsTest()
        : nvm(NvmType::ReRam, 1 << 20), icache(cfg, nvm),
          dcache(cfg, nvm),
          ctx{icache, dcache, energy, nvm.params(), {}, false, 36}
    {
    }

    void
    dirtyStore(Addr addr, std::uint32_t value)
    {
        std::uint8_t b[4];
        std::memcpy(b, &value, 4);
        dcache.access(addr, true, b, 4, ++now);
    }

    /**
     * A power failure as the PowerStateMachine drives it: apply the
     * design's declared failure actions, then charge the design.
     */
    EhsCost
    failPower(EhsDesign &ehs)
    {
        const FlushTotals totals =
            applyFailureActions(ehs.recovery(), ctx);
        return ehs.onPowerFailure(totals, ctx);
    }

    CacheConfig cfg{};
    Nvm nvm;
    Cache icache;
    Cache dcache;
    EnergyModel energy{};
    EhsContext ctx;
    Cycles now = 0;
};

// --- factory -------------------------------------------------------------

TEST(EhsFactory, ProducesAllDesigns)
{
    for (EhsKind kind :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache,
          EhsKind::TaskBased, EhsKind::SpecPersist}) {
        auto design = makeEhs(kind);
        EXPECT_EQ(design->kind(), kind);
        EXPECT_STREQ(design->name(), ehsKindName(kind));
    }
}

TEST(EhsFactory, MonitorOwnership)
{
    EXPECT_TRUE(makeEhs(EhsKind::NvsramCache)->hasVoltageMonitor());
    EXPECT_FALSE(makeEhs(EhsKind::NvMR)->hasVoltageMonitor());
    EXPECT_FALSE(makeEhs(EhsKind::SweepCache)->hasVoltageMonitor());
    EXPECT_FALSE(makeEhs(EhsKind::TaskBased)->hasVoltageMonitor());
    EXPECT_FALSE(makeEhs(EhsKind::SpecPersist)->hasVoltageMonitor());
}

TEST(EhsFactory, DeclaredRecoveryModels)
{
    // Only the JIT design flushes at failure; every other boundary
    // kind drops the volatile levels and re-establishes from its
    // commit boundary.
    EXPECT_EQ(makeEhs(EhsKind::NvsramCache)->recovery().boundary,
              CommitBoundary::JitCheckpoint);
    EXPECT_EQ(makeEhs(EhsKind::NvsramCache)->recovery().l1Action,
              FailureAction::FlushDirty);
    EXPECT_EQ(makeEhs(EhsKind::NvMR)->recovery().boundary,
              CommitBoundary::WriteThrough);
    EXPECT_EQ(makeEhs(EhsKind::SweepCache)->recovery().boundary,
              CommitBoundary::RegionSweep);
    EXPECT_EQ(makeEhs(EhsKind::TaskBased)->recovery().boundary,
              CommitBoundary::IdempotentTask);
    EXPECT_EQ(makeEhs(EhsKind::SpecPersist)->recovery().boundary,
              CommitBoundary::SpeculativeEpoch);
    for (EhsKind kind : {EhsKind::NvMR, EhsKind::SweepCache,
                         EhsKind::TaskBased, EhsKind::SpecPersist}) {
        const RecoveryModel &model = makeEhs(kind)->recovery();
        EXPECT_EQ(model.l1Action, FailureAction::DropVolatile);
        EXPECT_EQ(model.l2Action, FailureAction::DropVolatile);
    }
}

// --- NVSRAMCache -----------------------------------------------------------

TEST_F(EhsTest, NvsramCheckpointFlushesDirtyBlocks)
{
    NvsramEhs ehs;
    dirtyStore(0x100, 0xaa);
    dirtyStore(0x200, 0xbb);
    const EhsCost cost = failPower(ehs);
    EXPECT_EQ(cost.nvmBlockWrites, 2u);
    EXPECT_GT(cost.energy,
              2 * nvm.params().writeEnergy); // flush + registers
    EXPECT_EQ(dcache.validLines(), 0u);      // cache lost on reboot
    std::uint8_t raw[4];
    nvm.readBytes(0x100, raw, 4);
    std::uint32_t v;
    std::memcpy(&v, raw, 4);
    EXPECT_EQ(v, 0xaau); // but the data survived in NVM
}

TEST_F(EhsTest, NvsramCleanCheckpointIsCheap)
{
    NvsramEhs ehs;
    dcache.access(0x100, false, nullptr, 4, 1); // clean fill
    const EhsCost cost = failPower(ehs);
    EXPECT_EQ(cost.nvmBlockWrites, 0u);
    // Only register save energy remains.
    EXPECT_NEAR(cost.energy, 36 * energy.nvffWrite, 1e-9);
}

TEST_F(EhsTest, NvsramRebootRestoresRegisters)
{
    NvsramEhs ehs;
    const EhsCost cost = ehs.onReboot(ctx);
    EXPECT_GE(cost.energy, 36 * energy.nvffRead + energy.rebootEnergy);
    EXPECT_GE(cost.cycles, energy.rebootLatency);
}

TEST_F(EhsTest, NvsramResumesExactlyWhereItFailed)
{
    NvsramEhs ehs;
    EXPECT_EQ(ehs.resumeIndex(1234), 1234u);
}

// --- NvMR -------------------------------------------------------------------

TEST_F(EhsTest, NvmrStoresPersistImmediately)
{
    NvmrEhs ehs;
    dirtyStore(0x100, 0x77);
    ehs.onStore(0x100, ctx);
    // The block was written through and marked clean.
    EXPECT_EQ(dcache.dirtyLines(), 0u);
    std::uint8_t raw[4];
    nvm.readBytes(0x100, raw, 4);
    std::uint32_t v;
    std::memcpy(&v, raw, 4);
    EXPECT_EQ(v, 0x77u);
}

TEST_F(EhsTest, NvmrMergeBufferCoalesces)
{
    NvmrEhs ehs;
    dirtyStore(0x100, 1);
    const EhsCost first = ehs.onStore(0x100, ctx);
    EXPECT_EQ(first.nvmBlockWrites, 1u);
    dirtyStore(0x104, 2); // same block: coalesced
    const EhsCost second = ehs.onStore(0x104, ctx);
    EXPECT_EQ(second.nvmBlockWrites, 0u);
    EXPECT_LT(second.energy, first.energy);
    EXPECT_EQ(ehs.mergeHits(), 1u);
}

TEST_F(EhsTest, NvmrPowerFailureNeedsNoFlush)
{
    NvmrEhs ehs;
    dirtyStore(0x100, 9);
    ehs.onStore(0x100, ctx);
    const EhsCost cost = failPower(ehs);
    EXPECT_EQ(cost.nvmBlockWrites, 0u);
    EXPECT_EQ(dcache.validLines(), 0u);
    // Data still safe.
    std::uint8_t raw[4];
    nvm.readBytes(0x100, raw, 4);
    std::uint32_t v;
    std::memcpy(&v, raw, 4);
    EXPECT_EQ(v, 9u);
}

TEST_F(EhsTest, NvmrMapTableCacheMissesCost)
{
    NvmrEhs ehs;
    // Touch more distinct blocks than the 16-entry MTC holds.
    for (unsigned k = 0; k < 40; ++k) {
        dirtyStore(0x1000 + k * 32, k);
        ehs.onStore(0x1000 + k * 32, ctx);
    }
    EXPECT_GE(ehs.mapMisses(), 40u);
}

// --- SweepCache --------------------------------------------------------------

TEST_F(EhsTest, SweepRegionBoundarySweepsDirtyBlocks)
{
    SweepEhs ehs(100);
    dirtyStore(0x100, 0x55);
    // 99 instructions: no boundary yet.
    EhsCost cost = ehs.onInstructionCommit(99, 10, ctx);
    EXPECT_EQ(cost.nvmBlockWrites, 0u);
    EXPECT_EQ(dcache.dirtyLines(), 1u);
    // Crossing the boundary sweeps.
    cost = ehs.onInstructionCommit(1, 11, ctx);
    EXPECT_EQ(cost.nvmBlockWrites, 1u);
    EXPECT_EQ(dcache.dirtyLines(), 0u);
    EXPECT_TRUE(dcache.contains(0x100)); // swept, not invalidated
    EXPECT_EQ(ehs.sweeps(), 1u);
}

TEST_F(EhsTest, SweepRollsBackToTheBoundary)
{
    SweepEhs ehs(100);
    ehs.onInstructionCommit(100, 40, ctx); // boundary at op 40
    ehs.onInstructionCommit(50, 70, ctx);  // no boundary
    failPower(ehs);
    EXPECT_EQ(ehs.resumeIndex(70), 40u);
    ehs.noteRollback(70, ehs.resumeIndex(70));
    EXPECT_EQ(ehs.reExecutedOps(), 30u);
}

TEST_F(EhsTest, SweepPowerFailureDropsCaches)
{
    SweepEhs ehs(1000);
    dirtyStore(0x100, 1);
    failPower(ehs);
    EXPECT_EQ(dcache.validLines(), 0u);
}

TEST_F(EhsTest, SweepRejectsZeroRegion)
{
    EXPECT_EXIT({ SweepEhs bad(0); }, testing::ExitedWithCode(1),
                "region size");
}

// --- TaskBased ---------------------------------------------------------------

TEST_F(EhsTest, TaskCommitPersistsWriteSetPlusCommitRecord)
{
    TaskBasedEhs ehs(100);
    dirtyStore(0x100, 0x11);
    EhsCost cost = ehs.onInstructionCommit(99, 10, ctx);
    EXPECT_EQ(cost.nvmBlockWrites, 0u); // task still open
    EXPECT_EQ(dcache.dirtyLines(), 1u);
    cost = ehs.onInstructionCommit(1, 11, ctx);
    // One dirty block + the commit record, each a full-latency NVM
    // block write, plus the regWords NVFF save at a word per cycle.
    EXPECT_EQ(cost.nvmBlockWrites, 2u);
    EXPECT_EQ(cost.cycles, 2 * nvm.params().writeLatency + 36);
    EXPECT_NEAR(cost.energy,
                2 * nvm.params().writeEnergy + 36 * energy.nvffWrite,
                1e-9);
    EXPECT_EQ(dcache.dirtyLines(), 0u);
    EXPECT_TRUE(dcache.contains(0x100)); // persisted, not dropped
    EXPECT_EQ(ehs.tasksCommitted(), 1u);
}

TEST_F(EhsTest, TaskPrivatizationChargesFirstStoreToABlockOnly)
{
    TaskBasedEhs ehs(100);
    const EhsCost first = ehs.onStore(0x100, ctx);
    EXPECT_EQ(ehs.privatizedStores(), 1u);
    EXPECT_EQ(first.cycles, nvm.params().writeLatency / 4);
    EXPECT_NEAR(first.energy,
                nvm.params().readEnergy / 4 +
                    nvm.params().writeEnergy / 4,
                1e-9);
    // Same block again within the task: already privatized.
    const EhsCost second = ehs.onStore(0x104, ctx);
    EXPECT_EQ(second.cycles, 0u);
    EXPECT_NEAR(second.energy, 0.0, 1e-12);
    EXPECT_EQ(ehs.privatizedStores(), 1u);
    // The next task privatizes afresh.
    ehs.onInstructionCommit(100, 50, ctx);
    ehs.onStore(0x100, ctx);
    EXPECT_EQ(ehs.privatizedStores(), 2u);
}

TEST_F(EhsTest, TaskFailureReExecutesOpenTaskFromItsEntry)
{
    TaskBasedEhs ehs(100);
    ehs.onInstructionCommit(100, 40, ctx); // task commit at op 40
    ehs.onInstructionCommit(50, 70, ctx);  // open task
    dirtyStore(0x100, 1);
    const EhsCost cost = failPower(ehs);
    EXPECT_EQ(cost.nvmBlockWrites, 0u); // nothing flushed
    EXPECT_EQ(dcache.validLines(), 0u); // caches dropped
    EXPECT_EQ(ehs.resumeIndex(70), 40u);
    ehs.noteRollback(70, ehs.resumeIndex(70));
    EXPECT_EQ(ehs.reExecutedOps(), 30u);
    // The failure closed the open task: the next 50 instructions do
    // not cross a boundary that partial progress would have reached.
    const EhsCost after = ehs.onInstructionCommit(50, 120, ctx);
    EXPECT_EQ(ehs.tasksCommitted(), 1u);
    EXPECT_EQ(after.nvmBlockWrites, 0u);
}

TEST_F(EhsTest, TaskRepeatedFailuresSplitTheReplayTask)
{
    TaskBasedEhs ehs(100);
    failPower(ehs);
    failPower(ehs); // task died twice: replay length halves to 50
    ehs.onInstructionCommit(49, 49, ctx);
    EXPECT_EQ(ehs.tasksCommitted(), 0u);
    ehs.onInstructionCommit(1, 50, ctx);
    EXPECT_EQ(ehs.tasksCommitted(), 1u);
    EXPECT_EQ(ehs.splitCommits(), 1u);
    EXPECT_EQ(ehs.resumeIndex(60), 50u);
    // A successful commit restores the full task length.
    ehs.onInstructionCommit(99, 149, ctx);
    EXPECT_EQ(ehs.tasksCommitted(), 1u);
    ehs.onInstructionCommit(1, 150, ctx);
    EXPECT_EQ(ehs.tasksCommitted(), 2u);
    EXPECT_EQ(ehs.splitCommits(), 1u);
}

TEST_F(EhsTest, TaskRejectsZeroSize)
{
    EXPECT_EXIT({ TaskBasedEhs bad(0); }, testing::ExitedWithCode(1),
                "task size");
}

// --- SpecPersist -------------------------------------------------------------

TEST_F(EhsTest, SpecDurablePointTrailsTheDrainByOneEpoch)
{
    SpecPersistEhs ehs(100);
    ehs.onInstructionCommit(100, 10, ctx); // epoch 1 starts draining
    EXPECT_EQ(ehs.epochsCommitted(), 1u);
    EXPECT_EQ(ehs.resumeIndex(15), 0u); // drain not yet durable
    ehs.onInstructionCommit(100, 20, ctx); // epoch 1 durable now
    EXPECT_EQ(ehs.resumeIndex(25), 10u);
}

TEST_F(EhsTest, SpecEpochDrainOverlapsExecution)
{
    SpecPersistEhs ehs(100);
    dirtyStore(0x100, 7);
    const EhsCost cost = ehs.onInstructionCommit(100, 10, ctx);
    // The async drain hides three quarters of each write's latency.
    EXPECT_EQ(cost.nvmBlockWrites, 1u);
    EXPECT_EQ(cost.cycles, nvm.params().writeLatency / 4 + 36);
    EXPECT_NEAR(cost.energy,
                nvm.params().writeEnergy + 36 * energy.nvffWrite,
                1e-9);
    EXPECT_EQ(dcache.dirtyLines(), 0u);
}

TEST_F(EhsTest, SpecSquashPaysVerifyScanOverTheDrainSet)
{
    SpecPersistEhs ehs(100);
    dirtyStore(0x100, 1);
    dirtyStore(0x200, 2);
    ehs.onInstructionCommit(100, 10, ctx); // 2 blocks in flight
    const EhsCost cost = failPower(ehs);
    EXPECT_EQ(ehs.squashes(), 1u);
    EXPECT_EQ(cost.cycles, 2u); // one verify read per block
    EXPECT_NEAR(cost.energy, 2 * nvm.params().readEnergy / 8, 1e-9);
    EXPECT_EQ(dcache.validLines(), 0u);
    // The squash discarded the in-flight drain: a second failure has
    // nothing left to verify.
    const EhsCost again = failPower(ehs);
    EXPECT_EQ(again.cycles, 0u);
    EXPECT_EQ(ehs.squashes(), 2u);
}

TEST_F(EhsTest, SpecRollbackSpansUpToTwoEpochs)
{
    SpecPersistEhs ehs(100);
    ehs.onInstructionCommit(100, 10, ctx);
    ehs.onInstructionCommit(100, 20, ctx); // persisted=10, draining=20
    failPower(ehs);
    EXPECT_EQ(ehs.resumeIndex(25), 10u);
    ehs.noteRollback(25, ehs.resumeIndex(25));
    EXPECT_EQ(ehs.reExecutedOps(), 15u);
    // Recovery re-executes non-speculatively: the first boundary after
    // the squash persists synchronously and the durable point advances
    // with it — one epoch per power cycle suffices for progress.
    ehs.onInstructionCommit(100, 35, ctx);
    EXPECT_EQ(ehs.resumeIndex(40), 35u);
    EXPECT_EQ(ehs.recoveryCommits(), 1u);
}

TEST_F(EhsTest, SpecRecoveryCommitDrainsSynchronously)
{
    SpecPersistEhs ehs(100);
    failPower(ehs);
    dirtyStore(0x100, 7);
    const EhsCost cost = ehs.onInstructionCommit(100, 10, ctx);
    // No async overlap in recovery mode: the full write latency shows.
    EXPECT_EQ(cost.nvmBlockWrites, 1u);
    EXPECT_EQ(cost.cycles, nvm.params().writeLatency + 36);
    EXPECT_EQ(ehs.resumeIndex(15), 10u); // durable immediately
    // Nothing is left in flight, so a failure right after verifies 0.
    EXPECT_EQ(failPower(ehs).cycles, 0u);
}

TEST_F(EhsTest, SpecRepeatedSquashesShortenTheRecoveryEpoch)
{
    SpecPersistEhs ehs(100);
    failPower(ehs);
    failPower(ehs); // two consecutive squashes: recovery epoch is 50
    ehs.onInstructionCommit(49, 49, ctx);
    EXPECT_EQ(ehs.epochsCommitted(), 0u);
    ehs.onInstructionCommit(1, 50, ctx);
    EXPECT_EQ(ehs.epochsCommitted(), 1u);
    EXPECT_EQ(ehs.resumeIndex(60), 50u);
    // A durable advance restores the full epoch length: the next
    // boundary is 100 instructions out, and its drain is speculative
    // again (not yet durable).
    ehs.onInstructionCommit(99, 149, ctx);
    EXPECT_EQ(ehs.epochsCommitted(), 1u);
    ehs.onInstructionCommit(1, 150, ctx);
    EXPECT_EQ(ehs.epochsCommitted(), 2u);
    EXPECT_EQ(ehs.resumeIndex(160), 50u);
}

TEST_F(EhsTest, SpecRejectsZeroEpoch)
{
    EXPECT_EXIT({ SpecPersistEhs bad(0); }, testing::ExitedWithCode(1),
                "epoch size");
}

// --- NVM ----------------------------------------------------------------------

TEST(Nvm, FunctionalReadWrite)
{
    Nvm nvm(NvmType::ReRam, 4096);
    const std::uint8_t data[4] = {1, 2, 3, 4};
    nvm.writeBytes(100, data, 4);
    std::uint8_t out[4];
    nvm.readBytes(100, out, 4);
    EXPECT_EQ(std::memcmp(data, out, 4), 0);
}

TEST(Nvm, AddressesWrapModuloCapacity)
{
    Nvm nvm(NvmType::ReRam, 4096);
    const std::uint8_t b = 0x5a;
    nvm.writeBytes(4096 + 8, &b, 1);
    std::uint8_t out;
    nvm.readBytes(8, &out, 1);
    EXPECT_EQ(out, 0x5a);
}

// The array is stored as 4 KB pages allocated on first write; it must
// behave exactly like one flat byte vector indexed modulo capacity.
TEST(Nvm, MatchesAFlatByteVectorOnRandomSpans)
{
    // A capacity that is not a page multiple (partial last page), one
    // that is, and one smaller than a page (spans wrap more than once).
    for (std::uint64_t capacity : {3 * 4096u + 100u, 4 * 4096u, 100u}) {
        Nvm nvm(NvmType::ReRam, capacity);
        std::vector<std::uint8_t> flat(capacity, 0);
        Rng rng(capacity);
        std::vector<std::uint8_t> buf;
        for (unsigned step = 0; step < 3000; ++step) {
            // Unaligned addresses anywhere in two wraps of the array;
            // spans up to 2.5 pages, so many cross a page boundary and
            // some cross the end of the array.
            Addr addr = rng.below(2 * capacity);
            if (step % 5 == 0) // land near the end: wrap on purpose
                addr = capacity - 1 - rng.below(std::min<std::uint64_t>(
                                           capacity, 64));
            const std::size_t count = 1 + rng.below(10240);
            buf.resize(count);
            if (rng.chance(0.5)) {
                for (auto &b : buf)
                    b = static_cast<std::uint8_t>(rng.next());
                nvm.writeBytes(addr, buf.data(), count);
                for (std::size_t i = 0; i < count; ++i)
                    flat[(addr + i) % capacity] = buf[i];
            } else {
                nvm.readBytes(addr, buf.data(), count);
                for (std::size_t i = 0; i < count; ++i)
                    ASSERT_EQ(buf[i], flat[(addr + i) % capacity])
                        << "capacity " << capacity << " addr " << addr
                        << " byte " << i;
            }
        }
        std::vector<std::uint8_t> all(capacity);
        nvm.readBytes(0, all.data(), capacity);
        EXPECT_EQ(all, flat) << "capacity " << capacity;
    }
}

TEST(Nvm, NeverWrittenBytesReadZero)
{
    Nvm nvm(NvmType::ReRam, 16ULL << 20);
    const std::uint8_t one = 0xff;
    nvm.writeBytes(5 * 4096 + 7, &one, 1);
    // Untouched pages, and the untouched rest of a written page.
    for (Addr addr : {Addr{0}, Addr{5 * 4096 - 64}, Addr{5 * 4096 + 8},
                      Addr{(16ULL << 20) - 64}}) {
        std::vector<std::uint8_t> out(64, 0xaa);
        nvm.readBytes(addr, out.data(), out.size());
        EXPECT_EQ(out, std::vector<std::uint8_t>(64, 0)) << addr;
    }
    std::uint8_t back = 0;
    nvm.readBytes(5 * 4096 + 7, &back, 1);
    EXPECT_EQ(back, 0xff);
}

TEST(Nvm, BlockReadCopies)
{
    Nvm nvm(NvmType::ReRam, 4096);
    const std::uint8_t b = 7;
    nvm.writeBytes(64, &b, 1);
    Block block(32);
    nvm.readBlock(64, block.span());
    ASSERT_EQ(block.size(), 32u);
    EXPECT_EQ(block[0], 7);
    EXPECT_EQ(block[1], 0);
}

TEST(Nvm, AccessCountersTrack)
{
    Nvm nvm(NvmType::ReRam, 4096);
    nvm.noteBlockRead();
    nvm.noteBlockWrite();
    nvm.noteBlockWrite();
    EXPECT_EQ(nvm.blockReads(), 1u);
    EXPECT_EQ(nvm.blockWrites(), 2u);
}

TEST(Nvm, ZeroCapacityIsFatal)
{
    EXPECT_EXIT({ Nvm bad(NvmType::ReRam, 0); },
                testing::ExitedWithCode(1), "capacity");
}

} // namespace
} // namespace kagura

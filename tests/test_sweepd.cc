/**
 * @file
 * Tests for the canonical-key config codec and its round-trip law
 * (the key text every result-cache entry stores), the job-kind tags,
 * and result-cache maintenance (stats + gc).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/logging.hh"
#include "runner/cache_maint.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/runner.hh"
#include "sim/config_fields.hh"
#include "sim/experiment.hh"

namespace kagura
{
namespace
{

namespace fs = std::filesystem;

/**
 * Hermetic fixture: the global cache store is restored after every
 * test, so cache tests never touch a developer's .kagura-cache.
 */
class SweepdTests : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        informEnabled = false;
        savedEnabled = runner::CacheStore::global().enabled();
        savedDir = runner::CacheStore::global().directory();
        runner::CacheStore::global().setEnabled(false);
    }

    void
    TearDown() override
    {
        runner::CacheStore::global().setDirectory(savedDir);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /** Point the global store at a fresh directory and enable it. */
    std::string
    freshCache(const std::string &leaf)
    {
        const std::string dir = testing::TempDir() + "kagura-sw-" + leaf;
        fs::remove_all(dir);
        fs::create_directories(dir);
        runner::CacheStore::global().setDirectory(dir);
        runner::CacheStore::global().setEnabled(true);
        return dir;
    }

    bool savedEnabled = true;
    std::string savedDir;
};

// ---------------------------------------------------------------
// Canonical keys as a codec (parseCanonicalKey(); the
// round-trip law over every axis value: tests/test_config_fields.cc)
// ---------------------------------------------------------------

TEST_F(SweepdTests, DefaultConfigRoundTripsThroughCodec)
{
    const SimConfig config = baselineConfig("crc32");
    const std::string key = config.canonicalKey();
    SimConfig parsed;
    std::string error;
    ASSERT_EQ(parseCanonicalKey(key, parsed, error), KeyParseStatus::Ok)
        << error;
    EXPECT_EQ(parsed.canonicalKey(), key);
}

TEST_F(SweepdTests, HeavilyNonDefaultConfigRoundTrips)
{
    SimConfig config = accKaguraConfig("fft");
    config.compressor = CompressorKind::Fvc;
    config.ehs = EhsKind::SweepCache;
    config.nvmType = NvmType::SttRam;
    config.nvmBytes = 8ull * 1024 * 1024;
    config.trace = TraceKind::Thermal;
    config.traceSeed = 77;
    config.traceScale = 1.75;
    config.dcache.replacement = ReplKind::Fifo;
    config.dcache.ways = 4;
    config.icache.sizeBytes = 512;
    config.kagura.scheme = AdaptScheme::Mimd;
    config.kagura.trigger = TriggerKind::Voltage;
    config.kagura.counterBits = 3;
    config.kagura.historyDepth = 2;
    config.kagura.increaseStep = 12.5;
    config.enableDecay = true;
    config.enablePrefetch = true;
    config.capacitor.capacitance = 10e-6;
    config.ioRegionInterval = 1000;
    config.ioRegionLength = 64;
    config.oracle = OracleMode::Record;

    const std::string key = config.canonicalKey();
    SimConfig parsed;
    std::string error;
    ASSERT_EQ(parseCanonicalKey(key, parsed, error), KeyParseStatus::Ok)
        << error;
    EXPECT_EQ(parsed.canonicalKey(), key);
    EXPECT_EQ(parsed.compressor, CompressorKind::Fvc);
    EXPECT_EQ(parsed.ehs, EhsKind::SweepCache);
    EXPECT_EQ(parsed.kagura.trigger, TriggerKind::Voltage);
    EXPECT_EQ(parsed.oracle, OracleMode::Record);
}

TEST_F(SweepdTests, EveryReplacementPolicyRoundTripsThroughCodec)
{
    // The round-trip law must cover every registered src/repl policy,
    // including the size-aware ones added after the seed.
    for (ReplKind kind : EnumNames<ReplKind>::values()) {
        SimConfig config = baselineConfig("crc32");
        config.icache.replacement = kind;
        config.dcache.replacement = kind;
        const std::string key = config.canonicalKey();
        SimConfig parsed;
        std::string error;
        ASSERT_EQ(parseCanonicalKey(key, parsed, error),
                  KeyParseStatus::Ok)
            << replacementPolicyName(kind) << ": " << error;
        EXPECT_EQ(parsed.canonicalKey(), key)
            << replacementPolicyName(kind);
        EXPECT_EQ(parsed.icache.replacement, kind);
        EXPECT_EQ(parsed.dcache.replacement, kind);
    }
}

TEST_F(SweepdTests, DistinctPoliciesProduceDistinctCanonicalKeys)
{
    std::set<std::string> keys;
    for (ReplKind kind : EnumNames<ReplKind>::values()) {
        SimConfig config = baselineConfig("crc32");
        config.dcache.replacement = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), EnumNames<ReplKind>::values().size());
}

TEST_F(SweepdTests, EveryEhsKindRoundTripsThroughCodec)
{
    // The round-trip law must cover every EHS design, including the
    // TaskBased and SpecPersist recovery models added after the seed.
    for (EhsKind kind : EnumNames<EhsKind>::values()) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        const std::string key = config.canonicalKey();
        SimConfig parsed;
        std::string error;
        ASSERT_EQ(parseCanonicalKey(key, parsed, error),
                  KeyParseStatus::Ok)
            << ehsKindName(kind) << ": " << error;
        EXPECT_EQ(parsed.canonicalKey(), key) << ehsKindName(kind);
        EXPECT_EQ(parsed.ehs, kind);
    }
}

TEST_F(SweepdTests, DistinctEhsKindsProduceDistinctCanonicalKeys)
{
    std::set<std::string> keys;
    for (EhsKind kind :
         {EhsKind::NvsramCache, EhsKind::NvMR, EhsKind::SweepCache,
          EhsKind::TaskBased, EhsKind::SpecPersist}) {
        SimConfig config = baselineConfig("crc32");
        config.ehs = kind;
        keys.insert(config.canonicalKey());
    }
    EXPECT_EQ(keys.size(), 5u);
}

TEST_F(SweepdTests, ConfigCodecRejectsMalformedKeys)
{
    SimConfig parsed;
    std::string error;

    // Unknown key: a newer client's field this build cannot honour.
    EXPECT_EQ(parseCanonicalKey(
                  "workload=crc32\nfrom.the.future=1\n", parsed, error),
              KeyParseStatus::Malformed);
    EXPECT_NE(error.find("unknown key"), std::string::npos);

    // Bad enum value.
    EXPECT_EQ(parseCanonicalKey(
                  "workload=crc32\ncompressor=gzip\n", parsed, error),
              KeyParseStatus::Malformed);

    // Unknown replacement policy: a typed Malformed, never a silent
    // fallback to LRU.
    EXPECT_EQ(parseCanonicalKey(
                  "workload=crc32\ndcache.replacement=MRU\n", parsed,
                  error),
              KeyParseStatus::Malformed);

    // Unknown EHS design name: same typed rejection, never a silent
    // fallback to the NVSRAMCache baseline.
    EXPECT_EQ(parseCanonicalKey("workload=crc32\nehs=Alpaca\n",
                                        parsed, error),
              KeyParseStatus::Malformed);

    // Missing trailing newline.
    EXPECT_EQ(
        parseCanonicalKey("workload=crc32", parsed, error),
        KeyParseStatus::Malformed);

    // No workload at all.
    EXPECT_EQ(parseCanonicalKey("governor=none\n", parsed,
                                        error),
              KeyParseStatus::Malformed);

    // Unknown workload.
    EXPECT_EQ(parseCanonicalKey("workload=not_an_app\n",
                                        parsed, error),
              KeyParseStatus::Malformed);

    // trace_hash without trace_path.
    EXPECT_EQ(
        parseCanonicalKey(
            "workload=crc32\nworkload.trace_hash=0011223344556677\n",
            parsed, error),
        KeyParseStatus::Malformed);

    // Parses line-by-line but is not a complete canonical key, so the
    // round-trip law rejects it.
    EXPECT_EQ(
        parseCanonicalKey("workload=crc32\n", parsed, error),
        KeyParseStatus::Malformed);
    EXPECT_NE(error.find("round-trip"), std::string::npos);
}

TEST_F(SweepdTests, ConfigCodecFlagsMissingTraceFile)
{
    SimConfig parsed;
    std::string error;
    EXPECT_EQ(parseCanonicalKey(
                  "workload=ghost-trace\n"
                  "workload.trace_hash=0011223344556677\n"
                  "workload.trace_path=/nonexistent/ghost.kgt\n",
                  parsed, error),
              KeyParseStatus::TraceMismatch);
    EXPECT_NE(error.find("not found"), std::string::npos);
}

TEST_F(SweepdTests, JobKindTagsRoundTrip)
{
    for (auto kind : {runner::SimJob::Kind::Plain,
                      runner::SimJob::Kind::IdealAware,
                      runner::SimJob::Kind::IdealUnaware}) {
        const auto parsed =
            runner::parseJobKind(runner::jobKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(runner::parseJobKind("bogus").has_value());
}

// ---------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------

TEST_F(SweepdTests, CacheStatsCountsEntriesShardsAndDebris)
{
    const std::string dir = freshCache("stats-cache");
    runner::CacheStore &store = runner::CacheStore::global();
    // Three sharded entries across two shards (top byte 0x01, 0x02).
    store.store(0x0100000000000001ull, "k1", "payload-one");
    store.store(0x0100000000000002ull, "k2", "payload-two");
    store.store(0x0200000000000001ull, "k3", "payload-three");
    // One pre-sharding flat entry and one writer-crash temp file.
    {
        std::ofstream legacy(dir + "/" +
                             runner::entryName(0x0300000000000001ull));
        legacy << "legacy-bytes";
        std::ofstream temp(dir + "/tmp-999-0");
        temp << "partial";
    }

    const runner::CacheStatsReport stats = runner::cacheStats(store);
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.legacyEntries, 1u);
    EXPECT_EQ(stats.tempFiles, 1u);
    EXPECT_EQ(stats.shards, 2u);
    EXPECT_EQ(stats.maxShardEntries, 2u);
    EXPECT_EQ(stats.minShardEntries, 1u);
    EXPECT_GT(stats.totalBytes, 0u);
    EXPECT_NEAR(stats.skew(), 2.0 / 1.5, 1e-9);
}

TEST_F(SweepdTests, CacheGcTrimsOldestFirstByBytes)
{
    freshCache("gc-bytes");
    runner::CacheStore &store = runner::CacheStore::global();
    const std::string payload(1000, 'x');
    store.store(0x0100000000000001ull, "old", payload);
    store.store(0x0200000000000001ull, "mid", payload);
    store.store(0x0300000000000001ull, "new", payload);
    // Backdate by mtime: old << mid << now.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(store.entryPath(0x0100000000000001ull),
                        now - std::chrono::hours(48));
    fs::last_write_time(store.entryPath(0x0200000000000001ull),
                        now - std::chrono::hours(24));

    runner::GcOptions options;
    options.maxBytes = 1500; // room for one ~1KB entry
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.scanned, 3u);
    EXPECT_EQ(report.deleted, 2u);
    EXPECT_EQ(report.remainingEntries, 1u);
    EXPECT_LE(report.remainingBytes, options.maxBytes);
    // The newest entry survives and still reads back.
    std::string out;
    EXPECT_TRUE(
        store.lookup(0x0300000000000001ull, "new", out));
    EXPECT_FALSE(
        store.lookup(0x0100000000000001ull, "old", out));
}

TEST_F(SweepdTests, CacheGcDropsEntriesPastMaxAge)
{
    freshCache("gc-age");
    runner::CacheStore &store = runner::CacheStore::global();
    store.store(0x0100000000000001ull, "ancient", "a");
    store.store(0x0200000000000001ull, "fresh", "b");
    fs::last_write_time(store.entryPath(0x0100000000000001ull),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(72));

    runner::GcOptions options;
    options.maxAgeSeconds = 24 * 3600;
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.deleted, 1u);
    std::string out;
    EXPECT_TRUE(store.lookup(0x0200000000000001ull, "fresh", out));
    EXPECT_FALSE(store.lookup(0x0100000000000001ull, "ancient", out));
}

TEST_F(SweepdTests, CacheGcSweepsStaleTempsButSparesFreshOnes)
{
    const std::string dir = freshCache("gc-temps");
    runner::CacheStore &store = runner::CacheStore::global();
    store.store(0x0100000000000001ull, "keep", "payload");
    {
        std::ofstream stale(dir + "/tmp-1-0");
        stale << "crashed writer";
        std::ofstream fresh(dir + "/tmp-2-0");
        fresh << "live writer";
    }
    fs::last_write_time(dir + "/tmp-1-0",
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(2));

    runner::GcOptions options;
    options.maxAgeSeconds = 7 * 24 * 3600;
    const runner::GcReport report = runner::cacheGc(store, options);
    EXPECT_EQ(report.tempFilesRemoved, 1u);
    EXPECT_FALSE(fs::exists(dir + "/tmp-1-0"));
    EXPECT_TRUE(fs::exists(dir + "/tmp-2-0"));
    EXPECT_EQ(report.deleted, 0u); // the real entry is young
}

} // namespace
} // namespace kagura
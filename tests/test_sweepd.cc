/**
 * @file
 * Tests for the src/sweepd subsystem: kagura.sweep/v1 payload codecs
 * (round trips and truncation fuzz), frame I/O hygiene (bounded
 * sizes, truncation = typed error never a hang), the canonical-key
 * config codec and its round-trip law, sweep manifests, daemon
 * end-to-end bit-identity against the in-process runner at several
 * client counts, warm-cache replay, kill-and-resume, the armed
 * runner client's graceful fallback, and result-cache maintenance
 * (stats + gc).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "kagura/oracle.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/config_fields.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sweepd/cache_maint.hh"
#include "sweepd/client.hh"
#include "sweepd/daemon.hh"
#include "sweepd/manifest.hh"
#include "sweepd/protocol.hh"

namespace kagura
{
namespace
{

namespace fs = std::filesystem;

/**
 * Hermetic fixture: the global cache store and the runner's batch
 * executor are restored after every test, so daemon tests neither
 * touch a developer's .kagura-cache nor leave the runner armed.
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
        sweepd::armRunnerClient("");
        runner::setJobCount(0);
        runner::CacheStore::global().setDirectory(savedDir);
        runner::CacheStore::global().setEnabled(savedEnabled);
    }

    /** Fresh per-test temp directory. */
    std::string
    tempDir(const std::string &leaf)
    {
        const std::string dir = testing::TempDir() + "kagura-sw-" + leaf;
        fs::remove_all(dir);
        fs::create_directories(dir);
        return dir;
    }

    /** Point the global store at a fresh directory and enable it. */
    std::string
    freshCache(const std::string &leaf)
    {
        const std::string dir = tempDir(leaf);
        runner::CacheStore::global().setDirectory(dir);
        runner::CacheStore::global().setEnabled(true);
        return dir;
    }

    /** A small, cheap, non-trivial job mix over one fast workload. */
    static std::vector<runner::SimJob>
    sampleJobs()
    {
        std::vector<runner::SimJob> jobs;
        for (unsigned seed = 0; seed < 2; ++seed) {
            runner::SimJob job;
            job.config = baselineConfig("crc32");
            job.config.traceSeed = suiteSeed(seed);
            jobs.push_back(job);
        }
        runner::SimJob acc;
        acc.config = accConfig("crc32");
        jobs.push_back(acc);
        runner::SimJob kag;
        kag.config = accKaguraConfig("crc32");
        jobs.push_back(kag);
        return jobs;
    }

    bool savedEnabled = true;
    std::string savedDir;
};

// ---------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------

TEST_F(SweepdTests, HelloBodyRoundTrips)
{
    sweepd::HelloBody in;
    in.protocol = 7;
    in.simulatorSalt = 0x0123456789abcdefull;
    in.resultFormat = 3;
    in.poolThreads = 12;
    sweepd::HelloBody out;
    ASSERT_TRUE(sweepd::decodeHello(sweepd::encodeHello(in), out));
    EXPECT_EQ(out.protocol, in.protocol);
    EXPECT_EQ(out.simulatorSalt, in.simulatorSalt);
    EXPECT_EQ(out.resultFormat, in.resultFormat);
    EXPECT_EQ(out.poolThreads, in.poolThreads);
}

TEST_F(SweepdTests, ErrorBodyRoundTrips)
{
    sweepd::ErrorBody in;
    in.code = sweepd::ErrorCode::TraceMismatch;
    in.message = "trace file drifted";
    sweepd::ErrorBody out;
    ASSERT_TRUE(sweepd::decodeError(sweepd::encodeError(in), out));
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.message, in.message);
}

TEST_F(SweepdTests, SubmitBodyRoundTrips)
{
    sweepd::SubmitBody in;
    in.batchId = 42;
    in.manifest = "nightly-grid.v3";
    in.jobs.push_back({"plain", "workload=crc32\n"});
    in.jobs.push_back({"ideal-aware", "workload=fft\ntrace.seed=9\n"});
    sweepd::SubmitBody out;
    ASSERT_TRUE(sweepd::decodeSubmit(sweepd::encodeSubmit(in), out));
    EXPECT_EQ(out.batchId, in.batchId);
    EXPECT_EQ(out.manifest, in.manifest);
    ASSERT_EQ(out.jobs.size(), 2u);
    EXPECT_EQ(out.jobs[0].kind, "plain");
    EXPECT_EQ(out.jobs[0].canonicalKey, in.jobs[0].canonicalKey);
    EXPECT_EQ(out.jobs[1].kind, "ideal-aware");
    EXPECT_EQ(out.jobs[1].canonicalKey, in.jobs[1].canonicalKey);
}

TEST_F(SweepdTests, ResultBodyRoundTripsBinaryPayload)
{
    sweepd::ResultBody in;
    in.batchId = 9;
    in.index = 1234;
    in.cached = true;
    in.seconds = 0.125;
    in.payload = std::string("\x00\x01\xff binary \x7f", 12);
    sweepd::ResultBody out;
    ASSERT_TRUE(sweepd::decodeResult(sweepd::encodeResult(in), out));
    EXPECT_EQ(out.batchId, in.batchId);
    EXPECT_EQ(out.index, in.index);
    EXPECT_EQ(out.cached, in.cached);
    EXPECT_EQ(out.seconds, in.seconds);
    EXPECT_EQ(out.payload, in.payload);
}

TEST_F(SweepdTests, ProgressAndBatchDoneRoundTrip)
{
    sweepd::ProgressBody p;
    p.batchId = 3;
    p.done = 10;
    p.total = 40;
    p.cacheHits = 6;
    p.simulations = 4;
    p.resumed = 2;
    sweepd::ProgressBody pOut;
    ASSERT_TRUE(
        sweepd::decodeProgress(sweepd::encodeProgress(p), pOut));
    EXPECT_EQ(pOut.done, p.done);
    EXPECT_EQ(pOut.resumed, p.resumed);

    sweepd::BatchDoneBody d;
    d.batchId = 3;
    d.total = 40;
    d.cacheHits = 30;
    d.simulations = 10;
    d.resumed = 12;
    sweepd::BatchDoneBody dOut;
    ASSERT_TRUE(
        sweepd::decodeBatchDone(sweepd::encodeBatchDone(d), dOut));
    EXPECT_EQ(dOut.total, d.total);
    EXPECT_EQ(dOut.simulations, d.simulations);
}

TEST_F(SweepdTests, CacheAndStatusBodiesRoundTrip)
{
    sweepd::CacheBody c;
    c.hash = 0xfeedface12345678ull;
    c.keyText = "workload=crc32\n";
    c.payload = std::string("\x00payload", 8);
    sweepd::CacheBody cOut;
    ASSERT_TRUE(sweepd::decodeCache(sweepd::encodeCache(c), cOut));
    EXPECT_EQ(cOut.hash, c.hash);
    EXPECT_EQ(cOut.keyText, c.keyText);
    EXPECT_EQ(cOut.payload, c.payload);

    sweepd::StatusBody s;
    s.poolThreads = 8;
    s.clients = 3;
    s.batches = 77;
    s.jobsDone = 1000;
    s.simulations = 400;
    s.cacheHits = 600;
    s.cacheMisses = 400;
    s.uptimeSeconds = 12.5;
    sweepd::StatusBody sOut;
    ASSERT_TRUE(sweepd::decodeStatus(sweepd::encodeStatus(s), sOut));
    EXPECT_EQ(sOut.batches, s.batches);
    EXPECT_EQ(sOut.cacheMisses, s.cacheMisses);
    EXPECT_EQ(sOut.uptimeSeconds, s.uptimeSeconds);
}

TEST_F(SweepdTests, DecodersRejectEveryTruncatedPrefix)
{
    sweepd::SubmitBody submit;
    submit.batchId = 1;
    submit.manifest = "m";
    submit.jobs.push_back({"plain", "workload=crc32\n"});
    submit.jobs.push_back({"ideal-unaware", "workload=sha\n"});
    const std::string submitBytes = sweepd::encodeSubmit(submit);
    for (std::size_t len = 0; len < submitBytes.size(); ++len) {
        sweepd::SubmitBody out;
        EXPECT_FALSE(sweepd::decodeSubmit(
            std::string_view(submitBytes).substr(0, len), out))
            << "prefix of length " << len << " decoded";
    }

    sweepd::ResultBody result;
    result.payload = "0123456789";
    const std::string resultBytes = sweepd::encodeResult(result);
    for (std::size_t len = 0; len < resultBytes.size(); ++len) {
        sweepd::ResultBody out;
        EXPECT_FALSE(sweepd::decodeResult(
            std::string_view(resultBytes).substr(0, len), out));
    }

    sweepd::HelloBody hello;
    const std::string helloBytes = sweepd::encodeHello(hello);
    for (std::size_t len = 0; len < helloBytes.size(); ++len) {
        sweepd::HelloBody out;
        EXPECT_FALSE(sweepd::decodeHello(
            std::string_view(helloBytes).substr(0, len), out));
    }
}

TEST_F(SweepdTests, DecodersRejectTrailingGarbage)
{
    sweepd::HelloBody hello;
    sweepd::HelloBody out;
    EXPECT_FALSE(
        sweepd::decodeHello(sweepd::encodeHello(hello) + "x", out));

    sweepd::ProgressBody progress;
    sweepd::ProgressBody pOut;
    EXPECT_FALSE(sweepd::decodeProgress(
        sweepd::encodeProgress(progress) + std::string(1, '\0'), pOut));
}

TEST_F(SweepdTests, SubmitDecoderBoundsJobCount)
{
    // A forged count field must not drive a huge reserve(): 8-byte
    // batchId + 4-byte manifest len + 4-byte count = 16 bytes, with
    // count = 0xffffffff and no job bytes behind it.
    std::string bytes;
    for (int i = 0; i < 12; ++i)
        bytes.push_back('\0');
    bytes += std::string("\xff\xff\xff\xff", 4);
    sweepd::SubmitBody out;
    EXPECT_FALSE(sweepd::decodeSubmit(bytes, out));
}

// ---------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------

TEST_F(SweepdTests, FrameRoundTripsOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string payload("with\0nul", 8);
    ASSERT_TRUE(
        sweepd::writeFrame(fds[0], sweepd::FrameType::Result, payload));
    sweepd::Frame frame;
    ASSERT_EQ(sweepd::readFrame(fds[1], frame), sweepd::ReadStatus::Ok);
    EXPECT_EQ(frame.type, sweepd::FrameType::Result);
    EXPECT_EQ(frame.payload, payload);

    // Clean close on a frame boundary reads as Eof, not an error.
    ::close(fds[0]);
    EXPECT_EQ(sweepd::readFrame(fds[1], frame),
              sweepd::ReadStatus::Eof);
    ::close(fds[1]);
}

TEST_F(SweepdTests, TruncatedFrameIsAConnectionErrorNeverAHang)
{
    // EOF mid-header.
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        ASSERT_EQ(::send(fds[0], "\x08\x00", 2, 0), 2);
        ::close(fds[0]);
        sweepd::Frame frame;
        EXPECT_EQ(sweepd::readFrame(fds[1], frame),
                  sweepd::ReadStatus::Truncated);
        ::close(fds[1]);
    }
    // EOF mid-payload: header promises 8 bytes, delivers 3.
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        const char partial[] = {8, 0, 0, 0, /*type*/ 6, 'a', 'b', 'c'};
        ASSERT_EQ(::send(fds[0], partial, sizeof(partial), 0),
                  static_cast<ssize_t>(sizeof(partial)));
        ::close(fds[0]);
        sweepd::Frame frame;
        EXPECT_EQ(sweepd::readFrame(fds[1], frame),
                  sweepd::ReadStatus::Truncated);
        ::close(fds[1]);
    }
}

TEST_F(SweepdTests, OversizedFrameIsRejectedWithoutAllocation)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Length prefix far beyond maxFramePayload.
    const unsigned char header[] = {0xff, 0xff, 0xff, 0xff, 1};
    ASSERT_EQ(::send(fds[0], header, sizeof(header), 0),
              static_cast<ssize_t>(sizeof(header)));
    sweepd::Frame frame;
    EXPECT_EQ(sweepd::readFrame(fds[1], frame),
              sweepd::ReadStatus::TooLarge);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// Canonical keys as the wire format (parseCanonicalKey(); the
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

    // Unknown replacement policy: a typed Malformed (daemon answers
    // ErrorCode::BadJob), never a silent fallback to LRU.
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
// Sweep manifests
// ---------------------------------------------------------------

TEST_F(SweepdTests, ManifestValidatesIds)
{
    EXPECT_TRUE(sweepd::Manifest::validId("nightly-grid.v3_1"));
    EXPECT_FALSE(sweepd::Manifest::validId(""));
    EXPECT_FALSE(sweepd::Manifest::validId("has space"));
    EXPECT_FALSE(sweepd::Manifest::validId("../escape"));
    EXPECT_FALSE(sweepd::Manifest::validId(std::string(129, 'a')));
}

TEST_F(SweepdTests, ManifestPersistsAcrossReload)
{
    const std::string dir = tempDir("manifest");
    {
        sweepd::Manifest manifest(dir, "sweep-a");
        EXPECT_EQ(manifest.doneCount(), 0u);
        manifest.markDone(0x1111);
        manifest.markDone(0x2222);
        manifest.markDone(0x1111); // duplicate: set semantics
        EXPECT_EQ(manifest.doneCount(), 2u);
        EXPECT_TRUE(manifest.isDone(0x1111));
        EXPECT_FALSE(manifest.isDone(0x3333));
    }
    sweepd::Manifest reloaded(dir, "sweep-a");
    EXPECT_EQ(reloaded.doneCount(), 2u);
    EXPECT_TRUE(reloaded.isDone(0x2222));
}

TEST_F(SweepdTests, ManifestToleratesCorruptLines)
{
    const std::string dir = tempDir("manifest-corrupt");
    fs::create_directories(dir + "/manifests");
    {
        std::ofstream f(dir + "/manifests/dirty.sweep");
        f << "kagura.sweep-manifest/v1\n"
          << "done 00000000000000aa\n"
          << "garbage line\n"
          << "done zznothex\n"
          << "done 00000000000000bb\n";
    }
    sweepd::Manifest manifest(dir, "dirty");
    EXPECT_EQ(manifest.doneCount(), 2u);
    EXPECT_TRUE(manifest.isDone(0xaa));
    EXPECT_TRUE(manifest.isDone(0xbb));

    // A bad header means the file is not ours: treat as empty.
    {
        std::ofstream f(dir + "/manifests/alien.sweep");
        f << "some-other-format/v9\ndone 00000000000000cc\n";
    }
    sweepd::Manifest alien(dir, "alien");
    EXPECT_EQ(alien.doneCount(), 0u);
}

// ---------------------------------------------------------------
// Daemon end to end
// ---------------------------------------------------------------

TEST_F(SweepdTests, DaemonServedBatchIsBitIdenticalToInProcess)
{
    const std::vector<runner::SimJob> jobs = sampleJobs();

    // In-process reference, cache disabled so every job simulates.
    runner::setJobCount(2);
    const std::vector<SimResult> expected = runner::runJobs(jobs);

    // Daemon run against a fresh cache: every job simulates remotely.
    freshCache("e2e-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-e2e.sock", 2});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    sweepd::SweepClient client;
    ASSERT_TRUE(client.connect(daemon.socketPath(), &error)) << error;
    EXPECT_EQ(client.daemonThreads(), 2u);

    std::vector<SimResult> results;
    sweepd::BatchDoneBody done;
    unsigned progressFrames = 0;
    ASSERT_TRUE(client.runJobs(
        jobs, results, &error, &done, "",
        [&](const sweepd::ProgressBody &) { ++progressFrames; }))
        << error;
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(results[i], expected[i]))
            << "job " << i << " diverged through the daemon";
    EXPECT_EQ(done.total, jobs.size());
    EXPECT_EQ(done.simulations, jobs.size());
    EXPECT_EQ(done.cacheHits, 0u);
    EXPECT_GE(progressFrames, 1u); // at least the opening frame

    // Warm replay: the same batch resolves fully from the daemon's
    // cache -- zero new simulations.
    std::vector<SimResult> warm;
    ASSERT_TRUE(client.runJobs(jobs, warm, &error, &done)) << error;
    EXPECT_EQ(done.cacheHits, jobs.size());
    EXPECT_EQ(done.simulations, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(warm[i], expected[i]));

    // Daemon status reflects the served work.
    sweepd::StatusBody status;
    ASSERT_TRUE(client.status(status, &error)) << error;
    EXPECT_EQ(status.jobsDone, 2 * jobs.size());
    EXPECT_EQ(status.simulations, jobs.size());

    client.close();
    daemon.stop();
}

TEST_F(SweepdTests, ConcurrentClientsGetIdenticalResults)
{
    const std::vector<runner::SimJob> jobs = sampleJobs();
    runner::setJobCount(2);
    const std::vector<SimResult> expected = runner::runJobs(jobs);

    freshCache("multi-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-multi.sock", 3});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    constexpr int clients = 3;
    std::vector<std::vector<SimResult>> results(clients);
    std::vector<std::string> errors(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            sweepd::SweepClient client;
            if (!client.connect(daemon.socketPath(), &errors[c]))
                return;
            client.runJobs(jobs, results[c], &errors[c]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int c = 0; c < clients; ++c) {
        ASSERT_EQ(results[c].size(), jobs.size())
            << "client " << c << ": " << errors[c];
        for (std::size_t i = 0; i < jobs.size(); ++i)
            EXPECT_TRUE(exactlyEqual(results[c][i], expected[i]))
                << "client " << c << " job " << i;
    }
    daemon.stop();
}

TEST_F(SweepdTests, VersionMismatchedHelloGetsTypedErrorAndClose)
{
    freshCache("hello-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-hello.sock", 1});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  daemon.socketPath().c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    sweepd::HelloBody stale;
    stale.simulatorSalt = runner::simulatorVersionSalt + 1;
    stale.resultFormat = runner::resultFormatVersion;
    ASSERT_TRUE(sweepd::writeFrame(fd, sweepd::FrameType::Hello,
                                   sweepd::encodeHello(stale)));
    sweepd::Frame frame;
    ASSERT_EQ(sweepd::readFrame(fd, frame), sweepd::ReadStatus::Ok);
    ASSERT_EQ(frame.type, sweepd::FrameType::Error);
    sweepd::ErrorBody body;
    ASSERT_TRUE(sweepd::decodeError(frame.payload, body));
    EXPECT_EQ(body.code, sweepd::ErrorCode::VersionMismatch);
    EXPECT_NE(body.message.find("salt"), std::string::npos);
    // ... and the daemon closes the connection.
    EXPECT_EQ(sweepd::readFrame(fd, frame), sweepd::ReadStatus::Eof);
    ::close(fd);
    daemon.stop();
}

TEST_F(SweepdTests, FramesBeforeHelloAreRejected)
{
    freshCache("nohello-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-nohello.sock", 1});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  daemon.socketPath().c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(sweepd::writeFrame(fd, sweepd::FrameType::Status, {}));
    sweepd::Frame frame;
    ASSERT_EQ(sweepd::readFrame(fd, frame), sweepd::ReadStatus::Ok);
    ASSERT_EQ(frame.type, sweepd::FrameType::Error);
    sweepd::ErrorBody body;
    ASSERT_TRUE(sweepd::decodeError(frame.payload, body));
    EXPECT_EQ(body.code, sweepd::ErrorCode::Malformed);
    ::close(fd);
    daemon.stop();
}

TEST_F(SweepdTests, RemoteCacheGetPutByCanonicalHash)
{
    freshCache("remote-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-rcache.sock", 1});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    sweepd::SweepClient client;
    ASSERT_TRUE(client.connect(daemon.socketPath(), &error)) << error;

    const std::string key = "workload=crc32\n";
    const std::uint64_t hash = runner::fnv1a64(key);
    const std::string payload("artifact\x00了", 12);

    std::string fetched;
    EXPECT_FALSE(client.cacheGet(hash, key, fetched, &error));
    EXPECT_TRUE(error.empty()) << error; // miss, not a failure

    ASSERT_TRUE(client.cachePut(hash, key, payload, &error)) << error;
    ASSERT_TRUE(client.cacheGet(hash, key, fetched, &error)) << error;
    EXPECT_EQ(fetched, payload);

    // The daemon's store is the same sharded CacheStore on disk.
    std::string local;
    EXPECT_TRUE(
        runner::CacheStore::global().lookup(hash, key, local));
    EXPECT_EQ(local, payload);
    client.close();
    daemon.stop();
}

TEST_F(SweepdTests, KillAndResumeReplaysManifestEntries)
{
    const std::vector<runner::SimJob> jobs = sampleJobs();
    const std::vector<runner::SimJob> firstHalf(jobs.begin(),
                                                jobs.begin() + 2);
    freshCache("resume-cache");
    const std::string socket =
        testing::TempDir() + "kagura-resume.sock";
    const std::string manifestId = "resume-test-sweep";
    std::string error;

    // Session 1: run half the sweep under a manifest, then die.
    {
        sweepd::SweepDaemon daemon({socket, 2});
        ASSERT_TRUE(daemon.start(&error)) << error;
        sweepd::SweepClient client;
        ASSERT_TRUE(client.connect(socket, &error)) << error;
        std::vector<SimResult> results;
        sweepd::BatchDoneBody done;
        ASSERT_TRUE(client.runJobs(firstHalf, results, &error, &done,
                                   manifestId))
            << error;
        EXPECT_EQ(done.simulations, firstHalf.size());
        EXPECT_EQ(done.resumed, 0u);
        client.close();
        daemon.stop(); // the "kill"
    }

    // Session 2: the full sweep under the same manifest resumes --
    // completed entries replay from the cache, nothing re-simulates
    // twice.
    {
        sweepd::SweepDaemon daemon({socket, 2});
        ASSERT_TRUE(daemon.start(&error)) << error;
        sweepd::SweepClient client;
        ASSERT_TRUE(client.connect(socket, &error)) << error;
        std::vector<SimResult> results;
        sweepd::BatchDoneBody done;
        ASSERT_TRUE(client.runJobs(jobs, results, &error, &done,
                                   manifestId))
            << error;
        EXPECT_EQ(done.resumed, firstHalf.size());
        EXPECT_EQ(done.cacheHits, firstHalf.size());
        EXPECT_EQ(done.simulations, jobs.size() - firstHalf.size());
        client.close();
        daemon.stop();
    }

    // The manifest file itself lists every job now.
    sweepd::Manifest manifest(
        runner::CacheStore::global().directory(), manifestId);
    EXPECT_EQ(manifest.doneCount(), jobs.size());
}

TEST_F(SweepdTests, StalePortSocketFileIsReclaimed)
{
    const std::string socket =
        testing::TempDir() + "kagura-stale.sock";
    {
        std::ofstream f(socket); // plain file squatting on the path
    }
    sweepd::SweepDaemon daemon({socket, 1});
    std::string error;
    EXPECT_TRUE(daemon.start(&error)) << error;
    daemon.stop();

    // A *live* daemon's socket is refused, not stolen.
    sweepd::SweepDaemon first({socket, 1});
    ASSERT_TRUE(first.start(&error)) << error;
    sweepd::SweepDaemon second({socket, 1});
    EXPECT_FALSE(second.start(&error));
    EXPECT_NE(error.find("already listening"), std::string::npos);
    first.stop();
}

// ---------------------------------------------------------------
// Armed runner client (the bench --daemon path)
// ---------------------------------------------------------------

TEST_F(SweepdTests, ArmedRunnerRoutesBatchesThroughDaemon)
{
    const std::vector<runner::SimJob> jobs = sampleJobs();
    runner::setJobCount(2);
    const std::vector<SimResult> expected = runner::runJobs(jobs);

    freshCache("armed-cache");
    sweepd::SweepDaemon daemon(
        {testing::TempDir() + "kagura-armed.sock", 2});
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    sweepd::armRunnerClient(daemon.socketPath());
    EXPECT_TRUE(runner::batchExecutorInstalled());
    const std::vector<SimResult> viaDaemon = runner::runJobs(jobs);
    ASSERT_EQ(viaDaemon.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(viaDaemon[i], expected[i]));

    // The daemon actually served them (fresh cache, so they were
    // simulated daemon-side).
    sweepd::SweepClient probe;
    ASSERT_TRUE(probe.connect(daemon.socketPath(), &error)) << error;
    sweepd::StatusBody status;
    ASSERT_TRUE(probe.status(status, &error)) << error;
    EXPECT_EQ(status.jobsDone, jobs.size());
    probe.close();

    sweepd::armRunnerClient("");
    EXPECT_FALSE(runner::batchExecutorInstalled());
    daemon.stop();
}

TEST_F(SweepdTests, UnreachableDaemonFallsBackInProcess)
{
    const std::vector<runner::SimJob> jobs = sampleJobs();
    runner::setJobCount(2);
    const std::vector<SimResult> expected = runner::runJobs(jobs);

    sweepd::armRunnerClient(testing::TempDir() +
                            "kagura-no-such-daemon.sock");
    const std::vector<SimResult> results = runner::runJobs(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_TRUE(exactlyEqual(results[i], expected[i]));
}

TEST_F(SweepdTests, OracleReplayJobsAreDaemonIneligible)
{
    runner::SimJob plain;
    plain.config = baselineConfig("crc32");
    EXPECT_TRUE(sweepd::jobDaemonEligible(plain));

    runner::SimJob replay = plain;
    replay.config.oracle = OracleMode::Replay;
    EXPECT_FALSE(sweepd::jobDaemonEligible(replay));

    OracleLog log;
    runner::SimJob pinned = plain;
    pinned.config.oracleLog = &log;
    EXPECT_FALSE(sweepd::jobDaemonEligible(pinned));
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
    // One legacy flat entry and one writer-crash temp file.
    {
        std::ofstream legacy(
            store.legacyEntryPath(0x0300000000000001ull));
        legacy << "legacy-bytes";
        std::ofstream temp(dir + "/tmp-999-0");
        temp << "partial";
    }
    sweepd::Manifest manifest(dir, "stats-manifest");
    manifest.markDone(1);

    const sweepd::CacheStatsReport stats = sweepd::cacheStats(store);
    EXPECT_EQ(stats.entries, 4u);
    EXPECT_EQ(stats.legacyEntries, 1u);
    EXPECT_EQ(stats.tempFiles, 1u);
    EXPECT_EQ(stats.manifests, 1u);
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

    sweepd::GcOptions options;
    options.maxBytes = 1500; // room for one ~1KB entry
    const sweepd::GcReport report = sweepd::cacheGc(store, options);
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

    sweepd::GcOptions options;
    options.maxAgeSeconds = 24 * 3600;
    const sweepd::GcReport report = sweepd::cacheGc(store, options);
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

    sweepd::GcOptions options;
    options.maxAgeSeconds = 7 * 24 * 3600;
    const sweepd::GcReport report = sweepd::cacheGc(store, options);
    EXPECT_EQ(report.tempFilesRemoved, 1u);
    EXPECT_FALSE(fs::exists(dir + "/tmp-1-0"));
    EXPECT_TRUE(fs::exists(dir + "/tmp-2-0"));
    EXPECT_EQ(report.deleted, 0u); // the real entry is young
}

} // namespace
} // namespace kagura

/**
 * @file
 * Canonical-key gates over axisSampleConfigs(), one configuration per
 * registered axis value.
 *
 * canonical_keys.txt pins the FNV-1a hash of every sample's canonical
 * key, captured before the key emitter was rebuilt on the SimConfig
 * field table (`capture_goldens keys`). Any drift means every cached
 * result for that axis value would silently miss: fix the emitter, or
 * bump simulatorVersionSalt and recapture on purpose.
 *
 * The same list drives the round-trip law through parseCanonicalKey(),
 * so every axis value is also parsed back; the spelling test pins the
 * one enum name parser every front end shares.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/rng.hh"
#include "runner/config_hash.hh"
#include "sim/config_fields.hh"
#include "sim/experiment.hh"
#include "trace/trace_workload.hh"
#include "trace/trace_writer.hh"

namespace kagura
{
namespace
{

/** The sample list plus the scratch trace file its last row needs. */
class ConfigFields : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = std::filesystem::temp_directory_path() /
              ("kagura-config-fields-" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
        const std::string trace = (dir / "axis_sample.kgt").string();
        trace::writeTrace(
            Workload("axis_sample", {MicroOp{MicroOp::Type::Alu}}, {}),
            trace);
        samples = axisSampleConfigs(trace::workloadPrefix + trace);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    /** Canonical key with the machine-local trace directory masked. */
    std::string
    portableKey(const SimConfig &config) const
    {
        std::string key = config.canonicalKey();
        const std::string local = dir.string();
        for (std::size_t pos = key.find(local); pos != std::string::npos;
             pos = key.find(local))
            key.replace(pos, local.size(), "$DIR");
        return key;
    }

    std::filesystem::path dir;
    std::vector<NamedConfig> samples;
};

TEST_F(ConfigFields, EveryAxisValueKeyMatchesTheGolden)
{
    std::ifstream in(std::string(KAGURA_TEST_DATA_DIR) +
                     "/canonical_keys.txt");
    ASSERT_TRUE(in) << "missing canonical_keys.txt";
    std::vector<std::pair<std::string, std::string>> golden;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        golden.emplace_back(line.substr(0, space), line.substr(space + 1));
    }
    ASSERT_EQ(golden.size(), samples.size())
        << "sample list and canonical_keys.txt disagree in length";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(runner::fnv1a64(
                          portableKey(samples[i].config))));
        EXPECT_EQ(samples[i].label, golden[i].first);
        EXPECT_EQ(hex, golden[i].second)
            << samples[i].label << ": canonical key drifted\n"
            << samples[i].config.canonicalKey();
    }
}

TEST_F(ConfigFields, EveryAxisValueRoundTripsThroughTheParser)
{
    for (const NamedConfig &sample : samples) {
        const std::string key = sample.config.canonicalKey();
        SimConfig parsed;
        std::string error;
        ASSERT_EQ(parseCanonicalKey(key, parsed, error),
                  KeyParseStatus::Ok)
            << sample.label << ": " << error;
        EXPECT_EQ(parsed.canonicalKey(), key) << sample.label;
        EXPECT_EQ(parsed.describe(), sample.config.describe())
            << sample.label;
    }
}

TEST(ConfigFieldsDoubles, KeyDigitsMatchPrintfG17)
{
    // The key prints doubles through std::to_chars; they must stay the
    // digits printf("%.17g") gave, or every cached result would miss.
    Rng rng(0x6b657973);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t bits = rng.next();
        double value;
        std::memcpy(&value, &bits, sizeof(value));
        if (!std::isfinite(value))
            continue;
        if (i % 2)
            value = static_cast<double>(bits % 100000) / 1000.0;
        SimConfig config;
        config.traceScale = value;
        char want[64];
        std::snprintf(want, sizeof(want), "\ntrace.scale=%.17g\n", value);
        EXPECT_NE(config.canonicalKey().find(want), std::string::npos)
            << want;
    }
}

/** Every spelling parses through parseEnum<E>() to @p want. */
template <typename E>
void
expectSpellings(E want, std::initializer_list<const char *> spellings)
{
    for (const char *text : spellings) {
        const auto parsed = parseEnum<E>(text);
        ASSERT_TRUE(parsed.has_value()) << "'" << text << "' rejected";
        EXPECT_EQ(*parsed, want) << "'" << text << "'";
    }
}

template <typename E>
void
expectEveryNameParses()
{
    for (E value : EnumNames<E>::values())
        expectSpellings(value, {EnumNames<E>::name(value)});
}

TEST(ConfigFieldsSpellings, EveryNameParsesToItsValue)
{
    expectEveryNameParses<GovernorKind>();
    expectEveryNameParses<CompressorKind>();
    expectEveryNameParses<EhsKind>();
    expectEveryNameParses<NvmType>();
    expectEveryNameParses<TraceKind>();
    expectEveryNameParses<ReplKind>();
    expectEveryNameParses<TagLayoutKind>();
    expectEveryNameParses<AdaptScheme>();
    expectEveryNameParses<TriggerKind>();
}

TEST(ConfigFieldsSpellings, HistoricalCliSpellingsStillParse)
{
    // kagura_sim's flag values and kagura_sweep grid's axis values:
    // both front ends now parse through parseEnum<E>().
    expectSpellings(GovernorKind::None, {"none"});
    expectSpellings(GovernorKind::Always, {"always"});
    expectSpellings(GovernorKind::Acc, {"acc", "ACC"});
    expectSpellings(CompressorKind::Bdi, {"bdi", "BDI"});
    expectSpellings(CompressorKind::Fpc, {"fpc"});
    expectSpellings(CompressorKind::CPack, {"cpack", "c-pack", "C-Pack"});
    expectSpellings(CompressorKind::Dzc, {"dzc"});
    expectSpellings(CompressorKind::Bpc, {"bpc"});
    expectSpellings(CompressorKind::Fvc, {"fvc"});
    expectSpellings(TriggerKind::Memory, {"mem"});
    expectSpellings(TriggerKind::Voltage, {"vol"});
    expectSpellings(AdaptScheme::Aimd, {"aimd"});
    expectSpellings(AdaptScheme::Miad, {"miad"});
    expectSpellings(AdaptScheme::Aiad, {"aiad"});
    expectSpellings(AdaptScheme::Mimd, {"mimd"});
    expectSpellings(EhsKind::NvsramCache,
                    {"nvsram", "nvsramcache", "NVSRAMCache"});
    expectSpellings(EhsKind::NvMR, {"nvmr"});
    expectSpellings(EhsKind::SweepCache, {"sweepcache"});
    expectSpellings(EhsKind::TaskBased, {"taskbased"});
    expectSpellings(EhsKind::SpecPersist, {"specpersist"});
    expectSpellings(NvmType::ReRam, {"reram"});
    expectSpellings(NvmType::Pcm, {"pcm"});
    expectSpellings(NvmType::SttRam, {"sttram"});
    expectSpellings(TraceKind::RfHome, {"rfhome"});
    expectSpellings(TraceKind::Solar, {"solar"});
    expectSpellings(TraceKind::Thermal, {"thermal"});
    expectSpellings(TraceKind::Constant, {"constant"});
    expectSpellings(TagLayoutKind::Baseline, {"baseline"});
    expectSpellings(TagLayoutKind::Superblock, {"superblock", "SuperBlock"});
    expectSpellings(TagLayoutKind::Signature, {"signature"});
    expectSpellings(ReplKind::SizeOptgen, {"size-optgen", "SIZE-OPTGEN"});

    EXPECT_FALSE(parseEnum<CompressorKind>("gzip").has_value());
    EXPECT_FALSE(parseEnum<CompressorKind>("").has_value());
    EXPECT_FALSE(parseEnum<CompressorKind>("-").has_value());
    EXPECT_FALSE(parseEnum<EhsKind>("Alpaca").has_value());
    EXPECT_FALSE(parseEnum<EhsKind>("nvs").has_value());
    EXPECT_FALSE(parseEnum<ReplKind>("MRU").has_value());
    EXPECT_FALSE(parseEnum<TagLayoutKind>("dish").has_value());
}

TEST(ConfigFieldsSpellings, UsageListsEveryName)
{
    EXPECT_EQ(enumChoices<CompressorKind>(),
              "bdi | fpc | c-pack | dzc | bpc | fvc");
    EXPECT_EQ(enumChoices<EhsKind>(),
              "nvsramcache | nvmr | sweepcache | taskbased | specpersist");
}

} // namespace
} // namespace kagura

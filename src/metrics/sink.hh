/**
 * @file
 * Export sinks for metric records.
 *
 * The wire format is versioned by `schemaName` ("kagura.metrics/v1").
 * JSON-lines is the primary format -- one self-describing object per
 * line, safe to append to and to aggregate across processes (see
 * docs/METRICS.md for the field reference; metrics/validate.hh checks
 * conformance). A CSV sink is provided for spreadsheet-style
 * consumers; histograms are flattened into a `buckets` column.
 *
 * A process-wide *default sink* is how the bench harness arms export:
 * `bench::init` opens one from --metrics-out / KAGURA_METRICS_OUT and
 * everything else (headline emission, registry export, per-simulation
 * sets) writes through emitRecord(), which is a no-op when no sink is
 * attached -- the instruments themselves never check.
 */

#ifndef KAGURA_METRICS_SINK_HH
#define KAGURA_METRICS_SINK_HH

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "metrics/registry.hh"

namespace kagura
{
namespace metrics
{

/** Schema identifier stamped into every exported record. */
constexpr const char *schemaName = "kagura.metrics/v1";

/** @p text escaped for the inside of a JSON string literal. */
std::string jsonEscape(std::string_view text);

/** Consumes flattened records; implementations must be thread-safe. */
class Sink
{
  public:
    virtual ~Sink() = default;

    /** Write one record. */
    virtual void write(const Record &record) = 0;

    /** Push buffered output to its destination. */
    virtual void flush() {}
};

/** One JSON object per line; see docs/METRICS.md for the schema. */
class JsonLinesSink : public Sink
{
  public:
    /** Write to @p out; closes it on destruction iff @p owns. */
    explicit JsonLinesSink(std::FILE *out, bool owns = false)
        : file(out), owned(owns)
    {
    }

    ~JsonLinesSink() override;

    /** Open @p path for writing; nullptr on failure. */
    static std::unique_ptr<JsonLinesSink> open(const std::string &path);

    void write(const Record &record) override;
    void flush() override;

  private:
    std::mutex mutex;
    std::FILE *file;
    bool owned;
};

/**
 * CSV with a fixed header: schema,kind,name,labels,value,count,sum,
 * buckets. Labels flatten to `k=v;k=v`; histogram buckets to
 * `le:count|le:count|...` with `inf` for the overflow bucket.
 */
class CsvSink : public Sink
{
  public:
    explicit CsvSink(std::FILE *out, bool owns = false)
        : file(out), owned(owns)
    {
    }

    ~CsvSink() override;

    /** Open @p path for writing; nullptr on failure. */
    static std::unique_ptr<CsvSink> open(const std::string &path);

    void write(const Record &record) override;
    void flush() override;

  private:
    std::mutex mutex;
    std::FILE *file;
    bool owned;
    bool wroteHeader = false;
};

/**
 * Open a sink for @p path by extension: ".csv" gets a CsvSink,
 * anything else JSON-lines. nullptr on failure.
 */
std::unique_ptr<Sink> openSink(const std::string &path);

/**
 * Install the process-wide default sink (replacing and flushing any
 * previous one); pass nullptr to detach. Call from harness setup,
 * not concurrently with emitters.
 */
void setDefaultSink(std::unique_ptr<Sink> sink);

/** The default sink, or nullptr when none is attached. */
Sink *defaultSink();

/**
 * Labels merged into every record routed through emitRecord() (e.g.
 * bench="fig13_main_speedup"). Mutate during harness setup only.
 */
std::map<std::string, std::string> &defaultLabels();

/**
 * Write @p record to the default sink with defaultLabels() merged in
 * (record-local labels win). No-op when no sink is attached.
 */
void emitRecord(Record record);

/** Emit every instrument of @p registry through emitRecord(). */
void emitRegistry(const Registry &registry);

/** Emit one headline scalar (a bench's top-line number). */
void emitHeadline(std::string name, double value,
                  std::map<std::string, std::string> labels = {});

/**
 * Arm per-power-cycle time-series export: when on, every simulation
 * additionally emits one record per completed power cycle and series
 * (instructions, loads, stores, active cycles) with a `cycle_index`
 * label. Harnesses arm it from --metrics-timeseries /
 * KAGURA_METRICS_TIMESERIES; off by default because long intermittent
 * runs complete tens of thousands of cycles.
 */
void setTimeseriesEnabled(bool on);

/** True when per-power-cycle export is armed. */
bool timeseriesEnabled();

} // namespace metrics
} // namespace kagura

#endif // KAGURA_METRICS_SINK_HH

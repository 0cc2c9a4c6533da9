#include "metrics/sink.hh"

#include <atomic>
#include <cinttypes>
#include <cmath>

#include "common/logging.hh"

namespace kagura
{
namespace metrics
{

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += detail::vformat("\\u%04x",
                                       static_cast<unsigned>(
                                           static_cast<unsigned char>(c)));
            else
                out.push_back(c);
        }
    }
    return out;
}

namespace
{

/**
 * Round-trip-exact JSON number. Counters are integral doubles and
 * print without an exponent; NaN/inf (never produced by instruments,
 * but defend anyway) degrade to 0 since JSON has no spelling for them.
 */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15)
        return detail::vformat("%lld", static_cast<long long>(v));
    return detail::vformat("%.17g", v);
}

std::string
jsonLabels(const std::map<std::string, std::string> &labels)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += '"';
        out += jsonEscape(k);
        out += "\":\"";
        out += jsonEscape(v);
        out += '"';
    }
    out += "}";
    return out;
}

/** One record as a single JSON-lines object (no trailing newline). */
std::string
recordToJson(const Record &rec)
{
    std::string out = "{";
    out += "\"schema\":\"";
    out += schemaName;
    out += "\",\"kind\":\"";
    out += recordKindName(rec.kind);
    out += "\",\"name\":\"" + jsonEscape(rec.name) + "\"";
    out += ",\"labels\":" + jsonLabels(rec.labels);
    if (rec.kind == RecordKind::Histogram ||
        rec.kind == RecordKind::Timer) {
        out += detail::vformat(",\"count\":%" PRIu64, rec.count);
        out += ",\"sum\":" + jsonNumber(rec.sum);
        out += ",\"buckets\":[";
        for (std::size_t i = 0; i < rec.bucketCounts.size(); ++i) {
            if (i)
                out += ",";
            out += "{\"le\":";
            out += i < rec.bounds.size() ? jsonNumber(rec.bounds[i])
                                         : std::string("\"inf\"");
            out += detail::vformat(",\"count\":%" PRIu64 "}",
                                   rec.bucketCounts[i]);
        }
        out += "]";
    } else {
        out += ",\"value\":" + jsonNumber(rec.value);
    }
    out += "}";
    return out;
}

/** CSV field quoting: wrap when a delimiter/quote/newline appears. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

} // namespace

JsonLinesSink::~JsonLinesSink()
{
    if (file && owned)
        std::fclose(file);
}

std::unique_ptr<JsonLinesSink>
JsonLinesSink::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return nullptr;
    return std::make_unique<JsonLinesSink>(f, true);
}

void
JsonLinesSink::write(const Record &record)
{
    const std::string line = recordToJson(record);
    std::lock_guard<std::mutex> lock(mutex);
    std::fprintf(file, "%s\n", line.c_str());
}

void
JsonLinesSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex);
    std::fflush(file);
}

CsvSink::~CsvSink()
{
    if (file && owned)
        std::fclose(file);
}

std::unique_ptr<CsvSink>
CsvSink::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return nullptr;
    return std::make_unique<CsvSink>(f, true);
}

void
CsvSink::write(const Record &record)
{
    std::string labels;
    for (const auto &[k, v] : record.labels) {
        if (!labels.empty())
            labels += ";";
        labels += k + "=" + v;
    }
    std::string buckets;
    if (record.kind == RecordKind::Histogram ||
        record.kind == RecordKind::Timer) {
        for (std::size_t i = 0; i < record.bucketCounts.size(); ++i) {
            if (i)
                buckets += "|";
            buckets += i < record.bounds.size()
                           ? jsonNumber(record.bounds[i])
                           : std::string("inf");
            buckets += detail::vformat(":%" PRIu64,
                                       record.bucketCounts[i]);
        }
    }
    const std::string line =
        std::string(schemaName) + "," + recordKindName(record.kind) +
        "," + csvField(record.name) + "," + csvField(labels) + "," +
        jsonNumber(record.value) +
        detail::vformat(",%" PRIu64 ",", record.count) +
        jsonNumber(record.sum) + "," + csvField(buckets);

    std::lock_guard<std::mutex> lock(mutex);
    if (!wroteHeader) {
        std::fprintf(file,
                     "schema,kind,name,labels,value,count,sum,buckets\n");
        wroteHeader = true;
    }
    std::fprintf(file, "%s\n", line.c_str());
}

void
CsvSink::flush()
{
    std::lock_guard<std::mutex> lock(mutex);
    std::fflush(file);
}

std::unique_ptr<Sink>
openSink(const std::string &path)
{
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0)
        return CsvSink::open(path);
    return JsonLinesSink::open(path);
}

namespace
{

/**
 * Default-sink slot: owner + lock-free reader pointer. The owner is
 * intentionally leaked (like Registry::global()) so atexit exporters
 * can never observe a destroyed sink; emitters flush explicitly, so
 * skipping the destructor's fclose loses no data.
 */
std::unique_ptr<Sink> &
defaultSinkOwner()
{
    static auto *owner = new std::unique_ptr<Sink>;
    return *owner;
}

std::atomic<Sink *> defaultSinkPtr{nullptr};

} // namespace

void
setDefaultSink(std::unique_ptr<Sink> sink)
{
    if (Sink *old = defaultSinkPtr.load())
        old->flush();
    defaultSinkPtr.store(sink.get());
    defaultSinkOwner() = std::move(sink);
}

Sink *
defaultSink()
{
    return defaultSinkPtr.load();
}

std::map<std::string, std::string> &
defaultLabels()
{
    // Leaked for the same exit-order reason as the sink owner.
    static auto *labels = new std::map<std::string, std::string>;
    return *labels;
}

void
emitRecord(Record record)
{
    Sink *sink = defaultSink();
    if (!sink)
        return;
    // Record-local labels win over harness-wide defaults.
    for (const auto &[k, v] : defaultLabels())
        record.labels.emplace(k, v);
    sink->write(record);
}

void
emitRegistry(const Registry &registry)
{
    if (!defaultSink())
        return;
    for (Record &rec : registry.snapshot())
        emitRecord(std::move(rec));
}

void
emitHeadline(std::string name, double value,
             std::map<std::string, std::string> labels)
{
    Record rec;
    rec.kind = RecordKind::Headline;
    rec.name = std::move(name);
    rec.labels = std::move(labels);
    rec.value = value;
    emitRecord(std::move(rec));
}

namespace
{

std::atomic<bool> timeseriesArmed{false};

} // namespace

void
setTimeseriesEnabled(bool on)
{
    timeseriesArmed.store(on);
}

bool
timeseriesEnabled()
{
    return timeseriesArmed.load();
}

} // namespace metrics
} // namespace kagura

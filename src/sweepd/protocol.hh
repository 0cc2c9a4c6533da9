/**
 * @file
 * The kagura.sweep/v1 wire protocol: length-framed, versioned,
 * little-endian messages over a Unix-domain stream socket.
 *
 * Every frame is `u32 payload_length | u8 type | payload`. The
 * payload length is bounded (maxFramePayload) so a corrupt or hostile
 * length prefix can never drive an allocation, and a connection that
 * delivers a truncated frame (EOF mid-header or mid-payload) fails
 * with a typed error, never a hang -- the same corrupt-tolerant
 * philosophy the CacheStore applies to on-disk entries.
 *
 * Handshake: the client opens with HELLO carrying the protocol
 * version, the simulator version salt, and the result-codec format
 * version. The daemon answers HELLO_OK only when all three match its
 * own build; any mismatch earns a typed ERROR frame and a close, so a
 * stale client can never silently receive results computed by a
 * different simulator.
 *
 * Job transport: SUBMIT carries a batch of (job kind, canonical key)
 * pairs -- SimConfig travels as its canonicalKey() text, the same
 * canonical serialization that names result-cache entries, and is
 * reparsed on the daemon side (parseCanonicalKey(),
 * sim/config_fields.hh). RESULT frames stream back as jobs finish,
 * tagged with the job's index in the batch, so the client reassembles
 * the runner's index-slotted, bit-identical aggregation regardless of
 * completion order. BATCH_DONE closes the batch with aggregate
 * counters.
 *
 * Remote cache: CACHE_GET / CACHE_PUT address the daemon's sharded
 * .kagura-cache by (64-bit canonical-key hash, full key text), making
 * the store a content-addressed artifact service any client --
 * including future remote machines -- can share. The key text rides
 * along so the daemon can verify it byte-for-byte exactly like a
 * local lookup would.
 */

#ifndef KAGURA_SWEEPD_PROTOCOL_HH
#define KAGURA_SWEEPD_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kagura
{
namespace sweepd
{

/** Protocol revision; HELLO frames carrying any other value fail. */
constexpr std::uint32_t protocolVersion = 1;

/** Largest accepted frame payload (bounds allocations). */
constexpr std::uint32_t maxFramePayload = 64u * 1024 * 1024;

/** Frame types. Values are wire format -- never renumber. */
enum class FrameType : std::uint8_t
{
    Hello = 1,      ///< client -> daemon: version handshake
    HelloOk = 2,    ///< daemon -> client: handshake accepted
    Error = 3,      ///< daemon -> client: typed failure
    Submit = 4,     ///< client -> daemon: batch of SimJob specs
    Progress = 5,   ///< daemon -> client: batch progress counters
    Result = 6,     ///< daemon -> client: one finished job
    BatchDone = 7,  ///< daemon -> client: batch complete + totals
    CacheGet = 8,   ///< client -> daemon: lookup by canonicalKey hash
    CacheFound = 9, ///< daemon -> client: payload for CacheGet
    CacheMiss = 10, ///< daemon -> client: no entry for CacheGet
    CachePut = 11,  ///< client -> daemon: store by canonicalKey hash
    CachePutOk = 12,///< daemon -> client: CachePut acknowledged
    Status = 13,    ///< client -> daemon: daemon statistics request
    StatusOk = 14,  ///< daemon -> client: daemon statistics
    Shutdown = 15,  ///< client -> daemon: stop the daemon
    ShutdownOk = 16,///< daemon -> client: shutdown acknowledged
};

/** Typed error codes carried by Error frames. */
enum class ErrorCode : std::uint16_t
{
    VersionMismatch = 1, ///< HELLO version/salt/codec disagreement
    Malformed = 2,       ///< unparseable or truncated payload
    BadJob = 3,          ///< canonical key failed to parse
    TooLarge = 4,        ///< frame exceeds maxFramePayload
    TraceMismatch = 5,   ///< trace-file content hash disagreement
    Internal = 6,        ///< daemon-side failure
    Rejected = 7,        ///< daemon is shutting down
};

/** Human-readable error-code name (diagnostics). */
const char *errorCodeName(ErrorCode code);

/** One frame, parsed as far as the header. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/*
 * Payload codecs. Encoders append to a byte string; decoders return
 * false on any truncation or bound violation, leaving the output in
 * an unspecified state (callers answer with ErrorCode::Malformed).
 */

/** HELLO / HELLO_OK body: the three version coordinates. */
struct HelloBody
{
    std::uint32_t protocol = protocolVersion;
    std::uint64_t simulatorSalt = 0;
    std::uint32_t resultFormat = 0;
    /** HELLO_OK only: daemon worker-pool width (0 in HELLO). */
    std::uint32_t poolThreads = 0;
};

std::string encodeHello(const HelloBody &body);
bool decodeHello(std::string_view bytes, HelloBody &out);

/** ERROR body. */
struct ErrorBody
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

std::string encodeError(const ErrorBody &body);
bool decodeError(std::string_view bytes, ErrorBody &out);

/** One job spec inside a SUBMIT batch. */
struct JobSpec
{
    /** runner::jobKindName() tag: "plain" / "ideal-aware" / ... */
    std::string kind;
    /** SimConfig::canonicalKey() text. */
    std::string canonicalKey;
};

/** SUBMIT body: an ordered batch plus optional manifest identity. */
struct SubmitBody
{
    std::uint64_t batchId = 0;
    /** Empty = no manifest; else [A-Za-z0-9._-]+ naming the sweep. */
    std::string manifest;
    std::vector<JobSpec> jobs;
};

std::string encodeSubmit(const SubmitBody &body);
bool decodeSubmit(std::string_view bytes, SubmitBody &out);

/** PROGRESS body: cumulative counters for one batch. */
struct ProgressBody
{
    std::uint64_t batchId = 0;
    std::uint32_t done = 0;
    std::uint32_t total = 0;
    std::uint32_t cacheHits = 0;
    std::uint32_t simulations = 0;
    /** Entries the sweep manifest already listed at SUBMIT time. */
    std::uint32_t resumed = 0;
};

std::string encodeProgress(const ProgressBody &body);
bool decodeProgress(std::string_view bytes, ProgressBody &out);

/** RESULT body: one finished job, index-addressed into the batch. */
struct ResultBody
{
    std::uint64_t batchId = 0;
    std::uint32_t index = 0;
    bool cached = false;   ///< served from the result cache
    double seconds = 0.0;  ///< daemon-side job wall time
    std::string payload;   ///< runner::encodeResult() bytes
};

std::string encodeResult(const ResultBody &body);
bool decodeResult(std::string_view bytes, ResultBody &out);

/** BATCH_DONE body: aggregate counters for a finished batch. */
struct BatchDoneBody
{
    std::uint64_t batchId = 0;
    std::uint32_t total = 0;
    std::uint32_t cacheHits = 0;
    std::uint32_t simulations = 0;
    std::uint32_t resumed = 0;
};

std::string encodeBatchDone(const BatchDoneBody &body);
bool decodeBatchDone(std::string_view bytes, BatchDoneBody &out);

/** CACHE_GET / CACHE_PUT body (payload empty for CACHE_GET). */
struct CacheBody
{
    std::uint64_t hash = 0;
    std::string keyText;
    std::string payload;
};

std::string encodeCache(const CacheBody &body);
bool decodeCache(std::string_view bytes, CacheBody &out);

/** STATUS_OK body: a daemon telemetry snapshot. */
struct StatusBody
{
    std::uint32_t poolThreads = 0;
    std::uint32_t clients = 0;
    std::uint64_t batches = 0;
    std::uint64_t jobsDone = 0;
    std::uint64_t simulations = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    double uptimeSeconds = 0.0;
};

std::string encodeStatus(const StatusBody &body);
bool decodeStatus(std::string_view bytes, StatusBody &out);

/*
 * Framed socket I/O. All calls handle partial reads/writes and EINTR;
 * writes use MSG_NOSIGNAL so a vanished peer surfaces as an error
 * return instead of SIGPIPE.
 */

/** Outcome of reading one frame. */
enum class ReadStatus
{
    Ok,        ///< frame delivered
    Eof,       ///< clean close on a frame boundary
    Truncated, ///< EOF mid-frame -- connection error, never a hang
    TooLarge,  ///< length prefix exceeds maxFramePayload
    IoError,   ///< recv() failed
};

/** Read exactly one frame from @p fd. */
ReadStatus readFrame(int fd, Frame &out);

/** Write one frame to @p fd; false on any send failure. */
bool writeFrame(int fd, FrameType type, std::string_view payload);

} // namespace sweepd
} // namespace kagura

#endif // KAGURA_SWEEPD_PROTOCOL_HH

#include "sweepd/daemon.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "runner/cache_store.hh"
#include "runner/config_hash.hh"
#include "runner/result_codec.hh"
#include "runner/runner.hh"
#include "sim/config_fields.hh"
#include "sweepd/manifest.hh"
#include "sweepd/protocol.hh"

namespace kagura
{
namespace sweepd
{

namespace
{

/** Close an fd, ignoring errors (teardown paths). */
void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/**
 * Shared manifests: two concurrent batches naming the same sweep must
 * append through one file handle and one in-memory set.
 */
std::shared_ptr<Manifest>
openManifest(const std::string &id)
{
    static std::mutex mutex;
    static std::unordered_map<std::string, std::shared_ptr<Manifest>>
        open;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = open.find(id);
    if (it != open.end())
        return it->second;
    auto manifest = std::make_shared<Manifest>(
        runner::CacheStore::global().directory(), id);
    open.emplace(id, manifest);
    return manifest;
}

} // namespace

/** One accepted client connection. */
struct SweepDaemon::Connection
{
    int fd = -1;
    /** Serializes frames: pool tasks and the reader both write. */
    std::mutex writeMutex;
    std::atomic<bool> closed{false};
    std::atomic<bool> helloDone{false};

    bool
    send(FrameType type, std::string_view payload)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (closed)
            return false;
        if (!writeFrame(fd, type, payload)) {
            closed = true;
            return false;
        }
        return true;
    }

    ~Connection() { closeFd(fd); }
};

/** One SUBMIT batch in flight. */
struct SweepDaemon::BatchState
{
    std::shared_ptr<Connection> conn;
    std::uint64_t batchId = 0;
    std::vector<runner::SimJob> jobs;
    std::vector<std::uint64_t> jobHashes;
    std::shared_ptr<Manifest> manifest;

    std::atomic<std::uint32_t> done{0};
    std::atomic<std::uint32_t> cacheHits{0};
    std::atomic<std::uint32_t> simulations{0};
    std::uint32_t resumed = 0;
    /** Progress frame cadence (computed once from the batch size). */
    std::uint32_t progressStride = 1;
    std::atomic<bool> abandoned{false};
};

SweepDaemon::SweepDaemon(Options options) : opts(std::move(options)) {}

SweepDaemon::~SweepDaemon()
{
    stop();
}

bool
SweepDaemon::start(std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        closeFd(listenFd);
        closeFd(wakePipe[0]);
        closeFd(wakePipe[1]);
        return false;
    };
    if (isRunning)
        return fail("daemon already started");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socketPath.empty() ||
        opts.socketPath.size() >= sizeof(addr.sun_path))
        return fail("socket path empty or too long: '" +
                    opts.socketPath + "'");
    std::memcpy(addr.sun_path, opts.socketPath.c_str(),
                opts.socketPath.size() + 1);

    // A stale socket file from a killed daemon would make bind()
    // fail; probe it first so we never steal a live daemon's socket.
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            return fail("another daemon is already listening on '" +
                        opts.socketPath + "'");
        }
        ::close(probe);
        ::unlink(opts.socketPath.c_str());
    }

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        return fail("socket(): " + std::string(std::strerror(errno)));
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return fail("bind('" + opts.socketPath +
                    "'): " + std::strerror(errno));
    if (::listen(listenFd, 64) != 0)
        return fail("listen(): " + std::string(std::strerror(errno)));
    if (::pipe(wakePipe) != 0)
        return fail("pipe(): " + std::string(std::strerror(errno)));

    poolWidth = opts.threads ? opts.threads
                             : runner::ThreadPool::defaultThreadCount();
    // allow_inline=false: the pool's 0/1-thread inline mode defers
    // tasks to a wait() rendezvous the daemon never reaches -- a
    // single-worker daemon (or nproc==1 host) would stall every
    // batch forever.
    pool = std::make_unique<runner::ThreadPool>(poolWidth,
                                                /*allow_inline=*/false);
    stopping = false;
    startedAt = std::chrono::steady_clock::now();
    isRunning = true;
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
SweepDaemon::stop()
{
    if (!isRunning.exchange(false))
        return;
    stopping = true;

    // Abandon batches first: queued pool tasks turn into no-ops, so
    // the pool drains quickly; in-flight simulations still finish and
    // land in the result cache (that is what resume replays from).
    abandonBatches(nullptr);

    // Wake the accept loop and close the listener.
    if (wakePipe[1] >= 0)
        (void)!::write(wakePipe[1], "x", 1);
    if (acceptThread.joinable())
        acceptThread.join();
    closeFd(listenFd);
    closeFd(wakePipe[0]);
    closeFd(wakePipe[1]);
    ::unlink(opts.socketPath.c_str());

    // Unblock every connection reader and join the handlers.
    {
        std::lock_guard<std::mutex> lock(connMutex);
        for (auto &conn : connections) {
            conn->closed = true;
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RDWR);
        }
    }
    for (HandlerSlot &slot : handlerThreads) {
        if (slot.thread.joinable())
            slot.thread.join();
    }
    handlerThreads.clear();

    // Pool last: waits for in-flight jobs (abandoned tasks no-op).
    pool.reset();
    {
        std::lock_guard<std::mutex> lock(connMutex);
        connections.clear();
    }
    std::lock_guard<std::mutex> lock(batchMutex);
    batches.clear();
}

void
SweepDaemon::waitForShutdownRequest()
{
    std::unique_lock<std::mutex> lock(shutdownMutex);
    shutdownCv.wait(lock, [this] { return shutdownRequested; });
}

void
SweepDaemon::requestShutdown()
{
    std::lock_guard<std::mutex> lock(shutdownMutex);
    shutdownRequested = true;
    shutdownCv.notify_all();
}

void
SweepDaemon::acceptLoop()
{
    while (!stopping) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents || stopping)
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(connMutex);
        if (stopping) {
            // Raced with stop(): drop the connection instead of
            // spawning a handler nobody will join.
            continue;
        }
        connections.push_back(conn);
        // Reap finished reader threads so a long-lived daemon does
        // not accumulate one dead handle per past connection.
        for (auto it = handlerThreads.begin();
             it != handlerThreads.end();) {
            if (it->done) {
                it->thread.join();
                it = handlerThreads.erase(it);
            } else {
                ++it;
            }
        }
        HandlerSlot &slot = handlerThreads.emplace_back();
        slot.thread = std::thread([this, conn, &slot] {
            handleConnection(conn);
            slot.done = true;
        });
        ++clientCount;
    }
}

void
SweepDaemon::sendError(Connection &conn, std::uint16_t code,
                       std::string message)
{
    ErrorBody body;
    body.code = static_cast<ErrorCode>(code);
    body.message = std::move(message);
    conn.send(FrameType::Error, encodeError(body));
}

bool
SweepDaemon::handleHello(Connection &conn, const std::string &payload)
{
    HelloBody hello;
    if (!decodeHello(payload, hello)) {
        sendError(conn, static_cast<std::uint16_t>(ErrorCode::Malformed),
                  "unparseable HELLO frame");
        return false;
    }
    if (hello.protocol != protocolVersion ||
        hello.simulatorSalt != runner::simulatorVersionSalt ||
        hello.resultFormat != runner::resultFormatVersion) {
        sendError(
            conn,
            static_cast<std::uint16_t>(ErrorCode::VersionMismatch),
            detail::vformat(
                "kagura.sweep/%u salt=%llu codec=%u here; client sent "
                "kagura.sweep/%u salt=%llu codec=%u",
                protocolVersion,
                static_cast<unsigned long long>(
                    runner::simulatorVersionSalt),
                runner::resultFormatVersion, hello.protocol,
                static_cast<unsigned long long>(hello.simulatorSalt),
                hello.resultFormat));
        return false;
    }
    HelloBody ok;
    ok.simulatorSalt = runner::simulatorVersionSalt;
    ok.resultFormat = runner::resultFormatVersion;
    ok.poolThreads = poolWidth;
    conn.helloDone = true;
    return conn.send(FrameType::HelloOk, encodeHello(ok));
}

void
SweepDaemon::handleSubmit(std::shared_ptr<Connection> conn,
                          const std::string &payload)
{
    SubmitBody submit;
    if (!decodeSubmit(payload, submit)) {
        sendError(*conn,
                  static_cast<std::uint16_t>(ErrorCode::Malformed),
                  "unparseable SUBMIT frame");
        return;
    }
    if (!submit.manifest.empty() && !Manifest::validId(submit.manifest)) {
        sendError(*conn,
                  static_cast<std::uint16_t>(ErrorCode::Malformed),
                  "invalid manifest id '" + submit.manifest + "'");
        return;
    }

    auto batch = std::make_shared<BatchState>();
    batch->conn = conn;
    batch->batchId = submit.batchId;
    batch->jobs.reserve(submit.jobs.size());
    batch->jobHashes.reserve(submit.jobs.size());
    for (std::size_t i = 0; i < submit.jobs.size(); ++i) {
        const JobSpec &spec = submit.jobs[i];
        const auto kind = runner::parseJobKind(spec.kind);
        if (!kind) {
            sendError(*conn,
                      static_cast<std::uint16_t>(ErrorCode::BadJob),
                      detail::vformat("job %zu: unknown kind '%s'", i,
                                      spec.kind.c_str()));
            return;
        }
        runner::SimJob job;
        job.kind = *kind;
        std::string parse_error;
        const KeyParseStatus status = parseCanonicalKey(
            spec.canonicalKey, job.config, parse_error);
        if (status != KeyParseStatus::Ok) {
            const ErrorCode code = status == KeyParseStatus::TraceMismatch
                                       ? ErrorCode::TraceMismatch
                                       : ErrorCode::BadJob;
            sendError(*conn, static_cast<std::uint16_t>(code),
                      detail::vformat("job %zu: %s", i,
                                      parse_error.c_str()));
            return;
        }
        if (job.config.oracle == OracleMode::Replay) {
            // Replay needs a caller-owned phase-1 log that cannot
            // travel over the wire; such jobs stay in-process.
            sendError(*conn,
                      static_cast<std::uint16_t>(ErrorCode::BadJob),
                      detail::vformat(
                          "job %zu: oracle-replay jobs are not "
                          "daemon-servable",
                          i));
            return;
        }
        batch->jobHashes.push_back(runner::jobHash(
            job.config, runner::jobKindName(job.kind)));
        batch->jobs.push_back(std::move(job));
    }

    if (!submit.manifest.empty()) {
        batch->manifest = openManifest(submit.manifest);
        for (std::uint64_t hash : batch->jobHashes) {
            if (batch->manifest->isDone(hash))
                ++batch->resumed;
        }
    }
    const auto total = static_cast<std::uint32_t>(batch->jobs.size());
    batch->progressStride = total / 100 + 1;
    ++batchCount;
    {
        std::lock_guard<std::mutex> lock(batchMutex);
        batches.push_back(batch);
    }

    ProgressBody opening;
    opening.batchId = batch->batchId;
    opening.total = total;
    opening.resumed = batch->resumed;
    conn->send(FrameType::Progress, encodeProgress(opening));

    if (total == 0) {
        BatchDoneBody done;
        done.batchId = batch->batchId;
        conn->send(FrameType::BatchDone, encodeBatchDone(done));
        return;
    }
    for (std::uint32_t i = 0; i < total; ++i)
        pool->submit([this, batch, i] { runBatchJob(batch, i); });
}

void
SweepDaemon::runBatchJob(std::shared_ptr<BatchState> batch,
                         std::uint32_t index)
{
    if (batch->abandoned || batch->conn->closed)
        return;

    const runner::JobOutcome outcome =
        runner::runJobDetailed(batch->jobs[index]);
    ++jobsServed;
    if (outcome.cacheHit) {
        ++batch->cacheHits;
        ++hitsServed;
    } else {
        ++batch->simulations;
        ++simsServed;
        ++missesServed;
    }
    if (batch->manifest)
        batch->manifest->markDone(batch->jobHashes[index]);

    ResultBody result;
    result.batchId = batch->batchId;
    result.index = index;
    result.cached = outcome.cacheHit;
    result.seconds = outcome.seconds;
    result.payload = runner::encodeResult(outcome.result);
    if (!batch->conn->send(FrameType::Result,
                           encodeResult(result))) {
        batch->abandoned = true;
        return;
    }

    const std::uint32_t done = ++batch->done;
    const auto total = static_cast<std::uint32_t>(batch->jobs.size());
    if (done < total) {
        if (done % batch->progressStride == 0) {
            ProgressBody progress;
            progress.batchId = batch->batchId;
            progress.done = done;
            progress.total = total;
            progress.cacheHits = batch->cacheHits;
            progress.simulations = batch->simulations;
            progress.resumed = batch->resumed;
            batch->conn->send(FrameType::Progress,
                              encodeProgress(progress));
        }
        return;
    }
    BatchDoneBody finished;
    finished.batchId = batch->batchId;
    finished.total = total;
    finished.cacheHits = batch->cacheHits;
    finished.simulations = batch->simulations;
    finished.resumed = batch->resumed;
    batch->conn->send(FrameType::BatchDone, encodeBatchDone(finished));
}

void
SweepDaemon::abandonBatches(Connection *conn)
{
    std::lock_guard<std::mutex> lock(batchMutex);
    std::vector<std::weak_ptr<BatchState>> alive;
    for (auto &weak : batches) {
        auto batch = weak.lock();
        if (!batch)
            continue;
        if (!conn || batch->conn.get() == conn) {
            batch->abandoned = true;
            continue;
        }
        alive.push_back(std::move(weak));
    }
    batches.swap(alive);
}

void
SweepDaemon::handleConnection(std::shared_ptr<Connection> conn)
{
    while (!stopping && !conn->closed) {
        Frame frame;
        const ReadStatus status = readFrame(conn->fd, frame);
        if (status == ReadStatus::TooLarge) {
            sendError(*conn,
                      static_cast<std::uint16_t>(ErrorCode::TooLarge),
                      "frame exceeds maxFramePayload");
            break;
        }
        if (status != ReadStatus::Ok)
            break; // Eof / Truncated / IoError all end the connection.

        if (!conn->helloDone && frame.type != FrameType::Hello) {
            sendError(*conn,
                      static_cast<std::uint16_t>(ErrorCode::Malformed),
                      "expected HELLO as the first frame");
            break;
        }

        switch (frame.type) {
          case FrameType::Hello:
            if (!handleHello(*conn, frame.payload))
                conn->closed = true;
            break;
          case FrameType::Submit:
            handleSubmit(conn, frame.payload);
            break;
          case FrameType::CacheGet: {
              CacheBody get;
              if (!decodeCache(frame.payload, get)) {
                  sendError(*conn,
                            static_cast<std::uint16_t>(
                                ErrorCode::Malformed),
                            "unparseable CACHE_GET frame");
                  conn->closed = true;
                  break;
              }
              std::string payload;
              if (runner::CacheStore::global().lookup(
                      get.hash, get.keyText, payload)) {
                  ++hitsServed;
                  conn->send(FrameType::CacheFound, payload);
              } else {
                  ++missesServed;
                  conn->send(FrameType::CacheMiss, {});
              }
              break;
          }
          case FrameType::CachePut: {
              CacheBody put;
              if (!decodeCache(frame.payload, put)) {
                  sendError(*conn,
                            static_cast<std::uint16_t>(
                                ErrorCode::Malformed),
                            "unparseable CACHE_PUT frame");
                  conn->closed = true;
                  break;
              }
              runner::CacheStore::global().store(put.hash, put.keyText,
                                                 put.payload);
              conn->send(FrameType::CachePutOk, {});
              break;
          }
          case FrameType::Status: {
              StatusBody status_body;
              status_body.poolThreads = poolWidth;
              status_body.clients = clientCount;
              status_body.batches = batchCount;
              status_body.jobsDone = jobsServed;
              status_body.simulations = simsServed;
              status_body.cacheHits = hitsServed;
              status_body.cacheMisses = missesServed;
              status_body.uptimeSeconds =
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - startedAt)
                      .count();
              conn->send(FrameType::StatusOk,
                         encodeStatus(status_body));
              break;
          }
          case FrameType::Shutdown:
            conn->send(FrameType::ShutdownOk, {});
            requestShutdown();
            break;
          default:
            sendError(*conn,
                      static_cast<std::uint16_t>(ErrorCode::Malformed),
                      detail::vformat("unexpected frame type %u",
                                      static_cast<unsigned>(
                                          frame.type)));
            conn->closed = true;
            break;
        }
    }
    // Half of the protocol's "typed error, then close" contract: the
    // peer must observe EOF, not a silent stall. shutdown() (not
    // close()) so a pool task still streaming into this connection
    // can never write into a recycled fd number; the fd itself dies
    // with the last shared_ptr (batches may outlive the reader).
    conn->closed = true;
    if (conn->fd >= 0)
        ::shutdown(conn->fd, SHUT_RDWR);
    {
        std::lock_guard<std::mutex> lock(connMutex);
        connections.erase(
            std::remove(connections.begin(), connections.end(), conn),
            connections.end());
    }
    abandonBatches(conn.get());
    --clientCount;
}

} // namespace sweepd
} // namespace kagura

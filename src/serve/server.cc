#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "core/model.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "fit/target_spec.h"
#include "presets/presets.h"
#include "protocol/idd.h"
#include "runner/worker_pool.h"
#include "serve/line_acceptor.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "util/backoff.h"
#include "util/failpoint.h"
#include "util/numerics.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace vdram {

std::string
ServeStats::renderJson() const
{
    JsonWriter json;
    json.beginObject();
    json.key("connections").value(connections);
    json.key("requestsAccepted").value(requestsAccepted);
    json.key("requestsShed").value(requestsShed);
    json.key("requestsMalformed").value(requestsMalformed);
    json.key("deadlineExceeded").value(deadlineExceeded);
    json.key("responsesWritten").value(responsesWritten);
    json.key("responsesFailed").value(responsesFailed);
    json.key("idleEvicted").value(idleEvicted);
    json.key("sessionFaults").value(sessionFaults);
    json.key("drained").value(drained);
    json.endObject();
    return json.str();
}

#if defined(_WIN32)

Result<ServeStats>
runServeServer(const ServeOptions&)
{
    return Error{"vdram serve requires POSIX sockets", 0, 0, "",
                 "E-SERVE-SOCKET"};
}

Result<std::string>
serveSendLines(const std::string&, int, const std::string&)
{
    return Error{"vdram serve requires POSIX sockets", 0, 0, "",
                 "E-SERVE-SOCKET"};
}

#else

namespace {

/** Per-connection model state. Owned by exactly one session thread, so
 *  no lock: request execution is serialized per session. */
struct Session {
    std::unique_ptr<VariantEvaluator> evaluator;
    std::string deviceName;
    std::uint64_t modelKey = 0;
    long long deltaApplies = 0;
};

/** The detailed sweep list doubles as the perturbation registry (name,
 *  multiplicative mutator, precise dirty mask for the fast path). */
const std::vector<SweepParam>&
perturbParams()
{
    static const std::vector<SweepParam>* params =
        new std::vector<SweepParam>(
            sweepParameters(SweepMode::Detailed));
    return *params;
}

class Server {
  public:
    explicit Server(const ServeOptions& options)
        : options_(options),
          acceptor_{.socketPath = options.socketPath,
                    .port = options.port,
                    .errorCode = "E-SERVE-SOCKET",
                    .name = "serve",
                    .idleSessionSeconds = options.idleSessionSeconds,
                    .stopFlag = options.stopFlag,
                    .onReady = options.onReady},
          pool_(WorkerPool::Options{
              options.threads > 0 ? options.threads : 2,
              std::max<long long>(1, options.queueCapacity)}),
          cache_(options.cacheCapacity)
    {
    }

    Result<ServeStats> run();

  private:
    void sessionMain(int fd);
    void setActiveGauge(int delta);
    /** One request line -> exactly one response line. Returns false
     *  when the connection is no longer writable. */
    bool handleLine(int fd, Session& session, const std::string& line);
    std::string executeRequest(Session& session,
                               const ServeRequest& request,
                               WorkerPool::JobContext& job);
    std::string handleRequest(Session& session,
                              const ServeRequest& request,
                              WorkerPool::JobContext& job);
    bool writeResponse(int fd, const std::string& body);

    void count(long long ServeStats::*field, const char* metric)
    {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++(stats_.*field);
        }
        if (metricsEnabled())
            globalMetrics().counter(metric).add();
    }

    ServeOptions options_;
    LineAcceptorOptions acceptor_;
    WorkerPool pool_;
    ModelCache cache_;
    std::mutex statsMutex_;
    ServeStats stats_;
    std::atomic<int> activeSessions_{0};
};

Result<ServeStats>
Server::run()
{
    Result<bool> drained =
        runLineAcceptor(acceptor_, [this](int fd) { sessionMain(fd); });
    if (!drained.ok())
        return drained.error();
    // Every session has answered what it read; now stop the pool.
    pool_.drain();
    pool_.shutdown();

    std::lock_guard<std::mutex> lock(statsMutex_);
    stats_.drained = drained.value();
    return stats_;
}

void
Server::setActiveGauge(int delta)
{
    int active =
        activeSessions_.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (metricsEnabled())
        globalMetrics().gauge("serve.sessions.active").set(active);
}

void
Server::sessionMain(int fd)
{
    count(&ServeStats::connections, "serve.connections.accepted");
    setActiveGauge(+1);
    Session session;
    SessionEnd end = runLineSession(
        fd, acceptor_, [this, fd, &session](const std::string& line) {
            return handleLine(fd, session, line);
        });
    if (end == SessionEnd::Idle)
        count(&ServeStats::idleEvicted, "serve.sessions.evicted_idle");
    else if (end == SessionEnd::Faulted)
        count(&ServeStats::sessionFaults, "serve.sessions.faulted");
    setActiveGauge(-1);
}

bool
Server::handleLine(int fd, Session& session, const std::string& line)
{
    count(&ServeStats::requestsAccepted, "serve.requests.accepted");

    Result<ServeRequest> parsed = parseServeRequest(line);
    if (!parsed.ok()) {
        count(&ServeStats::requestsMalformed,
              "serve.requests.malformed");
        const Error& error = parsed.error();
        return writeResponse(
            fd, renderServeError(error.line, error.code, error.message));
    }
    const ServeRequest& request = parsed.value();

    // Admission control: the bounded pool queue is the backpressure
    // boundary. Shedding answers immediately — the client learns the
    // daemon is saturated instead of waiting into a timeout.
    // The job co-owns the promise, so the session may stop waiting the
    // moment the value is set without racing the worker's set_value().
    auto pending = std::make_shared<std::promise<std::string>>();
    std::future<std::string> body = pending->get_future();
    bool admitted = pool_.trySubmit(
        [this, &session, &request, pending](WorkerPool::JobContext& job) {
            pending->set_value(executeRequest(session, request, job));
        });
    if (metricsEnabled()) {
        globalMetrics().gauge("serve.queue.depth").set(
            pool_.queueDepth());
        globalMetrics().gauge("serve.inflight").set(pool_.inFlight());
    }
    if (!admitted) {
        count(&ServeStats::requestsShed, "serve.requests.shed");
        return writeResponse(
            fd,
            renderServeError(request.id, "E-SERVE-OVERLOAD",
                             "request queue is full; retry later"));
    }
    return writeResponse(fd, body.get());
}

std::string
Server::executeRequest(Session& session, const ServeRequest& request,
                       WorkerPool::JobContext& job)
{
    double deadline = options_.deadlineSeconds;
    if (request.deadlineSeconds > 0) {
        deadline = std::min(request.deadlineSeconds,
                            options_.maxDeadlineSeconds);
    }
    job.armDeadline(deadline);
    std::string body;
    try {
        body = handleRequest(session, request, job);
    } catch (const std::exception& e) {
        // A poisoned model or any other throwing evaluation is this
        // request's problem only.
        body = renderServeError(request.id, "E-SERVE-INTERNAL",
                                std::string("request failed: ") +
                                    e.what());
    } catch (...) {
        body = renderServeError(request.id, "E-SERVE-INTERNAL",
                                "request failed: non-standard exception");
    }
    job.clearDeadline();
    if (job.cancelled()) {
        count(&ServeStats::deadlineExceeded, "serve.deadline.exceeded");
        return renderServeError(
            request.id, "E-SERVE-DEADLINE",
            strformat("deadline of %.3f s exceeded", deadline));
    }
    return body;
}

std::string
Server::handleRequest(Session& session, const ServeRequest& request,
                      WorkerPool::JobContext& job)
{
    // Failpoint `serve.request`: Stall exercises the request deadline
    // (bounded so an unarmed deadline cannot wedge a worker), Crash
    // exercises the per-request exception quarantine.
    FailpointHit hit = failpointHit("serve.request");
    if (hit.action == FailpointAction::Error) {
        return renderServeError(request.id, "E-SERVE-INTERNAL",
                                "injected failure at failpoint "
                                "'serve.request'");
    }
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'serve.request'");
    }
    if (hit.action == FailpointAction::Abort)
        std::abort();
    if (hit.action == FailpointAction::Stall) {
        double cap = options_.deadlineSeconds > 0
                         ? options_.maxDeadlineSeconds * 4
                         : 0.2;
        using Clock = std::chrono::steady_clock;
        const auto until =
            Clock::now() + std::chrono::duration<double>(cap);
        while (!job.cancelled() && Clock::now() < until) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        // The deadline check in executeRequest turns this into
        // E-SERVE-DEADLINE; without an armed deadline we recover here.
        if (!job.cancelled()) {
            return renderServeError(request.id, "E-SERVE-INTERNAL",
                                    "injected stall at failpoint "
                                    "'serve.request'");
        }
        return std::string();
    }

    JsonWriter json;
    switch (request.op) {
    case ServeOp::Ping: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("pong").value(true);
        json.key("daemon").value("vdram-serve");
        json.endObject();
        return json.str();
    }
    case ServeOp::List: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("presets").beginArray();
        for (const NamedPreset& preset : namedPresets())
            json.value(preset.name);
        json.endArray();
        json.key("params").beginArray();
        for (const SweepParam& param : perturbParams())
            json.value(param.name);
        json.endArray();
        json.endObject();
        return json.str();
    }
    case ServeOp::Load: {
        DramDescription desc;
        if (!request.preset.empty()) {
            bool found = false;
            for (const NamedPreset& preset : namedPresets()) {
                if (preset.name == request.preset) {
                    desc = preset.build();
                    found = true;
                    break;
                }
            }
            if (!found) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        "unknown preset '" +
                                            request.preset + "'");
            }
        } else {
            Result<DramDescription> parsed =
                parseDescription(request.text);
            if (!parsed.ok()) {
                const Error& error = parsed.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            desc = std::move(parsed).value();
        }

        const std::uint64_t key = fnv1a64(writeDescription(desc));
        bool cached = false;
        std::shared_ptr<const DramDescription> snapshot =
            cache_.get(key);
        if (snapshot) {
            // Cache hit: the snapshot already validated; skip the full
            // validation pass and build directly.
            session.evaluator = std::make_unique<VariantEvaluator>(
                DramPowerModel(*snapshot));
            cached = true;
        } else {
            // create() resolves the floorplan in its copy; the cache keeps
            // the description as parsed, so a model built from a cache
            // hit still re-derives its die under geometry perturbations.
            Result<DramPowerModel> model = DramPowerModel::create(desc);
            if (!model.ok()) {
                const Error& error = model.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            cache_.put(key, std::move(desc));
            session.evaluator = std::make_unique<VariantEvaluator>(
                std::move(model).value());
        }
        session.modelKey = key;
        session.deviceName =
            session.evaluator->model().description().name;
        session.deltaApplies = 0;

        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("device").value(session.deviceName);
        json.key("hash").value(strformat("%016llx",
                                         static_cast<unsigned long long>(
                                             key)));
        json.key("cached").value(cached);
        json.endObject();
        return json.str();
    }
    case ServeOp::Evaluate:
    case ServeOp::Idd:
    case ServeOp::Perturb:
    case ServeOp::Reset: {
        if (!session.evaluator) {
            return renderServeError(request.id, "E-SERVE-STATE",
                                    "no model loaded in this session "
                                    "(send a 'load' first)");
        }
        if (request.op == ServeOp::Evaluate) {
            PatternPower power = session.evaluator->evaluateDefault();
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("device").value(session.deviceName);
            json.key("powerWatts").value(power.power);
            json.key("currentAmps").value(power.externalCurrent);
            json.key("energyPerBit").value(power.energyPerBit);
            json.key("busUtilization").value(power.busUtilization);
            json.key("loopSeconds").value(power.loopTime);
            json.endObject();
            return json.str();
        }
        if (request.op == ServeOp::Idd) {
            Result<IddMeasure> measure =
                parseIddMeasureName(request.measure);
            if (!measure.ok()) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        measure.error().message);
            }
            double amps = session.evaluator->idd(measure.value());
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("measure").value(iddName(measure.value()));
            json.key("amps").value(amps);
            json.endObject();
            return json.str();
        }
        if (request.op == ServeOp::Perturb) {
            const SweepParam* param = nullptr;
            for (const SweepParam& candidate : perturbParams()) {
                if (candidate.name == request.param) {
                    param = &candidate;
                    break;
                }
            }
            if (!param) {
                return renderServeError(request.id, "E-SERVE-REQUEST",
                                        "unknown parameter '" +
                                            request.param +
                                            "' (see 'list')");
            }
            const double factor = request.factor;
            Status applied = session.evaluator->applyPerturbation(
                [param, factor](DramDescription& d) {
                    param->apply(d, factor);
                },
                param->dirty);
            if (!applied.ok()) {
                // Validation rejected the variant; the evaluator rolled
                // back and the session stays usable.
                const Error& error = applied.error();
                return renderServeError(
                    request.id,
                    error.code.empty() ? "E-SERVE-REQUEST" : error.code,
                    error.toString());
            }
            ++session.deltaApplies;
            if (metricsEnabled())
                globalMetrics().counter("serve.delta.applies").add();
            json.beginObject();
            json.key("id").value(request.id);
            json.key("ok").value(true);
            json.key("param").value(param->name);
            json.key("factor").value(factor);
            json.key("deltaApplies").value(session.deltaApplies);
            json.endObject();
            return json.str();
        }
        session.evaluator->reset();
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("reset").value(true);
        json.endObject();
        return json.str();
    }
    case ServeOp::Metrics: {
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("metrics").rawValue(
            globalMetrics().snapshot().renderJson());
        json.endObject();
        return json.str();
    }
    case ServeOp::Stats: {
        ServeStats snapshot;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            snapshot = stats_;
        }
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        json.key("queueDepth").value(pool_.queueDepth());
        json.key("inFlight").value(pool_.inFlight());
        json.key("activeSessions")
            .value(static_cast<long long>(
                activeSessions_.load(std::memory_order_relaxed)));
        json.key("cacheSize")
            .value(static_cast<long long>(cache_.size()));
        json.key("cacheHits").value(cache_.hits());
        json.key("cacheMisses").value(cache_.misses());
        json.key("cacheEvictions").value(cache_.evictions());
        json.key("stats").rawValue(snapshot.renderJson());
        json.endObject();
        return json.str();
    }
    }
    (void)job;
    return renderServeError(request.id, "E-SERVE-INTERNAL",
                            "unhandled op");
}

bool
Server::writeResponse(int fd, const std::string& body)
{
    if (body.empty())
        return true; // a suppressed response (stall recovery path)
    std::string line = body;
    line += '\n';

    // Failpoint `serve.response`: the site's failure channel is the
    // socket write, so Error/PartialWrite simulate a dead or flaky
    // client connection; the session closes, the daemon lives.
    FailpointHit hit = failpointHit("serve.response");
    if (hit.action == FailpointAction::Crash) {
        throw std::runtime_error(
            "injected crash at failpoint 'serve.response'");
    }
    if (hit.action == FailpointAction::Abort)
        std::abort();
    if (hit.action == FailpointAction::Error ||
        hit.action == FailpointAction::PartialWrite) {
        if (hit.action == FailpointAction::PartialWrite)
            sendAll(fd, line.substr(0, line.size() / 2));
        count(&ServeStats::responsesFailed, "serve.responses.failed");
        return false;
    }

    if (!sendAll(fd, line)) {
        count(&ServeStats::responsesFailed, "serve.responses.failed");
        return false;
    }
    count(&ServeStats::responsesWritten, "serve.responses.written");
    return true;
}

} // namespace

Result<ServeStats>
runServeServer(const ServeOptions& options)
{
    Server server(options);
    return server.run();
}

Result<std::string>
serveSendLines(const std::string& socketPath, int port,
               const std::string& input)
{
    if (socketPath.empty() && port <= 0) {
        return Error{"serve-send needs --socket=PATH or --port=N", 0, 0,
                     "", "E-SERVE-SOCKET"};
    }
    Result<int> connected = connectLocal(socketPath, port);
    if (!connected.ok())
        return connected.error();
    const int fd = connected.value();
    struct FdGuard {
        int fd;
        ~FdGuard() { ::close(fd); }
    } guard{fd};

    std::string out = input;
    if (!out.empty() && out.back() != '\n')
        out += '\n';
    if (!sendAll(fd, out)) {
        return Error{std::string("request write failed: ") +
                         std::strerror(errno),
                     0, 0, "", "E-SERVE-SOCKET"};
    }
    ::shutdown(fd, SHUT_WR);

    std::string responses;
    long got;
    while ((got = recvAppend(fd, responses)) > 0) {
    }
    if (got < 0) {
        return Error{std::string("response read failed: ") +
                         std::strerror(errno),
                     0, 0, "", "E-SERVE-SOCKET"};
    }
    return responses;
}

#endif // !defined(_WIN32)

Result<std::string>
serveSendLinesRetry(const ServeSendOptions& options,
                    const std::string& input)
{
    std::vector<std::string> requests;
    for (const std::string& line : splitChar(input, '\n')) {
        if (!trim(line).empty())
            requests.push_back(line);
    }
    if (requests.empty())
        return std::string();

    // Jittered exponential backoff: all retrying clients of one daemon
    // must not re-arrive in lockstep after an overload wave.
    BackoffPolicy policy;
    policy.baseSeconds = options.retryBaseSeconds;
    policy.maxSeconds = 5.0;
    policy.jitter = 0.25;
#if !defined(_WIN32)
    const std::uint64_t seedBase =
        static_cast<std::uint64_t>(::getpid());
#else
    const std::uint64_t seedBase = 1;
#endif

    std::vector<std::string> responses(requests.size());
    std::vector<size_t> pending(requests.size());
    for (size_t i = 0; i < pending.size(); ++i)
        pending[i] = i;

    int attempt = 0;
    for (;;) {
        std::string batch;
        for (size_t index : pending) {
            batch += requests[index];
            batch += '\n';
        }
        Result<std::string> sent =
            serveSendLines(options.socketPath, options.port, batch);
        if (!sent.ok()) {
            // Only a refused connect is known-undelivered and safe to
            // retry wholesale; a mid-session failure is not replayed
            // (requests may have executed).
            if (sent.error().code == "E-SERVE-REFUSED" &&
                attempt < options.retries) {
                ++attempt;
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoffDelaySeconds(
                        policy, attempt,
                        deriveStreamSeed(seedBase, attempt))));
                continue;
            }
            return sent.error();
        }

        std::vector<std::string> lines;
        for (const std::string& line : splitChar(sent.value(), '\n')) {
            if (!trim(line).empty())
                lines.push_back(line);
        }
        if (lines.size() < pending.size()) {
            return Error{strformat("daemon answered %zu of %zu "
                                   "requests before closing",
                                   lines.size(), pending.size()),
                         0, 0, "", "E-SERVE-SOCKET"};
        }
        // Responses arrive in request order; remap onto the original
        // positions and collect the shed ones for the next attempt.
        std::vector<size_t> shed;
        for (size_t i = 0; i < pending.size(); ++i) {
            responses[pending[i]] = lines[i];
            if (lines[i].find("E-SERVE-OVERLOAD") != std::string::npos)
                shed.push_back(pending[i]);
        }
        if (shed.empty() || attempt >= options.retries)
            break;
        pending = std::move(shed);
        ++attempt;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoffDelaySeconds(policy, attempt,
                                deriveStreamSeed(seedBase, attempt))));
    }

    std::string out;
    for (const std::string& response : responses) {
        out += response;
        out += '\n';
    }
    return out;
}

} // namespace vdram

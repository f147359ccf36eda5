/**
 * @file
 * perfbench_loadgen — native load generator for `vdram serve` and
 * `vdram fleet`.
 *
 * One process, one thread, one unix-socket connection per session
 * (sessions <= nproc). Every session is a serve-protocol session: its
 * requests are answered in order, so responses are matched to a FIFO of
 * in-flight requests.
 *
 * Phases, in order:
 *   1. load    every session loads an inline-DSL preset
 *   2. warm    closed loop for 0.3 s, not reported (caches fill, pools
 *              start)
 *   3. open    Poisson arrivals at --open-rate requests/s over all
 *              sessions; each latency is taken from the request's due
 *              time, and the generator's own lateness is reported
 *   4. closed  every session keeps exactly one request in flight;
 *              answered requests per second is the capacity figure
 *   5. verify  the whole request stream is re-run in-process through
 *              the library (parseServeRequest + VariantEvaluator) and
 *              every response must be byte-equal to the library's;
 *              a response that instead equals the daemon's cache-hit
 *              build (see Mirror) is counted as `cache_hit_defects`,
 *              any other difference as `mismatches`
 *
 * Request mix per session: every 32nd request is a `load` of inline DSL
 * text drawn from the built-in presets; the rest are `perturb` (a
 * whitelisted sweep parameter, factor in [0.9, 1.1]) and `idd` (one of
 * the eleven measures), half each. All draws come from --seed.
 *
 * Prints one JSON object on stdout. Exit 0 when the run completed (the
 * caller decides correctness from the counters), 2 on usage errors, 1 on
 * transport failures.
 */
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "protocol/idd.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/numerics.h"
#include "util/strings.h"

using namespace vdram;

namespace {

using Clock = std::chrono::steady_clock;

long long
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Rng {
    std::uint64_t state;
    std::uint64_t next() { return splitmix64(state += 0x9E3779B97F4A7C15ULL); }
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) { return next() % n; }
};

constexpr IddMeasure kMeasures[] = {
    IddMeasure::Idd0,  IddMeasure::Idd1,  IddMeasure::Idd2N,
    IddMeasure::Idd2P, IddMeasure::Idd3N, IddMeasure::Idd3P,
    IddMeasure::Idd4R, IddMeasure::Idd4W, IddMeasure::Idd5,
    IddMeasure::Idd6,  IddMeasure::Idd7,
};
constexpr std::size_t kMeasureCount = sizeof(kMeasures) / sizeof(kMeasures[0]);
constexpr int kLoadEvery = 32;

/** Request vocabulary shared by the generator and the verifier. */
struct Vocabulary {
    std::vector<std::string> presetTexts;
    std::vector<const SweepParam*> params; ///< safe for every preset
    std::vector<SweepParam> sweep;
};

/**
 * Keep only the parameters whose perturbation validates on every preset
 * at both ends of the factor range, so no generated request fails.
 */
Vocabulary
makeVocabulary()
{
    Vocabulary vocab;
    vocab.sweep = sweepParameters(SweepMode::Detailed);
    std::vector<DramDescription> presets;
    for (const NamedPreset& preset : namedPresets()) {
        presets.push_back(preset.build());
        vocab.presetTexts.push_back(writeDescription(presets.back()));
    }
    for (const SweepParam& param : vocab.sweep) {
        bool safe = true;
        for (const DramDescription& desc : presets) {
            Result<VariantEvaluator> evaluator = VariantEvaluator::create(desc);
            if (!evaluator.ok()) {
                safe = false;
                break;
            }
            for (double factor : {0.9, 1.1}) {
                Status applied = evaluator.value().applyPerturbation(
                    [&param, factor](DramDescription& d) {
                        param.apply(d, factor);
                    },
                    param.dirty);
                safe = safe && applied.ok();
            }
            if (!safe)
                break;
        }
        if (safe)
            vocab.params.push_back(&param);
    }
    return vocab;
}

/** Request @p index of a session, drawn from the session's stream. */
std::string
makeRequest(const Vocabulary& vocab, Rng& rng, long long id, long long index)
{
    JsonWriter json;
    json.beginObject();
    json.key("id").value(id);
    if (index % kLoadEvery == 0) {
        json.key("op").value("load");
        json.key("text").value(
            vocab.presetTexts[rng.below(vocab.presetTexts.size())]);
    } else if (rng.uniform() < 0.5) {
        const SweepParam* param = vocab.params[rng.below(vocab.params.size())];
        json.key("op").value("perturb");
        json.key("param").value(param->name);
        // Three decimals: the text round-trips to the same double on both
        // sides of the socket.
        json.key("factor").rawValue(
            strformat("%.3f", 0.9 + 0.2 * rng.uniform()));
    } else {
        json.key("op").value("idd");
        json.key("measure").value(
            toLower(iddName(kMeasures[rng.below(kMeasureCount)])));
    }
    json.endObject();
    return json.str();
}

struct Pending {
    long long dueNs = 0;
    bool measured = false; ///< open-loop request: latency is recorded
};

struct Session {
    int fd = -1;
    Rng rng{0};
    long long issued = 0;
    std::string rbuf;
    std::string wbuf;
    std::deque<Pending> inflight;
    std::vector<std::string> requests;
    std::vector<std::string> responses;
};

/** One answered request: when it was due and how long it took. */
struct Sample {
    long long dueNs;
    double latencyUs;
};

struct Stats {
    std::vector<Sample> open;
    std::vector<double> lateUs;
    std::vector<Sample> closed;
    long long shed = 0;
    long long errors = 0;
};

int
connectUnix(const std::string& path)
{
    for (int attempt = 0; attempt < 500; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

class LoadGen {
  public:
    LoadGen(const Vocabulary& vocab, std::vector<Session>& sessions)
        : vocab_(vocab), sessions_(sessions)
    {
    }

    /** Queue the session's next request; its latency clock starts at
     *  @p dueNs. */
    void issue(Session& s, long long dueNs, bool measured)
    {
        std::string line =
            makeRequest(vocab_, s.rng, nextId_++, s.issued++);
        s.requests.push_back(line);
        s.wbuf += line;
        s.wbuf += '\n';
        s.inflight.push_back({dueNs, measured});
        if (measured)
            stats.lateUs.push_back((nowNs() - dueNs) / 1e3);
    }

    /** Write what the sockets take, poll until @p untilNs, read
     *  responses. Returns false on a transport failure. */
    bool pump(long long untilNs)
    {
        std::vector<pollfd> fds(sessions_.size());
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            Session& s = sessions_[i];
            flush(s);
            fds[i] = {s.fd, static_cast<short>(
                                POLLIN | (s.wbuf.empty() ? 0 : POLLOUT)),
                      0};
        }
        long long wait = std::max(0LL, untilNs - nowNs());
        timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                         static_cast<long>(wait % 1'000'000'000)};
        int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
        if (ready < 0)
            return errno == EINTR;
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                if (!receive(sessions_[i]))
                    return false;
            }
        }
        return true;
    }

    long long outstanding() const
    {
        long long n = 0;
        for (const Session& s : sessions_)
            n += static_cast<long long>(s.inflight.size());
        return n;
    }

    /** Closed loop: each idle session immediately gets its next
     *  request. */
    bool closedLoop(double seconds, bool count)
    {
        const long long end = nowNs() + static_cast<long long>(seconds * 1e9);
        countClosed_ = count;
        while (nowNs() < end) {
            for (Session& s : sessions_) {
                if (s.inflight.empty())
                    issue(s, nowNs(), false);
            }
            if (!pump(std::min(end, nowNs() + 1'000'000)))
                return false;
        }
        countClosed_ = false;
        return drain();
    }

    /** Open loop: Poisson arrivals at @p rate over all sessions. */
    bool openLoop(double rate, double seconds, Rng& arrivals)
    {
        const long long start = nowNs();
        const long long end = start + static_cast<long long>(seconds * 1e9);
        double due = static_cast<double>(start);
        while (true) {
            long long now = nowNs();
            while (due <= now && due < end) {
                Session& s = sessions_[arrivals.below(sessions_.size())];
                issue(s, static_cast<long long>(due), true);
                due += -std::log(1.0 - arrivals.uniform()) / rate * 1e9;
            }
            if (due >= end)
                break;
            if (!pump(static_cast<long long>(due)))
                return false;
        }
        return drain();
    }

    /** Wait (up to 10 s) until every in-flight request is answered. */
    bool drain()
    {
        const long long end = nowNs() + 10'000'000'000LL;
        while (outstanding() > 0 && nowNs() < end) {
            if (!pump(std::min(end, nowNs() + 5'000'000)))
                return false;
        }
        return outstanding() == 0;
    }

    Stats stats;

  private:
    void flush(Session& s)
    {
        while (!s.wbuf.empty()) {
            ssize_t n = ::send(s.fd, s.wbuf.data(), s.wbuf.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n <= 0)
                return;
            s.wbuf.erase(0, static_cast<std::size_t>(n));
        }
    }

    bool receive(Session& s)
    {
        char buf[65536];
        ssize_t n = ::recv(s.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n == 0)
            return false;
        if (n < 0)
            return errno == EAGAIN || errno == EINTR;
        s.rbuf.append(buf, static_cast<std::size_t>(n));
        const long long now = nowNs();
        std::size_t pos = 0;
        std::size_t nl;
        while ((nl = s.rbuf.find('\n', pos)) != std::string::npos) {
            std::string line = s.rbuf.substr(pos, nl - pos);
            pos = nl + 1;
            if (s.inflight.empty())
                return false; // an answer nobody asked for
            Pending p = s.inflight.front();
            s.inflight.pop_front();
            if (line.find("\"ok\":true") == std::string::npos) {
                if (line.find("E-SERVE-OVERLOAD") != std::string::npos)
                    ++stats.shed;
                else
                    ++stats.errors;
            }
            if (p.measured)
                stats.open.push_back({p.dueNs, (now - p.dueNs) / 1e3});
            else if (countClosed_)
                stats.closed.push_back({now, (now - p.dueNs) / 1e3});
            s.responses.push_back(std::move(line));
        }
        s.rbuf.erase(0, pos);
        return true;
    }

    const Vocabulary& vocab_;
    std::vector<Session>& sessions_;
    long long nextId_ = 1;
    bool countClosed_ = false;
};

/**
 * Library result for one request line: the same parse and evaluation
 * calls the daemon makes, rendered the same way. The daemon's model
 * cache is shared state the library call cannot see, so `cached` is
 * taken from the daemon's response.
 *
 * With @c snapshotHits set, a cached load is built the way the daemon's
 * cache-hit path builds it: from the description of an already built
 * model, whose floorplan is resolved, so later geometry perturbations
 * leave the die size fixed. The verifier uses it only to name a
 * mismatch as that known defect; the reference is the from-scratch
 * build.
 */
struct Mirror {
    std::unique_ptr<VariantEvaluator> evaluator;
    std::string device;
    long long deltaApplies = 0;
    bool snapshotHits = false;

    std::string execute(const Vocabulary& vocab, const std::string& line,
                        bool cached)
    {
        Result<ServeRequest> parsed = parseServeRequest(line);
        if (!parsed.ok())
            return "parse error";
        const ServeRequest& request = parsed.value();
        JsonWriter json;
        json.beginObject();
        json.key("id").value(request.id);
        json.key("ok").value(true);
        if (request.op == ServeOp::Load) {
            Result<DramDescription> desc = parseDescription(request.text);
            if (!desc.ok())
                return "parse error";
            const std::uint64_t key = fnv1a64(writeDescription(desc.value()));
            Result<DramPowerModel> model =
                DramPowerModel::create(std::move(desc).value());
            if (!model.ok())
                return "validation error";
            if (snapshotHits && cached) {
                evaluator = std::make_unique<VariantEvaluator>(
                    DramPowerModel(model.value().description()));
            } else {
                evaluator = std::make_unique<VariantEvaluator>(
                    std::move(model).value());
            }
            device = evaluator->model().description().name;
            deltaApplies = 0;
            json.key("device").value(device);
            json.key("hash").value(strformat(
                "%016llx", static_cast<unsigned long long>(key)));
            json.key("cached").value(cached);
        } else if (request.op == ServeOp::Idd) {
            for (IddMeasure measure : kMeasures) {
                if (toLower(iddName(measure)) == request.measure) {
                    json.key("measure").value(iddName(measure));
                    json.key("amps").value(evaluator->idd(measure));
                }
            }
        } else if (request.op == ServeOp::Perturb) {
            const SweepParam* param = nullptr;
            for (const SweepParam& candidate : vocab.sweep) {
                if (candidate.name == request.param)
                    param = &candidate;
            }
            const double factor = request.factor;
            Status applied = evaluator->applyPerturbation(
                [param, factor](DramDescription& d) {
                    param->apply(d, factor);
                },
                param->dirty);
            if (!applied.ok())
                return "perturb rejected";
            ++deltaApplies;
            json.key("param").value(param->name);
            json.key("factor").value(factor);
            json.key("deltaApplies").value(deltaApplies);
        }
        json.endObject();
        return json.str();
    }
};

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/**
 * Split @p samples into consecutive windows of @p windowNs by their
 * time stamp and return one figure per window. Medians over windows keep
 * a short host stall from deciding a whole run's figure.
 */
std::vector<double>
perWindow(const std::vector<Sample>& samples, long long windowNs,
          const std::function<double(std::vector<double>&)>& figure)
{
    std::vector<double> out;
    if (samples.empty())
        return out;
    std::vector<double> window;
    long long end = samples.front().dueNs + windowNs;
    for (const Sample& s : samples) {
        if (s.dueNs >= end) {
            out.push_back(figure(window));
            window.clear();
            while (s.dueNs >= end)
                end += windowNs;
        }
        window.push_back(s.latencyUs);
    }
    return out; // the last, partial window is dropped
}

bool
flagValue(const std::string& arg, const char* name, std::string& out)
{
    const std::string prefix = std::string(name) + "=";
    if (arg.compare(0, prefix.size(), prefix) != 0)
        return false;
    out = arg.substr(prefix.size());
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socketPath;
    std::uint64_t seed = 1;
    int sessionCount = 4;
    double openRate = 0, openSeconds = 0, closedSeconds = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i], v;
        if (flagValue(arg, "--socket", v))
            socketPath = v;
        else if (flagValue(arg, "--seed", v))
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flagValue(arg, "--sessions", v))
            sessionCount = std::atoi(v.c_str());
        else if (flagValue(arg, "--open-rate", v))
            openRate = std::atof(v.c_str());
        else if (flagValue(arg, "--open-seconds", v))
            openSeconds = std::atof(v.c_str());
        else if (flagValue(arg, "--closed-seconds", v))
            closedSeconds = std::atof(v.c_str());
        else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            return 2;
        }
    }
    const int maxSessions =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    if (socketPath.empty() || sessionCount < 1 || sessionCount > maxSessions ||
        (openSeconds > 0 && !(openRate > 0))) {
        std::fprintf(stderr,
                     "usage: perfbench_loadgen --socket=PATH --seed=N "
                     "--sessions=1..nproc [--open-rate=R --open-seconds=S] "
                     "[--closed-seconds=S]\n");
        return 2;
    }

    const Vocabulary vocab = makeVocabulary();
    std::vector<Session> sessions(static_cast<std::size_t>(sessionCount));
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        sessions[i].rng.state = splitmix64(seed * 1000003ULL + i);
        sessions[i].fd = connectUnix(socketPath);
        if (sessions[i].fd < 0) {
            std::fprintf(stderr, "cannot connect to %s: %s\n",
                         socketPath.c_str(), std::strerror(errno));
            return 1;
        }
    }
    LoadGen gen(vocab, sessions);

    const long long loadStart = nowNs();
    for (Session& s : sessions)
        gen.issue(s, loadStart, false);
    if (!gen.drain()) {
        std::fprintf(stderr, "session loads were not answered\n");
        return 1;
    }

    Rng arrivals{splitmix64(seed ^ 0x5EEDULL)};
    bool ok = gen.closedLoop(0.3, false);
    if (ok && openSeconds > 0)
        ok = gen.openLoop(openRate, openSeconds, arrivals);
    if (ok && closedSeconds > 0)
        ok = gen.closedLoop(closedSeconds, true);
    if (!ok) {
        std::fprintf(stderr, "transport failure (connection lost or "
                             "answers missing)\n");
        return 1;
    }
    for (Session& s : sessions)
        ::close(s.fd);

    // Verify every response against the library, timing the library run
    // and the request parse on their own.
    long long attempted = 0, loads = 0, cacheHits = 0;
    // Per session: (request index, library result) of every response
    // that differs from the library.
    std::vector<std::vector<std::pair<std::size_t, std::string>>> differing(
        sessions.size());
    const long long libStart = nowNs();
    for (std::size_t k = 0; k < sessions.size(); ++k) {
        Session& s = sessions[k];
        Mirror mirror;
        for (std::size_t i = 0; i < s.requests.size(); ++i) {
            const bool cached =
                s.responses[i].find("\"cached\":true") != std::string::npos;
            if (i % kLoadEvery == 0) {
                ++loads;
                cacheHits += cached ? 1 : 0;
            }
            std::string expected =
                mirror.execute(vocab, s.requests[i], cached);
            if (expected != s.responses[i])
                differing[k].emplace_back(i, std::move(expected));
        }
        attempted += static_cast<long long>(s.requests.size());
    }
    const double libUs = (nowNs() - libStart) / 1e3 / std::max(1LL, attempted);

    // A differing response that equals the daemon's cache-hit build is
    // the known cache-hit defect, counted on its own; any other
    // difference is a mismatch.
    long long mismatches = 0, cacheHitDefects = 0;
    for (std::size_t k = 0; k < sessions.size(); ++k) {
        if (differing[k].empty())
            continue;
        const Session& s = sessions[k];
        Mirror hitPath;
        hitPath.snapshotHits = true;
        std::size_t next = 0;
        for (std::size_t i = 0; i < s.requests.size(); ++i) {
            const bool cached =
                s.responses[i].find("\"cached\":true") != std::string::npos;
            const std::string hit =
                hitPath.execute(vocab, s.requests[i], cached);
            if (next == differing[k].size() || differing[k][next].first != i)
                continue;
            const std::string& expected = differing[k][next++].second;
            if (hit == s.responses[i]) {
                ++cacheHitDefects;
                continue;
            }
            if (mismatches < 3)
                std::fprintf(stderr,
                             "mismatch:\n  daemon  %s\n  library %s\n",
                             s.responses[i].c_str(), expected.c_str());
            ++mismatches;
        }
    }
    const long long parseStart = nowNs();
    long long parsed = 0;
    for (const Session& s : sessions) {
        for (const std::string& line : s.requests)
            parsed += parseServeRequest(line).ok() ? 1 : 0;
    }
    const double parseNs =
        static_cast<double>(nowNs() - parseStart) / std::max(1LL, attempted);
    if (parsed != attempted) {
        std::fprintf(stderr, "%lld generated requests do not parse\n",
                     attempted - parsed);
        return 1;
    }

    const Stats& st = gen.stats;
    JsonWriter out;
    out.beginObject();
    out.key("sessions").value(sessionCount);
    out.key("attempted").value(attempted);
    out.key("shed").value(st.shed);
    out.key("errors").value(st.errors);
    out.key("mismatches").value(mismatches);
    out.key("cache_hit_defects").value(cacheHitDefects);
    out.key("loads").value(loads);
    out.key("cache_hits").value(cacheHits);
    out.key("open_rate").value(openRate);
    // Open loop: p50 and p99 per 1 s window (>= 10 samples beyond the
    // p99 at the benchmark's rate), then the median over windows.
    std::vector<double> closedAll;
    for (const Sample& s : st.closed)
        closedAll.push_back(s.latencyUs);
    const long long second = 1'000'000'000;
    out.key("open_samples").value(static_cast<long long>(st.open.size()));
    out.key("open_p50_us").value(median(perWindow(
        st.open, second, [](auto& w) { return percentile(w, 0.50); })));
    out.key("open_p99_us").value(median(perWindow(
        st.open, second, [](auto& w) { return percentile(w, 0.99); })));
    out.key("late_p99_us").value(percentile(st.lateUs, 0.99));
    // Closed loop: answered requests per 0.5 s window, median over
    // windows.
    out.key("closed_answered").value(static_cast<long long>(st.closed.size()));
    out.key("closed_rps").value(median(perWindow(
        st.closed, second / 2,
        [](auto& w) { return static_cast<double>(w.size()) * 2; })));
    out.key("closed_p50_us").value(percentile(closedAll, 0.50));
    out.key("closed_p99_us").value(percentile(closedAll, 0.99));
    out.key("lib_us").value(libUs);
    out.key("parse_ns").value(parseNs);
    out.endObject();
    std::printf("%s\n", out.str().c_str());
    return 0;
}

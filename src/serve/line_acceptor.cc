#include "serve/line_acceptor.h"

#if !defined(_WIN32)

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <list>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/strings.h"

#if !defined(MSG_NOSIGNAL)
#define MSG_NOSIGNAL 0
#endif

namespace vdram {

namespace {

bool
stopRequested(const LineAcceptorOptions& options)
{
    return options.stopFlag &&
           options.stopFlag->load(std::memory_order_relaxed);
}

/**
 * A stream socket on the unix path, or on the loopback port when the
 * path is empty: bound and listening (@p listen), or else connected.
 */
Result<int>
openLocal(const std::string& socketPath, int port, const std::string& code,
          bool listen)
{
    const bool unixSocket = !socketPath.empty();
    sockaddr_storage addr{};
    socklen_t length = sizeof(sockaddr_in);
    std::string where = "loopback port " + std::to_string(port);
    if (unixSocket) {
        sockaddr_un* un = reinterpret_cast<sockaddr_un*>(&addr);
        if (socketPath.size() >= sizeof(un->sun_path)) {
            return Error{"socket path too long: " + socketPath, 0, 0,
                         socketPath, code};
        }
        un->sun_family = AF_UNIX;
        std::memcpy(un->sun_path, socketPath.c_str(), socketPath.size());
        length = sizeof(sockaddr_un);
        where = "'" + socketPath + "'";
    } else {
        sockaddr_in* in = reinterpret_cast<sockaddr_in*>(&addr);
        in->sin_family = AF_INET;
        in->sin_port = htons(static_cast<std::uint16_t>(port));
        // Loopback only: the protocol is unauthenticated and must never
        // be reachable from off-host.
        in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    }
    int fd = ::socket(unixSocket ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return Error{std::string(unixSocket ? "cannot create unix socket: "
                                            : "cannot create TCP socket: ") +
                         std::strerror(errno),
                     0, 0, socketPath, code};
    }
    const sockaddr* target = reinterpret_cast<sockaddr*>(&addr);
    bool opened;
    if (listen) {
        int one = 1;
        if (unixSocket) {
            // The listener owns its socket path: a stale file from a
            // killed predecessor must not prevent startup.
            ::unlink(socketPath.c_str());
        } else {
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        }
        opened = ::bind(fd, target, length) == 0 && ::listen(fd, 64) == 0;
    } else {
        opened = ::connect(fd, target, length) == 0;
    }
    if (!opened) {
        // A refused connect (ECONNREFUSED/ENOENT) means no request
        // reached a daemon — the one failure a client may safely retry.
        const bool refused =
            !listen && (errno == ECONNREFUSED || errno == ENOENT);
        Error error{(listen ? "cannot listen on " : "cannot connect to ") +
                        where + ": " + std::strerror(errno),
                    0, 0, socketPath, refused ? "E-SERVE-REFUSED" : code};
        ::close(fd);
        return error;
    }
    return fd;
}

} // namespace

Result<bool>
runLineAcceptor(const LineAcceptorOptions& options,
                const std::function<void(int fd)>& session)
{
    if (options.socketPath.empty() && options.port <= 0) {
        return Error{options.name + " needs --socket=PATH or --port=N", 0,
                     0, "", options.errorCode};
    }
    Result<int> listener =
        openLocal(options.socketPath, options.port, options.errorCode, true);
    if (!listener.ok())
        return listener.error();
    const int listen_fd = listener.value();

    if (options.onReady)
        options.onReady();

    // One thread per session. Finished ones are joined as the loop goes
    // round, so a long-lived listener does not keep the stack of every
    // session it ever served.
    struct SessionThread {
        std::atomic<bool> done{false};
        std::thread thread;
    };
    std::list<SessionThread> sessions;

    // Accept loop: poll so the stop flag is observed within ~200 ms.
    while (!stopRequested(options)) {
        sessions.remove_if([](SessionThread& finished) {
            if (!finished.done.load(std::memory_order_acquire))
                return false;
            finished.thread.join();
            return true;
        });
        pollfd pfd{listen_fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 200);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break; // listener died; drain what we have
        }
        if (ready == 0)
            continue;
        int client = ::accept(listen_fd, nullptr, nullptr);
        if (client < 0)
            continue; // transient accept failure; the listener lives
        SessionThread& started = sessions.emplace_back();
        started.thread = std::thread([&session, &started, client] {
            session(client);
            ::close(client);
            started.done.store(true, std::memory_order_release);
        });
    }

    // Drain: stop accepting; every session answers what it has already
    // read and observes the stop flag within one poll round.
    ::close(listen_fd);
    if (!options.socketPath.empty())
        ::unlink(options.socketPath.c_str());
    for (SessionThread& running : sessions)
        running.thread.join();
    return stopRequested(options);
}

SessionEnd
runLineSession(int fd, const LineAcceptorOptions& options,
               const std::function<bool(const std::string& line)>& handleLine)
{
    std::string buffer;
    double idle_seconds = 0;
    bool eof = false;

    // The whole session is exception-quarantined: a bug or an injected
    // crash tears down THIS connection, never the process.
    try {
        for (;;) {
            size_t pos;
            while ((pos = buffer.find('\n')) != std::string::npos) {
                std::string line = buffer.substr(0, pos);
                buffer.erase(0, pos + 1);
                if (!trim(line).empty() && !handleLine(line))
                    return SessionEnd::WriteFailed;
            }
            if (stopRequested(options))
                return SessionEnd::Stopped; // everything read is answered
            if (eof) {
                // Half-close: a final unterminated line still counts.
                if (!trim(buffer).empty() && !handleLine(buffer))
                    return SessionEnd::WriteFailed;
                return SessionEnd::Closed;
            }
            pollfd pfd{fd, POLLIN, 0};
            int ready = ::poll(&pfd, 1, 200);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                return SessionEnd::Closed;
            }
            if (ready == 0) {
                idle_seconds += 0.2;
                if (options.idleSessionSeconds > 0 &&
                    idle_seconds >= options.idleSessionSeconds)
                    return SessionEnd::Idle;
                continue;
            }
            long got = recvAppend(fd, buffer);
            if (got < 0)
                return SessionEnd::Closed;
            eof = got == 0;
            idle_seconds = 0;
        }
    } catch (...) {
        return SessionEnd::Faulted;
    }
}

long
recvAppend(int fd, std::string& buffer)
{
    char chunk[4096];
    ssize_t got;
    do {
        got = ::recv(fd, chunk, sizeof chunk, 0);
    } while (got < 0 && (errno == EINTR || errno == EAGAIN));
    if (got > 0)
        buffer.append(chunk, static_cast<size_t>(got));
    return got;
}

bool
sendAll(int fd, const std::string& bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

Result<int>
connectLocal(const std::string& socketPath, int port)
{
    return openLocal(socketPath, port, "E-SERVE-SOCKET", false);
}

} // namespace vdram

#endif // !defined(_WIN32)

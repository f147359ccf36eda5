/**
 * @file
 * The newline-protocol acceptor shared by the `vdram serve` daemon and
 * the `vdram fleet` front router: the listener, the accept loop with
 * one thread per session, and the session loop that turns a byte
 * stream into request lines. The callers keep only what a line means.
 *
 * Session rules, the same for both:
 *  - each complete, non-blank line goes to the handler in order; blank
 *    lines are keep-alives and get no response;
 *  - after the peer half-closes, a final unterminated line is handled;
 *  - a session silent for idleSessionSeconds is evicted;
 *  - once the stop flag rises, a session ends as soon as every complete
 *    line it has read is answered (graceful drain);
 *  - an exception out of the handler ends that session only.
 */
#ifndef VDRAM_SERVE_LINE_ACCEPTOR_H
#define VDRAM_SERVE_LINE_ACCEPTOR_H

#include <atomic>
#include <functional>
#include <string>

#include "util/result.h"

namespace vdram {

struct LineAcceptorOptions {
    /** Unix-domain socket path; when empty, the loopback TCP port. */
    std::string socketPath;
    int port = 0;
    /** Code of listener errors (E-SERVE-SOCKET, E-FLEET-SOCKET). */
    std::string errorCode;
    /** Names the caller in "<name> needs --socket=PATH or --port=N". */
    std::string name;
    /** Evict a session idle this long (seconds; 0 disables). */
    double idleSessionSeconds = 0;
    const std::atomic<bool>* stopFlag = nullptr;
    /** Invoked once the listener is accepting. */
    std::function<void()> onReady;
};

/** How a session ended. */
enum class SessionEnd {
    Closed,      ///< the peer closed, or a read failed
    WriteFailed, ///< the handler found the peer unwritable
    Idle,        ///< evicted after idleSessionSeconds of silence
    Stopped,     ///< the stop flag rose; every line read was answered
    Faulted,     ///< an exception escaped the handler
};

/**
 * Listen, and run @p session(fd) on a thread of its own for every
 * accepted connection; fd is closed once @p session returns. Returns
 * once the stop flag rises (or the listener fails), after joining
 * every session and closing (and unlinking) the listener: true when
 * the stop flag ended it. Errors only when the listener cannot open.
 */
Result<bool> runLineAcceptor(const LineAcceptorOptions& options,
                             const std::function<void(int fd)>& session);

/**
 * Read requests from @p fd under the session rules, passing each line
 * to @p handleLine, which answers it and returns false once the peer
 * is no longer writable.
 */
SessionEnd runLineSession(
    int fd, const LineAcceptorOptions& options,
    const std::function<bool(const std::string& line)>& handleLine);

/** One recv() appended to @p buffer (EINTR retried): the byte count,
 *  0 at EOF, -1 on error with errno set. */
long recvAppend(int fd, std::string& buffer);

/** Send every byte (EINTR retried, no SIGPIPE). On false, errno holds
 *  the cause. */
bool sendAll(int fd, const std::string& bytes);

/**
 * Connect to the unix socket @p socketPath, or the loopback TCP @p port
 * when the path is empty. A refused connect (no daemon, nothing
 * delivered) is E-SERVE-REFUSED, anything else E-SERVE-SOCKET.
 */
Result<int> connectLocal(const std::string& socketPath, int port);

} // namespace vdram

#endif // VDRAM_SERVE_LINE_ACCEPTOR_H

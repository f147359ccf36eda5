/**
 * @file
 * Direct tests of the newline-protocol acceptor shared by `vdram serve`
 * and the fleet router: the unix and loopback-TCP listeners, the
 * session rules (blank lines, half-close, idle eviction, drain on the
 * stop flag, per-session fault quarantine) and the listener errors.
 *
 * Part of the "robustness" ctest label.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/line_acceptor.h"
#include "serve/server.h"

namespace vdram {
namespace {

std::string
socketPath(const std::string& name)
{
    return "/tmp/vdram_acceptor_" + name + "_" +
           std::to_string(::getpid()) + ".sock";
}

/**
 * An echo acceptor on its own thread: every line is answered with
 * "echo:<line>", "fail" makes the handler report an unwritable peer,
 * "boom" throws, and "wait" blocks until the stop flag rises. The end
 * of every session is recorded.
 */
class EchoAcceptor {
  public:
    explicit EchoAcceptor(LineAcceptorOptions options)
        : options_(std::move(options))
    {
        options_.errorCode = "E-TEST-SOCKET";
        options_.name = "echo";
        options_.stopFlag = &stop_;
        options_.onReady = [this] { ready_.store(true); };
        thread_ = std::thread([this] {
            result_ = runLineAcceptor(options_, [this](int fd) {
                SessionEnd end = runLineSession(
                    fd, options_,
                    [this, fd](const std::string& line) {
                        return handle(fd, line);
                    });
                std::lock_guard<std::mutex> lock(mutex_);
                ends_.push_back(end);
            });
            finished_.store(true);
        });
        for (int i = 0; i < 500 && !ready_.load() && !finished_.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    ~EchoAcceptor() { stopAndJoin(); }

    bool ready() const { return ready_.load(); }

    Result<bool> stopAndJoin()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        return result_;
    }

    std::vector<SessionEnd> ends()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return ends_;
    }

    /** Wait (bounded) until @p count sessions have ended. */
    bool waitForEnds(size_t count)
    {
        for (int i = 0; i < 1000; ++i) {
            if (ends().size() >= count)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    std::atomic<int> waiting{0};

  private:
    bool handle(int fd, const std::string& line)
    {
        if (line == "fail")
            return false;
        if (line == "boom")
            throw std::runtime_error("handler fault");
        if (line == "wait") {
            waiting.fetch_add(1);
            while (!stop_.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return sendAll(fd, "echo:" + line + "\n");
    }

    LineAcceptorOptions options_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> ready_{false};
    std::atomic<bool> finished_{false};
    Result<bool> result_ = false;
    std::mutex mutex_;
    std::vector<SessionEnd> ends_;
    std::thread thread_;
};

LineAcceptorOptions
unixOptions(const std::string& name)
{
    LineAcceptorOptions options;
    options.socketPath = socketPath(name);
    options.idleSessionSeconds = 30;
    return options;
}

/** Everything the peer sends until it closes. */
std::string
readAll(int fd)
{
    std::string out;
    while (recvAppend(fd, out) > 0) {
    }
    return out;
}

TEST(LineAcceptorTest, LoopbackTcpRoundTrip)
{
    // Try a few pid-derived ports; another process may hold one.
    const int base = 20000 + static_cast<int>(::getpid() % 20000);
    for (int port = base; port < base + 16; ++port) {
        LineAcceptorOptions options;
        options.port = port;
        EchoAcceptor acceptor(options);
        if (!acceptor.ready()) {
            Result<bool> failed = acceptor.stopAndJoin();
            ASSERT_FALSE(failed.ok());
            EXPECT_EQ(failed.error().code, "E-TEST-SOCKET");
            continue;
        }
        Result<std::string> replies =
            serveSendLines("", port, "alpha\nbeta\n");
        ASSERT_TRUE(replies.ok()) << replies.error().toString();
        EXPECT_EQ(replies.value(), "echo:alpha\necho:beta\n");

        Result<bool> drained = acceptor.stopAndJoin();
        ASSERT_TRUE(drained.ok());
        EXPECT_TRUE(drained.value());
        ASSERT_EQ(acceptor.ends().size(), 1u);
        EXPECT_EQ(acceptor.ends()[0], SessionEnd::Closed);

        // The listener is gone: a connect is refused, not hung.
        Result<int> refused = connectLocal("", port);
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.error().code, "E-SERVE-REFUSED");
        return;
    }
    FAIL() << "no free loopback port in [" << base << ", " << base + 16
           << ")";
}

TEST(LineAcceptorTest, FinalUnterminatedLineAfterHalfCloseIsAnswered)
{
    EchoAcceptor acceptor(unixOptions("halfclose"));
    ASSERT_TRUE(acceptor.ready());
    Result<int> fd = connectLocal(socketPath("halfclose"), 0);
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    ASSERT_TRUE(sendAll(fd.value(), "first\nlast"));
    ::shutdown(fd.value(), SHUT_WR);
    EXPECT_EQ(readAll(fd.value()), "echo:first\necho:last\n");
    ::close(fd.value());
    ASSERT_TRUE(acceptor.waitForEnds(1));
    EXPECT_EQ(acceptor.ends()[0], SessionEnd::Closed);
}

TEST(LineAcceptorTest, BlankLinesGetNoResponse)
{
    EchoAcceptor acceptor(unixOptions("blank"));
    ASSERT_TRUE(acceptor.ready());
    Result<std::string> replies = serveSendLines(
        socketPath("blank"), 0, "\n  \none\n\t\n\ntwo\n   ");
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    EXPECT_EQ(replies.value(), "echo:one\necho:two\n");
}

TEST(LineAcceptorTest, IdleSessionIsEvictedAndReported)
{
    LineAcceptorOptions options = unixOptions("idle");
    options.idleSessionSeconds = 0.3;
    EchoAcceptor acceptor(options);
    ASSERT_TRUE(acceptor.ready());
    Result<int> fd = connectLocal(socketPath("idle"), 0);
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    // Never write: the acceptor must close the session on its own.
    EXPECT_EQ(readAll(fd.value()), "");
    ::close(fd.value());
    ASSERT_TRUE(acceptor.waitForEnds(1));
    EXPECT_EQ(acceptor.ends()[0], SessionEnd::Idle);
}

TEST(LineAcceptorTest, StopFlagAnswersEveryLineAlreadyRead)
{
    EchoAcceptor acceptor(unixOptions("drain"));
    ASSERT_TRUE(acceptor.ready());
    Result<int> fd = connectLocal(socketPath("drain"), 0);
    ASSERT_TRUE(fd.ok()) << fd.error().toString();
    // "wait" holds the session until the stop flag rises; the lines
    // behind it arrived in the same write and are already read.
    ASSERT_TRUE(sendAll(fd.value(), "wait\ntwo\nthree\n"));
    for (int i = 0; i < 1000 && acceptor.waiting.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_EQ(acceptor.waiting.load(), 1);

    Result<bool> drained = acceptor.stopAndJoin();
    ASSERT_TRUE(drained.ok());
    EXPECT_TRUE(drained.value());
    // The session left without the client closing its side.
    EXPECT_EQ(readAll(fd.value()), "echo:wait\necho:two\necho:three\n");
    ::close(fd.value());
    ASSERT_EQ(acceptor.ends().size(), 1u);
    EXPECT_EQ(acceptor.ends()[0], SessionEnd::Stopped);
    EXPECT_NE(::access(socketPath("drain").c_str(), F_OK), 0)
        << "the listener's socket file outlived it";
}

TEST(LineAcceptorTest, FailedWriteOrHandlerFaultClosesOnlyThatSession)
{
    EchoAcceptor acceptor(unixOptions("fault"));
    ASSERT_TRUE(acceptor.ready());
    Result<int> bystander = connectLocal(socketPath("fault"), 0);
    ASSERT_TRUE(bystander.ok()) << bystander.error().toString();

    // Each of these sessions ends at its bad line; nothing after it is
    // handled.
    Result<std::string> failed =
        serveSendLines(socketPath("fault"), 0, "one\nfail\nlost\n");
    ASSERT_TRUE(failed.ok()) << failed.error().toString();
    EXPECT_EQ(failed.value(), "echo:one\n");
    Result<std::string> faulted =
        serveSendLines(socketPath("fault"), 0, "one\nboom\nlost\n");
    ASSERT_TRUE(faulted.ok()) << faulted.error().toString();
    EXPECT_EQ(faulted.value(), "echo:one\n");

    // The session opened before them is still served.
    ASSERT_TRUE(sendAll(bystander.value(), "still here\n"));
    ::shutdown(bystander.value(), SHUT_WR);
    EXPECT_EQ(readAll(bystander.value()), "echo:still here\n");
    ::close(bystander.value());

    ASSERT_TRUE(acceptor.waitForEnds(3));
    std::vector<SessionEnd> ends = acceptor.ends();
    EXPECT_EQ(ends[0], SessionEnd::WriteFailed);
    EXPECT_EQ(ends[1], SessionEnd::Faulted);
    EXPECT_EQ(ends[2], SessionEnd::Closed);
}

TEST(LineAcceptorTest, ListenerErrorsCarryTheCallersCode)
{
    LineAcceptorOptions options;
    options.errorCode = "E-FLEET-SOCKET";
    options.name = "fleet";
    auto noSession = [](int) {};

    Result<bool> neither = runLineAcceptor(options, noSession);
    ASSERT_FALSE(neither.ok());
    EXPECT_EQ(neither.error().code, "E-FLEET-SOCKET");
    EXPECT_EQ(neither.error().message,
              "fleet needs --socket=PATH or --port=N");

    options.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    Result<bool> tooLong = runLineAcceptor(options, noSession);
    ASSERT_FALSE(tooLong.ok());
    EXPECT_EQ(tooLong.error().code, "E-FLEET-SOCKET");
    EXPECT_EQ(tooLong.error().message,
              "socket path too long: " + options.socketPath);

    // The client side of the same path check is a socket error too.
    Result<int> connected = connectLocal(options.socketPath, 0);
    ASSERT_FALSE(connected.ok());
    EXPECT_EQ(connected.error().code, "E-SERVE-SOCKET");
}

} // namespace
} // namespace vdram

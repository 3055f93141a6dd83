#include "serve/server.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/log.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"

namespace gaze
{
namespace serve
{
namespace
{

/** Self-pipe for async-signal-safe shutdown notification. */
int gSignalPipe[2] = {-1, -1};

extern "C" void
onShutdownSignal(int)
{
    char b = 's';
    ssize_t r = write(gSignalPipe[1], &b, 1);
    (void)r;
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
drainPipe(int fd)
{
    char buf[64];
    while (read(fd, buf, sizeof(buf)) > 0) {
    }
}

/**
 * One client connection's outbound buffer. Shared with the Service's
 * event callback (worker threads append) and the poll loop (flushes);
 * shared_ptr so a connection torn down mid-simulation leaves workers
 * a safe, marked-closed buffer instead of a dangling pointer.
 */
struct Outbuf
{
    std::mutex mtx;
    std::string data;
    bool open = true;
};

struct Conn
{
    int fd = -1;
    uint64_t client = 0;
    std::string in;
    std::shared_ptr<Outbuf> out;
    /** Refused (over-long line): no more reads; close once flushed. */
    bool closing = false;
};

} // namespace

int
runServer(const ServerConfig &cfg)
{
    if (cfg.socketPath.empty())
        GAZE_FATAL("gaze_serve: --socket=PATH is required");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg.socketPath.size() >= sizeof(addr.sun_path))
        GAZE_FATAL("gaze_serve: socket path too long (max ",
                   sizeof(addr.sun_path) - 1, " bytes): ",
                   cfg.socketPath);
    std::memcpy(addr.sun_path, cfg.socketPath.c_str(),
                cfg.socketPath.size() + 1);

    int listenFd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        GAZE_FATAL("gaze_serve: socket(): ", std::strerror(errno));
    // A stale socket file from a crashed daemon would make bind fail;
    // a *live* daemon still holds its listener, and replacing its file
    // is exactly what the operator restarting the service wants.
    unlink(cfg.socketPath.c_str());
    if (bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr))
        != 0)
        GAZE_FATAL("gaze_serve: bind(", cfg.socketPath,
                   "): ", std::strerror(errno));
    if (listen(listenFd, 64) != 0)
        GAZE_FATAL("gaze_serve: listen(): ", std::strerror(errno));
    setNonBlocking(listenFd);

    if (pipe(gSignalPipe) != 0)
        GAZE_FATAL("gaze_serve: pipe(): ", std::strerror(errno));
    setNonBlocking(gSignalPipe[0]);
    setNonBlocking(gSignalPipe[1]);

    int wakePipe[2];
    if (pipe(wakePipe) != 0)
        GAZE_FATAL("gaze_serve: pipe(): ", std::strerror(errno));
    setNonBlocking(wakePipe[0]);
    setNonBlocking(wakePipe[1]);

    struct sigaction sa{};
    sa.sa_handler = onShutdownSignal;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    // Ignore SIGPIPE: a client that vanished mid-write is a normal
    // disconnect, handled by the write()'s EPIPE, not process death.
    struct sigaction ign{};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, nullptr);

    std::unique_ptr<obs::TraceSink> trace;
    if (!cfg.obsTracePath.empty()) {
        trace = std::make_unique<obs::TraceSink>();
        obs::setGlobalTrace(trace.get());
    }

    Service service(cfg.service);
    int wakeWr = wakePipe[1];
    service.setWakeup([wakeWr] {
        char b = 'w';
        ssize_t r = write(wakeWr, &b, 1);
        (void)r;
    });

    std::fprintf(stderr,
                 "gaze_serve: listening on %s (cache %s, %u "
                 "worker(s))\n",
                 cfg.socketPath.c_str(),
                 cfg.service.cacheDir.c_str(), service.threads());
    std::fflush(stderr);

    std::map<int, Conn> conns;
    bool draining = false;

    auto beginDrain = [&] {
        if (draining)
            return;
        draining = true;
        service.beginDrain();
        if (cfg.service.verbose)
            std::fprintf(stderr, "gaze_serve: draining...\n");
    };

    auto closeConn = [&](int fd) {
        auto it = conns.find(fd);
        if (it == conns.end())
            return;
        {
            std::unique_lock<std::mutex> lock(it->second.out->mtx);
            it->second.out->open = false;
        }
        service.closeSession(it->second.client);
        close(fd);
        conns.erase(it);
    };

    // Read what the socket holds and hand every complete line to the
    // service. Lines are consumed by offset and the buffer compacted
    // once per read, so pipelined input costs linear time. A line
    // longer than kMaxRequestLine, complete or still arriving, is
    // refused: the connection stops being read and closes once the
    // rejected event is flushed. Returns true on EOF.
    auto readRequests = [&](Conn &conn) {
        char buf[4096];
        for (;;) {
            ssize_t n = read(conn.fd, buf, sizeof(buf));
            if (n <= 0)
                return n == 0;
            size_t scan = conn.in.size();
            conn.in.append(buf, size_t(n));
            size_t off = 0;
            size_t nl;
            bool overlong = false;
            while ((nl = conn.in.find('\n', scan)) != std::string::npos) {
                size_t len = nl - off;
                if (len > kMaxRequestLine) {
                    overlong = true;
                    break;
                }
                if (len > 0 && conn.in[nl - 1] == '\r')
                    --len;
                if (len > 0)
                    service.handleLine(conn.client,
                                       conn.in.substr(off, len));
                off = scan = nl + 1;
            }
            conn.in.erase(0, off);
            if (overlong || conn.in.size() > kMaxRequestLine) {
                service.reject(conn.client,
                               "request line exceeds "
                                   + std::to_string(kMaxRequestLine)
                                   + " bytes; closing the connection");
                conn.closing = true;
                std::string().swap(conn.in);
                return false;
            }
        }
    };

    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({gSignalPipe[0], POLLIN, 0});
        fds.push_back({wakePipe[0], POLLIN, 0});
        if (!draining)
            fds.push_back({listenFd, POLLIN, 0});
        for (auto &kv : conns) {
            short events = kv.second.closing ? 0 : POLLIN;
            {
                std::unique_lock<std::mutex> lock(kv.second.out->mtx);
                if (!kv.second.out->data.empty())
                    events |= POLLOUT;
            }
            fds.push_back({kv.first, events, 0});
        }

        int rc = poll(fds.data(), fds.size(), -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            GAZE_FATAL("gaze_serve: poll(): ", std::strerror(errno));
        }

        size_t idx = 0;
        if (fds[idx].revents & POLLIN) {
            drainPipe(gSignalPipe[0]);
            beginDrain();
        }
        ++idx;
        if (fds[idx].revents & POLLIN)
            drainPipe(wakePipe[0]);
        ++idx;
        if (!draining) {
            if (fds[idx].revents & POLLIN) {
                for (;;) {
                    int fd = accept(listenFd, nullptr, nullptr);
                    if (fd < 0)
                        break;
                    setNonBlocking(fd);
                    Conn conn;
                    conn.fd = fd;
                    conn.out = std::make_shared<Outbuf>();
                    std::shared_ptr<Outbuf> out = conn.out;
                    conn.client = service.openSession(
                        [out, wakeWr](const std::string &line) {
                            std::unique_lock<std::mutex> lock(
                                out->mtx);
                            if (!out->open)
                                return;
                            out->data += line;
                            out->data += '\n';
                            char b = 'w';
                            ssize_t r = write(wakeWr, &b, 1);
                            (void)r;
                        });
                    conns.emplace(fd, std::move(conn));
                }
            }
            ++idx;
        }

        // Connection I/O. Collect fds first: closeConn mutates conns.
        std::vector<int> toClose;
        for (; idx < fds.size(); ++idx) {
            auto it = conns.find(fds[idx].fd);
            if (it == conns.end())
                continue;
            Conn &conn = it->second;
            if (fds[idx].revents & (POLLERR | POLLHUP | POLLNVAL)) {
                toClose.push_back(conn.fd);
                continue;
            }
            if (fds[idx].revents & POLLIN) {
                bool eof = readRequests(conn);
                if (service.shutdownRequested())
                    beginDrain();
                if (eof) {
                    // Flush whatever is pending, then close: a client
                    // that half-closes after submitting still gets
                    // buffered events dropped — it said goodbye.
                    toClose.push_back(conn.fd);
                    continue;
                }
            }
            if (fds[idx].revents & POLLOUT) {
                std::string pending;
                {
                    std::unique_lock<std::mutex> lock(conn.out->mtx);
                    pending.swap(conn.out->data);
                }
                size_t off = 0;
                while (off < pending.size()) {
                    ssize_t n = write(conn.fd, pending.data() + off,
                                      pending.size() - off);
                    if (n <= 0)
                        break;
                    off += size_t(n);
                }
                if (off < pending.size()) {
                    std::unique_lock<std::mutex> lock(conn.out->mtx);
                    // Events appended while we wrote come after the
                    // unwritten tail, preserving order.
                    conn.out->data.insert(0, pending.substr(off));
                }
            }
            if (conn.closing) {
                std::unique_lock<std::mutex> lock(conn.out->mtx);
                if (conn.out->data.empty())
                    toClose.push_back(conn.fd);
            }
        }
        for (int fd : toClose)
            closeConn(fd);

        if (draining && service.idle()) {
            bool flushed = true;
            for (auto &kv : conns) {
                std::unique_lock<std::mutex> lock(kv.second.out->mtx);
                if (!kv.second.out->data.empty())
                    flushed = false;
            }
            if (flushed)
                break;
        }
    }

    // Drained: every in-flight cell is finished and published, every
    // pending event flushed. Tear down and exit cleanly.
    std::vector<int> open;
    open.reserve(conns.size());
    for (auto &kv : conns)
        open.push_back(kv.first);
    for (int fd : open)
        closeConn(fd);
    close(listenFd);
    unlink(cfg.socketPath.c_str());
    close(gSignalPipe[0]);
    close(gSignalPipe[1]);
    close(wakePipe[0]);
    close(wakePipe[1]);

    ServiceCounters c = service.counters();
    std::fprintf(stderr,
                 "gaze_serve: drained; %llu submission(s), %llu "
                 "cell(s) executed, %llu cache hit(s), %llu dedup "
                 "hit(s)\n",
                 static_cast<unsigned long long>(c.submits),
                 static_cast<unsigned long long>(c.cellsExecuted),
                 static_cast<unsigned long long>(c.cacheHits),
                 static_cast<unsigned long long>(c.dedupHits));

    if (trace) {
        obs::setGlobalTrace(nullptr);
        trace->writeTo(cfg.obsTracePath);
    }
    return 0;
}

} // namespace serve
} // namespace gaze

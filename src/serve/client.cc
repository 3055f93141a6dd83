#include "serve/client.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "campaign/json.hh"
#include "common/log.hh"
#include "harness/export.hh"
#include "serve/protocol.hh"

namespace gaze
{
namespace serve
{
namespace
{

/** Blocking line-framed connection to the daemon socket. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            GAZE_FATAL("gaze_serve: socket path too long: ", path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            GAZE_FATAL("gaze_serve: socket(): ",
                       std::strerror(errno));
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr))
            != 0)
            GAZE_FATAL("gaze_serve: cannot connect to ", path, ": ",
                       std::strerror(errno),
                       " (is the daemon running? start one with: "
                       "gaze_serve daemon --socket=",
                       path, ")");
    }

    ~Connection()
    {
        if (fd >= 0)
            close(fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /**
     * Send one framed line. A daemon that hangs up mid-line is not
     * fatal here: it refuses an over-long line that way, and its
     * rejected event is still waiting to be read.
     */
    void
    sendLine(const std::string &line)
    {
        std::string framed = line + "\n";
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n = send(fd, framed.data() + off,
                             framed.size() - off, MSG_NOSIGNAL);
            if (n < 0 && (errno == EPIPE || errno == ECONNRESET))
                return;
            if (n <= 0)
                GAZE_FATAL("gaze_serve: write(): ",
                           std::strerror(errno));
            off += size_t(n);
        }
    }

    /** False on EOF or a reset connection; fatal on other errors. */
    bool
    readLine(std::string *line)
    {
        size_t nl;
        while ((nl = buf.find('\n')) == std::string::npos) {
            char chunk[4096];
            ssize_t n = read(fd, chunk, sizeof(chunk));
            if (n < 0 && errno == ECONNRESET)
                return false;
            if (n < 0)
                GAZE_FATAL("gaze_serve: read(): ",
                           std::strerror(errno));
            if (n == 0)
                return false;
            buf.append(chunk, size_t(n));
        }
        *line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
    }

  private:
    int fd = -1;
    std::string buf;
};

JsonValue
parseEvent(const std::string &line)
{
    JsonValue doc;
    std::string err;
    if (!parseJson(line, &doc, &err) || !doc.isObject())
        GAZE_FATAL("gaze_serve: malformed event from daemon: ", err);
    return doc;
}

std::string
eventName(const JsonValue &doc)
{
    const JsonValue *e = doc.find("event");
    return e && e->isString() ? e->asString() : "";
}

std::string
stringField(const JsonValue &doc, const char *key)
{
    const JsonValue *v = doc.find(key);
    return v && v->isString() ? v->asString() : "";
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        GAZE_FATAL("cannot write ", path);
    out << text;
}

} // namespace

int
submitToDaemon(const std::string &socketPath,
               const std::string &specPath, int64_t priority,
               const std::string &outPath, const std::string &csvPath,
               bool quiet)
{
    // Parse the spec locally first: a file-level typo dies here with
    // the normal fatal diagnostics instead of a daemon rejection.
    JsonValue spec = parseJsonFile(specPath);

    Connection conn(socketPath);
    conn.sendLine(encodeSubmit(spec, priority));

    std::string line;
    while (conn.readLine(&line)) {
        JsonValue doc = parseEvent(line);
        std::string event = eventName(doc);
        if (event == "rejected") {
            std::fprintf(stderr, "gaze_serve: rejected: %s\n",
                         stringField(doc, "reason").c_str());
            return 3;
        }
        if (event == "accepted") {
            if (!quiet) {
                auto count = [&](const char *key) {
                    const JsonValue *v = doc.find(key);
                    return v && v->isNumber()
                               ? static_cast<unsigned long long>(
                                     v->asNumber())
                               : 0ULL;
                };
                std::fprintf(stderr,
                             "accepted: cells=%llu cached=%llu "
                             "shared=%llu enqueued=%llu\n",
                             count("cells"), count("cached"),
                             count("shared"), count("enqueued"));
            }
            continue;
        }
        if (event == "progress") {
            if (!quiet) {
                const JsonValue *done = doc.find("done");
                const JsonValue *total = doc.find("total");
                std::fprintf(
                    stderr, "[%llu/%llu] %s\n",
                    done && done->isNumber()
                        ? static_cast<unsigned long long>(
                              done->asNumber())
                        : 0ULL,
                    total && total->isNumber()
                        ? static_cast<unsigned long long>(
                              total->asNumber())
                        : 0ULL,
                    stringField(doc, "cell").c_str());
            }
            continue;
        }
        if (event == "error") {
            std::fprintf(stderr, "gaze_serve: %s\n",
                         stringField(doc, "message").c_str());
            return 4;
        }
        if (event == "report") {
            std::string name = stringField(doc, "name");
            std::string report = stringField(doc, "report");
            std::string path =
                outPath.empty() ? "BENCH_" + name + ".json" : outPath;
            writeText(path, report + "\n");
            if (!csvPath.empty())
                writeText(csvPath, stringField(doc, "csv"));
            if (!quiet)
                std::fprintf(stderr, "report: %s\n", path.c_str());
            return 0;
        }
        // Unknown events from a newer daemon are skipped, not fatal.
    }
    std::fprintf(stderr,
                 "gaze_serve: connection closed before the report\n");
    return 5;
}

int
queryStatus(const std::string &socketPath)
{
    Connection conn(socketPath);
    conn.sendLine(encodeStatus());
    std::string line;
    while (conn.readLine(&line)) {
        JsonValue doc = parseEvent(line);
        if (eventName(doc) == "status") {
            std::printf("%s\n", line.c_str());
            return 0;
        }
    }
    std::fprintf(stderr,
                 "gaze_serve: connection closed before status\n");
    return 5;
}

int
requestShutdown(const std::string &socketPath)
{
    Connection conn(socketPath);
    conn.sendLine(encodeShutdown());
    std::string line;
    while (conn.readLine(&line)) {
        JsonValue doc = parseEvent(line);
        if (eventName(doc) == "bye")
            return 0;
    }
    // EOF without a bye still means the daemon is going down.
    return 0;
}

} // namespace serve
} // namespace gaze

/**
 * @file
 * gaze_serve: the campaign service binary. "daemon" runs the
 * long-lived Unix-socket service (src/serve/server); submit/status/
 * shutdown are the thin scripting clients (src/serve/client). Flag
 * parsing lives in driver/cli with the other binaries so the error
 * paths are unit-testable.
 */

#include <cstdio>
#include <vector>

#include "driver/cli.hh"
#include "serve/client.hh"
#include "serve/server.hh"

int
main(int argc, char **argv)
{
    using namespace gaze;
    GazeServeOptions opt = parseGazeServeArgs(
        std::vector<std::string>(argv + 1, argv + argc));

    switch (opt.command) {
      case GazeServeOptions::Command::Daemon: {
        serve::ServerConfig cfg;
        cfg.socketPath = opt.socketPath;
        cfg.obsTracePath = opt.obsTracePath;
        cfg.service.cacheDir =
            opt.cacheDir.empty() ? "campaign_cache" : opt.cacheDir;
        cfg.service.threads = opt.threads;
        cfg.service.maxQueuedCells = opt.maxQueued;
        cfg.service.maxClientInFlight = opt.maxInFlight;
        cfg.service.verbose = opt.verbose;
        return serve::runServer(cfg);
      }
      case GazeServeOptions::Command::Submit:
        return serve::submitToDaemon(opt.socketPath, opt.specPath,
                                     opt.priority, opt.outPath,
                                     opt.csvPath, opt.quiet);
      case GazeServeOptions::Command::Status:
        return serve::queryStatus(opt.socketPath);
      case GazeServeOptions::Command::Shutdown:
        return serve::requestShutdown(opt.socketPath);
      case GazeServeOptions::Command::Help:
        std::fputs(gazeServeUsage(), stdout);
        return 0;
    }
    return 0;
}

#include "harness/cell_key.hh"

#include <cstdio>
#include <sstream>

#include "tracing/trace_format.hh"

namespace gaze
{
namespace
{

/** Shortest round-trip-exact rendering of a double. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
canonicalCellText(const RunConfig &cfg, const PfSpec &pf,
                  const std::vector<WorkloadDef> &mix)
{
    const SystemConfig &s = cfg.system;
    std::ostringstream os;
    os << "schema=" << kCellSchemaVersion;

    // The runner overrides numCores with the mix size, so the mix is
    // the authoritative core count — SystemConfig::numCores is
    // deliberately absent.
    os << ";core=" << s.core.fetchWidth << '/' << s.core.retireWidth
       << '/' << s.core.robSize << '/' << s.core.lqSize << '/'
       << s.core.sqSize << '/' << s.core.loadPorts;
    os << ";l1d=" << s.l1dBytes << '/' << s.l1dWays << '/'
       << s.l1dLatency << '/' << s.l1dMshrs;
    os << ";l2=" << s.l2Bytes << '/' << s.l2Ways << '/' << s.l2Latency
       << '/' << s.l2Mshrs;
    os << ";llc=" << s.llcBytesPerCore << '/' << s.llcWays << '/'
       << s.llcLatency << '/' << s.llcMshrsPerCore;
    // LRU only: the literal keeps schema-6 hashes, so no cell re-runs.
    os << ";repl=lru";
    os << ";dram=" << (s.dramAuto ? "auto" : "explicit") << '/'
       << s.dram.channels << '/' << s.dram.ranksPerChannel << '/'
       << s.dram.banksPerRank << '/' << s.dram.rowBufferBytes << '/'
       << fmtDouble(s.dram.mtps) << '/' << fmtDouble(s.dram.cpuGhz)
       << '/' << s.dram.busWidthBits << '/' << fmtDouble(s.dram.tRpNs)
       << '/' << fmtDouble(s.dram.tRcdNs) << '/'
       << fmtDouble(s.dram.tCasNs) << '/' << s.dram.rqSize << '/'
       << s.dram.wqSize << '/' << s.dram.wqDrainHigh << '/'
       << s.dram.wqDrainLow;
    os << ";max_cpi=" << s.maxCyclesPerInstr;

    // Effective (scale-resolved) phases: two processes with different
    // GAZE_SIM_SCALE but identical resolved lengths share cells.
    os << ";warmup=" << cfg.effectiveWarmup();
    os << ";sim=" << cfg.effectiveSim();

    os << ";pf=" << pf.l1 << '+' << pf.l2;

    os << ";mix=";
    for (size_t i = 0; i < mix.size(); ++i) {
        if (i)
            os << ',';
        os << workloadIdentity(mix[i]);
    }
    return os.str();
}

uint64_t
cellHash(const std::string &canonical_text)
{
    Fnv1a h;
    h.update(reinterpret_cast<const uint8_t *>(canonical_text.data()),
             canonical_text.size());
    return h.digest();
}

std::string
cellHashHex(uint64_t hash)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace gaze

#include "harness/runner.hh"

#include <memory>

#include "harness/wallclock.hh"

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "prefetchers/factory.hh"
#include "prefetchers/registry.hh"

namespace gaze
{

PfSpec
pfSpecAt(const std::string &spec, const std::string &level)
{
    // Canonicalize (and thereby validate) here, at the single choke
    // point every campaign cell passes through: the PfSpec —
    // and with it the canonical cell text, the baseline cache key and
    // the campaign cache address — only ever sees the one canonical
    // spelling, so "gaze:n=1:region=2048" and "gaze:region=2048:n=1"
    // are the same cell.
    GAZE_ASSERT(level == "l1" || level == "l2", "unvalidated attach level '",
                level, "'");
    PfSpec pf;
    if (level == "l1")
        pf.l1 = canonicalPrefetcherSpec(spec);
    else
        pf.l2 = canonicalPrefetcherSpec(spec);
    return pf;
}

uint64_t
RunConfig::effectiveWarmup() const
{
    return warmupInstr ? warmupInstr : scaledRecords(200'000);
}

uint64_t
RunConfig::effectiveSim() const
{
    return simInstr ? simInstr : scaledRecords(400'000);
}

RunResult
Runner::execute(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    SystemConfig sys_cfg = cfg.system;
    sys_cfg.numCores = static_cast<uint32_t>(mix.size());
    System sys(sys_cfg);

    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.reserve(mix.size());
    for (const auto &w : mix)
        traces.push_back(w.open());
    for (uint32_t c = 0; c < sys.numCores(); ++c)
        sys.setTrace(c, traces[c].get());

    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        sys.setL1Prefetcher(c, makePrefetcher(pf.l1));
        sys.setL2Prefetcher(c, makePrefetcher(pf.l2));
    }

    // Observability attachments. The registry binds pointers at live
    // counter fields (zero hot-path indirection); the sampler only
    // joins after warmup + resetStats so its rows cover measured time.
    obs::Registry registry;
    std::unique_ptr<obs::IntervalSampler> sampler;
    std::string obsLabel;
    if (cfg.obs.enabled()) {
        std::string wl;
        for (const auto &w : mix)
            wl += (wl.empty() ? "" : "+") + w.name;
        obsLabel = pf.label() + "/" + wl;
        if (cfg.obs.samplerInterval) {
            sys.bindObsCounters(&registry);
            registry.seal();
            sampler = std::make_unique<obs::IntervalSampler>(
                &registry, cfg.obs.samplerInterval);
        }
        if (cfg.obs.trace)
            sys.setObsTrace(cfg.obs.trace, obsLabel);
    }

    WallTimer timer;
    sys.run(cfg.effectiveWarmup());
    sys.resetStats();
    if (sampler) {
        sampler->startAt(sys.cycle());
        sys.setObsSampler(sampler.get());
    }
    auto cores = sys.simulate(cfg.effectiveSim());
    if (sampler) {
        sampler->finish(sys.cycle());
        sys.setObsSampler(nullptr);
    }
    RunResult result = collectResult(sys, std::move(cores));
    result.wallSeconds = timer.seconds();
    if (sampler)
        result.obsSamples = sampler->takeSeries();
    return result;
}

RunResult
Runner::run(const WorkloadDef &w, const PfSpec &pf)
{
    return execute({w}, pf);
}

RunResult
Runner::runMix(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    return execute(mix, pf);
}

RunResult
Runner::baseline(const WorkloadDef &w)
{
    return baselineMix({w});
}

RunResult
Runner::baselineMix(const std::vector<WorkloadDef> &mix)
{
    // The canonical cell text keys the baseline, so differently
    // recorded traces of the same workload name never collide.
    std::string key = canonicalCellText(cfg, PfSpec{}, mix);
    auto it = baselines.find(key);
    if (it == baselines.end())
        it = baselines.emplace(key, execute(mix, PfSpec{})).first;
    return it->second;
}

PrefetchMetrics
Runner::evaluate(const WorkloadDef &w, const PfSpec &pf)
{
    const RunResult &base = baseline(w);
    RunResult r = run(w, pf);
    return computeMetrics(base, r);
}

PrefetchMetrics
Runner::evaluateMix(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    const RunResult &base = baselineMix(mix);
    RunResult r = runMix(mix, pf);
    return computeMetrics(base, r);
}

} // namespace gaze

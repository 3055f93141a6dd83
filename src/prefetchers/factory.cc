#include "prefetchers/factory.hh"

#include "common/log.hh"
#include "prefetchers/registry.hh"

namespace gaze
{

std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &spec_text)
{
    CanonicalSpec canon;
    std::string error;
    if (!resolvePrefetcherSpec(spec_text, &canon, &error))
        GAZE_FATAL(error);
    return canon.build();
}

std::vector<std::string>
knownPrefetcherSpecs()
{
    std::vector<std::string> names;
    for (const auto *d : PrefetcherRegistry::instance().all())
        names.push_back(d->name);
    return names;
}

} // namespace gaze

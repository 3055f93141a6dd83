#include "prefetchers/sms.hh"

#include "prefetchers/registry.hh"

namespace gaze
{

const char *
smsEventSchemeName(SmsEventScheme scheme)
{
    switch (scheme) {
      case SmsEventScheme::Offset: return "offset";
      case SmsEventScheme::Pc: return "pc";
      case SmsEventScheme::PcOffset: return "pc+offset";
      case SmsEventScheme::PcAddr: return "pc+addr";
    }
    return "?";
}

SmsPrefetcher::SmsPrefetcher(const SmsParams &params)
    : SpatialPatternPrefetcher(params.base), cfg(params),
      pht(params.phtSets, params.phtWays)
{
}

std::string
SmsPrefetcher::name() const
{
    if (cfg.scheme == SmsEventScheme::PcOffset)
        return "sms";
    return std::string("sms_") + smsEventSchemeName(cfg.scheme);
}

uint64_t
SmsPrefetcher::eventKey(const RegionInfo &info) const
{
    switch (cfg.scheme) {
      case SmsEventScheme::Offset:
        return info.trigger;
      case SmsEventScheme::Pc:
        return mix64(info.triggerPc);
      case SmsEventScheme::PcOffset:
        return mix64(info.triggerPc) ^ (uint64_t(info.trigger) << 48);
      case SmsEventScheme::PcAddr:
        return mix64(info.triggerPc * 0x9e3779b97f4a7c15ULL
                     + info.triggerAddr);
    }
    return 0;
}

void
SmsPrefetcher::predictOnTrigger(const RegionInfo &info)
{
    uint64_t key = eventKey(info);
    const Bitset *fp = pht.find(key & (pht.sets() - 1), key);
    if (!fp)
        return;
    PfPattern pat(regionBlocks(), PfLevel::None);
    for (size_t b = fp->findFirst(); b < fp->size();
         b = fp->findNext(b + 1))
        pat[b] = PfLevel::L1;
    installPattern(info, std::move(pat));
}

void
SmsPrefetcher::learnOnEnd(const RegionInfo &info)
{
    uint64_t key = eventKey(info);
    pht.insert(key & (pht.sets() - 1), key, info.footprint);
}

uint64_t
SmsPrefetcher::storageBits() const
{
    // PHT entry: tag (16b effective) + LRU (4b) + bit vector.
    uint64_t pht_bits = uint64_t(cfg.phtSets) * cfg.phtWays
                        * (16 + 4 + regionBlocks());
    // FT/AT/PB roughly as in Gaze's Table I accounting, scaled to the
    // region size.
    uint64_t ft_bits = 64ULL * (36 + 3 + 12 + 6);
    uint64_t at_bits = 64ULL * (36 + 3 + 12 + regionBlocks());
    uint64_t pb_bits = uint64_t(baseParams().pbEntries)
                       * (36 + 3 + 2 * regionBlocks());
    return pht_bits + ft_bits + at_bits + pb_bits;
}

PrefetcherDescriptor
smsDescriptor()
{
    PrefetcherDescriptor d;
    d.name = "sms";
    d.doc = "Spatial Memory Streaming (ISCA'06) with the trigger "
            "event generalized over the Fig. 1 characterization "
            "schemes";
    d.options = {
        OptionSchema::enumOf(
            "scheme", "pc+offset",
            {"offset", "pc", "pc+offset", "pc+addr"},
            "PHT trigger event (Fig. 1 x-axis points; pc+offset is "
            "SMS proper)"),
    };
    d.build = [](const SpecOptions &o) -> std::unique_ptr<Prefetcher> {
        SmsParams cfg;
        std::string scheme = o.str("scheme");
        // Per-scheme PHT geometry from the paper's Fig. 1 points; the
        // PC+Offset and PC+Address points keep Table IV's 16k entries.
        if (scheme == "offset") {
            cfg.scheme = SmsEventScheme::Offset;
            cfg.phtSets = 64;
            cfg.phtWays = 1;
        } else if (scheme == "pc") {
            cfg.scheme = SmsEventScheme::Pc;
            cfg.phtSets = 64;
            cfg.phtWays = 4;
        } else if (scheme == "pc+addr") {
            cfg.scheme = SmsEventScheme::PcAddr;
        }
        return std::make_unique<SmsPrefetcher>(cfg);
    };
    return d;
}

} // namespace gaze

#include "prefetchers/registry.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

#include "common/decimal.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "harness/export.hh"
#include "prefetchers/factory.hh"

namespace gaze
{

// The scheme table. Each scheme defines its descriptor function next
// to its implementation; naming every function here is also what keeps
// each scheme's object file in the static-library link.
PrefetcherDescriptor gazeDescriptor();
PrefetcherDescriptor smsDescriptor();
PrefetcherDescriptor bingoDescriptor();
PrefetcherDescriptor dspatchDescriptor();
PrefetcherDescriptor pmpDescriptor();
PrefetcherDescriptor ipcpDescriptor();
PrefetcherDescriptor sppPpfDescriptor();
PrefetcherDescriptor vbertiDescriptor();
PrefetcherDescriptor ipStrideDescriptor();

namespace
{

PrefetcherDescriptor (*const kSchemes[])() = {
    gazeDescriptor,
    smsDescriptor,
    bingoDescriptor,
    dspatchDescriptor,
    pmpDescriptor,
    ipcpDescriptor,
    sppPpfDescriptor,
    vbertiDescriptor,
    ipStrideDescriptor,
};

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

std::vector<std::string>
declaredOptionNames(const PrefetcherDescriptor &desc)
{
    std::vector<std::string> names;
    for (const auto &o : desc.options)
        names.push_back(o.name);
    return names;
}

std::vector<std::string>
registeredNames()
{
    std::vector<std::string> names;
    for (const auto *d : PrefetcherRegistry::instance().all())
        names.push_back(d->name);
    return names;
}

/** One "key[=value]" token of a spec, in spelling order. */
struct SpecToken
{
    std::string key;
    std::string value;
    bool hasValue = false;
};

/** Split "name[:key[=value]]*" without any validation. */
void
splitSpec(const std::string &text, std::string *name,
          std::vector<SpecToken> *tokens)
{
    size_t pos = text.find(':');
    *name = text.substr(0, pos);
    while (pos != std::string::npos) {
        size_t next = text.find(':', pos + 1);
        std::string tok = text.substr(pos + 1,
                                      next == std::string::npos
                                          ? std::string::npos
                                          : next - pos - 1);
        SpecToken t;
        size_t eq = tok.find('=');
        if (eq == std::string::npos) {
            t.key = tok;
        } else {
            t.key = tok.substr(0, eq);
            t.value = tok.substr(eq + 1);
            t.hasValue = true;
        }
        tokens->push_back(std::move(t));
        pos = next;
    }
}

/**
 * Strict decimal parse for option values: digits only, no sign, no
 * exponent, within [schema.min, schema.max], power of two when the
 * schema demands it (0 is exempt: it is only reachable when the
 * schema's range admits it as an "auto" sentinel).
 */
bool
parseUintOption(const PrefetcherDescriptor &desc, const OptionSchema &os,
                const std::string &value, const std::string &spec_text,
                uint64_t *out, std::string *error)
{
    uint64_t n = 0;
    if (!parseDecimal(value, &n))
        return failWith(error, "prefetcher '", desc.name, "': option '",
                        os.name, "' wants an unsigned integer, got '",
                        value, "' in spec '", spec_text, "'");
    if (n < os.min || n > os.max)
        return failWith(error, "prefetcher '", desc.name, "': option '",
                        os.name, "' out of range in spec '", spec_text,
                        "': ", n, " (want ", os.min, "..", os.max, ")");
    if (os.pow2 && n != 0 && !isPowerOfTwo(n))
        return failWith(error, "prefetcher '", desc.name, "': option '",
                        os.name, "' must be a power of two in spec '",
                        spec_text, "', got ", n);
    *out = n;
    return true;
}

} // namespace

// ------------------------------------------------------- OptionSchema

const char *
optionTypeName(OptionType type)
{
    switch (type) {
      case OptionType::Flag:
        return "flag";
      case OptionType::Uint:
        return "uint";
      case OptionType::Enum:
        return "enum";
    }
    return "?";
}

OptionSchema
OptionSchema::flag(std::string name, std::string doc)
{
    OptionSchema os;
    os.name = std::move(name);
    os.type = OptionType::Flag;
    os.doc = std::move(doc);
    return os;
}

OptionSchema
OptionSchema::uintRange(std::string name, uint64_t dflt, uint64_t min,
                        uint64_t max, std::string doc, bool pow2)
{
    OptionSchema os;
    os.name = std::move(name);
    os.type = OptionType::Uint;
    os.doc = std::move(doc);
    os.min = min;
    os.max = max;
    os.pow2 = pow2;
    os.uintDefault = dflt;
    return os;
}

OptionSchema
OptionSchema::enumOf(std::string name, std::string dflt,
                     std::vector<std::string> values, std::string doc)
{
    OptionSchema os;
    os.name = std::move(name);
    os.type = OptionType::Enum;
    os.doc = std::move(doc);
    os.enumValues = std::move(values);
    os.enumDefault = std::move(dflt);
    return os;
}

std::string
OptionSchema::defaultText() const
{
    switch (type) {
      case OptionType::Flag:
        return "";
      case OptionType::Uint:
        return std::to_string(uintDefault);
      case OptionType::Enum:
        return enumDefault;
    }
    return "";
}

// -------------------------------------------------------- SpecOptions

SpecOptions::SpecOptions(const PrefetcherDescriptor &desc_,
                         // gaze-lint: allow(hot-container): build time
                         const std::map<std::string, std::string> &values_)
    : desc(&desc_), values(&values_)
{
}

const OptionSchema &
SpecOptions::schema(const std::string &name, OptionType type) const
{
    const OptionSchema *os = desc->findOption(name);
    GAZE_ASSERT(os, "prefetcher '", desc->name,
                "' build fn asked for undeclared option '", name, "'");
    GAZE_ASSERT(os->type == type, "prefetcher '", desc->name,
                "' build fn asked for option '", name, "' as ",
                optionTypeName(type), " but it is declared ",
                optionTypeName(os->type));
    return *os;
}

bool
SpecOptions::flag(const std::string &name) const
{
    schema(name, OptionType::Flag);
    return values->count(name) > 0;
}

uint64_t
SpecOptions::num(const std::string &name) const
{
    const OptionSchema &os = schema(name, OptionType::Uint);
    auto it = values->find(name);
    if (it == values->end())
        return os.uintDefault;
    // Values were range/shape-checked when the spec was resolved.
    return std::strtoull(it->second.c_str(), nullptr, 10);
}

std::string
SpecOptions::str(const std::string &name) const
{
    const OptionSchema &os = schema(name, OptionType::Enum);
    auto it = values->find(name);
    return it == values->end() ? os.enumDefault : it->second;
}

// --------------------------------------------------------- descriptor

const OptionSchema *
PrefetcherDescriptor::findOption(const std::string &option_name) const
{
    for (const auto &o : options)
        if (o.name == option_name)
            return &o;
    return nullptr;
}

// ----------------------------------------------------------- registry

PrefetcherRegistry::PrefetcherRegistry()
{
    for (auto descriptorFn : kSchemes) {
        auto desc = std::make_unique<PrefetcherDescriptor>(descriptorFn());
        GAZE_ASSERT(!desc->name.empty(),
                    "prefetcher descriptor without a name");
        GAZE_ASSERT(desc->build != nullptr, "prefetcher '", desc->name,
                    "' registered without a build function");
        for (const auto &os : desc->options) {
            GAZE_ASSERT(!os.name.empty(), "prefetcher '", desc->name,
                        "' declares an unnamed option");
            GAZE_ASSERT(desc->findOption(os.name) == &os,
                        "prefetcher '", desc->name,
                        "' declares option '", os.name, "' twice");
            if (os.type == OptionType::Uint)
                GAZE_ASSERT(os.uintDefault >= os.min
                                && os.uintDefault <= os.max,
                            "prefetcher '", desc->name, "' option '",
                            os.name, "' default outside its range");
            if (os.type == OptionType::Enum) {
                GAZE_ASSERT(!os.enumValues.empty(), "prefetcher '",
                            desc->name, "' option '", os.name,
                            "' declares no enum values");
                GAZE_ASSERT(std::find(os.enumValues.begin(),
                                      os.enumValues.end(),
                                      os.enumDefault)
                                != os.enumValues.end(),
                            "prefetcher '", desc->name, "' option '",
                            os.name,
                            "' default outside its enum values");
            }
        }
        std::vector<std::string> keys = desc->aliases;
        keys.push_back(desc->name);
        for (const auto &key : keys) {
            bool fresh = byName.emplace(key, desc.get()).second;
            GAZE_ASSERT(fresh,
                        "prefetcher name/alias '", key,
                        "' registered twice");
        }
        descriptors.push_back(std::move(desc));
    }
}

const PrefetcherRegistry &
PrefetcherRegistry::instance()
{
    static PrefetcherRegistry registry;
    return registry;
}

const PrefetcherDescriptor *
PrefetcherRegistry::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : it->second;
}

std::vector<const PrefetcherDescriptor *>
PrefetcherRegistry::all() const
{
    std::vector<const PrefetcherDescriptor *> out;
    for (const auto &d : descriptors)
        out.push_back(d.get());
    std::sort(out.begin(), out.end(),
              [](const PrefetcherDescriptor *a,
                 const PrefetcherDescriptor *b) {
                  return a->name < b->name;
              });
    return out;
}

// --------------------------------------------------- canonicalization

std::unique_ptr<Prefetcher>
CanonicalSpec::build() const
{
    if (!desc)
        return nullptr;
    return desc->build(SpecOptions(*desc, options));
}

bool
resolvePrefetcherSpec(const std::string &spec_text, CanonicalSpec *out,
                      std::string *error)
{
    CanonicalSpec canon;
    canon.text = "none";
    if (spec_text.empty() || spec_text == "none") {
        *out = std::move(canon);
        return true;
    }

    std::string name;
    std::vector<SpecToken> tokens;
    splitSpec(spec_text, &name, &tokens);

    const PrefetcherDescriptor *desc =
        PrefetcherRegistry::instance().find(name);
    if (!desc)
        return failWith(error, "unknown prefetcher '", name,
                        "' in spec '", spec_text, "' (known: ",
                        joinNames(registeredNames()),
                        "; see gaze_campaign describe)");
    canon.desc = desc;

    // Seen-keys are tracked separately from canon.options: a
    // default-valued occurrence is elided from the canonical form but
    // must still arm the duplicate check ("gaze:n=2:n=4" is a
    // contradiction, not a spelling of n=4).
    std::set<std::string> seen;
    for (const auto &tok : tokens) {
        const OptionSchema *os = desc->findOption(tok.key);
        if (!os)
            return failWith(error, "prefetcher '", desc->name,
                            "': unknown option '", tok.key,
                            "' in spec '", spec_text, "' (options: ",
                            joinNames(declaredOptionNames(*desc)), ")");
        if (!seen.insert(os->name).second)
            return failWith(error, "prefetcher '", desc->name,
                            "': option '", os->name,
                            "' given twice in spec '", spec_text, "'");
        switch (os->type) {
          case OptionType::Flag: {
            if (tok.hasValue)
                return failWith(error, "prefetcher '", desc->name,
                                "': option '", os->name,
                                "' is a flag and takes no value in spec '",
                                spec_text, "'");
            canon.options[os->name] = "1";
            break;
          }
          case OptionType::Uint: {
            if (!tok.hasValue)
                return failWith(error, "prefetcher '", desc->name,
                                "': option '", os->name,
                                "' needs =N in spec '", spec_text, "'");
            uint64_t n = 0;
            if (!parseUintOption(*desc, *os, tok.value, spec_text, &n,
                                 error))
                return false;
            if (n != os->uintDefault)
                canon.options[os->name] = std::to_string(n);
            break;
          }
          case OptionType::Enum: {
            if (!tok.hasValue)
                return failWith(error, "prefetcher '", desc->name,
                                "': option '", os->name,
                                "' needs =VALUE in spec '", spec_text,
                                "'");
            if (std::find(os->enumValues.begin(), os->enumValues.end(),
                          tok.value)
                == os->enumValues.end())
                return failWith(error, "prefetcher '", desc->name,
                                "': unknown value '", tok.value,
                                "' for option '", os->name,
                                "' in spec '", spec_text, "' (one of: ",
                                joinNames(os->enumValues), ")");
            if (tok.value != os->enumDefault)
                canon.options[os->name] = tok.value;
            break;
          }
        }
    }

    // canon.options is a name-sorted map with defaults already
    // elided, so serializing it in order IS the canonical spelling.
    std::ostringstream text;
    text << desc->name;
    for (const auto &kv : canon.options) {
        const OptionSchema *os = desc->findOption(kv.first);
        text << ':' << kv.first;
        if (os->type != OptionType::Flag)
            text << '=' << kv.second;
    }
    canon.text = text.str();
    *out = std::move(canon);
    return true;
}

std::string
canonicalPrefetcherSpec(const std::string &spec_text)
{
    CanonicalSpec canon;
    std::string error;
    if (!resolvePrefetcherSpec(spec_text, &canon, &error))
        GAZE_FATAL(error);
    return canon.text;
}

// ------------------------------------------------------ introspection

std::string
renderPrefetcherList(bool json)
{
    auto descs = PrefetcherRegistry::instance().all();

    // Building each scheme proves the whole descriptor is usable: the
    // canonical name resolves, the defaults validate, and the
    // instance reports its modeled storage.
    auto storageKib = [](const PrefetcherDescriptor *d) {
        return double(makePrefetcher(d->name)->storageBits()) / 8.0
               / 1024.0;
    };

    if (json) {
        JsonWriter j;
        j.beginObject();
        j.key("prefetchers").beginArray();
        for (const auto *d : descs) {
            j.beginObject();
            j.key("name").value(d->name);
            j.key("aliases").beginArray();
            for (const auto &a : d->aliases)
                j.value(a);
            j.endArray();
            j.key("doc").value(d->doc);
            j.key("canonical").value(canonicalPrefetcherSpec(d->name));
            j.key("storage_kib").value(storageKib(d));
            j.key("options").beginArray();
            for (const auto &os : d->options) {
                j.beginObject();
                j.key("name").value(os.name);
                j.key("type").value(optionTypeName(os.type));
                j.key("doc").value(os.doc);
                if (os.type == OptionType::Uint) {
                    j.key("default").value(os.uintDefault);
                    j.key("min").value(os.min);
                    j.key("max").value(os.max);
                    j.key("pow2").value(os.pow2);
                } else if (os.type == OptionType::Enum) {
                    j.key("default").value(os.enumDefault);
                    j.key("values").beginArray();
                    for (const auto &v : os.enumValues)
                        j.value(v);
                    j.endArray();
                } else {
                    j.key("default").value(false);
                }
                j.endObject();
            }
            j.endArray();
            j.endObject();
        }
        j.endArray();
        j.endObject();
        return j.str() + "\n";
    }

    std::ostringstream os;
    os << "registered prefetchers (" << descs.size()
       << " schemes; spec grammar \"name[:option[=value]]*\"):\n";
    for (const auto *d : descs) {
        os << "\n  " << d->name;
        for (const auto &a : d->aliases)
            os << " (alias: " << a << ")";
        char kib[32];
        std::snprintf(kib, sizeof(kib), "%.2f", storageKib(d));
        os << "  [" << kib << " KiB]\n      " << d->doc << "\n";
        for (const auto &opt : d->options) {
            os << "      " << opt.name;
            switch (opt.type) {
              case OptionType::Flag:
                os << "  (flag)";
                break;
              case OptionType::Uint:
                os << "=N  (uint " << opt.min << ".." << opt.max
                   << (opt.pow2 ? ", pow2" : "") << "; default "
                   << opt.uintDefault << ")";
                break;
              case OptionType::Enum:
                os << "=V  (one of " << joinNames(opt.enumValues)
                   << "; default " << opt.enumDefault << ")";
                break;
            }
            os << "\n          " << opt.doc << "\n";
        }
    }
    return os.str();
}

} // namespace gaze

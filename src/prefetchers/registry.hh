/**
 * @file
 * The prefetcher registry: one table of scheme descriptors with typed
 * option schemas.
 *
 * Every scheme declares a PrefetcherDescriptor — canonical name,
 * aliases, a one-line doc string, the full option schema (each option
 * typed as flag / uint-with-range / enum-of-strings with a default
 * and its own doc line), and a build function — in a plain
 * `PrefetcherDescriptor xDescriptor()` function next to its
 * implementation, and registry.cc lists those functions in one array.
 * Everything downstream is derived from the descriptors:
 *
 *  - resolution (resolvePrefetcherSpec) parses a
 *    "name[:option[=value]]*" spec and validates it against the schema
 *    (unknown scheme, unknown option, malformed or out-of-range
 *    value, unknown enum value, duplicated option: each a diagnostic
 *    naming the offending spec text); construction (makePrefetcher in
 *    factory.hh) exits with that diagnostic or calls the scheme's
 *    build function;
 *  - canonicalization rewrites any valid spelling into the one
 *    canonical form — alias resolved to the primary name, options
 *    sorted by name, values normalized, schema defaults elided — so
 *    equivalent spellings share baseline-memo and campaign-cache
 *    entries (harness/cell_key hashes canonical text only);
 *  - introspection (gaze_campaign describe [--json]) renders the
 *    scheme/option/type/default/doc table straight from the registry,
 *    so CLI help and README can never drift from the code.
 *
 * Build functions see options only through SpecOptions, which serves
 * the schema default for anything the spec did not say — a canonical
 * spec therefore builds a configuration identical to any of its
 * spellings.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/prefetcher.hh"

namespace gaze
{

/** Value shapes a spec option can declare. */
enum class OptionType
{
    Flag, ///< present/absent, never takes a value ("gaze:nostream")
    Uint, ///< strict decimal within a declared range ("gaze:n=2")
    Enum  ///< one of a declared string set ("sms:scheme=offset")
};

/** "flag" / "uint" / "enum" (the describe type column). */
const char *optionTypeName(OptionType type);

/** Declaration of one option: name, type, constraints, default, doc. */
struct OptionSchema
{
    std::string name;
    OptionType type = OptionType::Flag;
    std::string doc; ///< one-line help, rendered by describe

    /** Uint constraints and default (ignored for other types). */
    uint64_t min = 0;
    uint64_t max = UINT64_MAX;
    bool pow2 = false; ///< nonzero values must be powers of two
    uint64_t uintDefault = 0;

    /** Enum value set and default (ignored for other types). */
    std::vector<std::string> enumValues;
    std::string enumDefault;

    static OptionSchema flag(std::string name, std::string doc);
    static OptionSchema uintRange(std::string name, uint64_t dflt,
                                  uint64_t min, uint64_t max,
                                  std::string doc, bool pow2 = false);
    static OptionSchema enumOf(std::string name, std::string dflt,
                               std::vector<std::string> values,
                               std::string doc);

    /** The default as spec text ("" for flags, which default unset). */
    std::string defaultText() const;
};

struct PrefetcherDescriptor;

/**
 * Validated option values of one spec, as seen by a build function.
 * Lookups are checked against the schema: asking for an option the
 * descriptor never declared, or with the wrong type accessor, is a
 * panic (a bug in the scheme's registration, not user error). Options
 * the spec did not mention resolve to their schema default, so a
 * canonicalized spec (defaults elided) builds identically to the
 * spelling it came from.
 */
class SpecOptions
{
  public:
    SpecOptions(const PrefetcherDescriptor &desc,
                // gaze-lint: allow(hot-container): build time only
                const std::map<std::string, std::string> &values);

    /** Flag option: was it present? */
    bool flag(const std::string &name) const;

    /** Uint option: explicit value, or the schema default. */
    uint64_t num(const std::string &name) const;

    /** Enum option: explicit value, or the schema default. */
    std::string str(const std::string &name) const;

  private:
    const OptionSchema &schema(const std::string &name,
                               OptionType type) const;

    const PrefetcherDescriptor *desc;
    // gaze-lint: allow(hot-container): read at scheme build time only
    const std::map<std::string, std::string> *values;
};

/** Everything the registry knows about one scheme. */
struct PrefetcherDescriptor
{
    /** Canonical scheme name ("gaze", "vberti", ...). */
    std::string name;

    /** Accepted alternative spellings, canonicalized to @c name. */
    std::vector<std::string> aliases;

    /** One-line description for the introspection table. */
    std::string doc;

    /** Declared options, in display order. */
    std::vector<OptionSchema> options;

    /** Construct an instance from validated options. */
    std::function<std::unique_ptr<Prefetcher>(const SpecOptions &)> build;

    /** Schema for @p option_name, or nullptr when undeclared. */
    const OptionSchema *findOption(const std::string &option_name) const;
};

/**
 * The process-wide scheme table, built on first use from the
 * descriptor functions registry.cc lists. Descriptor problems —
 * duplicate names or aliases, enum defaults outside the value set,
 * uint defaults outside the declared range — are panics: they are
 * bugs in a scheme's descriptor function, not user configuration
 * errors.
 */
class PrefetcherRegistry
{
  public:
    static const PrefetcherRegistry &instance();

    /** Descriptor for a name or alias; nullptr when unknown. */
    const PrefetcherDescriptor *find(const std::string &name) const;

    /** Every descriptor, sorted by canonical name. */
    std::vector<const PrefetcherDescriptor *> all() const;

  private:
    PrefetcherRegistry();

    std::vector<std::unique_ptr<PrefetcherDescriptor>> descriptors;
    // gaze-lint: allow(hot-container): name lookup happens once per
    // spec parse; ordered iteration feeds the introspection table
    std::map<std::string, const PrefetcherDescriptor *> byName;
};

/**
 * A parsed, validated, normalized prefetcher spec. @c text is the one
 * canonical spelling: primary scheme name, options sorted by name,
 * uint values in plain decimal, schema defaults elided, flags bare.
 * "none" (or the empty spec) normalizes to desc == nullptr and text
 * "none".
 */
struct CanonicalSpec
{
    const PrefetcherDescriptor *desc = nullptr;

    /** Non-default options, keyed by name (flags map to "1"). */
    // gaze-lint: allow(hot-container): canonical spec state, built
    // once per run; sorted order defines the canonical spelling
    std::map<std::string, std::string> options;

    /** The canonical spec string (what cache keys embed). */
    std::string text;

    /** Construct the prefetcher (nullptr for "none"). */
    std::unique_ptr<Prefetcher> build() const;
};

/**
 * Parse + validate + canonicalize @p spec_text against the registry:
 * the one prefetcher-spec parser behind every front end. Returns false
 * on an unknown scheme, unknown option, flag given a value,
 * missing/malformed/out-of-range number, unknown enum value, or
 * duplicated option, with the diagnostic (naming the offending spec
 * text) in @p error. The message is only formatted on failure:
 * makePrefetcher resolves once per core per cell.
 */
bool resolvePrefetcherSpec(const std::string &spec_text, CanonicalSpec *out,
                           std::string *error);

/** The canonical text of @p spec_text; fatal with the diagnostic. */
std::string canonicalPrefetcherSpec(const std::string &spec_text);

/**
 * The full registry as a human-readable table (@p json false) or as
 * one machine-readable JSON document (@p json true). Rendering builds
 * every scheme's default instance — the reported storage_kib comes
 * from a live storageBits() call — so producing this output also
 * round-trips every registered scheme through parse -> canonicalize
 * -> build, which check.sh uses as a registration smoke.
 */
std::string renderPrefetcherList(bool json);

} // namespace gaze

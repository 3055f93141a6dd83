#include "harness/storage_model.hh"

#include "core/gaze.hh"
#include "harness/table.hh"
#include "prefetchers/factory.hh"

namespace gaze
{

std::vector<StorageRow>
gazeStorageBreakdown()
{
    GazeConfig cfg;
    uint32_t blocks = cfg.blocksPerRegion();

    std::vector<StorageRow> rows;
    rows.push_back({"FT",
                    "8-way, 64 entries: region tag 36b + LRU 3b + "
                    "hashed PC 12b + trigger offset 6b",
                    uint64_t(cfg.ftSets) * cfg.ftWays * (36 + 3 + 12 + 6)});
    rows.push_back({"AT",
                    "8-way, 64 entries: tag 36b + LRU 3b + hashed PC "
                    "12b + stride flag 1b + trigger/second 2x6b + "
                    "last/penult 2x6b + bit vector 64b",
                    uint64_t(cfg.atSets) * cfg.atWays
                        * (36 + 3 + 12 + 1 + 12 + 12 + blocks)});
    rows.push_back({"PHT",
                    "4-way, 256 entries: tag 6b + LRU 2b + bit vector "
                    "64b",
                    uint64_t(cfg.phtSets) * cfg.phtWays
                        * (6 + 2 + blocks)});
    rows.push_back({"DPCT",
                    "fully associative, 8 entries: hashed PC 12b + "
                    "LRU 3b (+ 3b DC)",
                    uint64_t(cfg.dpctEntries) * (12 + 3) + 3});
    rows.push_back({"PB",
                    "8-way, 32 entries: region tag 36b + LRU 3b + "
                    "pattern 64x2b",
                    uint64_t(cfg.pbEntries) * (36 + 3 + 2 * blocks)});
    return rows;
}

std::vector<SchemeStorage>
evaluatedSchemeStorage()
{
    // Paper Table IV figures (KB) for reference alongside our model.
    struct Def
    {
        const char *spec;
        const char *configuration;
        double paperKib;
    };
    const Def defs[] = {
        {"sms", "2KB region, 64-entry FT/AT, 16k-entry PHT, 32-entry PB",
         116.6},
        {"bingo", "2KB region, 64-entry FT/AT, 16k-entry PHT, 32-entry PB",
         138.6},
        {"dspatch", "2KB region, 64-entry PageBuffer, 256-entry SPT, "
                    "32-entry PB",
         4.25},
        {"pmp", "4KB region, 64-entry FT/AT, 64-entry OPT, 32-entry PPT, "
                "MaxConf 32, L1/L2 thresh 0.5/0.15",
         5.0},
        {"ipcp", "64-entry IP table, 128-entry CSPT, 8-entry RST, "
                 "32-entry RR",
         0.7},
        {"spp_ppf", "SPP (256 ST, 512 PT) + perceptron filter", 39.3},
        {"vberti", "virtual address, eight-page prefetch range", 2.55},
        {"gaze", "4KB region, Table I configuration", 4.46},
    };

    std::vector<SchemeStorage> rows;
    for (const auto &d : defs) {
        auto pf = makePrefetcher(d.spec);
        SchemeStorage s;
        s.scheme = d.spec;
        s.configuration = d.configuration;
        s.bits = pf->storageBits();
        s.paperKib = d.paperKib;
        rows.push_back(std::move(s));
    }
    return rows;
}

std::string
renderStorageTables()
{
    std::string out = "Table I: Gaze storage breakdown\n\n";
    TextTable table1({"structure", "description", "bytes"});
    double total = 0;
    for (const auto &row : gazeStorageBreakdown()) {
        table1.addRow({row.structure, row.description,
                       TextTable::fmt(row.bits / 8.0, 1)});
        total += row.kib();
    }
    out += table1.toString() + "\ntotal: " + TextTable::fmt(total, 2)
           + "KB (paper: 4.46KB; 31x below Bingo, 0.54KB below PMP)\n\n";

    // §III-E area/energy proxy: bits per pattern-history line. Gaze
    // stores a 64b bit vector where PMP stores a 320b counter vector
    // (plus a 160b coarse vector) — the source of its ~29% area and
    // <46% access-energy figures.
    TextTable proxy({"scheme", "pattern line width", "relative"});
    proxy.addRow({"gaze PHT", "64b bit vector", "1.0x"});
    proxy.addRow({"pmp OPT", "384b counter vector (64x6b)", "6.0x"});
    out += "pattern-line width proxy (area/energy driver):\n"
           + proxy.toString();

    out += "\nTable IV: evaluated prefetcher configurations + "
           "storage\n\n";
    TextTable table4({"scheme", "configuration", "modeled", "paper"});
    for (const auto &row : evaluatedSchemeStorage())
        table4.addRow({row.scheme, row.configuration,
                       TextTable::fmt(row.kib(), 2) + "KB",
                       TextTable::fmt(row.paperKib, 2) + "KB"});
    out += table4.toString()
           + "\nnote: modeled figures count the structures this repo "
             "implements field by field; the paper's figures follow "
             "its own accounting (e.g. vBerti's latency bits live in "
             "extended L1D lines).\n";
    return out;
}

} // namespace gaze

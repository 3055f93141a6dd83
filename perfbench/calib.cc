/**
 * @file
 * bench_calib: a fixed amount of simulator-like host work, timed. It
 * models an 8192-set, 16-way LRU cache over a seeded address stream
 * (three quarters sequential, one quarter random over 64 MB), which
 * exercises what a simulator's hot path does: branchy tag scans over
 * 2 MB of tables, about one core's L2. Against gaze_sim over a 5.5
 * minute drift, 30 s windows of the two tracked each other to 1.4%
 * (fastest of each), where 512 KB tables tracked to 3.2%.
 *
 * The benchmark runs it between the measured programs and scales their
 * times by its speed, so that a host whose speed drifts over minutes
 * gives the same figures. It includes nothing of the simulator and is
 * built with this directory's fixed flags: no change to the simulator
 * can move it.
 *
 * Usage: bench_calib [ITERATIONS]   prints the kernel's seconds
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

int
main(int argc, char **argv)
{
    const uint32_t sets = 8192, ways = 16;
    const long n = argc > 1 ? std::atol(argv[1]) : 1000000;
    std::vector<uint64_t> tag(size_t(sets) * ways, ~uint64_t(0));
    std::vector<uint64_t> stamp(size_t(sets) * ways, 0);

    uint64_t x = 88172645463325252ull, now = 0, hits = 0, stride = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t addr = (x & 3) ? (stride += 64) : (x & ((1ull << 26) - 1));
        uint64_t line = addr >> 6, set = line & (sets - 1), t = line >> 13;
        uint64_t *tg = &tag[set * ways], *st = &stamp[set * ways];
        uint32_t victim = 0;
        bool hit = false;
        for (uint32_t w = 0; w < ways; ++w) {
            if (tg[w] == t) {
                st[w] = ++now;
                hit = true;
                break;
            }
            if (st[w] < st[victim])
                victim = w;
        }
        if (hit) {
            ++hits;
        } else {
            tg[victim] = t;
            st[victim] = ++now;
        }
    }
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    // The hit count keeps the loop from being optimised away.
    std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(hits));
    return 0;
}

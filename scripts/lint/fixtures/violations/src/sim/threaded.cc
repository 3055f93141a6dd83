// Fixture: raw-thread — a worker team inside the simulator is not a
// sanctioned shim, so it must fire the rule.
#include <thread>
#include <vector>

struct FixtureTeam
{
    std::vector<std::thread> workers; // line 8: finding
};

// hot-container fixture, prefetcher side: a std::list FIFO (line 5)
// and a std::deque history (line 6).
#include <list>
namespace gaze {
std::list<unsigned long> issueFifo;
std::deque<unsigned long> accessHistory;
} // namespace gaze

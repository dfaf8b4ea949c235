// sflint fixture: D2 outside any function body — a host-clock member
// that sflint cannot place in a function, so it cannot clear it.
#include <chrono>

struct FxChild
{
    std::chrono::steady_clock::time_point deadline;
};

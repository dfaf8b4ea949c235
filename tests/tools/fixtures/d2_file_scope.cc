// sflint fixture: D2 outside any function body — a host-clock member
// type is flagged like any other use.
#include <chrono>

struct FxChild
{
    std::chrono::steady_clock::time_point deadline;
};

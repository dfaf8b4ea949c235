#include "sim/logging.hh"

#include <cstdarg>
#include <utility>
#include <vector>

namespace sf {

namespace {

struct HookEntry
{
    int id;
    std::string name;
    DiagnosticHook fn;
};

std::vector<HookEntry> &
hookRegistry()
{
    // Hooks are added and removed only while no simulation runs; an
    // error fires them where it is raised.
    // sflint: allow(S1, registry written only while no simulation runs)
    static std::vector<HookEntry> hooks;
    return hooks;
}

int nextHookId = 1;

} // namespace

int
addDiagnosticHook(const std::string &name, DiagnosticHook fn)
{
    int id = nextHookId++;
    hookRegistry().push_back({id, name, std::move(fn)});
    return id;
}

void
removeDiagnosticHook(int id)
{
    auto &hooks = hookRegistry();
    for (auto it = hooks.begin(); it != hooks.end(); ++it) {
        if (it->id == id) {
            hooks.erase(it);
            return;
        }
    }
}

void
emitDiagnostics(std::FILE *out)
{
    // A hook that itself fatal()s/panic()s must not recurse into a
    // second dump; the guard also keeps a hook exception from masking
    // the error that triggered the snapshot.
    static std::atomic<bool> emitting{false};
    if (hookRegistry().empty() || emitting.exchange(true))
        return;
    std::fprintf(out, "=== diagnostic snapshot ===\n");
    for (const auto &h : hookRegistry()) {
        std::fprintf(out, "--- %s ---\n", h.name.c_str());
        try {
            h.fn(out);
        } catch (const std::exception &e) {
            std::fprintf(out, "(diagnostic hook '%s' failed: %s)\n",
                         h.name.c_str(), e.what());
        }
    }
    std::fprintf(out, "=== end diagnostic snapshot ===\n");
    std::fflush(out);
    emitting = false;
}

namespace detail {

std::string
formatMessage(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

} // namespace detail
} // namespace sf

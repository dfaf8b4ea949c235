// sflint fixture: D2 suppressed — a justified environment read in
// startup code.
#include <cstdlib>

inline const char *
fxConfig()
{
    // sflint: allow(D2, fixture: startup-only config read)
    return std::getenv("FX_CONFIG");
}

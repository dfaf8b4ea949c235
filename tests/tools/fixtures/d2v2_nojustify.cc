// sflint fixture: D2 negative suppression — an allow() with no
// justification text must not silence the finding.
#include <cstdlib>

inline void
fxSeed()
{
    // sflint: allow(D2)
    srand(42);
}

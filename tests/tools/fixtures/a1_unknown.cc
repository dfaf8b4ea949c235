// sflint fixture: A1 — a suppression naming a rule that does not
// exist (a typo, or a retired rule such as S2) is a hard finding, not
// a silent no-op.
#include <cstdint>

inline uint64_t
fxScale(uint64_t n)
{
    // sflint: allow(D9, fixture: meant D1 but typo'd the id)
    return n * 2;
}

inline uint64_t
fxHalve(uint64_t n)
{
    // sflint: allow(S2, fixture: suppression of a retired rule)
    return n / 2;
}

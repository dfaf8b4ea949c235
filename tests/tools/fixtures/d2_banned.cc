// sflint fixture: D2 positive — libc PRNG in a plain function. D2
// flags every use; nothing about the caller can clear it.
#include <cstdlib>

inline int
fxRoll()
{
    return rand();
}

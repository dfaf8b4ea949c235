// sflint fixture: A1 — a suppression that matches no finding on its
// line or the next suppresses nothing: the static it justified has
// since become const, so the annotation is stale.

inline int
fxLimit()
{
    // sflint: allow(S1, fixture: was a mutable cache, now const)
    static const int fxMax = 64;
    return fxMax;
}

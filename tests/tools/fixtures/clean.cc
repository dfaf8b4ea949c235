// sflint fixture: no findings — ordered container, no banned calls.
// A member named like a banned primitive (`t.time()`) is not the libc
// symbol.
#include <map>

struct FxClean
{
    std::map<int, int> fxOrdered;

    int
    sum() const
    {
        int acc = 0;
        for (const auto &kv : fxOrdered)
            acc += kv.second;
        return acc;
    }
};

template <typename T>
long
fxStamp(const T &t, const T *p)
{
    return t.time() + p->time();
}

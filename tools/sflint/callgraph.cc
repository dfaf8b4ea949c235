/**
 * @file
 * sflint cross-TU call graph and timed-path reachability.
 *
 * Call edges are added only when confidently resolved; an ambiguous
 * name gets no edge. That makes the graph an under-approximation of
 * the real program — the honest direction for D2v2, which flags
 * code *on* a reachable path: a dropped edge can hide a finding but
 * never invents one. The resolution ladder:
 *
 *   1. qualified calls (`A::B::f(`) match the qualifier chain as a
 *      suffix of the callee's qualified name;
 *   2. member calls (`x.f(` / `x->f(`) intersect the classes that
 *      define `f` with the receiver's declared-type identifiers
 *      (member declarations record theirs; call/index receivers walk
 *      back to the identifier before the opener);
 *   3. bare calls prefer a same-class method, then a program-unique
 *      name, else resolve to nothing.
 */

#include "sflint.hh"

#include <algorithm>
#include <deque>

namespace sflint {

namespace {

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

/** Index one past the token matching the opener at @p i. */
size_t
matchDelim(const std::vector<Token> &toks, size_t i, const char *open,
           const char *close)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (isPunct(toks[i], open))
            ++depth;
        else if (isPunct(toks[i], close) && --depth == 0)
            return i + 1;
    }
    return toks.size();
}

/** Keywords and cast-ish identifiers that are never call sites. */
const std::set<std::string> kNotCalls = {
    "if",        "for",       "while",    "switch",   "return",
    "sizeof",    "alignof",   "catch",    "new",      "delete",
    "throw",     "assert",    "defined",  "decltype", "noexcept",
    "case",      "co_await",  "co_return"};

/** Does qualified name @p qn end with @p suffix at a `::` boundary? */
bool
qualSuffix(const std::string &qn, const std::string &suffix)
{
    if (qn == suffix)
        return true;
    return qn.size() > suffix.size() + 2 &&
           qn.compare(qn.size() - suffix.size(), suffix.size(),
                      suffix) == 0 &&
           qn.compare(qn.size() - suffix.size() - 2, 2, "::") == 0;
}

/** All of @p cand if they share one qualified name, else nothing. */
std::vector<size_t>
uniqueByQual(const Program &prog, const std::vector<size_t> &cand)
{
    std::set<std::string> quals;
    for (size_t i : cand)
        quals.insert(prog.functions[i].qualName);
    if (quals.size() == 1)
        return cand;
    return {};
}

/** Entries named @p name declared by class @p cls. */
std::vector<size_t>
classTargets(const Program &prog, const std::string &cls,
             const std::string &name)
{
    std::vector<size_t> out;
    auto it = prog.byName.find(name);
    if (it == prog.byName.end())
        return out;
    for (size_t i : it->second) {
        if (prog.functions[i].className == cls)
            out.push_back(i);
    }
    return out;
}

/** Declared-type identifiers of the expression identifier @p base —
 *  a member of the caller's class, or a unique function's head. */
std::set<std::string>
typeIdentsOf(const Program &prog, const FunctionDecl &caller,
             const std::string &base)
{
    if (const MemberDecl *m = prog.findMember(caller.className, base))
        return m->typeIdents;
    auto it = prog.byName.find(base);
    if (it != prog.byName.end()) {
        std::vector<size_t> uniq = uniqueByQual(prog, it->second);
        if (!uniq.empty())
            return prog.functions[uniq.front()].typeIdents;
    }
    return {};
}

/**
 * Resolve the call site whose callee identifier is token @p i
 * (toks[i+1] is `(`) to Program::functions indices; empty when the
 * name is ambiguous or unknown (see the ladder above).
 */
std::vector<size_t>
resolveCall(const Program &prog, const FunctionDecl &caller,
            const std::vector<Token> &toks, size_t i)
{
    const std::string &name = toks[i].text;
    if (kNotCalls.count(name))
        return {};
    auto byIt = prog.byName.find(name);
    if (byIt == prog.byName.end())
        return {};
    const std::vector<size_t> &all = byIt->second;

    // Qualified call: match the `A::B::name` chain as a suffix.
    if (i >= 2 && isPunct(toks[i - 1], "::") &&
        toks[i - 2].kind == TokKind::Ident) {
        std::string suffix = name;
        size_t h = i;
        while (h >= 2 && isPunct(toks[h - 1], "::") &&
               toks[h - 2].kind == TokKind::Ident) {
            suffix = toks[h - 2].text + "::" + suffix;
            h -= 2;
        }
        std::vector<size_t> cand;
        for (size_t k : all) {
            if (qualSuffix(prog.functions[k].qualName, suffix))
                cand.push_back(k);
        }
        return uniqueByQual(prog, cand);
    }

    // Member call: `recv.name(` / `recv->name(` (`->` lexes `-` `>`).
    bool dot = i >= 1 && isPunct(toks[i - 1], ".");
    bool arrow = i >= 2 && isPunct(toks[i - 1], ">") &&
                 isPunct(toks[i - 2], "-");
    if (dot || arrow) {
        size_t r = dot ? i - 1 : i - 2;
        if (r == 0)
            return {};
        const Token &rt = toks[r - 1];
        std::set<std::string> recvTypes;
        if (rt.kind == TokKind::Ident) {
            if (rt.text == "this") {
                return uniqueByQual(
                    prog, classTargets(prog, caller.className, name));
            }
            recvTypes = typeIdentsOf(prog, caller, rt.text);
        } else if (isPunct(rt, ")") || isPunct(rt, "]")) {
            // `f(x)->g(` / `v[i].g(`: type of the ident before the
            // opener (a call's return head or the container element —
            // member typeIdents include the element type's name).
            const char *open = rt.text == ")" ? "(" : "[";
            const char *close = rt.text == ")" ? ")" : "]";
            int depth = 0;
            size_t q = r - 1;
            while (true) {
                if (isPunct(toks[q], close)) {
                    ++depth;
                } else if (isPunct(toks[q], open) && --depth == 0) {
                    break;
                }
                if (q == 0)
                    break;
                --q;
            }
            if (q > 0 && toks[q - 1].kind == TokKind::Ident)
                recvTypes = typeIdentsOf(prog, caller, toks[q - 1].text);
        }
        std::set<std::string> classes;
        for (size_t k : all) {
            if (!prog.functions[k].className.empty())
                classes.insert(prog.functions[k].className);
        }
        if (!recvTypes.empty()) {
            std::set<std::string> inter;
            for (const std::string &c : classes) {
                if (recvTypes.count(c))
                    inter.insert(c);
            }
            if (inter.size() == 1)
                return classTargets(prog, *inter.begin(), name);
            return {};
        }
        if (classes.size() == 1)
            return classTargets(prog, *classes.begin(), name);
        return {};
    }

    // Bare call: same-class method wins, else a program-unique name.
    if (!caller.className.empty()) {
        auto mIt = prog.methodsOf.find(caller.className);
        if (mIt != prog.methodsOf.end() && mIt->second.count(name))
            return classTargets(prog, caller.className, name);
    }
    return uniqueByQual(prog, all);
}

} // namespace

CallGraph
buildCallGraph(const std::vector<SourceFile> &files, const Program &prog,
               const Config &cfg)
{
    CallGraph cg;
    const size_t n = prog.functions.size();
    cg.callees.assign(n, {});
    cg.timedReachable.assign(n, 0);

    std::map<std::string, const SourceFile *> byPath;
    for (const SourceFile &f : files)
        byPath[f.path] = &f;

    std::vector<size_t> timedSeeds;
    for (size_t fi = 0; fi < n; ++fi) {
        const FunctionDecl &fn = prog.functions[fi];
        if (!fn.hasBody)
            continue;
        auto it = byPath.find(fn.file);
        if (it == byPath.end())
            continue;
        const std::vector<Token> &toks = it->second->toks;
        std::set<size_t> outs;
        for (size_t j = fn.bodyBegin + 1; j + 1 < fn.bodyEnd; ++j) {
            if (toks[j].kind != TokKind::Ident ||
                !isPunct(toks[j + 1], "("))
                continue;
            if (cfg.schedulers.count(toks[j].text)) {
                // Functions called inside a scheduler's argument list
                // run as event handlers on the timed path.
                size_t e = matchDelim(toks, j + 1, "(", ")");
                for (size_t k = j + 2; k + 1 < e; ++k) {
                    if (toks[k].kind == TokKind::Ident &&
                        isPunct(toks[k + 1], "(") &&
                        !cfg.schedulers.count(toks[k].text)) {
                        for (size_t t : resolveCall(prog, fn, toks, k))
                            timedSeeds.push_back(t);
                    }
                }
            }
            for (size_t t : resolveCall(prog, fn, toks, j))
                outs.insert(t);
        }
        cg.callees[fi].assign(outs.begin(), outs.end());
    }

    std::vector<size_t> roots;
    for (size_t i = 0; i < n; ++i) {
        for (const std::string &r : cfg.timedRoots) {
            if (qualSuffix(prog.functions[i].qualName, r)) {
                roots.push_back(i);
                break;
            }
        }
    }
    if (roots.empty()) {
        // Fail-safe: a tree that defines no timed root at all gets
        // the old whole-tree behavior instead of a silent all-clear.
        cg.timedReachable.assign(n, 1);
        return cg;
    }
    // Breadth-first walk from the roots and the scheduled callbacks.
    std::vector<char> &mark = cg.timedReachable;
    std::deque<size_t> q;
    roots.insert(roots.end(), timedSeeds.begin(), timedSeeds.end());
    for (size_t s : roots) {
        if (!mark[s]) {
            mark[s] = 1;
            q.push_back(s);
        }
    }
    while (!q.empty()) {
        size_t cur = q.front();
        q.pop_front();
        for (size_t nx : cg.callees[cur]) {
            if (!mark[nx]) {
                mark[nx] = 1;
                q.push_back(nx);
            }
        }
    }
    return cg;
}

size_t
enclosingFunction(const Program &prog, const std::string &file,
                  size_t tokIndex)
{
    size_t best = static_cast<size_t>(-1);
    for (size_t i = 0; i < prog.functions.size(); ++i) {
        const FunctionDecl &fn = prog.functions[i];
        if (!fn.hasBody || fn.file != file)
            continue;
        if (tokIndex < fn.bodyBegin || tokIndex >= fn.bodyEnd)
            continue;
        if (best == static_cast<size_t>(-1) ||
            fn.bodyBegin > prog.functions[best].bodyBegin)
            best = i;
    }
    return best;
}

} // namespace sflint

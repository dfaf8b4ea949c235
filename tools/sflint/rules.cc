/**
 * @file
 * sflint rule passes D1/D2/P1/T1/S1/A1 (see sflint.hh for the
 * registry of what each rule enforces and why).
 */

#include "sflint.hh"

#include <algorithm>
#include <cctype>

namespace sflint {

namespace {

bool
isPunct(const Token &t, const char *s)
{
    return t.kind == TokKind::Punct && t.text == s;
}

bool
isIdent(const Token &t, const char *s)
{
    return t.kind == TokKind::Ident && t.text == s;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

void
emit(std::vector<Finding> &out, const SourceFile &f, const char *rule,
     int line, std::string context, std::string message)
{
    Finding fd;
    fd.rule = rule;
    fd.file = f.path;
    fd.line = line;
    fd.context = std::move(context);
    fd.message = std::move(message);
    out.push_back(std::move(fd));
}

/** Index one past the `)`/`}`/`]`/`>` matching the opener at @p i. */
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

// ------------------------------------------------------------------ D1

/**
 * Iterations over unordered / pointer-keyed containers. Matches both
 * range-for statements (`for (x : expr)`) and classic iterator loops
 * (`for (auto it = expr.begin(); …`); the iterated container is
 * resolved by its final identifier against the global registry.
 */
void
ruleD1(const SourceFile &f, const Registry &reg,
       std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "("))
            continue;
        size_t open = i + 1;
        size_t end = matchDelim(toks, open, "(", ")");
        if (end >= toks.size() && !isPunct(toks[end - 1], ")"))
            continue;
        int line = toks[i].line;

        // Split classic vs range-for on a depth-1 `;`.
        bool classic = false;
        int depth = 0;
        size_t colon = 0;
        for (size_t j = open; j < end; ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")"))
                --depth;
            else if (depth == 1 && isPunct(toks[j], ";"))
                classic = true;
            else if (depth == 1 && !colon && isPunct(toks[j], ":"))
                colon = j;
        }

        std::string name;
        if (!classic && colon) {
            // Last identifier of the range expression, unless it is a
            // call (we cannot resolve function results).
            for (size_t j = end - 1; j > colon; --j) {
                if (toks[j].kind != TokKind::Ident)
                    continue;
                if (j + 1 < end && isPunct(toks[j + 1], "("))
                    break;
                name = toks[j].text;
                break;
            }
        } else if (classic) {
            // `expr.begin()` / `expr.cbegin()` inside the header.
            for (size_t j = open; j + 2 < end; ++j) {
                if ((isIdent(toks[j + 1], "begin") ||
                     isIdent(toks[j + 1], "cbegin")) &&
                    isPunct(toks[j], ".") &&
                    toks[j - 1].kind == TokKind::Ident) {
                    name = toks[j - 1].text;
                    break;
                }
            }
        }
        if (name.empty())
            continue;
        auto it = reg.containers.find(name);
        if (it == reg.containers.end())
            continue;
        const ContainerDecl *ptrDecl = nullptr;
        const ContainerDecl *unordDecl = nullptr;
        for (const ContainerDecl &d : it->second) {
            if (d.pointerKey && !ptrDecl)
                ptrDecl = &d;
            if (d.unordered && !unordDecl)
                unordDecl = &d;
        }
        if (ptrDecl) {
            emit(out, f, "D1", line, name,
                 "iteration over pointer-keyed container '" + name +
                     "' (key " + ptrDecl->keyType +
                     "): order depends on allocation addresses; key "
                     "by a stable id or use a sorted snapshot");
        } else if (unordDecl) {
            emit(out, f, "D1", line, name,
                 "iteration over unordered container '" + name +
                     "': order is hash/implementation-defined; use "
                     "std::map, a sorted snapshot, or annotate "
                     "`// sflint: ordered-ok(<reason>)`");
        }
    }
}

// ------------------------------------------------------------------ D2

struct BannedIdent
{
    const char *name;
    bool callOnly; //!< only flag when followed by `(`
    const char *what;
};

const BannedIdent kBanned[] = {
    {"rand", true, "libc PRNG"},
    {"srand", true, "libc PRNG seeding"},
    {"random_device", false, "hardware entropy source"},
    {"time", true, "wall-clock read"},
    {"gettimeofday", true, "wall-clock read"},
    {"clock_gettime", true, "wall-clock read"},
    {"system_clock", false, "wall-clock read"},
    {"steady_clock", false, "host-monotonic clock read"},
    {"high_resolution_clock", false, "host clock read"},
    {"getenv", true, "environment read"},
};

/**
 * D2: every use of a banned primitive is a finding. Whether a read can
 * reach simulated behaviour is a data-flow question a token scan cannot
 * settle, so host-side code says why in a justified suppression.
 */
void
ruleD2(const SourceFile &f, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        for (const BannedIdent &b : kBanned) {
            if (toks[i].text != b.name)
                continue;
            if (b.callOnly &&
                (i + 1 >= toks.size() || !isPunct(toks[i + 1], "(")))
                continue;
            // Member calls (`x.time()`, `x->time()`) are not the libc
            // symbol; `->` lexes as `-` `>` so check both.
            if (i > 0 && (isPunct(toks[i - 1], ".") ||
                          isPunct(toks[i - 1], ">")))
                continue;
            emit(out, f, "D2", toks[i].line, b.name,
                 std::string(b.what) + " '" + b.name +
                     "' is nondeterministic; simulated behaviour must "
                     "not depend on it, and host-side code annotates "
                     "`// sflint: allow(D2, <reason>)`");
            break;
        }
    }
}

// ------------------------------------------------------------------ P1

struct CaseLabel
{
    std::string enumName;
    std::string enumerator;
};

/**
 * Scan one switch body, collecting this switch's own case labels and
 * recursing into nested switches (whose labels must not leak out).
 */
void
scanSwitchBody(const SourceFile &f, const Config &cfg,
               const Registry &reg, size_t bodyOpen, size_t bodyEnd,
               int switchLine, std::vector<Finding> &out);

void
checkSwitch(const SourceFile &f, const Config &cfg, const Registry &reg,
            size_t i, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    size_t condEnd = matchDelim(toks, i + 1, "(", ")");
    if (condEnd >= toks.size() || !isPunct(toks[condEnd], "{"))
        return;
    size_t bodyEnd = matchDelim(toks, condEnd, "{", "}");
    scanSwitchBody(f, cfg, reg, condEnd, bodyEnd, toks[i].line, out);
}

void
scanSwitchBody(const SourceFile &f, const Config &cfg,
               const Registry &reg, size_t bodyOpen, size_t bodyEnd,
               int switchLine, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    std::vector<CaseLabel> labels;
    int defaultLine = 0;
    for (size_t j = bodyOpen + 1; j + 1 < bodyEnd; ++j) {
        if (isIdent(toks[j], "switch") && isPunct(toks[j + 1], "(")) {
            size_t ce = matchDelim(toks, j + 1, "(", ")");
            if (ce < bodyEnd && isPunct(toks[ce], "{")) {
                size_t be = matchDelim(toks, ce, "{", "}");
                scanSwitchBody(f, cfg, reg, ce, be, toks[j].line, out);
                j = be - 1;
            }
            continue;
        }
        if (isIdent(toks[j], "default") && isPunct(toks[j + 1], ":")) {
            defaultLine = toks[j].line;
            continue;
        }
        if (!isIdent(toks[j], "case"))
            continue;
        // Tokens of the label expression, up to the label colon.
        std::string lastQual, lastIdent;
        for (size_t k = j + 1; k < bodyEnd; ++k) {
            if (isPunct(toks[k], ":")) {
                j = k;
                break;
            }
            if (toks[k].kind == TokKind::Ident) {
                if (k + 1 < bodyEnd && isPunct(toks[k + 1], "::"))
                    lastQual = toks[k].text;
                else
                    lastIdent = toks[k].text;
            }
        }
        if (!lastQual.empty() && !lastIdent.empty())
            labels.push_back({lastQual, lastIdent});
    }

    // Which monitored enum (if any) does this switch dispatch on?
    const EnumDecl *mon = nullptr;
    for (const CaseLabel &l : labels) {
        auto it = reg.enums.find(l.enumName);
        if (it != reg.enums.end() && it->second.monitored) {
            mon = &it->second;
            break;
        }
    }
    if (!mon)
        return;

    if (defaultLine) {
        emit(out, f, "P1", defaultLine, mon->name,
             "default arm in switch over monitored enum '" + mon->name +
                 "': new enumerators would be silently swallowed; "
                 "enumerate every case (fatal() on unreachable ones)");
    }
    std::set<std::string> covered;
    for (const CaseLabel &l : labels) {
        if (l.enumName == mon->name)
            covered.insert(l.enumerator);
    }
    std::string missing;
    for (const std::string &e : mon->enumerators) {
        if (!covered.count(e))
            missing += (missing.empty() ? "" : ", ") + e;
    }
    if (!missing.empty()) {
        emit(out, f, "P1", switchLine, mon->name,
             "switch over monitored enum '" + mon->name +
                 "' is not exhaustive; missing: " + missing);
    }
}

void
ruleP1(const SourceFile &f, const Config &cfg, const Registry &reg,
       std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    std::vector<std::pair<size_t, size_t>> done; // [open, end) ranges
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "switch") || !isPunct(toks[i + 1], "("))
            continue;
        bool nested = false;
        for (auto &[b, e] : done) {
            if (i > b && i < e)
                nested = true;
        }
        if (nested)
            continue; // handled recursively by the outer switch
        size_t condEnd = matchDelim(toks, i + 1, "(", ")");
        if (condEnd < toks.size() && isPunct(toks[condEnd], "{"))
            done.push_back({condEnd, matchDelim(toks, condEnd, "{",
                                                "}")});
        checkSwitch(f, cfg, reg, i, out);
    }
}

// ------------------------------------------------------------------ T1

const std::set<std::string> kNarrow = {
    "int",     "short",    "char",    "int8_t",  "int16_t",
    "int32_t", "uint8_t",  "uint16_t", "uint32_t"};

/** Does an identifier smell like a tick/cycle quantity? */
bool
tickish(const Token &t)
{
    if (t.kind != TokKind::Ident)
        return false;
    const std::string &s = t.text;
    return s == "curTick" || s == "tick" || s == "cycles" ||
           endsWith(s, "Tick") || endsWith(s, "_tick") ||
           endsWith(s, "Cycles") || endsWith(s, "_cycles");
}

bool
anyTickish(const std::vector<Token> &toks, size_t b, size_t e)
{
    for (size_t j = b; j < e && j < toks.size(); ++j) {
        if (tickish(toks[j]))
            return true;
    }
    return false;
}

/** Is toks[i] the narrow type of a declaration / cast (not `unsigned
 *  long long`, not a longer type name)? */
bool
narrowTypeAt(const std::vector<Token> &toks, size_t i)
{
    const Token &t = toks[i];
    if (t.kind != TokKind::Ident)
        return false;
    if (t.text == "unsigned") {
        // `unsigned` alone or `unsigned int` narrows; `unsigned
        // long …` does not.
        return !(i + 1 < toks.size() && isIdent(toks[i + 1], "long"));
    }
    if (!kNarrow.count(t.text))
        return false;
    if (i > 0 && (isIdent(toks[i - 1], "unsigned") ||
                  isIdent(toks[i - 1], "signed"))) {
        return true; // `unsigned int` handled via the int token too
    }
    if (i + 1 < toks.size() && isIdent(toks[i + 1], "long"))
        return false; // `long long` spellings
    return true;
}

void
ruleT1(const SourceFile &f, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        // static_cast<narrow>(… tickish …)
        if (isIdent(toks[i], "static_cast") &&
            isPunct(toks[i + 1], "<") && narrowTypeAt(toks, i + 2)) {
            size_t close = matchDelim(toks, i + 1, "<", ">");
            if (close < toks.size() && isPunct(toks[close], "(")) {
                size_t argEnd = matchDelim(toks, close, "(", ")");
                if (anyTickish(toks, close + 1, argEnd - 1)) {
                    emit(out, f, "T1", toks[i].line, "static_cast",
                         "static_cast narrows a tick/cycle value to "
                         "a 32-bit-or-smaller type; keep tick "
                         "arithmetic in the Tick alias");
                }
            }
            continue;
        }
        // C-style `(narrow) tickishExpr`
        if (isPunct(toks[i], "(") && narrowTypeAt(toks, i + 1) &&
            i + 2 < toks.size() && isPunct(toks[i + 2], ")") &&
            i + 3 < toks.size() && tickish(toks[i + 3])) {
            emit(out, f, "T1", toks[i].line, "cast",
                 "C-style cast narrows a tick/cycle value; keep tick "
                 "arithmetic in the Tick alias");
            continue;
        }
        // `narrow name = … tickish … ;` declarations.
        if (!narrowTypeAt(toks, i))
            continue;
        if (i > 0 && (toks[i - 1].kind == TokKind::Ident &&
                      !isIdent(toks[i - 1], "const") &&
                      !isIdent(toks[i - 1], "static") &&
                      !isIdent(toks[i - 1], "constexpr") &&
                      !isIdent(toks[i - 1], "unsigned") &&
                      !isIdent(toks[i - 1], "signed"))) {
            continue; // probably not a declaration head
        }
        size_t j = i + 1;
        if (isIdent(toks[j], "int"))
            ++j; // `unsigned int x`
        if (j >= toks.size() || toks[j].kind != TokKind::Ident)
            continue;
        if (j + 1 >= toks.size() || !isPunct(toks[j + 1], "="))
            continue;
        size_t k = j + 2;
        int depth = 0;
        size_t stmtEnd = k;
        for (; stmtEnd < toks.size(); ++stmtEnd) {
            if (isPunct(toks[stmtEnd], "(") ||
                isPunct(toks[stmtEnd], "{"))
                ++depth;
            else if (isPunct(toks[stmtEnd], ")") ||
                     isPunct(toks[stmtEnd], "}"))
                --depth;
            else if (depth == 0 && isPunct(toks[stmtEnd], ";"))
                break;
        }
        if (anyTickish(toks, k, stmtEnd)) {
            emit(out, f, "T1", toks[i].line, toks[j].text,
                 "'" + toks[j].text +
                     "' narrows a tick/cycle value to " + toks[i].text +
                     "; declare it as Tick/Cycles");
        }
    }
}

// ------------------------------------------------------------------ S1

/**
 * Types whose statics are inherently thread-safe (synchronization
 * primitives) and therefore exempt from S1.
 */
const std::set<std::string> kSyncTypes = {
    "atomic",           "atomic_flag",
    "mutex",            "shared_mutex",
    "recursive_mutex",  "timed_mutex",
    "once_flag",        "condition_variable",
    "condition_variable_any",
    "barrier",          "latch",
    "counting_semaphore", "binary_semaphore"};

/**
 * Mutable `static` (or namespace-scope `thread_local`-free) state.
 * Token-level heuristic: for each `static` keyword, locate the
 * declared name — the last identifier before the first `(`, `=`, `{`
 * or `;` of the declaration — and flag unless
 *   - a qualifier near the `static` makes it immutable (const,
 *     constexpr, constinit) or per-thread (thread_local), or
 *   - the declaration's type mentions a synchronization primitive
 *     (kSyncTypes), or
 *   - the name is immediately followed by `(`: a function definition,
 *     a prototype, or (accepted false negative) a paren-initialized
 *     variable — all left to human review.
 */
void
ruleS1(const SourceFile &f, std::vector<Finding> &out)
{
    const std::vector<Token> &toks = f.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "static"))
            continue;
        // Qualifiers may precede the keyword: `const static int x;`.
        bool exempt = false;
        for (size_t j = i >= 2 ? i - 2 : 0; j < i; ++j) {
            if (isIdent(toks[j], "const") ||
                isIdent(toks[j], "constexpr") ||
                isIdent(toks[j], "constinit") ||
                isIdent(toks[j], "thread_local"))
                exempt = true;
        }
        // Walk the declaration head up to its first initializer /
        // parameter-list / terminator, tracking the declared name.
        std::string name;
        std::string typeHit;
        size_t stop = toks.size();
        int angle = 0;
        for (size_t j = i + 1; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "<")) {
                ++angle;
            } else if (isPunct(t, ">")) {
                --angle;
            } else if (angle == 0 &&
                       (isPunct(t, "(") || isPunct(t, "=") ||
                        isPunct(t, "{") || isPunct(t, ";"))) {
                stop = j;
                break;
            } else if (t.kind == TokKind::Ident) {
                if (t.text == "const" || t.text == "constexpr" ||
                    t.text == "constinit" || t.text == "thread_local")
                    exempt = true;
                if (kSyncTypes.count(t.text))
                    typeHit = t.text;
                if (angle == 0)
                    name = t.text;
            }
        }
        if (exempt || name.empty() || stop >= toks.size())
            continue;
        if (isPunct(toks[stop], "(") && toks[stop - 1].kind ==
            TokKind::Ident && toks[stop - 1].text == name)
            continue; // function (or paren-init, accepted miss)
        if (!typeHit.empty())
            continue; // synchronization primitive
        emit(out, f, "S1", toks[i].line, name,
             "mutable static '" + name +
                 "': hidden process-wide state carries over from one "
                 "simulation to the next in a driver that runs many; "
                 "scope it per tile/system, make it const/atomic, or "
                 "annotate "
                 "`// sflint: allow(S1, <reason>)`");
    }
}

// ------------------------------------------------------------------ A1

/**
 * Does @p s look like a rule id someone meant to write? Filters the
 * `<RULE>` placeholders of documentation comments out of A1.
 */
bool
plausibleRuleId(const std::string &s)
{
    if (s.empty() || s.size() > 8)
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])))
        return false;
    for (char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/**
 * Suppressions naming a rule id that does not exist are hard
 * findings: a typo like `allow(S3, …)` must not silently mask the
 * hazard it meant to justify.
 */
void
ruleA1(const SourceFile &f, const Config &cfg,
       std::vector<Finding> &out)
{
    for (const auto &[line, sups] : f.suppressions) {
        for (const Suppression &s : sups) {
            if (s.rule == "*" || cfg.knownRules.count(s.rule) ||
                !plausibleRuleId(s.rule))
                continue;
            std::string known;
            for (const std::string &r : cfg.knownRules)
                known += (known.empty() ? "" : ", ") + r;
            emit(out, f, "A1", line, s.rule,
                 "suppression names unknown rule '" + s.rule +
                     "' (known: " + known +
                     "); a typo here would silently mask a hazard");
        }
    }
}

/**
 * A suppression of a known rule that matches no finding on its line
 * or the next one suppresses nothing: it is stale, and it would
 * silently hide a hazard that later lands on that line. Runs after
 * every other rule, over @p raw.
 */
void
ruleA1Unused(const SourceFile &f, const Config &cfg,
             std::vector<Finding> &raw)
{
    std::set<std::pair<std::string, int>> hit;
    for (const Finding &fd : raw)
        hit.insert({fd.rule, fd.line});
    for (const auto &[line, sups] : f.suppressions) {
        for (const Suppression &s : sups) {
            if (!cfg.knownRules.count(s.rule) || hit.count({s.rule, line}) ||
                hit.count({s.rule, line + 1}))
                continue;
            emit(raw, f, "A1", line, s.rule,
                 "suppression of " + s.rule +
                     " matches no finding on this line or the next; "
                     "delete it");
        }
    }
}

bool
suppressed(const SourceFile &f, Finding &fd)
{
    for (int l : {fd.line, fd.line - 1}) {
        auto it = f.suppressions.find(l);
        if (it == f.suppressions.end())
            continue;
        for (const Suppression &s : it->second) {
            if (s.rule != fd.rule && s.rule != "*")
                continue;
            if (s.reason.empty()) {
                fd.message +=
                    " [suppression found but missing a justification]";
                return false;
            }
            return true;
        }
    }
    return false;
}

} // namespace

void
runRules(const SourceFile &f, const Config &cfg, const Registry &reg,
         std::vector<Finding> &out)
{
    std::vector<Finding> raw;
    ruleD1(f, reg, raw);
    ruleD2(f, raw);
    ruleP1(f, cfg, reg, raw);
    ruleT1(f, raw);
    ruleS1(f, raw);
    ruleA1(f, cfg, raw);
    ruleA1Unused(f, cfg, raw);
    for (Finding &fd : raw) {
        fd.suppressed = suppressed(f, fd);
        out.push_back(std::move(fd));
    }
}

} // namespace sflint

/**
 * @file
 * sflint — a simulator-aware static-analysis pass enforcing the
 * repo's determinism and protocol-safety contracts (DESIGN.md §4g).
 *
 * Self-contained C++20: a real tokenizer (comments, strings, raw
 * strings, preprocessor lines), a declaration registry built from the
 * scanned tree itself (enum definitions, hash/pointer-keyed container
 * members), and lightweight matchers for range-for statements and
 * switch bodies. No libclang dependency.
 *
 * Rule registry:
 *   D1  no iteration over unordered containers, and no iteration over
 *       any container keyed by a pointer (iteration order would
 *       depend on hashing / allocation addresses and break the PR-3
 *       determinism contract). Suppress with
 *       `// sflint: ordered-ok(<reason>)`.
 *   D2  every rand()/srand()/std::random_device, wall-clock read
 *       (time(), gettimeofday, clock_gettime, system_clock/
 *       steady_clock/high_resolution_clock) and getenv() is a
 *       finding, wherever it appears: simulated behaviour must not
 *       depend on one. Member calls (`x.time()`) are not the libc
 *       symbol and are skipped. Host-side code (a driver reading its
 *       environment, a wall-clock report field) says why in
 *       `// sflint: allow(D2, <reason>)`.
 *   P1  every switch over a monitored message/coherence enum
 *       (MemMsgType, LineState, StreamMsgKind, plus any enum annotated
 *       `// sflint: exhaustive`) must be exhaustive and must not
 *       carry a `default:` arm.
 *   T1  tick/cycle arithmetic must stay in the 64-bit Tick/Cycles
 *       aliases: flag declarations, static_casts and C-style casts
 *       that narrow a tick-ish expression to int/unsigned/…
 *   S1  no mutable namespace-scope or function-local `static` state:
 *       a driver runs many simulations in one process, and hidden
 *       global state carries over from one to the next.
 *       const/constexpr, thread_local, and synchronization types
 *       (std::atomic, mutexes, once_flag, …) are exempt; functions
 *       (internal linkage, static members) are not state. Suppress
 *       with `// sflint: allow(S1, <reason>)`.
 *   A1  annotation hygiene: a `// sflint: allow(<RULE>, …)` naming a
 *       rule id that does not exist in the registry is a hard
 *       finding — a typo like `allow(S3, …)` must not silently mask
 *       a hazard. Retired ids (S2, E1, C1, C2) are unknown too. So
 *       is a suppression of a known rule that matches no finding on
 *       its line or the next: it suppresses nothing.
 *
 * Generic suppression for any rule:
 *   `// sflint: allow(<RULE>, <reason>)` on the finding line or the
 * line directly above. Directives are read from `//` comments only;
 * a block comment may quote one. A suppression without a
 * justification is invalid and the finding stands. A justified in-source suppression
 * is the only way a finding is accepted: sflint has no baseline file
 * and never rewrites sources.
 *
 * P1's compiler half is -Werror=switch (top-level CMakeLists.txt):
 * once a switch is default-free, a new enumerator fails the build.
 */

#ifndef SFLINT_SFLINT_HH
#define SFLINT_SFLINT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace sflint {

// ---------------------------------------------------------------- lexer

enum class TokKind
{
    Ident,
    Number,
    String,
    CharLit,
    Punct,
};

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0;
};

/** One parsed `sflint:` directive from a comment. */
struct Suppression
{
    std::string rule;   //!< a rule id such as "D1", or "*"
    std::string reason; //!< empty => invalid suppression
};

struct SourceFile
{
    /** Path relative to the analysis root, '/'-separated. */
    std::string path;
    std::vector<Token> toks;
    /** line -> suppressions written on that line. */
    std::map<int, std::vector<Suppression>> suppressions;
    /** Lines carrying an `sflint: exhaustive` enum marker. */
    std::set<int> exhaustiveMarks;
};

/** Tokenize @p text, filling the comment-derived fields of @p out. */
void lex(const std::string &text, SourceFile &out);

// ------------------------------------------------------------- registry

struct ContainerDecl
{
    std::string name;    //!< declared variable / member name
    std::string keyType; //!< textual first template argument
    bool unordered = false;
    bool pointerKey = false;
    std::string file;
    int line = 0;
};

struct EnumDecl
{
    std::string name;
    std::vector<std::string> enumerators;
    std::string file;
    int line = 0;
    bool monitored = false;
};

/** Declarations collected across every scanned file. */
struct Registry
{
    std::map<std::string, std::vector<ContainerDecl>> containers;
    std::map<std::string, EnumDecl> enums;
};

// -------------------------------------------------------------- engine

struct Config
{
    /** Analysis root; findings report paths relative to it. */
    std::string root = ".";
    /** Directories (or files) under root to scan. */
    std::vector<std::string> inputs;
    /** Enums whose switches must be exhaustive (P1). */
    std::set<std::string> monitoredEnums = {"MemMsgType", "LineState",
                                           "StreamMsgKind"};
    /** Rule ids that exist (A1 flags suppressions naming others). */
    std::set<std::string> knownRules = {"D1", "D2", "P1", "T1", "S1",
                                        "A1"};
};

struct Finding
{
    std::string rule;
    std::string file;
    int line = 0;
    /** Stable context id (container / enum / identifier name). */
    std::string context;
    std::string message;
    bool suppressed = false;
};

struct AnalysisResult
{
    std::vector<Finding> findings; //!< sorted, suppressed included
    int fileCount = 0;
};

/** Collect enum + container declarations from one file. */
void collectDecls(const SourceFile &f, const Config &cfg, Registry &reg);

/** Run every rule over one file (the registry must be complete
 *  across every scanned file). */
void runRules(const SourceFile &f, const Config &cfg,
              const Registry &reg, std::vector<Finding> &out);

/**
 * Walk cfg.inputs, lex, build the registry, run all rules and apply
 * suppressions. Throws std::runtime_error on I/O failure.
 */
AnalysisResult analyze(const Config &cfg);

// -------------------------------------------------------------- output

std::string renderText(const AnalysisResult &res, bool showSuppressed);

} // namespace sflint

#endif // SFLINT_SFLINT_HH

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
 *   D2  no rand()/srand()/std::random_device, no wall-clock reads
 *       (time(), gettimeofday, system_clock/steady_clock/
 *       high_resolution_clock) and no getenv() in functions on the
 *       timed simulation path: reachable, via the call graph, from a
 *       timed root (TiledSystem::run / EventQueue::run) or from
 *       any callback
 *       scheduled onto an event queue. Host-side reporting
 *       code may read clocks and the environment freely.
 *   P1  every switch over a monitored message/coherence enum
 *       (MemMsgType, MsgType, StreamMsgType, LineState, plus any
 *       enum annotated `// sflint: exhaustive`) must be exhaustive
 *       and must not carry a `default:` arm.
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

// ------------------------------------------------------------------ ast

/**
 * One parsed function — a definition (with a body token range) or a
 * declaration. The declaration-scoped AST is deliberately lightweight:
 * enough structure to resolve member/qualified calls and walk bodies;
 * no expressions, no types beyond the identifier soup needed for
 * receiver resolution.
 */
struct FunctionDecl
{
    std::string name;      //!< bare name
    std::string className; //!< owning/qualifying class ("" = free)
    std::string qualName;  //!< scope-joined, e.g. sf::sim::Foo::bar
    std::string file;
    int line = 0;
    bool hasBody = false;
    size_t bodyBegin = 0;  //!< token index of the body `{`
    size_t bodyEnd = 0;    //!< one past the matching `}`
    /** Identifiers appearing in the return type / declaration head. */
    std::set<std::string> typeIdents;
};

/** A type-recorded data member. */
struct MemberDecl
{
    std::string name;
    std::string className;
    /** Identifiers of the declared type (receiver resolution). */
    std::set<std::string> typeIdents;
    std::string file;
    int line = 0;
};

/**
 * Cross-TU program index: every function and member declaration in
 * the scanned tree, plus lookup tables for call resolution.
 */
struct Program
{
    std::vector<FunctionDecl> functions;
    /** bare name -> indices into functions. */
    std::map<std::string, std::vector<size_t>> byName;
    /** class -> member declarations. */
    std::map<std::string, std::vector<MemberDecl>> members;
    /** class -> set of method bare names it declares. */
    std::map<std::string, std::set<std::string>> methodsOf;

    const MemberDecl *
    findMember(const std::string &cls, const std::string &name) const
    {
        auto it = members.find(cls);
        if (it == members.end())
            return nullptr;
        for (const MemberDecl &m : it->second) {
            if (m.name == name)
                return &m;
        }
        return nullptr;
    }
};

/** Parse one file's declaration-scoped AST into @p prog. */
void buildAst(const SourceFile &f, Program &prog);

/** Build the name and class-method indices. */
void indexProgram(Program &prog);

// ------------------------------------------------------------ callgraph

/**
 * Cross-TU call graph over Program::functions plus the timed-path
 * reachability set the D2v2 rule consumes.
 * Call edges are added only when confidently resolved (qualified
 * name, same-class bare call, receiver-typed member call, or a
 * program-unique bare name); ambiguous names get no edge — an
 * under-approximation, traded for near-zero false fan-out.
 */
struct CallGraph
{
    /** function index -> resolved callee indices (sorted, unique). */
    std::vector<std::vector<size_t>> callees;
    /** Reachable from a timed root or a scheduled callback (D2v2). */
    std::vector<char> timedReachable;
};

struct Config; // forward

/** Build edges + reachability over the fully indexed @p prog. */
CallGraph buildCallGraph(const std::vector<SourceFile> &files,
                         const Program &prog, const Config &cfg);

/** Index of the innermost function whose body contains token @p i
 *  of @p file ((size_t)-1 when none). */
size_t enclosingFunction(const Program &prog, const std::string &file,
                         size_t tokIndex);

// -------------------------------------------------------------- engine

struct Config
{
    /** Analysis root; findings report paths relative to it. */
    std::string root = ".";
    /** Directories (or files) under root to scan. */
    std::vector<std::string> inputs;
    /** Enums whose switches must be exhaustive (P1). */
    std::set<std::string> monitoredEnums = {"MemMsgType", "MsgType",
                                            "StreamMsgType", "LineState"};
    /**
     * Timed-simulation-path roots for D2, matched as a suffix of
     * the qualified function name (so `sf::sim::EventQueue::run`
     * matches `EventQueue::run`). A banned D2 primitive is only
     * illegal in functions reachable from one of these roots or from
     * a scheduled callback; if the scanned tree defines *no* root at
     * all, every function is treated as reachable (fail-safe).
     */
    std::set<std::string> timedRoots = {"TiledSystem::run",
                                        "EventQueue::run"};
    /**
     * Callback-registration calls whose lambda arguments execute on
     * the timed path (event handlers): any function called inside
     * their argument lists seeds timed reachability.
     */
    std::set<std::string> schedulers = {"schedule", "scheduleIn",
                                        "scheduleKeyed"};
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

/** Run every rule over one file (registry, program and call graph
 *  must be complete across every scanned file). */
void runRules(const SourceFile &f, const Config &cfg,
              const Registry &reg, const Program &prog,
              const CallGraph &cg, std::vector<Finding> &out);

/**
 * Walk cfg.inputs, lex, build the registry, run all rules and apply
 * suppressions. Throws std::runtime_error on I/O failure.
 */
AnalysisResult analyze(const Config &cfg);

// -------------------------------------------------------------- output

std::string renderText(const AnalysisResult &res, bool showSuppressed);

} // namespace sflint

#endif // SFLINT_SFLINT_HH

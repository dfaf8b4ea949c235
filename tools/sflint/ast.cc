/**
 * @file
 * sflint declaration-scoped AST: namespaces, classes, function
 * definitions (with body token ranges) and data members.
 *
 * Deliberately lightweight. The parser walks namespace/class scopes
 * statement by statement; function bodies are opaque token ranges
 * (rules and the call graph walk them separately), expressions and
 * full types are never built. A declaration that defeats the
 * heuristics degrades to "no entry" — every consumer treats missing
 * structure conservatively.
 */

#include "sflint.hh"

#include <algorithm>

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

/** Keywords and builtin type names excluded from typeIdents. */
const std::set<std::string> kHeadKeywords = {
    "const",    "constexpr", "constinit", "static",   "inline",
    "mutable",  "volatile",  "virtual",   "explicit", "friend",
    "typename", "unsigned",  "signed",    "long",     "short",
    "int",      "char",      "bool",      "float",    "double",
    "void",     "auto",      "std",       "struct",   "class",
    "enum",     "union",     "extern",    "operator", "thread_local",
    "noexcept", "decltype",  "size_t",    "uint8_t",  "uint16_t",
    "uint32_t", "uint64_t",  "int8_t",    "int16_t",  "int32_t",
    "int64_t"};

struct Scope
{
    bool isClass = false;
    std::string name; //!< "" for anonymous
};

std::string
joinScopes(const std::vector<Scope> &scopes,
           const std::vector<std::string> &quals, const std::string &name)
{
    std::string out;
    for (const Scope &s : scopes) {
        if (!s.name.empty())
            out += s.name + "::";
    }
    for (const std::string &q : quals)
        out += q + "::";
    return out + name;
}

std::string
innerClass(const std::vector<Scope> &scopes)
{
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        if (it->isClass)
            return it->name;
    }
    return "";
}

/**
 * Skip a constructor init list starting right after the `:`; returns
 * the index of the body `{` (or a best-effort stop point).
 */
size_t
skipInitList(const std::vector<Token> &toks, size_t q, size_t end)
{
    while (q < end) {
        while (q < end &&
               (toks[q].kind == TokKind::Ident || isPunct(toks[q], "::")))
            ++q;
        if (q < end && isPunct(toks[q], "<"))
            q = matchDelim(toks, q, "<", ">");
        if (q >= end)
            return end;
        if (isPunct(toks[q], "("))
            q = matchDelim(toks, q, "(", ")");
        else if (isPunct(toks[q], "{"))
            q = matchDelim(toks, q, "{", "}");
        else
            return q;
        if (q < end && isPunct(toks[q], ",")) {
            ++q;
            continue;
        }
        return q; // the body `{` (or whatever ended the list)
    }
    return end;
}

struct FnHead
{
    size_t next = 0; //!< resume index after the definition/declaration
    bool hasBody = false;
    size_t bodyBegin = 0;
    size_t bodyEnd = 0;
};

/**
 * Validate the `(` at @p j as a function parameter list by parsing
 * the qualifier run after the matching `)` down to a body, `;`, or
 * `= default/delete/0 ;`.
 */
bool
validateFunction(const std::vector<Token> &toks, size_t j, size_t end,
                 FnHead &out)
{
    size_t q = matchDelim(toks, j, "(", ")");
    while (q < end) {
        const Token &t = toks[q];
        if (t.kind == TokKind::Ident) {
            if (t.text == "noexcept") {
                if (q + 1 < end && isPunct(toks[q + 1], "("))
                    q = matchDelim(toks, q + 1, "(", ")");
                else
                    ++q;
                continue;
            }
            if (t.text == "const" || t.text == "override" ||
                t.text == "final" || t.text == "mutable" ||
                t.text == "volatile" || t.text == "try") {
                ++q;
                continue;
            }
            return false; // e.g. the `>` soup of std::function<void()>
        }
        if (isPunct(t, "&")) {
            ++q; // ref-qualifier (&& arrives as two tokens)
            continue;
        }
        if (isPunct(t, "-") && q + 1 < end && isPunct(toks[q + 1], ">")) {
            // Trailing return type: consume it up to the terminator.
            q += 2;
            while (q < end && !isPunct(toks[q], "{") &&
                   !isPunct(toks[q], ";") && !isPunct(toks[q], "=")) {
                if (isPunct(toks[q], "("))
                    q = matchDelim(toks, q, "(", ")");
                else if (isPunct(toks[q], "<"))
                    q = matchDelim(toks, q, "<", ">");
                else
                    ++q;
            }
            continue;
        }
        if (isPunct(t, ":")) {
            q = skipInitList(toks, q + 1, end);
            continue;
        }
        if (isPunct(t, "{")) {
            out.hasBody = true;
            out.bodyBegin = q;
            out.bodyEnd = matchDelim(toks, q, "{", "}");
            out.next = out.bodyEnd;
            return true;
        }
        if (isPunct(t, ";")) {
            out.next = q + 1;
            return true;
        }
        if (isPunct(t, "=")) {
            while (q < end && !isPunct(toks[q], ";"))
                ++q;
            out.next = q < end ? q + 1 : end;
            return true;
        }
        return false;
    }
    return false;
}

struct Parser
{
    const SourceFile &f;
    Program &prog;
    std::vector<Scope> scopes;

    void
    parseScope(size_t i, size_t end)
    {
        const std::vector<Token> &toks = f.toks;
        while (i < end) {
            const Token &t = toks[i];
            if (isPunct(t, ";") || isPunct(t, "}")) {
                ++i;
                continue;
            }
            if (t.kind == TokKind::Ident &&
                (t.text == "public" || t.text == "private" ||
                 t.text == "protected") &&
                i + 1 < end && isPunct(toks[i + 1], ":")) {
                i += 2;
                continue;
            }
            if (isIdent(t, "template")) {
                i = i + 1 < end && isPunct(toks[i + 1], "<")
                        ? matchDelim(toks, i + 1, "<", ">")
                        : i + 1;
                continue;
            }
            if (isIdent(t, "namespace")) {
                i = parseNamespace(i, end);
                continue;
            }
            if (isIdent(t, "class") || isIdent(t, "struct") ||
                isIdent(t, "union")) {
                i = parseClass(i, end);
                continue;
            }
            if (isIdent(t, "enum")) {
                size_t j = i + 1;
                while (j < end && !isPunct(toks[j], "{") &&
                       !isPunct(toks[j], ";"))
                    ++j;
                i = j < end && isPunct(toks[j], "{")
                        ? matchDelim(toks, j, "{", "}")
                        : j;
                continue;
            }
            if (isIdent(t, "using") || isIdent(t, "typedef") ||
                isIdent(t, "friend") || isIdent(t, "static_assert")) {
                i = skipStatement(i, end);
                continue;
            }
            if (isIdent(t, "extern") && i + 2 < end &&
                toks[i + 1].kind == TokKind::String) {
                if (isPunct(toks[i + 2], "{")) {
                    size_t be = matchDelim(toks, i + 2, "{", "}");
                    parseScope(i + 3, be - 1);
                    i = be;
                } else {
                    i += 2;
                }
                continue;
            }
            i = parseDecl(i, end);
        }
    }

    size_t
    skipStatement(size_t i, size_t end)
    {
        const std::vector<Token> &toks = f.toks;
        int depth = 0;
        for (; i < end; ++i) {
            if (isPunct(toks[i], "(") || isPunct(toks[i], "{") ||
                isPunct(toks[i], "["))
                ++depth;
            else if (isPunct(toks[i], ")") || isPunct(toks[i], "}") ||
                     isPunct(toks[i], "]"))
                --depth;
            else if (depth == 0 && isPunct(toks[i], ";"))
                return i + 1;
        }
        return end;
    }

    size_t
    parseNamespace(size_t i, size_t end)
    {
        const std::vector<Token> &toks = f.toks;
        size_t j = i + 1;
        std::vector<std::string> parts;
        while (j < end && toks[j].kind == TokKind::Ident) {
            parts.push_back(toks[j].text);
            ++j;
            if (j < end && isPunct(toks[j], "::"))
                ++j;
            else
                break;
        }
        if (j >= end || !isPunct(toks[j], "{"))
            return skipStatement(i, end); // alias / declaration
        size_t be = matchDelim(toks, j, "{", "}");
        if (parts.empty())
            parts.push_back(""); // anonymous
        for (const std::string &p : parts)
            scopes.push_back({false, p});
        parseScope(j + 1, be - 1);
        scopes.resize(scopes.size() - parts.size());
        return be;
    }

    size_t
    parseClass(size_t i, size_t end)
    {
        const std::vector<Token> &toks = f.toks;
        std::string name;
        size_t j = i + 1;
        for (; j < end; ++j) {
            if (isPunct(toks[j], "{") || isPunct(toks[j], ";") ||
                isPunct(toks[j], ":"))
                break;
            if (isPunct(toks[j], "<")) { // specialization args
                j = matchDelim(toks, j, "<", ">") - 1;
                continue;
            }
            if (toks[j].kind == TokKind::Ident &&
                toks[j].text != "final" && toks[j].text != "alignas" &&
                name.empty())
                name = toks[j].text;
        }
        // Base-specifier list: scan on to the body.
        while (j < end && !isPunct(toks[j], "{") && !isPunct(toks[j], ";"))
            ++j;
        if (j >= end || isPunct(toks[j], ";"))
            return j < end ? j + 1 : end; // forward declaration
        size_t be = matchDelim(toks, j, "{", "}");
        scopes.push_back({true, name});
        parseScope(j + 1, be - 1);
        scopes.pop_back();
        // `} trailing-declarators ;`
        size_t k = be;
        while (k < end && !isPunct(toks[k], ";"))
            ++k;
        return k < end ? k + 1 : end;
    }

    size_t
    parseDecl(size_t i, size_t end)
    {
        const std::vector<Token> &toks = f.toks;
        size_t j = i;
        bool sawEq = false;
        while (j < end) {
            const Token &t = toks[j];
            if (isPunct(t, ";")) {
                recordMember(i, j);
                return j + 1;
            }
            if (isPunct(t, "=")) {
                sawEq = true;
                ++j;
                continue;
            }
            if (isPunct(t, "{")) {
                j = matchDelim(toks, j, "{", "}"); // brace initializer
                continue;
            }
            if (isPunct(t, "[")) {
                j = matchDelim(toks, j, "[", "]");
                continue;
            }
            if (isPunct(t, "(")) {
                if (!sawEq && j > i && toks[j - 1].kind == TokKind::Ident) {
                    FnHead head;
                    if (validateFunction(toks, j, end, head)) {
                        recordFunction(i, j, head);
                        return head.next;
                    }
                }
                j = matchDelim(toks, j, "(", ")");
                continue;
            }
            ++j;
        }
        recordMember(i, end);
        return end;
    }

    void
    recordFunction(size_t stmtBegin, size_t parenAt, const FnHead &head)
    {
        const std::vector<Token> &toks = f.toks;
        size_t p = parenAt - 1; // the name identifier
        FunctionDecl fn;
        fn.name = toks[p].text;
        size_t chainHead = p;
        if (p > stmtBegin && isPunct(toks[p - 1], "~"))
            chainHead = p - 1;
        std::vector<std::string> quals;
        while (chainHead >= stmtBegin + 2 &&
               isPunct(toks[chainHead - 1], "::") &&
               toks[chainHead - 2].kind == TokKind::Ident) {
            quals.insert(quals.begin(), toks[chainHead - 2].text);
            chainHead -= 2;
        }
        if (chainHead > stmtBegin &&
            isIdent(toks[chainHead - 1], "operator")) {
            // Conversion operator: never a call-resolution target.
            fn.name = "operator:" + fn.name;
        }
        fn.className = !quals.empty() ? quals.back() : innerClass(scopes);
        fn.qualName = joinScopes(scopes, quals, fn.name);
        fn.file = f.path;
        fn.line = toks[p].line;
        fn.hasBody = head.hasBody;
        fn.bodyBegin = head.bodyBegin;
        fn.bodyEnd = head.bodyEnd;
        for (size_t k = stmtBegin; k < chainHead; ++k) {
            if (toks[k].kind == TokKind::Ident &&
                !kHeadKeywords.count(toks[k].text))
                fn.typeIdents.insert(toks[k].text);
        }
        prog.functions.push_back(std::move(fn));
    }

    void
    recordMember(size_t stmtBegin, size_t stmtEnd)
    {
        std::string cls = innerClass(scopes);
        if (cls.empty() || (!scopes.empty() && !scopes.back().isClass))
            return; // only direct class members
        const std::vector<Token> &toks = f.toks;
        MemberDecl m;
        m.className = cls;
        m.file = f.path;
        int depth = 0;
        size_t nameAt = 0;
        for (size_t j = stmtBegin; j < stmtEnd; ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "(") || isPunct(t, "{") || isPunct(t, "[")) {
                ++depth;
                continue;
            }
            if (isPunct(t, ")") || isPunct(t, "}") || isPunct(t, "]")) {
                --depth;
                continue;
            }
            if (depth == 0 && isPunct(t, "="))
                break; // initializer: the name is already behind us
            if (t.kind == TokKind::Ident && depth == 0)
                nameAt = j;
        }
        if (!nameAt)
            return;
        m.name = toks[nameAt].text;
        m.line = toks[nameAt].line;
        for (size_t j = stmtBegin; j < stmtEnd; ++j) {
            if (toks[j].kind == TokKind::Ident && j != nameAt &&
                !kHeadKeywords.count(toks[j].text))
                m.typeIdents.insert(toks[j].text);
        }
        prog.members[cls].push_back(std::move(m));
    }
};

} // namespace

void
buildAst(const SourceFile &f, Program &prog)
{
    Parser p{f, prog, {}};
    p.parseScope(0, f.toks.size());
}

void
indexProgram(Program &prog)
{
    prog.byName.clear();
    prog.methodsOf.clear();
    for (size_t i = 0; i < prog.functions.size(); ++i) {
        const FunctionDecl &fn = prog.functions[i];
        prog.byName[fn.name].push_back(i);
        if (!fn.className.empty())
            prog.methodsOf[fn.className].insert(fn.name);
    }
}

} // namespace sflint

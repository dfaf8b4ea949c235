/**
 * @file
 * sflint tokenizer: C++ source -> token stream + comment directives.
 *
 * Design notes. `<` and `>` are always emitted as single-character
 * punctuators (never `<<`, `>>`, `<=`, …) so template-argument angle
 * matching stays trivial; the only combined punctuator the rules care
 * about is `::`, which is kept as one token to distinguish qualified
 * names from the range-for / label colon. Preprocessor directives are
 * consumed as whole logical lines (backslash continuations included)
 * and produce no tokens.
 */

#include "sflint.hh"

#include <cctype>

namespace sflint {

namespace {

/** Parse `sflint:` directives out of one comment's text. */
void
parseDirectives(const std::string &text, int line, SourceFile &out)
{
    auto parenArg = [&](size_t kw_end, std::string &arg) -> size_t {
        size_t p = kw_end;
        while (p < text.size() && std::isspace((unsigned char)text[p]))
            ++p;
        if (p >= text.size() || text[p] != '(')
            return kw_end; // no argument list
        int depth = 0;
        size_t start = p + 1;
        for (size_t q = p; q < text.size(); ++q) {
            if (text[q] == '(') {
                ++depth;
            } else if (text[q] == ')') {
                if (--depth == 0) {
                    arg = text.substr(start, q - start);
                    return q + 1;
                }
            }
        }
        arg = text.substr(start);
        return text.size();
    };

    auto trim = [](std::string s) {
        size_t b = s.find_first_not_of(" \t");
        size_t e = s.find_last_not_of(" \t");
        if (b == std::string::npos)
            return std::string();
        return s.substr(b, e - b + 1);
    };

    // A comment may carry several `sflint:` groups (one allow() per
    // rule when two rules fire on the same line); parse every one.
    size_t at = text.find("sflint:");
    while (at != std::string::npos) {
        size_t pos = at + 7;
        while (pos < text.size()) {
            while (pos < text.size() &&
                   (std::isspace((unsigned char)text[pos]) ||
                    text[pos] == ',')) {
                ++pos;
            }
            size_t kw = pos;
            while (pos < text.size() &&
                   (std::isalnum((unsigned char)text[pos]) ||
                    text[pos] == '-' || text[pos] == '_')) {
                ++pos;
            }
            if (pos == kw)
                break;
            std::string word = text.substr(kw, pos - kw);
            if (word == "ordered-ok") {
                std::string arg;
                pos = parenArg(pos, arg);
                out.suppressions[line].push_back({"D1", trim(arg)});
            } else if (word == "allow") {
                std::string arg;
                pos = parenArg(pos, arg);
                size_t sep = arg.find_first_of(",:");
                std::string rule = trim(
                    sep == std::string::npos ? arg : arg.substr(0, sep));
                std::string reason =
                    sep == std::string::npos ? "" : trim(arg.substr(sep + 1));
                if (!rule.empty())
                    out.suppressions[line].push_back({rule, reason});
            } else if (word == "exhaustive") {
                out.exhaustiveMarks.insert(line);
            } else {
                pos = kw; // not a directive list after all
                break;
            }
        }
        at = text.find("sflint:", pos > at ? pos : at + 7);
    }
}

bool
identStart(char c)
{
    return std::isalpha((unsigned char)c) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum((unsigned char)c) || c == '_';
}

} // namespace

void
lex(const std::string &text, SourceFile &out)
{
    size_t i = 0;
    const size_t n = text.size();
    int line = 1;
    bool atLineStart = true;

    auto push = [&](TokKind k, std::string t) {
        out.toks.push_back({k, std::move(t), line});
    };

    while (i < n) {
        char c = text[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            continue;
        }
        if (std::isspace((unsigned char)c)) {
            ++i;
            continue;
        }
        // Preprocessor directive: swallow the logical line.
        if (c == '#' && atLineStart) {
            while (i < n) {
                if (text[i] == '\\' && i + 1 < n &&
                    text[i + 1] == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (text[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        atLineStart = false;
        // Comments.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            size_t end = text.find('\n', i);
            if (end == std::string::npos)
                end = n;
            parseDirectives(text.substr(i + 2, end - i - 2), line, out);
            i = end;
            continue;
        }
        // Block comments are documentation: directives live in `//`
        // comments only, so a doc block may quote one.
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            size_t end = text.find("*/", i + 2);
            if (end == std::string::npos)
                end = n;
            for (size_t k = i + 2; k < end; ++k) {
                if (text[k] == '\n')
                    ++line;
            }
            i = end == n ? n : end + 2;
            continue;
        }
        // Raw string literal R"delim( ... )delim".
        if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
            size_t dstart = i + 2;
            size_t popen = text.find('(', dstart);
            if (popen != std::string::npos) {
                std::string delim =
                    ")" + text.substr(dstart, popen - dstart) + "\"";
                size_t end = text.find(delim, popen + 1);
                if (end == std::string::npos)
                    end = n;
                for (size_t q = i; q < end && q < n; ++q) {
                    if (text[q] == '\n')
                        ++line;
                }
                push(TokKind::String, "R\"…\"");
                i = end == n ? n : end + delim.size();
                continue;
            }
        }
        // String / char literals.
        if (c == '"' || c == '\'') {
            char quote = c;
            size_t start = i++;
            while (i < n && text[i] != quote) {
                if (text[i] == '\\' && i + 1 < n)
                    ++i;
                if (text[i] == '\n')
                    ++line;
                ++i;
            }
            if (i < n)
                ++i;
            push(quote == '"' ? TokKind::String : TokKind::CharLit,
                 text.substr(start, i - start));
            continue;
        }
        // Numbers (digit-separator and exponent aware, loosely).
        if (std::isdigit((unsigned char)c) ||
            (c == '.' && i + 1 < n &&
             std::isdigit((unsigned char)text[i + 1]))) {
            size_t start = i;
            while (i < n) {
                char d = text[i];
                if (std::isalnum((unsigned char)d) || d == '.' ||
                    d == '\'') {
                    ++i;
                    continue;
                }
                if ((d == '+' || d == '-') && i > start) {
                    char prev = text[i - 1];
                    if (prev == 'e' || prev == 'E' || prev == 'p' ||
                        prev == 'P') {
                        ++i;
                        continue;
                    }
                }
                break;
            }
            push(TokKind::Number, text.substr(start, i - start));
            continue;
        }
        // Identifiers / keywords.
        if (identStart(c)) {
            size_t start = i;
            while (i < n && identChar(text[i]))
                ++i;
            push(TokKind::Ident, text.substr(start, i - start));
            continue;
        }
        // Punctuators: only `::` is combined (see file header).
        if (c == ':' && i + 1 < n && text[i + 1] == ':') {
            push(TokKind::Punct, "::");
            i += 2;
            continue;
        }
        push(TokKind::Punct, std::string(1, c));
        ++i;
    }
}

} // namespace sflint

/**
 * @file
 * sflint output renderers: human-readable text, machine JSON
 * (schema `sflint-findings-v1`), and SARIF 2.1.0. All three are
 * byte-stable for a fixed tree: inputs are sorted, and nothing
 * time- or environment-dependent is emitted.
 */

#include "sflint.hh"

#include <array>
#include <cstdio>

namespace sflint {

namespace {

std::string
jsonEscape(const std::string &in)
{
    std::string out;
    for (char c : in) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

struct RuleDoc
{
    const char *id;
    const char *name;
    const char *summary;
};

constexpr std::array<RuleDoc, 9> kRules = {{
    {"D1", "deterministic-iteration",
     "No iteration over unordered or pointer-keyed containers in "
     "simulator code; order must not depend on hashing or allocation "
     "addresses."},
    {"D2", "no-host-entropy",
     "No rand()/random_device/wall-clock/getenv in code reachable "
     "from the timed simulation path (call-graph reachability from "
     "the timed roots and scheduled event handlers)."},
    {"P1", "exhaustive-protocol-switch",
     "Switches over message-type and coherence-state enums must "
     "enumerate every value and carry no default arm."},
    {"T1", "tick-width",
     "Tick/cycle arithmetic must stay in the 64-bit Tick/Cycles "
     "aliases; no narrowing to 32-bit-or-smaller integers."},
    {"E1", "arena-events",
     "Event objects are placed only by the event-queue slab arena; "
     "raw `new` of events is forbidden."},
    {"S1", "no-mutable-statics",
     "No mutable namespace-scope or function-local static state; "
     "hidden globals race under the tile-parallel engine."},
    {"C1", "lock-discipline",
     "Members annotated SF_GUARDED_BY(m) are only accessed while m "
     "is held (lock construction, a discovered lock helper, or an "
     "SF_REQUIRES(m) context); SF_REQUIRES callees demand the lock "
     "at every call site."},
    {"C2", "shard-affinity",
     "SF_SHARD_LOCAL state is never reachable from SF_BARRIER_ONLY "
     "barrier-merge code over the cross-TU call graph, and barrier "
     "code is never reachable from shard-context code."},
    {"A1", "suppression-hygiene",
     "Every sflint suppression must name a rule that exists; "
     "unknown rule ids are hard findings."},
}};

struct Counts
{
    int total = 0;
    int fresh = 0;
    int baselined = 0;
    int suppressed = 0;
};

Counts
countUp(const AnalysisResult &res)
{
    Counts c;
    for (const Finding &fd : res.findings) {
        ++c.total;
        if (fd.suppressed)
            ++c.suppressed;
        else if (fd.baselined)
            ++c.baselined;
        else
            ++c.fresh;
    }
    return c;
}

} // namespace

std::string
renderText(const AnalysisResult &res, bool showSuppressed)
{
    std::string out;
    for (const Finding &fd : res.findings) {
        if (fd.suppressed && !showSuppressed)
            continue;
        out += fd.file + ":" + std::to_string(fd.line) + ": [" +
               fd.rule + "]";
        if (fd.suppressed)
            out += " (suppressed)";
        else if (fd.baselined)
            out += " (baselined)";
        out += " " + fd.message + "\n";
    }
    Counts c = countUp(res);
    out += "sflint: " + std::to_string(c.fresh) + " new, " +
           std::to_string(c.baselined) + " baselined, " +
           std::to_string(c.suppressed) + " suppressed across " +
           std::to_string(res.fileCount) + " files\n";
    return out;
}

std::string
renderJson(const AnalysisResult &res)
{
    Counts c = countUp(res);
    std::string out = "{\n  \"schema\": \"sflint-findings-v1\",\n";
    out += "  \"findings\": [";
    bool first = true;
    for (const Finding &fd : res.findings) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    { \"rule\": \"" + fd.rule + "\", \"file\": \"" +
               jsonEscape(fd.file) +
               "\", \"line\": " + std::to_string(fd.line) +
               ", \"key\": \"" + jsonEscape(fd.key) +
               "\", \"suppressed\": " +
               (fd.suppressed ? "true" : "false") +
               ", \"baselined\": " +
               (fd.baselined ? "true" : "false") +
               ", \"message\": \"" + jsonEscape(fd.message) + "\" }";
    }
    out += first ? "],\n" : "\n  ],\n";
    out += "  \"summary\": { \"total\": " + std::to_string(c.total) +
           ", \"new\": " + std::to_string(c.fresh) +
           ", \"baselined\": " + std::to_string(c.baselined) +
           ", \"suppressed\": " + std::to_string(c.suppressed) +
           ", \"files\": " + std::to_string(res.fileCount) + " }\n}\n";
    return out;
}

std::string
renderSarif(const AnalysisResult &res)
{
    std::string out =
        "{\n"
        "  \"version\": \"2.1.0\",\n"
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
        "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
        "  \"runs\": [ {\n"
        "    \"tool\": { \"driver\": {\n"
        "      \"name\": \"sflint\",\n"
        "      \"informationUri\": \"tools/sflint\",\n"
        "      \"rules\": [";
    bool first = true;
    for (const RuleDoc &r : kRules) {
        out += first ? "\n" : ",\n";
        first = false;
        out += std::string("        { \"id\": \"") + r.id +
               "\", \"name\": \"" + r.name +
               "\", \"shortDescription\": { \"text\": \"" + r.summary +
               "\" } }";
    }
    out += "\n      ]\n    } },\n    \"results\": [";
    first = true;
    for (const Finding &fd : res.findings) {
        out += first ? "\n" : ",\n";
        first = false;
        const char *level =
            fd.suppressed || fd.baselined ? "note" : "error";
        out += "      { \"ruleId\": \"" + fd.rule +
               "\", \"level\": \"" + level +
               "\", \"message\": { \"text\": \"" +
               jsonEscape(fd.message) +
               "\" }, \"locations\": [ { \"physicalLocation\": { "
               "\"artifactLocation\": { \"uri\": \"" +
               jsonEscape(fd.file) +
               "\" }, \"region\": { \"startLine\": " +
               std::to_string(fd.line) + " } } } ]";
        if (fd.suppressed) {
            out += ", \"suppressions\": [ { \"kind\": \"inSource\" } "
                   "]";
        }
        out += " }";
    }
    out += first ? "]\n" : "\n    ]\n";
    out += "  } ]\n}\n";
    return out;
}

} // namespace sflint

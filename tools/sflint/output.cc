/**
 * @file
 * sflint report: one line per finding plus a summary line. Byte-stable
 * for a fixed tree: findings are sorted, and nothing time- or
 * environment-dependent is emitted.
 */

#include "sflint.hh"

namespace sflint {

std::string
renderText(const AnalysisResult &res, bool showSuppressed)
{
    std::string out;
    int fresh = 0, suppressed = 0;
    for (const Finding &fd : res.findings) {
        ++(fd.suppressed ? suppressed : fresh);
        if (fd.suppressed && !showSuppressed)
            continue;
        out += fd.file + ":" + std::to_string(fd.line) + ": [" +
               fd.rule + "]";
        if (fd.suppressed)
            out += " (suppressed)";
        out += " " + fd.message + "\n";
    }
    out += "sflint: " + std::to_string(fresh) + " new, " +
           std::to_string(suppressed) + " suppressed across " +
           std::to_string(res.fileCount) + " files\n";
    return out;
}

} // namespace sflint

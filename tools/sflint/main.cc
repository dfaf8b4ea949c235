/**
 * @file
 * sflint CLI. Typical invocation, from the repo root:
 *
 *   sflint --src src bench examples tools/sflint
 *
 * Exit codes: 0 clean (every finding carries a justified in-source
 * suppression), 1 findings, 2 usage or I/O error.
 */

#include "sflint.hh"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --src DIR... [options]\n"
        "  --root DIR            analysis root (default: .)\n"
        "  --src DIR...          directories/files to scan, relative "
        "to root\n"
        "  --show-suppressed     include suppressed findings in text "
        "output\n"
        "  --quiet               suppress the text report\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sflint::Config cfg;
    bool showSuppressed = false, quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--root") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "sflint: --root needs a value\n");
                return 2;
            }
            cfg.root = argv[++i];
        } else if (a == "--src") {
            while (i + 1 < argc && argv[i + 1][0] != '-')
                cfg.inputs.push_back(argv[++i]);
        } else if (a == "--show-suppressed") {
            showSuppressed = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (cfg.inputs.empty())
        return usage(argv[0]);

    try {
        sflint::AnalysisResult res = sflint::analyze(cfg);
        if (!quiet) {
            std::string text = sflint::renderText(res, showSuppressed);
            std::fwrite(text.data(), 1, text.size(), stdout);
        }
        for (const sflint::Finding &fd : res.findings) {
            if (!fd.suppressed)
                return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
}

/**
 * @file
 * sflint engine: deterministic file walk and two-stage analysis
 * (declaration registry across every file, then rules per file).
 */

#include "sflint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fs = std::filesystem;

namespace sflint {

namespace {

bool
sourceExtension(const fs::path &p)
{
    std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".hpp" ||
           e == ".h";
}

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        throw std::runtime_error("sflint: cannot read " + p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
relPath(const fs::path &p, const fs::path &root)
{
    return p.lexically_relative(root).generic_string();
}

} // namespace

AnalysisResult
analyze(const Config &cfg)
{
    fs::path root(cfg.root);
    std::vector<fs::path> files;
    for (const std::string &in : cfg.inputs) {
        fs::path p = root / in;
        if (fs::is_regular_file(p)) {
            files.push_back(p);
            continue;
        }
        if (!fs::is_directory(p))
            throw std::runtime_error("sflint: no such input: " +
                                     p.string());
        for (const auto &ent :
             fs::recursive_directory_iterator(p)) {
            if (ent.is_regular_file() && sourceExtension(ent.path()))
                files.push_back(ent.path());
        }
    }
    // The walk order of the filesystem is not guaranteed; sort so
    // the findings and the report are byte-stable.
    std::vector<std::string> rels;
    rels.reserve(files.size());
    for (const fs::path &p : files)
        rels.push_back(relPath(p, root));
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());

    std::vector<SourceFile> sources;
    sources.reserve(rels.size());
    for (const std::string &r : rels) {
        SourceFile sf;
        sf.path = r;
        lex(readFile(root / r), sf);
        sources.push_back(std::move(sf));
    }

    Registry reg;
    for (const SourceFile &sf : sources)
        collectDecls(sf, cfg, reg);

    AnalysisResult res;
    res.fileCount = static_cast<int>(sources.size());
    for (const SourceFile &sf : sources)
        runRules(sf, cfg, reg, res.findings);

    std::sort(res.findings.begin(), res.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.context < b.context;
              });
    return res;
}

} // namespace sflint

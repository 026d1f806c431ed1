/**
 * @file
 * remap-stats — query, diff and aggregate the JSON files the
 * simulator writes (System::dumpStatsJson dumps and run
 * manifests).
 *
 *   remap-stats show FILE [--only SUB]...
 *   remap-stats diff A B [--tolerance T]
 *                        [--only SUB]... [--ignore SUB]...
 *                        [--quiet] [--json]
 *   remap-stats aggregate FILE... [--only SUB]...
 *
 * Exit codes (machine-readable, for CI gates):
 *   0  success; for diff: no tolerance violation
 *   1  diff found at least one violation
 *   2  usage or I/O error
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "tools/stats_query.hh"

namespace
{

using remap::json::Value;
using remap::tools::Aggregate;
using remap::tools::DiffEntry;
using remap::tools::DiffOptions;
using remap::tools::DiffResult;
using remap::tools::FlatEntry;
using remap::tools::flatten;
using remap::tools::loadJsonFile;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s show FILE [--only SUB]...\n"
        "       %s diff A B [--tolerance T]\n"
        "                   [--only SUB]... [--ignore SUB]...\n"
        "                   [--quiet] [--json]\n"
        "       %s aggregate FILE... [--only SUB]... [--json]\n"
        "\n"
        "Operates on the JSON files the simulator writes: stats\n"
        "dumps and run manifests.\n"
        "\n"
        "diff exit codes: 0 = within tolerance, 1 = violation,\n"
        "2 = usage/IO error. Default tolerance 0.05 (5%% relative).\n"
        "--json replaces the text report with one machine-readable\n"
        "JSON object on stdout (exit codes unchanged).\n",
        argv0, argv0, argv0);
    return 2;
}

bool
matchesAny(const std::string &path,
           const std::vector<std::string> &subs)
{
    for (const std::string &s : subs)
        if (path.find(s) != std::string::npos)
            return true;
    return subs.empty();
}

int
cmdShow(const std::vector<std::string> &files,
        const std::vector<std::string> &only)
{
    if (files.size() != 1)
        return 2;
    Value root;
    std::string error;
    if (!loadJsonFile(files[0], root, &error)) {
        std::fprintf(stderr, "remap-stats: %s\n", error.c_str());
        return 2;
    }
    for (const auto &[path, e] : flatten(root)) {
        if (!matchesAny(path, only))
            continue;
        switch (e.kind) {
          case FlatEntry::Kind::Number:
            std::printf("%s = %.17g\n", path.c_str(), e.num);
            break;
          case FlatEntry::Kind::String:
            std::printf("%s = \"%s\"\n", path.c_str(),
                        e.str.c_str());
            break;
          case FlatEntry::Kind::Bool:
            std::printf("%s = %s\n", path.c_str(), e.str.c_str());
            break;
          case FlatEntry::Kind::Null:
            std::printf("%s = null\n", path.c_str());
            break;
        }
    }
    return 0;
}

int
cmdDiff(const std::vector<std::string> &files, const DiffOptions &opt,
        bool quiet, bool as_json)
{
    if (files.size() != 2)
        return 2;
    Value ra, rb;
    std::string error;
    if (!loadJsonFile(files[0], ra, &error) ||
        !loadJsonFile(files[1], rb, &error)) {
        std::fprintf(stderr, "remap-stats: %s\n", error.c_str());
        return 2;
    }
    const DiffResult res = diff(flatten(ra), flatten(rb), opt);

    if (as_json) {
        remap::json::Writer w(std::cout);
        remap::tools::dumpDiffJson(res, opt, w);
        std::cout << '\n';
    } else if (!quiet) {
        for (const DiffEntry &d : res.entries) {
            if (!d.note.empty()) {
                std::printf("  note  %s: %s\n", d.path.c_str(),
                            d.note.c_str());
                continue;
            }
            std::printf("%s %s: %.17g -> %.17g (%+.2f%%)\n",
                        d.violation ? "  FAIL " : "  drift",
                        d.path.c_str(), d.a, d.b, d.rel * 100.0);
        }
        std::printf("%zu paths compared, %zu violation%s "
                    "(tolerance %.2f%%), %zu note%s\n",
                    res.compared, res.violations,
                    res.violations == 1 ? "" : "s",
                    opt.tolerance * 100.0,
                    res.notes, res.notes == 1 ? "" : "s");
    }
    return res.violations > 0 ? 1 : 0;
}

int
cmdAggregate(const std::vector<std::string> &files,
             const std::vector<std::string> &only, bool as_json)
{
    if (files.empty())
        return 2;
    std::vector<std::map<std::string, FlatEntry>> runs;
    for (const std::string &f : files) {
        Value root;
        std::string error;
        if (!loadJsonFile(f, root, &error)) {
            std::fprintf(stderr, "remap-stats: %s\n", error.c_str());
            return 2;
        }
        runs.push_back(flatten(root));
    }
    const auto aggs = remap::tools::aggregate(runs);
    if (as_json) {
        remap::json::Writer w(std::cout);
        remap::tools::dumpAggregateJson(aggs, runs.size(), only, w);
        std::cout << '\n';
        return 0;
    }
    for (const auto &[path, agg] : aggs) {
        if (!matchesAny(path, only))
            continue;
        std::printf(
            "%s: n=%zu mean=%.17g min=%.17g max=%.17g\n",
            path.c_str(), agg.count, agg.mean(), agg.min, agg.max);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];

    DiffOptions opt;
    bool quiet = false;
    bool as_json = false;
    std::vector<std::string> files;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "remap-stats: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--tolerance") {
            const char *v = next();
            if (!v)
                return 2;
            char *end = nullptr;
            opt.tolerance = std::strtod(v, &end);
            if (end == v || opt.tolerance < 0) {
                std::fprintf(stderr,
                             "remap-stats: bad tolerance '%s'\n", v);
                return 2;
            }
        } else if (arg == "--only") {
            const char *v = next();
            if (!v)
                return 2;
            opt.only.push_back(v);
        } else if (arg == "--ignore") {
            const char *v = next();
            if (!v)
                return 2;
            opt.ignore.push_back(v);
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--json") {
            as_json = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "remap-stats: unknown option %s\n",
                         arg.c_str());
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }

    int rc;
    if (cmd == "show")
        rc = cmdShow(files, opt.only);
    else if (cmd == "diff")
        rc = cmdDiff(files, opt, quiet, as_json);
    else if (cmd == "aggregate")
        rc = cmdAggregate(files, opt.only, as_json);
    else
        return usage(argv[0]);
    return rc == 2 ? usage(argv[0]) : rc;
}

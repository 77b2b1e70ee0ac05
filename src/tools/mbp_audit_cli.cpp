/**
 * @file
 * mbp_audit: the storage-budget auditor. Walks the roster (or a named
 * subset), derives every predictor's storage cost from its declared
 * ComponentInfo tree — the one storage declaration a predictor makes —
 * and prints a paper-Table-II-style budget report (text table by
 * default, JSON with --json). With --budget it doubles as the
 * championship budget gate: any predictor over the cap fails the run.
 *
 * Usage:
 *   mbp_audit [flags] [predictor...]
 *   mbp_audit list
 *
 * Flags (anywhere on the line):
 *   --json             emit the JSON report instead of the text table
 *   --no-components    omit per-component trees from the JSON report
 *   --budget N         flag predictors whose storage exceeds N bits
 *   --budget-kib N     same, with the cap given in KiB (CBP-style 64/8)
 *
 * Exit codes (the shared tool convention):
 *   0 — every audited predictor passes (and fits the budget, if given);
 *   1 — audit failures: a predictor that declares no component tree
 *       (unreported storage), or one over the budget;
 *   2 — usage errors: unknown flag or flag value, unknown predictor.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mbp/audit/audit.hpp"
#include "mbp/predictors/roster.hpp"
#include "mbp/tools/cli.hpp"

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [flags] [predictor...]\n"
        "       %s list\n"
        "flags: --json | --no-components | --budget <bits> | "
        "--budget-kib <kib>\n",
        prog, prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool as_json = false;
    mbp::audit::Options options;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            as_json = true;
        } else if (std::strcmp(argv[i], "--no-components") == 0) {
            options.include_components = false;
        } else if (std::strcmp(argv[i], "--budget") == 0) {
            if (i + 1 >= argc ||
                !mbp::tools::parseCount(argv[++i], options.budget_bits) ||
                options.budget_bits == 0) {
                std::fprintf(stderr, "invalid --budget value\n");
                return usage(argv[0]);
            }
        } else if (std::strcmp(argv[i], "--budget-kib") == 0) {
            std::uint64_t kib = 0;
            if (i + 1 >= argc ||
                !mbp::tools::parseCount(argv[++i], kib) || kib == 0 ||
                kib > (std::uint64_t(1) << 50)) {
                std::fprintf(stderr, "invalid --budget-kib value\n");
                return usage(argv[0]);
            }
            options.budget_bits = kib * 8192;
        } else if (argv[i][0] == '-' && argv[i][1] == '-') {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage(argv[0]);
        } else {
            pos.push_back(argv[i]);
        }
    }

    if (!pos.empty() && std::strcmp(pos[0], "list") == 0) {
        for (const std::string &name : mbp::pred::rosterNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    // A typo'd predictor name is a usage error, not an audit failure.
    std::vector<std::string> names;
    for (const char *name : pos) {
        if (mbp::pred::makeByName(name) == nullptr) {
            std::fprintf(stderr,
                         "unknown predictor '%s' (try '%s list')\n", name,
                         argv[0]);
            return 2;
        }
        names.emplace_back(name);
    }

    std::vector<mbp::audit::Entry> entries =
        names.empty() ? mbp::audit::auditRoster()
                      : mbp::audit::auditByNames(names);
    mbp::json_t document = mbp::audit::report(entries, options);

    if (as_json)
        std::printf("%s\n", document.dump(2).c_str());
    else
        std::fputs(mbp::audit::renderTable(document).c_str(), stdout);

    bool failed = !mbp::audit::clean(entries);
    const mbp::json_t *over =
        document.find("summary")->find("over_budget");
    if (over != nullptr && over->asUint() != 0)
        failed = true;
    if (failed)
        std::fprintf(stderr, "storage audit failed (see report)\n");
    return failed ? 1 : 0;
}

/**
 * @file
 * mbp_fuzz: the differential/metamorphic fuzzing campaign of mbp::testkit
 * from the command line.
 *
 * Usage:
 *   mbp_fuzz [--seed N] [--streams N] [--max-branches N]
 *            [--predictors a,b,...] [--artifacts DIR]
 *            [--no-differential] [--no-metamorphic]
 *   mbp_fuzz --self-test [--seed N] [--streams N] [--artifacts DIR]
 *   mbp_fuzz list
 *
 * Prints the JSON campaign report. The run is a pure function of its
 * flags: same seed, same report, byte for byte.
 *
 * Exit codes (same convention as mbp_sim/mbp_sweep):
 *   0  no violations found (or, with --self-test, the planted bug was
 *      caught and shrunk)
 *   1  violations found (or the self-test failed to catch the bug)
 *   2  usage errors: unknown flag, bad value, unknown predictor name
 */
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "mbp/predictors/roster.hpp"
#include "mbp/testkit/fuzz.hpp"
#include "mbp/tools/cli.hpp"

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--seed N] [--streams N] [--max-branches N]\n"
        "          [--predictors a,b,...] [--artifacts DIR]\n"
        "          [--no-differential] [--no-metamorphic]\n"
        "       %s --self-test [--seed N] [--streams N] "
        "[--artifacts DIR]\n"
        "       %s list\n",
        prog, prog, prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mbp;

    testkit::FuzzOptions options;
    bool self_test = false;

    if (argc >= 2 && std::strcmp(argv[1], "list") == 0) {
        for (const testkit::DiffTarget &target :
             testkit::fuzzTargets(options))
            std::printf("%s\n", target.name.c_str());
        return 0;
    }

    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--seed") == 0) {
            const char *v = value("--seed");
            if (!v || !tools::parseCount(v, options.seed)) {
                std::fprintf(stderr, "invalid --seed value\n");
                return usage(argv[0]);
            }
        } else if (std::strcmp(argv[i], "--streams") == 0) {
            const char *v = value("--streams");
            std::uint64_t n = 0;
            if (!v || !tools::parseCount(v, n) || n == 0) {
                std::fprintf(stderr, "invalid --streams value\n");
                return usage(argv[0]);
            }
            options.num_streams = std::size_t(n);
        } else if (std::strcmp(argv[i], "--max-branches") == 0) {
            const char *v = value("--max-branches");
            std::uint64_t n = 0;
            if (!v || !tools::parseCount(v, n) || n < 64 || n > 1000000) {
                std::fprintf(stderr,
                             "invalid --max-branches value (64..1000000)\n");
                return usage(argv[0]);
            }
            options.max_branches = std::size_t(n);
        } else if (std::strcmp(argv[i], "--predictors") == 0) {
            const char *v = value("--predictors");
            if (!v)
                return usage(argv[0]);
            // Plain names feed the conditional metamorphic lane;
            // `frontend:NAME` entries feed the front-end lane (NAME being
            // the FrontEnd's conditional roster predictor).
            options.metamorphic_predictors.clear();
            options.frontend_predictors.clear();
            for (const std::string &entry : tools::splitCommaList(v)) {
                const bool is_frontend =
                    entry.rfind("frontend:", 0) == 0;
                const std::string name =
                    is_frontend ? entry.substr(9) : entry;
                if (pred::makeByName(name) == nullptr) {
                    std::fprintf(
                        stderr,
                        "unknown predictor '%s' in --predictors (try "
                        "'mbp_sim list')\n",
                        name.c_str());
                    return 2;
                }
                if (is_frontend)
                    options.frontend_predictors.push_back(name);
                else
                    options.metamorphic_predictors.push_back(name);
            }
        } else if (std::strcmp(argv[i], "--artifacts") == 0) {
            const char *v = value("--artifacts");
            if (!v)
                return usage(argv[0]);
            options.artifact_dir = v;
        } else if (std::strcmp(argv[i], "--no-differential") == 0) {
            options.differential = false;
        } else if (std::strcmp(argv[i], "--no-metamorphic") == 0) {
            options.metamorphic = false;
        } else if (std::strcmp(argv[i], "--self-test") == 0) {
            self_test = true;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            return usage(argv[0]);
        }
    }

    std::error_code dir_error;
    std::filesystem::create_directories(options.artifact_dir, dir_error);
    if (dir_error) {
        std::fprintf(stderr, "cannot create --artifacts dir '%s': %s\n",
                     options.artifact_dir.c_str(),
                     dir_error.message().c_str());
        return 2;
    }

    if (self_test) {
        // The fuzzer fuzzes itself: each lane's one planted bug (an
        // off-by-one predictor history, a stale-target BTB in the front
        // end's reference) must be caught and shrunk.
        options.metamorphic = false;
        options.differential = true;
        const std::vector<testkit::DiffTarget> planted = {
            testkit::brokenGshareTarget(), testkit::brokenFrontendTarget()};
        json_t report = testkit::runFuzz(options, planted);
        std::printf("%s\n", report.dump(2).c_str());
        std::set<std::string> caught;
        for (const json_t &f : report.find("failures")->elements())
            if (f.find("type")->asString() == "differential" &&
                f.find("shrunk_branches")->asUint() < 64)
                caught.insert(f.find("lane")->asString());
        std::string verdicts;
        bool all_caught = true;
        for (const testkit::DiffTarget &target : planted) {
            const std::string lane = testkit::laneName(target.lane);
            const bool hit = caught.count(lane) != 0;
            all_caught = all_caught && hit;
            verdicts += (verdicts.empty() ? "" : ", ") + lane + ": " +
                        (hit ? "caught" : "MISSED");
        }
        if (!all_caught) {
            std::fprintf(stderr,
                         "self-test FAILED: planted bugs not caught with "
                         "<64-branch witnesses (%s)\n",
                         verdicts.c_str());
            return 1;
        }
        std::fprintf(stderr, "self-test passed: planted bugs caught and "
                             "shrunk in every lane\n");
        return 0;
    }

    json_t report = testkit::runFuzz(options, testkit::fuzzTargets(options));
    std::printf("%s\n", report.dump(2).c_str());
    return report.find("ok")->asBool() ? 0 : 1;
}

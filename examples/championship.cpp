/**
 * @file
 * Championship-style evaluation: run the whole examples-library roster
 * over a training suite as one mbp::sweep campaign and print a
 * leaderboard — the workflow the CBPs and most papers use (average MPKI
 * over the trace set), here taking seconds instead of hours because of
 * the fast simulator (paper §VII-B: "the user can perform a couple of
 * short and quick simulations with a set of 4 to 10 traces to reevaluate
 * their design").
 *
 *   ./championship [scale]   (default 0.05: ~8M instructions per trace)
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "mbp/predictors/all.hpp"
#include "mbp/sweep/sweep.hpp"
#include "mbp/tools/corpus.hpp"
#include "mbp/tracegen/suite.hpp"

int
main(int argc, char **argv)
{
    using namespace mbp;
    using namespace mbp::pred;
    double scale = argc > 1 ? std::atof(argv[1]) : 0.05;

    auto suite = tracegen::cbp5TrainMini(scale);
    tools::CorpusFormats formats;
    formats.sbbt_flz = true;
    std::printf("materializing %zu traces (cached under ./traces_corpus)"
                "...\n\n",
                suite.size());
    auto entries = tools::materialize("traces_corpus", suite, formats);
    std::vector<std::string> traces;
    for (const auto &entry : entries)
        traces.push_back(entry.sbbt_flz);

    struct Contender
    {
        std::string name;
        double amean_mpki = 0.0;
        double seconds = 0.0;
    };
    sweep::Campaign campaign;
    campaign.traces = traces;
    auto enter = [&](const char *name, auto make) {
        campaign.predictors.push_back({name, make, nullptr});
    };
    enter("Bimodal", [] { return std::make_unique<Bimodal<16>>(); });
    enter("GAs two-level", [] { return std::make_unique<GAs<13, 4>>(); });
    enter("GShare", [] { return std::make_unique<Gshare<15, 17>>(); });
    enter("Agree", [] { return std::make_unique<Agree<15, 16>>(); });
    enter("Bi-Mode", [] { return std::make_unique<BiMode<15, 15>>(); });
    enter("YAGS", [] { return std::make_unique<Yags<13, 13>>(); });
    enter("Tournament", [] {
        return std::make_unique<TournamentPred>(
            std::make_unique<Bimodal<15>>(), std::make_unique<Bimodal<16>>(),
            std::make_unique<Gshare<15, 16>>());
    });
    enter("2bc-gskew", [] { return std::make_unique<Gskew2bc<17, 16>>(); });
    enter("Hashed Perceptron",
          [] { return std::make_unique<HashedPerceptron<8, 12, 128>>(); });
    enter("Loop + GShare", [] {
        return std::make_unique<LoopOverride>(
            std::make_unique<Gshare<15, 17>>());
    });
    enter("TAGE", [] { return std::make_unique<Tage>(); });
    enter("BATAGE", [] { return std::make_unique<Batage>(); });
    enter("TAGE-SC-L (lite)", [] { return std::make_unique<TageScl>(); });

    // Every (predictor, trace) cell gets its own fresh predictor on the
    // sweep's worker pool, and each trace is decoded once for all of
    // them, so results are identical to a sequential run. Only possible
    // because the user program owns execution.
    const json_t result = sweep::run(campaign);
    const json_t &per_predictor =
        *result.find("aggregate")->find("per_predictor");
    const json_t &cells = *result.find("cells");
    std::vector<Contender> roster;
    for (std::size_t p = 0; p < per_predictor.size(); ++p) {
        Contender contender;
        contender.name = per_predictor[p].find("predictor")->asString();
        contender.amean_mpki =
            per_predictor[p].find("amean_mpki")->asDouble();
        // Cells are predictor-major: traces.size() per predictor.
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const json_t &cell = *cells[p * traces.size() + t].find("result");
            if (const json_t *metrics = cell.find("metrics"))
                contender.seconds +=
                    metrics->find("simulation_time")->asDouble();
        }
        std::printf("  evaluated %-20s %8.4f MPKI  (%.2f s)\n",
                    contender.name.c_str(), contender.amean_mpki,
                    contender.seconds);
        roster.push_back(contender);
    }

    std::sort(roster.begin(), roster.end(),
              [](const Contender &a, const Contender &b) {
                  return a.amean_mpki < b.amean_mpki;
              });
    std::printf("\nLeaderboard (arithmetic-mean MPKI over %zu traces):\n",
                traces.size());
    std::printf("%-4s %-22s %10s %10s\n", "#", "Predictor", "MPKI",
                "sim time");
    for (std::size_t i = 0; i < roster.size(); ++i)
        std::printf("%-4zu %-22s %10.4f %9.2fs\n", i + 1,
                    roster[i].name.c_str(), roster[i].amean_mpki,
                    roster[i].seconds);
    return 0;
}

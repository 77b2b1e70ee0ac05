/**
 * @file
 * Exit-code and argv contract tests for the installed binaries (mbp_sim,
 * mbp_sweep, mbp_fuzz, mbp_audit), run as real subprocesses. The
 * documented convention (README "Command-line tools", TESTING.md):
 *
 *   exit 2 — usage errors: bad flag value, unknown flag, unknown
 *            predictor name, unreadable trace path;
 *   exit 1 — runtime failures: a corrupt-but-openable trace, a failing
 *            sweep cell, fuzz violations;
 *   exit 0 — success.
 *
 * Every usage error must name the offending flag (or path) on stderr.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/wait.h>

#include "mbp/sbbt/writer.hpp"
#include "test_tmp.hpp"

namespace
{

struct RunResult
{
    int exit_code = -1;
    std::string out;
    std::string err;
};

/** @return The contents of the file at @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Runs @p command, capturing its exit code, stdout and stderr. */
RunResult
run(const std::string &command)
{
    static int counter = 0;
    const std::string prefix = mbp::test::tempDir() + "/cli-death-" +
                               std::to_string(counter++);
    RunResult result;
    const std::string full = command + " >" + prefix + "-stdout.txt 2>" +
                             prefix + "-stderr.txt";
    int status = std::system(full.c_str());
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.out = slurp(prefix + "-stdout.txt");
    result.err = slurp(prefix + "-stderr.txt");
    return result;
}

std::string
quoted(const std::string &path)
{
    return "'" + path + "'";
}

/** A tiny but valid SBBT trace. */
std::string
validTrace()
{
    static std::string path;
    if (!path.empty())
        return path;
    path = mbp::test::tempDir() + "/cli-death-valid.sbbt";
    mbp::sbbt::SbbtWriter writer(path);
    for (int i = 0; i < 32; ++i)
        writer.append(mbp::Branch{0x500000ull + std::uint64_t(i % 4) * 16,
                                  0x500100ull, mbp::OpCode::condJump(),
                                  (i & 1) != 0},
                      3);
    EXPECT_TRUE(writer.close()) << writer.error();
    return path;
}

/** A file that opens fine but is not an SBBT trace. */
std::string
corruptTrace()
{
    static std::string path;
    if (!path.empty())
        return path;
    path = mbp::test::tempDir() + "/cli-death-corrupt.sbbt";
    std::ofstream out(path, std::ios::binary);
    out << "this is not a branch trace at all, sorry";
    return path;
}

} // namespace

// ---------------------------------------------------------------------------
// mbp_sim

TEST(SimCli, NoArgumentsIsUsageError)
{
    EXPECT_EQ(run(MBP_SIM_BIN).exit_code, 2);
}

TEST(SimCli, UnknownPredictorExits2)
{
    auto r = run(std::string(MBP_SIM_BIN) + " no-such-predictor " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown predictor"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("no-such-predictor"), std::string::npos) << r.err;
}

TEST(SimCli, UnreadableTraceExits2AndNamesThePath)
{
    auto r = run(std::string(MBP_SIM_BIN) +
                 " bimodal /no/such/dir/missing.sbbt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("cannot read trace"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("/no/such/dir/missing.sbbt"), std::string::npos)
        << r.err;
}

TEST(SimCli, BadInstructionCountExits2)
{
    auto r = run(std::string(MBP_SIM_BIN) + " bimodal " +
                 quoted(validTrace()) + " not-a-number");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("not-a-number"), std::string::npos) << r.err;
}

TEST(SimCli, CorruptTraceIsRuntimeFailureExit1)
{
    auto r = run(std::string(MBP_SIM_BIN) + " bimodal " +
                 quoted(corruptTrace()));
    EXPECT_EQ(r.exit_code, 1);
}

TEST(SimCli, ValidRunExits0)
{
    auto r = run(std::string(MBP_SIM_BIN) + " bimodal " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(SimCli, FrontendRunExits0)
{
    auto r = run(std::string(MBP_SIM_BIN) +
                 " --frontend=btb-sets=64,ras=8 gshare " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 0) << r.err;
    auto defaults = run(std::string(MBP_SIM_BIN) + " --frontend bimodal " +
                        quoted(validTrace()));
    EXPECT_EQ(defaults.exit_code, 0) << defaults.err;
    auto virtual_direction =
        run(std::string(MBP_SIM_BIN) + " --no-fused --frontend tage " +
            quoted(validTrace()));
    EXPECT_EQ(virtual_direction.exit_code, 0) << virtual_direction.err;
}

TEST(SimCli, BadFrontendSpecExits2AndNamesTheFlag)
{
    auto r = run(std::string(MBP_SIM_BIN) + " --frontend=btb-sets=100"
                                            " bimodal " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frontend"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("btb-sets"), std::string::npos) << r.err;
}

TEST(SimCli, FrontendWithCompareModeExits2)
{
    auto r = run(std::string(MBP_SIM_BIN) + " --frontend compare bimodal"
                                            " gshare " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frontend"), std::string::npos) << r.err;
}

// ---------------------------------------------------------------------------
// mbp_sweep

TEST(SweepCli, BadJobsValueExits2AndNamesTheFlag)
{
    for (const char *bad : {"0", "abc", "99999"}) {
        auto r = run(std::string(MBP_SWEEP_BIN) +
                     " --predictors bimodal --traces " +
                     quoted(validTrace()) + " --jobs " + bad);
        EXPECT_EQ(r.exit_code, 2) << "--jobs " << bad;
        EXPECT_NE(r.err.find("--jobs"), std::string::npos) << r.err;
    }
}

TEST(SweepCli, UnknownPredictorExits2)
{
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors no-such-predictor --traces " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown predictor"), std::string::npos) << r.err;
}

TEST(SweepCli, UnreadableTraceExits2AndNamesTheFlag)
{
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors bimodal --traces /no/such/trace.sbbt");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("cannot read trace"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--traces"), std::string::npos) << r.err;
}

TEST(SweepCli, UnknownFlagExits2)
{
    auto r = run(std::string(MBP_SWEEP_BIN) + " --frobnicate");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frobnicate"), std::string::npos) << r.err;
}

TEST(SweepCli, FailingCellExits1)
{
    // A readable-but-corrupt trace fails mid-campaign: the run completes
    // (failure isolation) and reports via the exit code.
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors bimodal --traces " +
                 quoted(corruptTrace()) + " --jobs 1");
    EXPECT_EQ(r.exit_code, 1) << r.err;
}

TEST(SweepCli, ValidCampaignExits0)
{
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors bimodal,gshare --traces " +
                 quoted(validTrace()) + " --jobs 2");
    EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(SweepCli, FrontendCampaignExits0)
{
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors bimodal,gshare --traces " +
                 quoted(validTrace()) + " --jobs 2 --frontend=ras=8");
    EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(SweepCli, BadFrontendSpecExits2AndNamesTheFlag)
{
    auto r = run(std::string(MBP_SWEEP_BIN) +
                 " --predictors bimodal --traces " + quoted(validTrace()) +
                 " --frontend=ras=0");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frontend"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("ras"), std::string::npos) << r.err;
}

// ---------------------------------------------------------------------------
// mbp_fuzz

TEST(FuzzCli, BadStreamsValueExits2AndNamesTheFlag)
{
    auto r = run(std::string(MBP_FUZZ_BIN) + " --streams 0");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--streams"), std::string::npos) << r.err;
}

TEST(FuzzCli, UnknownPredictorExits2AndNamesTheFlag)
{
    auto r = run(std::string(MBP_FUZZ_BIN) +
                 " --predictors no-such-predictor");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--predictors"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("no-such-predictor"), std::string::npos) << r.err;
}

TEST(FuzzCli, UnknownFlagExits2)
{
    auto r = run(std::string(MBP_FUZZ_BIN) + " --zap");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--zap"), std::string::npos) << r.err;
}

TEST(FuzzCli, UnknownFrontendPredictorExits2AndNamesIt)
{
    auto r = run(std::string(MBP_FUZZ_BIN) +
                 " --predictors frontend:no-such-predictor");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--predictors"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("no-such-predictor"), std::string::npos) << r.err;
}

TEST(FuzzCli, ListNamesEveryLanesTargets)
{
    auto r = run(std::string(MBP_FUZZ_BIN) + " list");
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(r.out, "bimodal-vs-ref\n"
                     "gshare-vs-ref\n"
                     "tage-lite-vs-ref\n"
                     "frontend-gshare-default-vs-ref\n"
                     "frontend-gshare-small-vs-ref\n");
}

TEST(FuzzCli, SelfTestCatchesAndExits0)
{
    auto r = run(std::string(MBP_FUZZ_BIN) +
                 " --self-test --seed 11 --streams 4 --artifacts " +
                 quoted(mbp::test::tempDir() + "/fuzz-cli-selftest"));
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_NE(r.err.find("self-test passed"), std::string::npos) << r.err;
}

// ---------------------------------------------------------------------------
// mbp_audit

TEST(AuditCli, CleanRosterExits0)
{
    EXPECT_EQ(run(MBP_AUDIT_BIN).exit_code, 0);
    EXPECT_EQ(run(std::string(MBP_AUDIT_BIN) + " --json").exit_code, 0);
}

TEST(AuditCli, ListExits0)
{
    EXPECT_EQ(run(std::string(MBP_AUDIT_BIN) + " list").exit_code, 0);
}

TEST(AuditCli, OverBudgetIsAuditFailureExit1)
{
    // Every sized predictor is over a 1-bit budget; the budget gate is a
    // failed audit (exit 1), not a usage error.
    auto r = run(std::string(MBP_AUDIT_BIN) + " --budget 1");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("storage audit failed"), std::string::npos)
        << r.err;
}

TEST(AuditCli, GenerousBudgetExits0)
{
    // 1 MiB: the roster's ~64 kB-class predictors all fit.
    auto r = run(std::string(MBP_AUDIT_BIN) + " --budget-kib 1024");
    EXPECT_EQ(r.exit_code, 0) << r.err;
}

TEST(AuditCli, UnknownPredictorExits2)
{
    auto r = run(std::string(MBP_AUDIT_BIN) + " no-such-predictor");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown predictor"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("no-such-predictor"), std::string::npos) << r.err;
}

TEST(AuditCli, UnknownFlagExits2)
{
    auto r = run(std::string(MBP_AUDIT_BIN) + " --frobnicate");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frobnicate"), std::string::npos) << r.err;
}

TEST(AuditCli, BadBudgetValueExits2)
{
    for (const char *bad : {"0", "abc", "-3"}) {
        auto r =
            run(std::string(MBP_AUDIT_BIN) + " --budget " + bad);
        EXPECT_EQ(r.exit_code, 2) << "--budget " << bad;
        EXPECT_NE(r.err.find("--budget"), std::string::npos) << r.err;
    }
}

// ---------------------------------------------------------------------------
// mbp_arena

TEST(ArenaCli, NoArgumentsIsUsageError)
{
    EXPECT_EQ(run(MBP_ARENA_BIN).exit_code, 2);
}

TEST(ArenaCli, UnknownCommandExits2)
{
    EXPECT_EQ(run(std::string(MBP_ARENA_BIN) + " frobnicate").exit_code, 2);
}

TEST(ArenaCli, UnknownFlagExits2AndNamesIt)
{
    auto r = run(std::string(MBP_ARENA_BIN) + " --frobnicate materialize x");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("--frobnicate"), std::string::npos) << r.err;
}

TEST(ArenaCli, MaterializeThenVerifyExits0)
{
    const std::string dir =
        quoted(mbp::test::tempDir() + "/cli-death-arena-store");
    auto materialize = run(std::string(MBP_ARENA_BIN) + " --dir " + dir +
                           " materialize " + quoted(validTrace()));
    EXPECT_EQ(materialize.exit_code, 0) << materialize.err;
    auto verify = run(std::string(MBP_ARENA_BIN) + " --dir " + dir +
                      " verify " + quoted(validTrace()));
    EXPECT_EQ(verify.exit_code, 0) << verify.err;
}

TEST(ArenaCli, VerifyWithoutSidecarIsUnhealthyExit1)
{
    const std::string dir =
        quoted(mbp::test::tempDir() + "/cli-death-arena-empty");
    auto r = run(std::string(MBP_ARENA_BIN) + " --dir " + dir + " verify " +
                 quoted(validTrace()));
    EXPECT_EQ(r.exit_code, 1) << r.err;
}

TEST(ArenaCli, MaterializeCorruptTraceIsUnhealthyExit1)
{
    const std::string dir =
        quoted(mbp::test::tempDir() + "/cli-death-arena-corrupt");
    auto r = run(std::string(MBP_ARENA_BIN) + " --dir " + dir +
                 " materialize " + quoted(corruptTrace()));
    EXPECT_EQ(r.exit_code, 1) << r.err;
}

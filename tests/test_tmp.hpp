/**
 * @file
 * Per-test scratch directories for the test binaries.
 *
 * ctest runs every discovered test in a process of its own and, under
 * `ctest -j`, runs tests of one fixture at the same time. Fixed file
 * names under testing::TempDir() then collide across those processes:
 * one test truncates the trace another is reading. tempDir() instead
 * names a directory after the running test (the test suite inside
 * SetUpTestSuite) and the process id, so no two processes share one.
 * Each process removes the directories it created when it exits.
 */
#ifndef MBP_TESTS_TEST_TMP_HPP
#define MBP_TESTS_TEST_TMP_HPP

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <mutex>
#include <set>
#include <string>

namespace mbp::test
{

namespace detail
{

/** The directories this process created, removed at its exit. */
struct TempDirs
{
    pid_t owner = ::getpid();
    std::mutex mutex;
    std::set<std::string> dirs;

    ~TempDirs()
    {
        // A forked child (death tests) inherits the set but must leave
        // its parent's directories alone.
        if (::getpid() != owner)
            return;
        std::error_code ec;
        for (const std::string &dir : dirs)
            std::filesystem::remove_all(dir, ec);
    }
};

inline TempDirs &
tempDirs()
{
    static TempDirs dirs;
    return dirs;
}

} // namespace detail

/**
 * @return This process's scratch directory for the running test (no
 *         trailing slash), created on first use.
 */
inline std::string
tempDir()
{
    const testing::UnitTest &unit = *testing::UnitTest::GetInstance();
    std::string name = "global";
    if (const testing::TestInfo *info = unit.current_test_info())
        name = std::string(info->test_suite_name()) + "." + info->name();
    else if (const testing::TestSuite *suite = unit.current_test_suite())
        name = suite->name();
    for (char &c : name)
        if (c == '/')
            c = '_'; // parameterized names contain slashes
    std::string dir = testing::TempDir();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    dir += "mbp-" + name + "-" + std::to_string(::getpid());

    detail::TempDirs &dirs = detail::tempDirs();
    std::lock_guard<std::mutex> lock(dirs.mutex);
    if (dirs.dirs.insert(dir).second)
        std::filesystem::create_directories(dir);
    return dir;
}

} // namespace mbp::test

#endif // MBP_TESTS_TEST_TMP_HPP

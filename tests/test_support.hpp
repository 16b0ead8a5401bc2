/**
 * @file
 * Shared test helpers. ctest runs every gtest case as its own process,
 * many at once under -j, so no two cases may share a path on disk.
 */

#ifndef YOUTIAO_TESTS_TEST_SUPPORT_HPP
#define YOUTIAO_TESTS_TEST_SUPPORT_HPP

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>
#include <unistd.h>

namespace youtiao {

/**
 * An empty scratch directory owned by the running test,
 * <gtest temp dir>/<Suite>.<Test>.<pid>: created on construction and
 * removed, contents and all, on destruction. The test name keeps
 * concurrent cases apart; the pid keeps concurrent runs of one case
 * apart.
 */
class TestDir
{
  public:
    TestDir()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = info != nullptr
                               ? std::string(info->test_suite_name()) +
                                     "." + info->name()
                               : "no_test";
        for (char &c : name) {
            if (c == '/') // parameterized test names
                c = '_';
        }
        path_ = (std::filesystem::path(::testing::TempDir()) /
                 (name + "." + std::to_string(::getpid())))
                    .string();
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
        std::filesystem::create_directories(path_);
    }

    ~TestDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TestDir(const TestDir &) = delete;
    TestDir &operator=(const TestDir &) = delete;

    const std::string &path() const { return path_; }

    /** Path of @p name inside the directory. */
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

} // namespace youtiao

#endif // YOUTIAO_TESTS_TEST_SUPPORT_HPP

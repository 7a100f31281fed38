#ifndef RDFA_TESTS_TEST_TEMP_PATH_H_
#define RDFA_TESTS_TEST_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace rdfa::testing_util {

/// A path under ::testing::TempDir() that no other test process can share:
/// `name` prefixed with the pid and the running test's suite and name.
/// ctest runs every TEST as its own process, so under `ctest -j` a fixed
/// temp path would be truncated by one process while another has it open
/// or mapped.
inline std::string TestTempPath(const std::string& name) {
  std::string prefix = std::to_string(::getpid());
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    prefix += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : prefix) {
    if (c == '/') c = '_';  // parameterized suite and test names
  }
  return ::testing::TempDir() + prefix + "_" + name;
}

}  // namespace rdfa::testing_util

#endif  // RDFA_TESTS_TEST_TEMP_PATH_H_

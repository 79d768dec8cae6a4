#include "common/logging.h"

#include <string>

#include <gtest/gtest.h>

namespace mroam::common {
namespace {

TEST(ParseLogLevelTest, ParsesEveryCanonicalName) {
  LogLevel level = LogLevel::kError;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("info", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(ParseLogLevelTest, AcceptsWarnAlias) {
  LogLevel level = LogLevel::kDebug;
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
}

TEST(ParseLogLevelTest, IsCaseInsensitive) {
  LogLevel level = LogLevel::kDebug;
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("eRrOr", &level));
  EXPECT_EQ(level, LogLevel::kError);
}

TEST(ParseLogLevelTest, RejectsUnknownTextAndLeavesLevelUntouched) {
  LogLevel level = LogLevel::kWarning;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_FALSE(ParseLogLevel("2", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  // Whitespace and decoration are not trimmed: the env var must be exact.
  EXPECT_FALSE(ParseLogLevel(" info", &level));
  EXPECT_FALSE(ParseLogLevel("info ", &level));
  EXPECT_FALSE(ParseLogLevel("log-info", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
}

TEST(MinLogLevelTest, FilteredMessageEvaluatesNoOperand) {
  const LogLevel original = MinLogLevel();
  int touches = 0;
  auto touch = [&touches] {
    ++touches;
    return "touched";
  };
  SetMinLogLevel(LogLevel::kWarning);
  testing::internal::CaptureStderr();
  MROAM_LOG(Debug) << touch();
  MROAM_LOG(Info) << touch() << touch();
  EXPECT_EQ(touches, 0);
  MROAM_LOG(Warning) << touch();
  EXPECT_EQ(touches, 1);
  // One expression: an unbraced if/else binds as written.
  const bool failed = true;
  if (!failed) MROAM_LOG(Error) << touch();
  EXPECT_EQ(touches, 1);
  if (failed) MROAM_LOG(Error) << touch(); else touches += 100;
  EXPECT_EQ(touches, 2);
  const std::string emitted = testing::internal::GetCapturedStderr();
  SetMinLogLevel(original);
  EXPECT_EQ(emitted.find("[D "), std::string::npos) << emitted;
  EXPECT_EQ(emitted.find("[I "), std::string::npos) << emitted;
  EXPECT_NE(emitted.find("[W common_logging_test.cpp:"), std::string::npos)
      << emitted;
  EXPECT_NE(emitted.find("[E common_logging_test.cpp:"), std::string::npos)
      << emitted;
}

TEST(MinLogLevelTest, SetterRoundTrips) {
  LogLevel original = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SetMinLogLevel(original);
  EXPECT_EQ(MinLogLevel(), original);
}

}  // namespace
}  // namespace mroam::common

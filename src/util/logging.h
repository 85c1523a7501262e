// Always-on CHECK macro with stream syntax:
//
//   SLAMPRED_CHECK(rows > 0) << "empty matrix";
//
// A failed check prints "[FATAL file:line] Check failed: <cond> <context>"
// to stderr and aborts the process, in release builds too.

#ifndef SLAMPRED_UTIL_LOGGING_H_
#define SLAMPRED_UTIL_LOGGING_H_

#include <sstream>

namespace slampred {
namespace internal {

/// One failed check: accumulates the message, then prints it and aborts
/// on destruction.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  template <typename T>
  FatalMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace slampred

// The if/else form lets callers stream context: SLAMPRED_CHECK(x) << "msg".
#define SLAMPRED_CHECK(cond)                                        \
  if (cond) {                                                       \
  } else                                                            \
    ::slampred::internal::FatalMessage(__FILE__, __LINE__)          \
        << "Check failed: " #cond " "

#endif  // SLAMPRED_UTIL_LOGGING_H_

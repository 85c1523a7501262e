#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace slampred {
namespace internal {

FatalMessage::FatalMessage(const char* file, int line) {
  // Strip leading directories for readability.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace slampred

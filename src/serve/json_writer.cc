#include "serve/json_writer.h"

#include <cmath>
#include <cstdio>

namespace skyex::serve::json {

Writer& Writer::Number(double value) {
  if (!std::isfinite(value)) return Null();  // JSON has no inf/nan
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      std::fabs(value) < 1e15) {
    return Int(static_cast<int64_t>(value));
  }
  Prefix();
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out_ += buffer;
  return *this;
}

}  // namespace skyex::serve::json

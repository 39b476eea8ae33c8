#include "text/normalize.h"

#include <cstdint>

#include "text/char_class.h"

namespace skyex::text {

namespace {

// Returns the ASCII replacement for a Unicode code point, or nullptr when
// the code point has no mapping (it is then dropped).
const char* AsciiFold(uint32_t cp) {
  switch (cp) {
    case 0x00C0: case 0x00C1: case 0x00C2: case 0x00C3: case 0x00C4:
    case 0x00E0: case 0x00E1: case 0x00E2: case 0x00E3: case 0x00E4:
    case 0x0100: case 0x0101: case 0x0102: case 0x0103: case 0x0104:
    case 0x0105:
      return "a";
    case 0x00C5: case 0x00E5:
      return "aa";  // Danish å
    case 0x00C6: case 0x00E6:
      return "ae";  // Danish æ
    case 0x00C7: case 0x00E7: case 0x0106: case 0x0107: case 0x010C:
    case 0x010D:
      return "c";
    case 0x010E: case 0x010F: case 0x0110: case 0x0111:
      return "d";
    case 0x00C8: case 0x00C9: case 0x00CA: case 0x00CB:
    case 0x00E8: case 0x00E9: case 0x00EA: case 0x00EB:
    case 0x0112: case 0x0113: case 0x0118: case 0x0119: case 0x011A:
    case 0x011B:
      return "e";
    case 0x011E: case 0x011F:
      return "g";
    case 0x00CC: case 0x00CD: case 0x00CE: case 0x00CF:
    case 0x00EC: case 0x00ED: case 0x00EE: case 0x00EF:
    case 0x012A: case 0x012B: case 0x0130: case 0x0131:
      return "i";
    case 0x0141: case 0x0142:
      return "l";
    case 0x00D1: case 0x00F1: case 0x0143: case 0x0144: case 0x0147:
    case 0x0148:
      return "n";
    case 0x00D2: case 0x00D3: case 0x00D4: case 0x00D5: case 0x00D6:
    case 0x00F2: case 0x00F3: case 0x00F4: case 0x00F5: case 0x00F6:
    case 0x014C: case 0x014D: case 0x0150: case 0x0151:
      return "o";
    case 0x00D8: case 0x00F8:
      return "oe";  // Danish ø
    case 0x0154: case 0x0155: case 0x0158: case 0x0159:
      return "r";
    case 0x015A: case 0x015B: case 0x015E: case 0x015F: case 0x0160:
    case 0x0161:
      return "s";
    case 0x00DF:
      return "ss";  // German ß
    case 0x0162: case 0x0163: case 0x0164: case 0x0165:
      return "t";
    case 0x00D9: case 0x00DA: case 0x00DB: case 0x00DC:
    case 0x00F9: case 0x00FA: case 0x00FB: case 0x00FC:
    case 0x016A: case 0x016B: case 0x016E: case 0x016F: case 0x0170:
    case 0x0171:
      return "u";
    case 0x00DD: case 0x00FD: case 0x00FF: case 0x0178:
      return "y";
    case 0x0179: case 0x017A: case 0x017B: case 0x017C: case 0x017D:
    case 0x017E:
      return "z";
    case 0x00D0: case 0x00F0:
      return "d";  // Icelandic ð
    case 0x00DE: case 0x00FE:
      return "th";  // Icelandic þ
    default:
      return nullptr;
  }
}

// Decodes one UTF-8 code point starting at input[i]; advances i past it.
// Malformed bytes are consumed one at a time and returned as-is.
uint32_t DecodeUtf8(std::string_view input, size_t& i) {
  const auto byte = [&](size_t k) -> uint32_t {
    return static_cast<unsigned char>(input[k]);
  };
  uint32_t b0 = byte(i);
  if (b0 < 0x80) {
    ++i;
    return b0;
  }
  if ((b0 & 0xE0) == 0xC0 && i + 1 < input.size()) {
    uint32_t cp = ((b0 & 0x1F) << 6) | (byte(i + 1) & 0x3F);
    i += 2;
    return cp;
  }
  if ((b0 & 0xF0) == 0xE0 && i + 2 < input.size()) {
    uint32_t cp = ((b0 & 0x0F) << 12) | ((byte(i + 1) & 0x3F) << 6) |
                  (byte(i + 2) & 0x3F);
    i += 3;
    return cp;
  }
  if ((b0 & 0xF8) == 0xF0 && i + 3 < input.size()) {
    uint32_t cp = ((b0 & 0x07) << 18) | ((byte(i + 1) & 0x3F) << 12) |
                  ((byte(i + 2) & 0x3F) << 6) | (byte(i + 3) & 0x3F);
    i += 4;
    return cp;
  }
  ++i;
  return b0;
}

}  // namespace

std::string FoldAccents(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  size_t i = 0;
  while (i < input.size()) {
    uint32_t cp = DecodeUtf8(input, i);
    if (cp < 0x80) {
      out.push_back(ToLower(static_cast<unsigned char>(cp)));
    } else if (const char* rep = AsciiFold(cp)) {
      out += rep;
    }
    // Unmapped non-ASCII code points are dropped.
  }
  return out;
}

std::string StripPunctuation(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (char c : input) {
    out.push_back(IsAlnum(static_cast<unsigned char>(c)) ? c : ' ');
  }
  return out;
}

std::string CollapseWhitespace(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  bool in_space = true;  // true so leading spaces are trimmed
  for (char c : input) {
    if (IsSpace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  if (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string Normalize(std::string_view input) {
  return CollapseWhitespace(StripPunctuation(FoldAccents(input)));
}

}  // namespace skyex::text

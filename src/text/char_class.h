#ifndef SKYEX_TEXT_CHAR_CLASS_H_
#define SKYEX_TEXT_CHAR_CLASS_H_

// The character classes of the "C" locale, inline. Nothing in the program
// calls setlocale, so <cctype> answers with these classes too, but through
// a call and a locale-table lookup per byte; the tokenizer and the
// normaliser classify every byte of every string they see. Bytes >= 0x80
// are in no class, as in the "C" locale. tests/text_test.cc pins all 256
// byte values against <cctype>.

namespace skyex::text {

/// isspace in the "C" locale: space, \t, \n, \v, \f, \r.
inline bool IsSpace(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// isalnum in the "C" locale: ASCII letters and digits.
inline bool IsAlnum(unsigned char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

/// tolower in the "C" locale: folds A-Z, returns every other byte as is.
inline char ToLower(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A') : c);
}

}  // namespace skyex::text

#endif  // SKYEX_TEXT_CHAR_CLASS_H_

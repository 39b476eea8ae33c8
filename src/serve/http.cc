#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace skyex::serve {

namespace {

using Clock = std::chrono::steady_clock;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left <= 0 ? 0 : static_cast<int>(std::min<long long>(left, 100));
}

bool Expired(Clock::time_point deadline) {
  return Clock::now() >= deadline;
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Splits a CRLF-terminated header block into a header map; false on a
/// malformed line. `first_line` receives the request/status line.
bool ParseHeaderBlock(std::string_view block, std::string* first_line,
                      std::map<std::string, std::string>* headers) {
  size_t pos = 0;
  bool first = true;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    if (first) {
      *first_line = std::string(line);
      first = false;
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    (*headers)[ToLower(std::string(Trim(line.substr(0, colon))))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  return !first;
}

/// Reads from `fd` into `buffer` until the header terminator appears,
/// then `body_len(headers_end)` more bytes are present. Returns a
/// ReadStatus; kOk leaves the full message (and possibly more) in
/// `buffer` with `*headers_end` just past the "\r\n\r\n".
ReadStatus ReadMessage(int fd, std::string* buffer, size_t* headers_end,
                       const HttpReadOptions& options,
                       size_t* content_length) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options.timeout_ms);
  char chunk[8192];
  // Phase 1: headers.
  size_t scanned = 0;
  for (;;) {
    const size_t from = scanned > 3 ? scanned - 3 : 0;
    const size_t end = buffer->find("\r\n\r\n", from);
    if (end != std::string::npos) {
      *headers_end = end + 4;
      break;
    }
    scanned = buffer->size();
    if (buffer->size() > options.max_header_bytes) {
      return ReadStatus::kMalformed;
    }
    if (Expired(deadline)) {
      return buffer->empty() ? ReadStatus::kClosed : ReadStatus::kTimeout;
    }
    if (buffer->empty() && options.abort_idle != nullptr &&
        options.abort_idle->load(std::memory_order_relaxed)) {
      return ReadStatus::kClosed;
    }
    const long n =
        ReadWithTimeout(fd, chunk, sizeof(chunk), RemainingMs(deadline));
    if (n == kIoError) return ReadStatus::kError;
    if (n == 0) {
      return buffer->empty() ? ReadStatus::kClosed : ReadStatus::kError;
    }
    if (n > 0) buffer->append(chunk, static_cast<size_t>(n));
  }
  // Phase 2: body (Content-Length only; no chunked support).
  std::string first_line;
  std::map<std::string, std::string> headers;
  if (!ParseHeaderBlock(std::string_view(*buffer).substr(0, *headers_end),
                        &first_line, &headers)) {
    return ReadStatus::kMalformed;
  }
  size_t body_len = 0;
  const auto it = headers.find("content-length");
  if (it != headers.end()) {
    char* endp = nullptr;
    const unsigned long long v = std::strtoull(it->second.c_str(), &endp, 10);
    if (endp == it->second.c_str() || *endp != '\0') {
      return ReadStatus::kMalformed;
    }
    body_len = static_cast<size_t>(v);
  } else if (headers.count("transfer-encoding") > 0) {
    return ReadStatus::kMalformed;
  }
  *content_length = body_len;
  if (body_len > options.max_body) return ReadStatus::kTooLarge;
  while (buffer->size() < *headers_end + body_len) {
    if (Expired(deadline)) return ReadStatus::kTimeout;
    const long n =
        ReadWithTimeout(fd, chunk, sizeof(chunk), RemainingMs(deadline));
    if (n == kIoError || n == 0) return ReadStatus::kError;
    if (n > 0) buffer->append(chunk, static_cast<size_t>(n));
  }
  return ReadStatus::kOk;
}

}  // namespace

bool HttpRequest::KeepAlive() const {
  const auto it = headers.find("connection");
  if (it == headers.end()) return true;  // HTTP/1.1 default
  return ToLower(it->second) != "close";
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

ReadStatus ReadHttpRequest(int fd, HttpRequest* out, std::string* leftover,
                           const HttpReadOptions& options) {
  std::string buffer = std::move(*leftover);
  leftover->clear();
  size_t headers_end = 0;
  size_t body_len = 0;
  const ReadStatus status =
      ReadMessage(fd, &buffer, &headers_end, options, &body_len);
  if (status != ReadStatus::kOk) return status;

  std::string request_line;
  out->headers.clear();
  if (!ParseHeaderBlock(std::string_view(buffer).substr(0, headers_end),
                        &request_line, &out->headers)) {
    return ReadStatus::kMalformed;
  }
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return ReadStatus::kMalformed;
  const std::string_view version =
      std::string_view(request_line).substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return ReadStatus::kMalformed;
  out->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t q = target.find('?');
  if (q == std::string::npos) {
    out->path = std::move(target);
    out->query.clear();
  } else {
    out->path = target.substr(0, q);
    out->query = target.substr(q + 1);
  }
  out->body = buffer.substr(headers_end, body_len);
  *leftover = buffer.substr(headers_end + body_len);
  return ReadStatus::kOk;
}

bool WriteHttpResponse(int fd, const HttpResponse& response, bool close,
                       int timeout_ms) {
  std::string out;
  out.reserve(response.body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += close ? "close" : "keep-alive";
  out += "\r\n";
  for (const auto& [key, value] : response.extra_headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return WriteAll(fd, out.data(), out.size(), timeout_ms);
}

HttpClient::HttpClient(const std::string& host, uint16_t port,
                       int timeout_ms)
    : fd_(ConnectTcp(host, port, timeout_ms)),
      host_(host),
      timeout_ms_(timeout_ms) {}

std::optional<HttpResponse> HttpClient::Request(
    const std::string& method, const std::string& path,
    const std::string& body, const std::string& content_type,
    const std::vector<std::pair<std::string, std::string>>&
        extra_headers) {
  if (!fd_.valid()) return std::nullopt;
  std::string out;
  out.reserve(body.size() + 192);
  out += method;
  out += ' ';
  out += path;
  out += " HTTP/1.1\r\nHost: ";
  out += host_;
  out += "\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  for (const auto& [key, value] : extra_headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  if (!WriteAll(fd_.get(), out.data(), out.size(), timeout_ms_)) {
    fd_.Reset();
    return std::nullopt;
  }

  std::string buffer = std::move(leftover_);
  leftover_.clear();
  HttpReadOptions options;
  options.timeout_ms = timeout_ms_;
  options.max_body = 64 << 20;
  size_t headers_end = 0;
  size_t body_len = 0;
  if (ReadMessage(fd_.get(), &buffer, &headers_end, options, &body_len) !=
      ReadStatus::kOk) {
    fd_.Reset();
    return std::nullopt;
  }
  std::string status_line;
  std::map<std::string, std::string> headers;
  if (!ParseHeaderBlock(std::string_view(buffer).substr(0, headers_end),
                        &status_line, &headers)) {
    fd_.Reset();
    return std::nullopt;
  }
  // "HTTP/1.1 200 OK"
  const size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    fd_.Reset();
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(status_line.c_str() + sp + 1);
  const auto ct = headers.find("content-type");
  if (ct != headers.end()) response.content_type = ct->second;
  for (auto& [key, value] : headers) {
    response.extra_headers.emplace_back(key, value);
  }
  response.body = buffer.substr(headers_end, body_len);
  leftover_ = buffer.substr(headers_end + body_len);
  const auto conn = headers.find("connection");
  if (conn != headers.end() && ToLower(conn->second) == "close") {
    fd_.Reset();
  }
  return response;
}

}  // namespace skyex::serve

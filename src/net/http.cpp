#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace kav::net {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

}  // namespace

std::string_view HttpRequest::header(std::string_view lowercase_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lowercase_name) return value;
  }
  return {};
}

bool HttpRequest::keep_alive() const {
  const std::string_view connection = header("connection");
  if (iequals(connection, "close")) return false;
  if (version == "HTTP/1.0") return iequals(connection, "keep-alive");
  return true;  // HTTP/1.1 default
}

std::string_view HttpRequest::path() const {
  const std::string_view t = target;
  const std::size_t q = t.find('?');
  return q == std::string_view::npos ? t : t.substr(0, q);
}

ParseResult parse_request(std::string_view input, HttpRequest& out,
                          std::size_t max_head_bytes) {
  const std::size_t head_end = input.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (max_head_bytes != 0 && input.size() > max_head_bytes) {
      return {ParseStatus::too_large, 0};
    }
    return {ParseStatus::need_more, 0};
  }
  if (max_head_bytes != 0 && head_end + 4 > max_head_bytes) {
    return {ParseStatus::too_large, 0};
  }

  out = HttpRequest{};
  const std::string_view head = input.substr(0, head_end);

  // Request line: METHOD SP TARGET SP VERSION
  std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return {ParseStatus::bad, 0};
  }
  out.method = std::string(request_line.substr(0, sp1));
  out.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version = std::string(trim(request_line.substr(sp2 + 1)));
  if (out.method.empty() || out.target.empty() ||
      (out.version != "HTTP/1.1" && out.version != "HTTP/1.0")) {
    return {ParseStatus::bad, 0};
  }

  // Header lines.
  std::size_t pos =
      line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return {ParseStatus::bad, 0};
    out.headers.emplace_back(to_lower(trim(line.substr(0, colon))),
                             std::string(trim(line.substr(colon + 1))));
  }

  // Read-only surface: refuse bodies outright rather than buffering
  // and discarding attacker-sized payloads. Every Content-Length must
  // read "0" (an empty one is malformed, and a later nonzero one would
  // hide a body behind the first), and any Transfer-Encoding declares
  // a body.
  for (const auto& [name, value] : out.headers) {
    if ((name == "content-length" && value != "0") ||
        name == "transfer-encoding") {
      return {ParseStatus::bad, 0};
    }
  }

  return {ParseStatus::ok, head_end + 4};
}

std::string render_response(int status, std::string_view content_type,
                            std::string_view body, bool keep_alive) {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason_phrase(status);
  out += "\r\n";
  if (!content_type.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

#if defined(__linux__)

HttpResponse http_get(const std::string& address, std::uint16_t port,
                      const std::string& target, int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("http_get: not an IPv4 address: " + address);
  }

  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("http_get: socket failed");

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    throw std::runtime_error("http_get: connect to " + address + ":" +
                             std::to_string(port) + " failed: " +
                             std::strerror(errno));
  }

  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: " + address +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close(fd);
      throw std::runtime_error("http_get: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string raw;
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      close(fd);
      throw std::runtime_error("http_get: read failed (timeout?)");
    }
    break;  // EOF: Connection: close means the server hangs up after
  }
  close(fd);

  // Minimal response parse: status line + blank line + body. We asked
  // for Connection: close, so EOF delimits the body regardless of
  // Content-Length.
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    throw std::runtime_error("http_get: malformed response");
  }
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > head_end) {
    throw std::runtime_error("http_get: malformed status line");
  }
  HttpResponse response;
  response.status = std::stoi(raw.substr(sp + 1, 3));
  response.body = raw.substr(head_end + 4);
  return response;
}

#else  // !defined(__linux__)

HttpResponse http_get(const std::string&, std::uint16_t, const std::string&,
                      int) {
  throw std::runtime_error("kav::net::http_get requires Linux");
}

#endif

}  // namespace kav::net

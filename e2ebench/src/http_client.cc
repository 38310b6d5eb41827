#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace e2e {
namespace {

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Case-insensitive search for a header's value in the response head.
bool HeaderValue(const std::string& head, const char* name, size_t* value) {
  const size_t len = std::strlen(name);
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t line = pos + 2;
    const size_t eol = head.find("\r\n", line);
    const size_t end = eol == std::string::npos ? head.size() : eol;
    if (end - line > len && head[line + len] == ':') {
      bool match = true;
      for (size_t i = 0; i < len; ++i) {
        if (std::tolower(static_cast<unsigned char>(head[line + i])) !=
            name[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        *value = std::strtoull(head.c_str() + line + len + 1, nullptr, 10);
        return true;
      }
    }
    pos = eol;
  }
  return false;
}

}  // namespace

HttpResult HttpCall(uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    result.error = "socket() failed";
    return result;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    result.error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return result;
  }
  std::string wire = method + " " + target + " HTTP/1.1\r\nhost: 127.0.0.1\r\n";
  if (!body.empty()) wire += "content-type: application/json\r\n";
  wire += "content-length: " + std::to_string(body.size()) +
          "\r\nconnection: close\r\n\r\n";
  wire += body;
  if (!SendAll(fd, wire)) {
    result.error = "send failed";
    ::close(fd);
    return result;
  }

  std::string raw;
  char buf[16384];
  size_t head_end = std::string::npos;
  size_t content_length = 0;
  bool has_length = false;
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
    if (head_end == std::string::npos) {
      head_end = raw.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        has_length = HeaderValue(raw.substr(0, head_end), "content-length",
                                 &content_length);
      }
    }
    if (head_end != std::string::npos && has_length &&
        raw.size() >= head_end + 4 + content_length) {
      break;
    }
  }
  ::close(fd);
  if (head_end == std::string::npos || raw.compare(0, 5, "HTTP/") != 0) {
    result.error = "malformed response";
    return result;
  }
  const size_t sp = raw.find(' ');
  result.status = std::atoi(raw.c_str() + sp + 1);
  result.body = raw.substr(head_end + 4);
  if (has_length && result.body.size() != content_length) {
    result.error = "truncated body";
    return result;
  }
  result.ok = true;
  return result;
}

std::string PercentEncode(const std::string& text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (const char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(ch);
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

}  // namespace e2e

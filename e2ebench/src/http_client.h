// The benchmark's own blocking loopback HTTP/1.1 client: one request per
// connection (the server closes after each response), timed from the
// first byte sent to the last response byte read.  Independent of the
// program's netsvc::HttpClient, so client-side changes in the program
// do not move the figures.
#ifndef E2EBENCH_HTTP_CLIENT_H_
#define E2EBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>

namespace e2e {

struct HttpResult {
  bool ok = false;        ///< transport succeeded and a response parsed
  int status = 0;         ///< HTTP status code
  std::string body;
  std::string error;      ///< transport failure description
};

/// Issues `method target` against 127.0.0.1:`port` and reads the whole
/// response.  `body` is sent as application/json when non-empty.
HttpResult HttpCall(uint16_t port, const std::string& method,
                    const std::string& target, const std::string& body);

/// Percent-encodes everything outside RFC 3986's unreserved set.
std::string PercentEncode(const std::string& text);

}  // namespace e2e

#endif  // E2EBENCH_HTTP_CLIENT_H_
